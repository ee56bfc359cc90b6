"""Tests for fabric HMAC signing and priority normalization."""

import http.client

import pytest

from repro.fabric import auth


class TestMessageAuth:
    def test_sign_then_verify(self):
        message = {"id": 3, "endpoint": "runtime_point", "kwargs": {"density": 0.5}}
        auth.sign_message("secret", message)
        assert "auth" in message
        assert auth.verify_message("secret", message)

    def test_open_fleet_signs_nothing(self):
        message = {"id": 1, "endpoint": "ping", "kwargs": {}}
        assert auth.sign_message(None, message) is message
        assert "auth" not in message

    def test_wrong_secret_rejected(self):
        message = auth.sign_message("secret", {"endpoint": "ping", "kwargs": {}})
        assert not auth.verify_message("other", message)

    @pytest.mark.parametrize("field,value", [
        ("endpoint", "simulate"),
        ("kwargs", {"density": 0.6}),
        ("priority", "high"),
    ])
    def test_tampering_invalidates(self, field, value):
        message = auth.sign_message("secret", {
            "endpoint": "runtime_point", "kwargs": {"density": 0.5},
            "priority": "low"})
        message[field] = value
        assert not auth.verify_message("secret", message)

    def test_id_not_covered(self):
        """Request ids are connection-local; re-numbering must not break auth."""
        message = auth.sign_message("secret", {"id": 1, "endpoint": "ping", "kwargs": {}})
        message["id"] = 999
        assert auth.verify_message("secret", message)

    def test_missing_or_malformed_auth_field(self):
        assert not auth.verify_message("secret", {"endpoint": "ping", "kwargs": {}})
        assert not auth.verify_message("secret", {"endpoint": "ping", "auth": 42})
        assert not auth.verify_message("secret", {"endpoint": "ping", "auth": ["x"]})

    @pytest.mark.parametrize("signature", ["\u00e9", "a" * 63 + "\u00e9", "\u2603" * 64],
                             ids=["one-char", "ascii-prefix", "full-length"])
    def test_non_ascii_signature_is_a_bad_signature(self, signature):
        """hmac.compare_digest raises on non-ASCII str; that must read as False."""
        message = {"endpoint": "ping", "kwargs": {}, "auth": signature}
        assert auth.verify_message("secret", message) is False

    def test_default_and_explicit_priority_agree(self):
        """Omitting priority and sending "normal" must verify identically."""
        implicit = auth.message_signature("s", "e", {"a": 1})
        explicit = auth.message_signature("s", "e", {"a": 1}, priority="normal")
        assert implicit == explicit

    def test_kwarg_order_irrelevant(self):
        assert (auth.message_signature("s", "e", {"a": 1, "b": 2})
                == auth.message_signature("s", "e", {"b": 2, "a": 1}))


class TestHTTPAuth:
    def test_roundtrip(self):
        header = auth.http_auth_header("secret", "PUT", "/cache/ab", b"blob")
        assert header.startswith(auth.HTTP_SCHEME + " ")
        assert auth.verify_http("secret", "PUT", "/cache/ab", b"blob", header)

    @pytest.mark.parametrize("method,path,body", [
        ("GET", "/cache/ab", b"blob"),     # verb swapped
        ("PUT", "/cache/cd", b"blob"),     # re-pointed at another key
        ("PUT", "/cache/ab", b"evil"),     # body swapped
    ])
    def test_binding(self, method, path, body):
        header = auth.http_auth_header("secret", "PUT", "/cache/ab", b"blob")
        assert not auth.verify_http("secret", method, path, body, header)

    def test_missing_or_bad_scheme(self):
        assert not auth.verify_http("secret", "GET", "/", b"", None)
        assert not auth.verify_http("secret", "GET", "/", b"", "")
        assert not auth.verify_http("secret", "GET", "/", b"", "Bearer abc")
        assert not auth.verify_http("secret", "GET", "/", b"", auth.HTTP_SCHEME)

    def test_non_ascii_signature_is_a_bad_signature(self):
        header = f"{auth.HTTP_SCHEME} \u00e9"
        assert auth.verify_http("secret", "GET", "/stats", b"", header) is False

    def test_cache_peer_answers_non_ascii_signature_with_401(self, tmp_path):
        from repro.runtime.peer import CachePeer

        with CachePeer(root=tmp_path / "peer", secret="secret") as peer:
            conn = http.client.HTTPConnection("127.0.0.1", peer.port, timeout=10)
            try:
                # http.client sends header values as latin-1; the peer
                # decodes them back to the non-ASCII str "\u00e9".
                conn.request("GET", "/stats",
                             headers={"Authorization": f"{auth.HTTP_SCHEME} \u00e9"})
                status = conn.getresponse().status
            finally:
                conn.close()
            assert status == 401
            assert peer.stats_payload()["auth_rejected"] == 1


class TestPriorities:
    def test_normalize(self):
        assert auth.normalize_priority(None) == "normal"
        for p in auth.PRIORITIES:
            assert auth.normalize_priority(p) == p

    def test_typo_is_an_error_not_best_effort(self):
        with pytest.raises(ValueError):
            auth.normalize_priority("hihg")

    def test_default_secret_ignores_empty(self, monkeypatch):
        monkeypatch.setenv(auth.SECRET_ENV, "")
        assert auth.default_secret() is None
        monkeypatch.setenv(auth.SECRET_ENV, "hunter2")
        assert auth.default_secret() == "hunter2"
        monkeypatch.delenv(auth.SECRET_ENV)
        assert auth.default_secret() is None
