"""Wire robustness of both line-server nodes: serve and fabric front-end.

Each malformed line gets exactly one ``ok: false`` reply, and the same
connection keeps answering afterwards; only an oversize line closes it.
The HMAC gate answers 401, counted in ``auth_rejected`` and not in
``errors``.  One node per type per module, both run with an auth secret.
"""

import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import FrontendConfig, FrontendHandle
from repro.fabric.auth import sign_message
from repro.serve import ServeConfig, ServerHandle
from repro.serve.protocol import MAX_LINE_BYTES, encode_message

SECRET = "wire-test-secret"


@pytest.fixture(scope="module", params=["server", "frontend"])
def node(request, tmp_path_factory):
    if request.param == "server":
        handle = ServerHandle(ServeConfig(
            port=0, workers=1, mode="thread", auth_secret=SECRET,
            cache_dir=str(tmp_path_factory.mktemp("wire-cache"))))
    else:
        handle = FrontendHandle(FrontendConfig(port=0, auth_secret=SECRET))
    with handle:
        yield handle


class Wire:
    """One raw TCP connection that sends bytes and reads reply lines."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def reply(self, raw: bytes) -> dict:
        """Send one line, read one reply line."""
        self.sock.sendall(raw + b"\n")
        return self.read()

    def read(self) -> dict:
        line = self.rfile.readline()
        assert line.endswith(b"\n"), f"connection closed instead of replying: {line!r}"
        return json.loads(line)

    def assert_alive(self) -> None:
        """A signed ping on this connection still answers."""
        ping = sign_message(SECRET, {"id": 4242, "endpoint": "ping",
                                     "kwargs": {"payload": "alive"}})
        response = self.reply(encode_message(ping).rstrip(b"\n"))
        assert response["ok"] is True and response["id"] == 4242
        assert response["value"] == {"pong": "alive"}


@pytest.fixture
def wire(node):
    conn = Wire(node.port)
    yield conn
    conn.close()


def _json(obj) -> bytes:
    return json.dumps(obj).encode()


#: (name, raw line, expected error substring, expected reply id).
MALFORMED = [
    ("bad-json", b'{"id": 1, "endpoint": ', "bad JSON", -1),
    ("invalid-utf8", b'{"id": 1, "endpoint": "\xff\xfe"}', "bad JSON", -1),
    ("non-object", b"[1, 2, 3]", "expected a JSON object", -1),
    ("missing-endpoint", _json({"id": 5, "kwargs": {}}), "missing 'endpoint'", 5),
    ("non-dict-kwargs", _json({"id": 6, "endpoint": "ping", "kwargs": [1]}),
     "'kwargs' must be an object", 6),
]

#: ``_stats`` keys the repo benchmark (``perfbench/serving.py``) reads
#: from each node type; a missing one fails the whole workload.
BENCHMARK_STATS_KEYS = {
    "server": ("hits", "misses", "coalesced", "errors", "batches"),
    "frontend": ("forwarded", "retries", "spills", "no_workers", "membership.evictions"),
}

UNAUTHENTICATED = [
    ("missing-auth", {"id": 7, "endpoint": "ping", "kwargs": {}}),
    ("wrong-auth", {"id": 8, "endpoint": "ping", "kwargs": {}, "auth": "0" * 64}),
    ("non-ascii-auth", {"id": 9, "endpoint": "ping", "kwargs": {}, "auth": "é" * 64}),
]


@pytest.mark.parametrize("raw,match,rid", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_line_gets_one_error_and_connection_survives(node, wire, raw, match, rid):
    before = node.stats()
    response = wire.reply(raw)
    assert response["ok"] is False and response["id"] == rid
    assert match in response["error"]
    after = node.stats()
    assert after["errors"] == before["errors"] + 1
    assert after["auth_rejected"] == before["auth_rejected"]
    wire.assert_alive()


@pytest.mark.parametrize("message", [case[1] for case in UNAUTHENTICATED],
                         ids=[case[0] for case in UNAUTHENTICATED])
def test_bad_auth_is_401_counted_as_auth_rejected(node, wire, message):
    before = node.stats()
    response = wire.reply(_json(message))
    assert response["ok"] is False and response["status"] == 401
    assert response["id"] == message["id"]
    assert "unauthenticated" in response["error"]
    after = node.stats()
    assert after["auth_rejected"] == before["auth_rejected"] + 1
    assert after["errors"] == before["errors"]
    wire.assert_alive()


def test_wire_stats_carry_the_benchmark_keys(node, wire):
    message = sign_message(SECRET, {"id": 11, "endpoint": "_stats", "kwargs": {}})
    response = wire.reply(encode_message(message).rstrip(b"\n"))
    assert response["ok"] is True
    kind = "frontend" if isinstance(node, FrontendHandle) else "server"
    for name in BENCHMARK_STATS_KEYS[kind]:
        value = response["value"]
        for part in name.split("."):
            value = value[part]
        assert isinstance(value, int), name


def test_oversize_line_gets_one_error_then_close(node, wire):
    try:
        wire.sock.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
    except OSError:
        pass  # the node may hang up before the tail of the line is sent
    response = wire.read()
    assert response == {"id": -1, "ok": False, "error": "request line too long"}
    assert wire.rfile.readline() == b""
    fresh = Wire(node.port)
    try:
        fresh.assert_alive()
    finally:
        fresh.close()


@settings(max_examples=25, deadline=None)
@given(raw=st.binary(max_size=256).map(lambda b: b.replace(b"\n", b"")))
def test_arbitrary_line_gets_one_error_and_connection_survives(node, raw):
    conn = Wire(node.port)
    try:
        response = conn.reply(raw)
        assert response["ok"] is False and isinstance(response["error"], str)
        conn.assert_alive()
    finally:
        conn.close()
