"""TLS tests: handshake-level rejection on every fabric socket.

The committed fixtures under ``tests/certs/`` (see ``make_certs.sh``
there) carry two disjoint CAs: ``ca.pem`` signs ``node.pem`` (the
fleet identity) and ``rogue-ca.pem`` signs ``rogue.pem`` (an attacker
with a *valid-looking* certificate from the wrong authority).  The
claims pinned here:

* a TLS fleet (front-end + worker + client on one CA) works end to
  end, and HMAC still applies underneath;
* a client presenting the rogue identity dies in the TLS handshake —
  before HMAC runs, so ``auth_rejected`` never moves;
* a plaintext client cannot talk to a TLS socket;
* the cache peer enforces the same boundary over HTTPS.
"""

import ssl
from pathlib import Path

import pytest

from repro.fabric import FrontendConfig, FrontendHandle, WorkerNode
from repro.fabric.tls import TLSConfig, TLSConfigError, from_env
from repro.runtime.peer import CachePeer
from repro.runtime.tiers import HTTPPeerTier, TierUnavailable
from repro.serve import ServeClient, ServeConfig

CERTS = Path(__file__).resolve().parents[1] / "certs"
SECRET = "tls-test-secret"

FLEET_TLS = TLSConfig(certfile=str(CERTS / "node.pem"),
                      keyfile=str(CERTS / "node.key"),
                      cafile=str(CERTS / "ca.pem"))
ROGUE_TLS = TLSConfig(certfile=str(CERTS / "rogue.pem"),
                      keyfile=str(CERTS / "rogue.key"),
                      cafile=str(CERTS / "rogue-ca.pem"))

#: What a refused handshake surfaces as, depending on which side drops
#: first (SSLError from the alert, ConnectionError/OSError on a reset).
HANDSHAKE_ERRORS = (ssl.SSLError, ConnectionError, OSError)


class TestTLSConfig:
    def test_server_context_requires_cert_and_key(self):
        with pytest.raises(TLSConfigError, match="tls-cert"):
            TLSConfig(cafile=str(CERTS / "ca.pem")).server_context()

    def test_client_context_requires_ca(self):
        with pytest.raises(TLSConfigError, match="tls-ca"):
            TLSConfig(certfile=str(CERTS / "node.pem"),
                      keyfile=str(CERTS / "node.key")).client_context()

    def test_enabled_only_with_material(self):
        assert not TLSConfig().enabled
        assert TLSConfig(cafile="x").enabled

    def test_from_env_reads_the_fabric_variables(self):
        env = {"REPRO_FABRIC_TLS_CERT": "c.pem", "REPRO_FABRIC_TLS_KEY": "k.pem",
               "REPRO_FABRIC_TLS_CA": "ca.pem",
               "REPRO_FABRIC_TLS_CHECK_HOSTNAME": "1"}
        tls = from_env(env)
        assert tls == TLSConfig("c.pem", "k.pem", "ca.pem", check_hostname=True)
        assert from_env({}) is None

    def test_mutual_contexts_are_well_formed(self):
        server = FLEET_TLS.server_context()
        assert server.verify_mode == ssl.CERT_REQUIRED  # mutual TLS
        client = FLEET_TLS.client_context()
        assert client.verify_mode == ssl.CERT_REQUIRED
        assert not client.check_hostname


@pytest.fixture
def tls_cluster(tmp_path):
    """1 TLS front-end + 1 TLS worker sharing cert, CA, and secret."""
    fe = FrontendHandle(FrontendConfig(
        port=0, heartbeat_timeout=5.0, auth_secret=SECRET,
        tls=FLEET_TLS)).start()
    worker = WorkerNode(
        ServeConfig(port=0, workers=2, mode="thread",
                    cache_dir=str(tmp_path / "cache"), auth_secret=SECRET,
                    tls=FLEET_TLS),
        "127.0.0.1", fe.port, worker_id="tls-w0")
    worker.start()
    try:
        yield fe, worker
    finally:
        worker.stop()
        fe.stop()


class TestFleetTLS:
    def test_tls_fleet_serves_end_to_end(self, tls_cluster):
        """Join, heartbeat, forward, and reply all ride TLS sockets."""
        fe, worker = tls_cluster
        with ServeClient("127.0.0.1", fe.port, secret=SECRET,
                         tls=FLEET_TLS) as client:
            response = client.send("runtime_point", dict(
                network="lenet", layer_index=0, group_size=2,
                density=0.5, num_unique=17))
        assert response.ok and response.worker == "tls-w0"

    def test_wrong_ca_client_dies_in_the_handshake(self, tls_cluster):
        """The rogue identity is refused before HMAC ever runs: the
        connection never yields a request, so auth_rejected is
        untouched."""
        fe, _ = tls_cluster
        before = fe.stats()["auth_rejected"]
        with pytest.raises(HANDSHAKE_ERRORS):
            ServeClient("127.0.0.1", fe.port, timeout=5.0, secret=SECRET,
                        tls=ROGUE_TLS)
        assert fe.stats()["auth_rejected"] == before == 0

    def test_plaintext_client_cannot_reach_a_tls_frontend(self, tls_cluster):
        fe, _ = tls_cluster
        with pytest.raises(HANDSHAKE_ERRORS):
            with ServeClient("127.0.0.1", fe.port, timeout=5.0,
                             secret=SECRET) as client:
                client.send("ping", {})

    def test_hmac_still_gates_under_tls(self, tls_cluster):
        """TLS is transport, not authorization: a fleet-certified client
        with the wrong shared secret still bounces off HMAC."""
        fe, _ = tls_cluster
        with ServeClient("127.0.0.1", fe.port, secret="wrong",
                         tls=FLEET_TLS) as client:
            response = client.send("runtime_point", dict(network="lenet"))
        assert not response.ok and response.status == 401
        assert fe.stats()["auth_rejected"] == 1

    def test_worker_socket_speaks_tls_too(self, tls_cluster):
        """Dialing the worker directly (around the front-end) meets the
        same handshake wall."""
        _, worker = tls_cluster
        with pytest.raises(HANDSHAKE_ERRORS):
            ServeClient("127.0.0.1", worker.port, timeout=5.0, secret=SECRET,
                        tls=ROGUE_TLS)
        with ServeClient("127.0.0.1", worker.port, secret=SECRET,
                         tls=FLEET_TLS) as client:
            assert client.send("ping", {"payload": 1}).value == {"pong": 1}


class TestCachePeerTLS:
    def test_https_roundtrip_and_rogue_rejection(self, tmp_path):
        key = "ab" * 32  # peer keys are content-addressed sha256 hex
        with CachePeer(root=tmp_path / "peer", port=0, secret=SECRET,
                       tls=FLEET_TLS) as peer:
            assert peer.url.startswith("https://")
            tier = HTTPPeerTier(peer.url, secret=SECRET, tls=FLEET_TLS)
            assert tier.put_blob(key, b"blob-bytes")
            assert tier.get_blob(key) == b"blob-bytes"
            # Rogue CA: every operation fails closed (the tier treats a
            # failed handshake as tier-unavailable — loudly, never as a
            # clean miss that could poison the cache).
            rogue = HTTPPeerTier(peer.url, secret=SECRET, tls=ROGUE_TLS)
            assert rogue.put_blob("cd" * 32, b"x") is False
            with pytest.raises(TierUnavailable):
                rogue.get_blob(key)
            assert peer.stats_payload()["auth_rejected"] == 0
