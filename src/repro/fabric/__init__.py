"""Multi-node serving fabric: front-end, workers, membership, admission.

``repro.fabric`` promotes the single-process serving abstractions to
the network: a **front-end** (:class:`Frontend`) routes requests over a
consistent-hash ring of **workers** (:class:`WorkerNode` — each a full
:mod:`repro.serve` server with its own engine and tiered cache), with
**membership** (join/heartbeat/evict, :class:`Membership`),
**admission control** (per-priority shedding under overload,
:class:`AdmissionController`), and **shared-secret HMAC auth**
(:mod:`repro.fabric.auth`) on every fabric and cache-peer surface.

The pieces (each its own module):

* :mod:`repro.fabric.ring` — the consistent-hash ring (it also places
  keys on the local shards of :class:`~repro.serve.ShardPool`);
* :mod:`repro.fabric.auth` — HMAC signing/verification, priorities;
* :mod:`repro.fabric.admission` — token buckets + queue-depth ladder;
* :mod:`repro.fabric.membership` — worker registry, heartbeats, ring
  rebalancing;
* :mod:`repro.fabric.frontend` — the routing front-end node (R-way
  replicated routing with load spill and idempotence-aware failover);
* :mod:`repro.fabric.worker` — the serve-process-with-membership-agent
  (heartbeats with jitter, replica pre-warm);
* :mod:`repro.fabric.tls` — optional fleet TLS (:class:`TLSConfig`)
  layered under the HMAC auth on every socket;
* :mod:`repro.fabric.chaos` — fault-injection primitives and the
  scripted kill/restart drill CI gates on.

CLI surface: ``repro frontend``, ``repro worker --join HOST:PORT``,
and ``repro frontend-status HOST:PORT``; topology and failure paths in
``docs/architecture.md``, wire format in ``docs/api.md``.

The heavy node classes (``Frontend``/``FrontendHandle``/``WorkerNode``)
are exported lazily: they pull in :mod:`repro.serve` (and with it the
runtime), while :mod:`repro.runtime.tiers` itself imports
:mod:`repro.fabric.auth` — eager imports here would close that loop.
"""

from repro.fabric.admission import AdmissionController, AdmissionDecision, TokenBucket
from repro.fabric.auth import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    SECRET_ENV,
    default_secret,
    normalize_priority,
    sign_message,
    verify_message,
)
from repro.fabric.membership import Membership, WorkerInfo
from repro.fabric.ring import HashRing, ring_hash
from repro.fabric.tls import TLSConfig, default_tls

_LAZY = {
    "Frontend": "repro.fabric.frontend",
    "FrontendConfig": "repro.fabric.frontend",
    "FrontendHandle": "repro.fabric.frontend",
    "FrontendStats": "repro.fabric.frontend",
    "WorkerNode": "repro.fabric.worker",
    "ChaosCluster": "repro.fabric.chaos",
    "DrillReport": "repro.fabric.chaos",
    "run_drill": "repro.fabric.chaos",
}

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ChaosCluster",
    "DEFAULT_PRIORITY",
    "DrillReport",
    "Frontend",
    "FrontendConfig",
    "FrontendHandle",
    "FrontendStats",
    "HashRing",
    "Membership",
    "PRIORITIES",
    "SECRET_ENV",
    "TLSConfig",
    "TokenBucket",
    "WorkerInfo",
    "WorkerNode",
    "default_secret",
    "default_tls",
    "normalize_priority",
    "ring_hash",
    "run_drill",
    "sign_message",
    "verify_message",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(__all__)
