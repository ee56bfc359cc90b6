"""Consistent-hash ring over named nodes, with membership churn.

A :class:`HashRing` maps keys onto an arbitrary, *changing* set of
named nodes (remote workers joining and leaving a fabric).  Every node
contributes ``replicas`` virtual points, and a key routes to the first
point clockwise of its own hash, which gives two load-bearing
properties:

* **stability** — a key's owner never changes while the member set
  holds, so each worker's process-level memos (compiled table programs,
  per-layer weight tensors) stay warm for the keys it owns;
* **bounded movement** — adding or removing one node out of *n* remaps
  only ~1/n of the key space; every other key keeps its owner, and with
  it its warmth.  (Pinned by the hypothesis suite in
  ``tests/fabric/test_ring.py``.)

Node names are arbitrary strings (worker ids), and point labels are
``"<node>:<replica>"``.  :class:`repro.serve.ShardPool` places keys on
its fixed set of local executors with a ring whose nodes are
``"shard-0" .. "shard-{N-1}"`` — one routing implementation, two
scales.
"""

from __future__ import annotations

import bisect
import hashlib
from collections.abc import Iterable


def ring_hash(text: str) -> int:
    """Position of a label on the ring (first 8 bytes of SHA-256)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring mapping string keys to named nodes.

    Args:
        nodes: initial node names (order-insensitive; the ring is a
            pure function of the member *set*).
        replicas: virtual points per node; more replicas smooth the
            load split at a small ring-size cost.

    The ring is rebuilt on every membership change — O(n·replicas·log)
    per change, trivially cheap for fleet-sized n and far simpler to
    reason about than incremental point surgery.  All mutators are
    idempotent.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._hashes: list[int] = []
        self._owners: list[str] = []
        for node in nodes:
            self._nodes.add(str(node))
        self._rebuild()

    # -- membership ----------------------------------------------------

    def add(self, node: str) -> bool:
        """Add a node; ``True`` if it was new."""
        node = str(node)
        if node in self._nodes:
            return False
        self._nodes.add(node)
        self._rebuild()
        return True

    def remove(self, node: str) -> bool:
        """Remove a node; ``True`` if it was present."""
        node = str(node)
        if node not in self._nodes:
            return False
        self._nodes.discard(node)
        self._rebuild()
        return True

    @property
    def nodes(self) -> tuple[str, ...]:
        """Current members, sorted (the ring is set-determined)."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return str(node) in self._nodes

    # -- routing -------------------------------------------------------

    def route(self, key: str) -> str | None:
        """The node owning ``key``, or ``None`` on an empty ring.

        Deterministic across instances and across join/leave history:
        two rings holding the same member set route identically.
        """
        if not self._hashes:
            return None
        position = ring_hash(key)
        index = bisect.bisect_right(self._hashes, position)
        if index == len(self._hashes):
            index = 0  # wrap: past the last point means the first node
        return self._owners[index]

    def preference(self, key: str, limit: int | None = None) -> list[str]:
        """Distinct nodes in ring order starting at ``key``'s owner.

        This single order serves two fabric roles at once:

        * **failover sequence** — if the owner is unreachable, the next
          entries are where the key should land, and every caller agrees
          on the same order;
        * **replica placement** — under R-way replication the first R
          entries *are* the key's replica set: the front-end spills and
          retries within ``preference(key, R)``, and a worker pre-warms
          exactly the keys whose first R entries include it.  Because the
          order is consistent, replica sets also move minimally on
          membership churn (pinned by the hypothesis suite).

        Args:
            key: the routing key.
            limit: maximum nodes to return (default: all members).
        """
        if not self._hashes or (limit is not None and limit <= 0):
            return []
        want = len(self._nodes) if limit is None else min(limit, len(self._nodes))
        start = bisect.bisect_right(self._hashes, ring_hash(key))
        seen: list[str] = []
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in seen:
                seen.append(owner)
                if len(seen) >= want:
                    break
        return seen

    # -- internals -----------------------------------------------------

    def _rebuild(self) -> None:
        points = [
            (ring_hash(f"{node}:{replica}"), node)
            for node in self._nodes
            for replica in range(self.replicas)
        ]
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]
