"""Consistent-hash gateway mesh: membership, routing, replication.

A **mesh** is a set of peer gateways that (a) partition routing keys
over a consistent-hash ring so clients send repeated content to the
member whose caches are warm for it, and (b) replicate warm
:class:`~repro.server.store.DiskArtifactStore` entries on demand — a
member that misses locally pulls the immutable, content-addressed entry
blob from a peer instead of re-synthesizing it.

Three pieces live here:

* :class:`HashRing` — the pure data structure.  Each node is hashed to
  ``vnodes`` positions on a 64-bit ring (:func:`repro.digest.digest_int`
  of ``"node#i"``); a key routes to the first node position at or after
  the key's own ring position.  Adding or removing one member therefore
  reshuffles only the key ranges adjacent to its virtual nodes —
  ~``1/N`` of the keyspace — where the fixed-list modulo hashing of
  :class:`~repro.server.client.RemoteWorkerBackend` reshuffles nearly
  everything.
* :class:`GatewayMesh` — a gateway's live membership view plus the
  peer-fetch client side.  Membership travels over additive ``WARPNET``
  verbs (``mesh-join`` / ``mesh-peers`` — no protocol version bump) and
  is deliberately simple: joins are explicit (``--peer`` / ``join_via``),
  a member that fails a fetch is dropped from the local view and
  re-admitted the next time it joins or is seen in a peer list.  Every
  membership change bumps ``ring_version`` so stale clients can detect
  they are behind.
* :class:`MeshBackend` — a drop-in ring-aware replacement for
  :class:`~repro.server.client.RemoteWorkerBackend`: routes each job by
  dedup-key ring position, marks submissions ``route="ring"`` (so a
  non-owner gateway forwards them onward instead of executing cold), and
  fails over by dropping a dead member from its ring — which re-routes
  only that member's key ranges.

Trust model: mesh peers are the same trust domain as a shared store
directory — entry blobs are pickles, so membership is explicit
configuration (``--peer``), never discovery.  Chaos sites
:data:`~repro.chaos.SITE_MESH_MEMBER` (contacting a member) and
:data:`~repro.chaos.SITE_PEER_FETCH` (one fetch attempt) fire inside
:meth:`GatewayMesh.fetch_blob`, and every injected failure degrades to
a local recompute — the chaos differential stays bit-identical.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from .. import chaos, obs
from ..digest import digest_int
from ..retry import DEFAULT_REMOTE_POLICY, RetryPolicy
from ..service.jobs import ServiceResult, WarpJob
from . import protocol
from .client import (Address, DEFAULT_TIMEOUT, GatewayClient,
                     RemoteWorkerBackend, _drop_pooled_client,
                     _pooled_client, parse_address)

#: Virtual nodes per member.  More vnodes smooth the partition (the
#: per-member share concentrates toward 1/N) at the cost of a longer
#: sorted-positions array; 64 keeps the imbalance under ~25% for small
#: meshes while lookups stay a single bisect.
DEFAULT_VNODES = 64

#: Timeout for mesh control traffic (join/peers/fetch): these are
#: in-memory lookups on the peer, not CAD computations, so a member that
#: cannot answer quickly is treated as down.
MESH_TIMEOUT = 30.0


def format_address(address: Address) -> str:
    """Canonical ``"host:port"`` string form of a member address."""
    host, port = parse_address(address)
    return f"{host}:{port}"


class HashRing:
    """A consistent-hash ring over string node names.

    Positions are the 64-bit content digests of ``"<node>#<i>"`` for
    ``i`` in ``range(vnodes)``; a key owned by node ``n`` stays with
    ``n`` when unrelated members come or go.  Not thread-safe by itself
    — callers that mutate concurrently (the mesh) hold their own lock.
    """

    def __init__(self, nodes: Sequence[str] = (),
                 vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._nodes: set = set()
        self._positions: List[Tuple[int, str]] = []
        self._keys: List[int] = []
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @property
    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def _rebuild(self) -> None:
        self._positions = sorted(
            (digest_int(f"{node}#{index}"), node)
            for node in self._nodes
            for index in range(self.vnodes))
        self._keys = [position for position, _ in self._positions]

    def add(self, node: str) -> bool:
        """Add a member; ``True`` if it was new."""
        if node in self._nodes:
            return False
        self._nodes.add(node)
        self._rebuild()
        return True

    def remove(self, node: str) -> bool:
        """Remove a member; ``True`` if it was present."""
        if node not in self._nodes:
            return False
        self._nodes.discard(node)
        self._rebuild()
        return True

    def node_for(self, key: str) -> Optional[str]:
        """The member owning ``key`` (``None`` on an empty ring)."""
        owners = self.nodes_for(key, 1)
        return owners[0] if owners else None

    def nodes_for(self, key: str, count: int) -> List[str]:
        """Up to ``count`` distinct members in ring order from ``key``'s
        position: the owner first, then its successors (the members a
        saturated owner spills to)."""
        total = len(self._positions)
        start = bisect.bisect_right(self._keys, digest_int(key))
        found: List[str] = []
        for offset in range(total):
            # Wrap: past the last vnode comes the first.
            node = self._positions[(start + offset) % total][1]
            if node not in found:
                found.append(node)
                if len(found) == count:
                    break
        return found


class GatewayMesh:
    """One gateway's membership view and peer-fetch client.

    Thread-safe: the gateway's concurrent batch executors (and the
    asyncio side via ``run_in_executor``) share one instance.  All
    counters are plain ints mirrored into ``warp_mesh_*`` metric
    families when telemetry is live.
    """

    def __init__(self, self_address: Address,
                 vnodes: int = DEFAULT_VNODES,
                 timeout: float = MESH_TIMEOUT):
        self.self_address = format_address(self_address)
        self.timeout = timeout
        self._lock = threading.Lock()
        self.ring = HashRing([self.self_address], vnodes=vnodes)
        self.ring_version = 1
        self.joins = 0
        self.member_drops = 0
        self.peer_fetch_hits = 0
        self.peer_fetch_misses = 0
        self.peer_fetch_failures = 0
        self._set_member_gauges_locked()

    # ------------------------------------------------------------- membership
    def _set_member_gauges_locked(self) -> None:
        if obs.ACTIVE is not None:
            obs.set_gauge("warp_mesh_members", float(len(self.ring)),
                          help_text="Gateway mesh members in the local "
                                    "ring view (including self).")
            obs.set_gauge("warp_mesh_ring_version",
                          float(self.ring_version),
                          help_text="Local mesh ring version (bumps on "
                                    "every membership change).")

    def add_member(self, address: Address) -> bool:
        """Admit a member into the local ring view (idempotent)."""
        member = format_address(address)
        with self._lock:
            added = self.ring.add(member)
            if added:
                self.ring_version += 1
                self.joins += 1
                self._set_member_gauges_locked()
        if added and obs.ACTIVE is not None:
            obs.inc("warp_mesh_joins_total",
                    help_text="Mesh members admitted into the local "
                              "ring view.")
        return added

    def drop_member(self, address: Address) -> bool:
        """Remove a member from the local view (it rejoins explicitly)."""
        member = format_address(address)
        if member == self.self_address:
            return False
        with self._lock:
            dropped = self.ring.remove(member)
            if dropped:
                self.ring_version += 1
                self.member_drops += 1
                self._set_member_gauges_locked()
        if dropped:
            if obs.ACTIVE is not None:
                obs.inc("warp_mesh_member_drops_total",
                        help_text="Mesh members dropped from the local "
                                  "ring view after a failure.")
        return dropped

    def handle_join(self, address: str) -> Dict:
        """Server side of ``mesh-join``: admit the caller, return our
        membership so it can merge."""
        self.add_member(address)
        return self.members()

    def absorb(self, members: Sequence[str]) -> None:
        """Merge a peer's member list into the local view (additive:
        members we dropped stay dropped until they rejoin *us*)."""
        for member in members:
            if member != self.self_address:
                self.add_member(member)

    def join_via(self, peer: Address) -> Dict:
        """Join the mesh through ``peer``: announce ourselves, then merge
        the membership it returns.  Raises on a dead peer — a bad
        ``--peer`` flag should fail loudly at startup, not silently
        leave the gateway meshless."""
        with GatewayClient(peer, timeout=self.timeout) as client:
            reply = client.mesh_join(self.self_address)
        self.add_member(peer)
        self.absorb(reply.get("members", ()))
        return reply

    def members(self) -> Dict:
        """The additive ``mesh`` info block for status/metrics replies."""
        with self._lock:
            return {
                "self": self.self_address,
                "members": list(self.ring.nodes),
                "ring_version": self.ring_version,
                "joins": self.joins,
                "member_drops": self.member_drops,
                "peer_fetch_hits": self.peer_fetch_hits,
                "peer_fetch_misses": self.peer_fetch_misses,
                "peer_fetch_failures": self.peer_fetch_failures,
            }

    # ------------------------------------------------------------- peer fetch
    def _fetch_candidates(self, ring_key: str) -> List[str]:
        """Peers to ask for an entry, ring owner first: the owner is the
        member whose caches the mesh keeps warm for this key, so it is
        the most likely holder; the rest are fallbacks."""
        with self._lock:
            peers = [node for node in self.ring.nodes
                     if node != self.self_address]
            if not peers:
                return []
            owner = self.ring.node_for(ring_key)
        if owner in peers:
            peers.remove(owner)
            peers.insert(0, owner)
        return peers

    def _count_fetch(self, outcome: str) -> None:
        if obs.ACTIVE is not None:
            obs.inc("warp_mesh_peer_fetches_total", result=outcome,
                    help_text="Mesh peer store-entry fetch attempts by "
                              "outcome.")

    def fetch_blob(self, stage: str, key: str) -> Optional[bytes]:
        """The store's ``peer_fetcher``: pull one raw entry blob from the
        mesh, or ``None`` — every failure (chaos-injected or real)
        degrades to a miss, and a member that cannot be reached is
        dropped from the local ring view."""
        label = f"{stage}-{key}"
        for member in self._fetch_candidates(label):
            if chaos.ACTIVE_PLAN is not None:
                try:
                    chaos.fire(chaos.SITE_MESH_MEMBER, label=member)
                except ConnectionResetError:
                    # An injected member failure: drop it, try the next.
                    with self._lock:
                        self.peer_fetch_failures += 1
                    self._count_fetch("error")
                    self.drop_member(member)
                    continue
            try:
                if chaos.ACTIVE_PLAN is not None:
                    chaos.fire(chaos.SITE_PEER_FETCH, label=label)
                with _pooled_client(parse_address(member),
                                    self.timeout) as client:
                    blob = client.mesh_fetch(stage, key)
            except chaos.ChaosError:
                with self._lock:
                    self.peer_fetch_failures += 1
                self._count_fetch("error")
                continue
            except (protocol.ProtocolError, TimeoutError,
                    ConnectionError, OSError, EOFError):
                _drop_pooled_client(parse_address(member))
                with self._lock:
                    self.peer_fetch_failures += 1
                self._count_fetch("error")
                self.drop_member(member)
                continue
            if blob is not None:
                with self._lock:
                    self.peer_fetch_hits += 1
                self._count_fetch("hit")
                return blob
            with self._lock:
                self.peer_fetch_misses += 1
            self._count_fetch("miss")
        return None


class MeshBackend(RemoteWorkerBackend):
    """Ring-aware remote worker backend.

    Same contract as :class:`~repro.server.client.RemoteWorkerBackend`
    (picklable ``worker_fn``, pooled connections, bounded retries) but
    jobs route by consistent-hash ring position of their dedup key, so
    membership changes re-route only ~``1/N`` of content — and
    submissions carry ``route="ring"`` so a gateway that is *not* the
    owner under its (possibly newer) ring forwards the batch onward
    rather than executing it against cold caches.

    Failover: a connection-level failure drops the dead member from the
    backend's ring (``_note_failure``), and the retry loop re-routes the
    job to the next owner.  :meth:`refresh_membership` re-synchronizes
    the ring with a live gateway's view (``mesh-peers``).
    """

    def __init__(self, addresses: Sequence[Address],
                 vnodes: int = DEFAULT_VNODES,
                 timeout: float = DEFAULT_TIMEOUT,
                 retry: RetryPolicy = DEFAULT_REMOTE_POLICY,
                 client_id: Optional[str] = None):
        super().__init__(addresses, timeout=timeout, retry=retry)
        self.vnodes = vnodes
        self.client_id = client_id
        self._ring_lock = threading.Lock()
        self._ring = HashRing(
            [format_address(address) for address in self.addresses],
            vnodes=vnodes)

    def address_for(self, job: WarpJob) -> Tuple[str, int]:
        with self._ring_lock:
            member = self._ring.node_for(repr(job.dedup_key()))
        if member is None:      # every member dropped: fall back to the
            member = format_address(self.addresses[0])  # configured list
        return parse_address(member)

    def _note_failure(self, address: Tuple[str, int]) -> None:
        member = format_address(address)
        with self._ring_lock:
            if len(self._ring) > 1:
                self._ring.remove(member)

    def refresh_membership(self, via: Optional[Address] = None) -> Dict:
        """Re-sync the routing ring from a gateway's ``mesh-peers`` view
        (``via`` defaults to the first configured address)."""
        target = parse_address(via) if via is not None else self.addresses[0]
        with _pooled_client(target, self.timeout) as client:
            reply = client.mesh_peers()
        members = reply.get("members") or [format_address(target)]
        with self._ring_lock:
            self._ring = HashRing(members, vnodes=self.vnodes)
        return reply

    def _submit_once(self, address: Tuple[str, int],
                     job: WarpJob) -> ServiceResult:
        with _pooled_client(address, self.timeout) as client:
            report = client.submit([job], wait=True,
                                   client_id=self.client_id, route="ring")
        if not report.results:
            raise protocol.ProtocolError("gateway returned an empty report")
        return report.results[0]

    def ring_members(self) -> Tuple[str, ...]:
        with self._ring_lock:
            return self._ring.nodes

    # Pickled like the base backend: the ring is rebuilt from the
    # configured addresses in the worker process.
    def __getstate__(self) -> Dict:
        state = super().__getstate__()
        state["vnodes"] = self.vnodes
        state["client_id"] = self.client_id
        return state

    def __setstate__(self, state: Dict) -> None:
        super().__setstate__(state)
        self.vnodes = state.get("vnodes", DEFAULT_VNODES)
        self.client_id = state.get("client_id")
        self._ring_lock = threading.Lock()
        self._ring = HashRing(
            [format_address(address) for address in self.addresses],
            vnodes=self.vnodes)
