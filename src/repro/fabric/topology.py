"""Composed multi-switch topologies: leaf-spine, fat-tree, and ECMP.

A :class:`TopologySpec` generalizes the fabric's single implicit switch
into an explicit graph: named switches, host attachment links, and
bidirectional switch↔switch links.  It is a frozen dataclass of
primitives, so it rides :class:`~repro.fabric.spec.FabricSpec` through
:func:`repro.exp.spec.describe` and content-hashes into experiment
cache keys exactly like the :class:`~repro.qos.QosSpec` does — and like
``qos``, the field is omitted at its ``None`` default so legacy specs
keep byte-identical keys and golden digests.

Routing is shortest-path with deterministic ECMP: a
:class:`TopologyRouter` BFS-labels the graph per destination switch and,
where several neighbors are equally close, picks the next hop with a
keyed blake2b draw over the flow tuple — byte-for-byte the decision
recipe of :meth:`repro.faults.FaultPlan.uniform` and
:func:`repro.qos.red.red_decide`, so path selection is reproducible
and independent of event interleaving.  The same hash shards the
:class:`~repro.fabric.flowtable.FlowTable`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "TopologySpec",
    "TopologyRouter",
    "ecmp_hash",
]


def ecmp_hash(seed: int, flow: str, src: int, dst: int, index: int = 0) -> int:
    """Deterministic 64-bit draw for one flow-tuple decision.

    The keyed blake2b recipe of :func:`repro.qos.red.keyed_uniform` /
    :meth:`repro.faults.FaultPlan.uniform`: a digest over
    ``"{seed}:{axis}:{index}"`` where the axis names the flow tuple and
    ``index`` counts that tuple's decisions (hop number for routing).
    Interleaving-independent by construction — the draw depends only on
    the spec-level identity of the decision, never on event order.
    """
    digest = hashlib.blake2b(
        f"{seed}:ecmp:{flow}:{src}:{dst}:{index}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class TopologySpec:
    """An explicit switch graph for the fabric wire.

    * ``switches`` — unique switch names (the graph's vertices).
    * ``host_links`` — ``(endpoint, switch)`` access links; every fabric
      endpoint must appear exactly once (checked against ``nics`` by
      :class:`~repro.fabric.spec.FabricSpec`).
    * ``switch_links`` — bidirectional switch↔switch links.
    * ``ecmp_seed`` — salts the keyed ECMP draws (and the flow-table
      shard hash) so two topologically identical fabrics can still make
      independent path choices.
    * ``flow_shards`` — shard count of the run's
      :class:`~repro.fabric.flowtable.FlowTable`.
    """

    switches: Tuple[str, ...] = ()
    host_links: Tuple[Tuple[int, str], ...] = ()
    switch_links: Tuple[Tuple[str, str], ...] = ()
    ecmp_seed: int = 0
    flow_shards: int = 8

    def __post_init__(self) -> None:
        if not self.switches:
            raise ValueError("topology needs at least one switch")
        if len(set(self.switches)) != len(self.switches):
            raise ValueError(f"switch names must be unique, got {self.switches}")
        known = set(self.switches)
        seen_endpoints = set()
        for endpoint, switch in self.host_links:
            if switch not in known:
                raise ValueError(
                    f"host link ({endpoint}, {switch!r}) references an "
                    f"unknown switch (have {sorted(known)})"
                )
            if endpoint < 0:
                raise ValueError(f"negative endpoint index {endpoint}")
            if endpoint in seen_endpoints:
                raise ValueError(f"endpoint {endpoint} attached twice")
            seen_endpoints.add(endpoint)
        if not seen_endpoints:
            raise ValueError("topology attaches no endpoints")
        seen_links = set()
        for a, b in self.switch_links:
            if a not in known or b not in known:
                raise ValueError(
                    f"switch link ({a!r}, {b!r}) references an unknown "
                    f"switch (have {sorted(known)})"
                )
            if a == b:
                raise ValueError(f"switch {a!r} linked to itself")
            pair = (a, b) if a <= b else (b, a)
            if pair in seen_links:
                raise ValueError(f"duplicate switch link {pair}")
            seen_links.add(pair)
        if self.flow_shards < 1:
            raise ValueError("flow_shards must be >= 1")
        self._check_connected()

    def _check_connected(self) -> None:
        """Every switch must be reachable from the first (a partitioned
        graph would leave some flow with no route)."""
        adjacency = self.adjacency()
        seen = {self.switches[0]}
        frontier = deque(seen)
        while frontier:
            at = frontier.popleft()
            for neighbor in adjacency[at]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        unreachable = set(self.switches) - seen
        if unreachable:
            raise ValueError(
                f"topology is partitioned: {sorted(unreachable)} "
                f"unreachable from {self.switches[0]!r}"
            )

    # ------------------------------------------------------------------
    def endpoints(self) -> Tuple[int, ...]:
        """Attached endpoint indices, sorted."""
        return tuple(sorted(endpoint for endpoint, _ in self.host_links))

    def switch_of(self, endpoint: int) -> str:
        for index, switch in self.host_links:
            if index == endpoint:
                return switch
        raise KeyError(f"endpoint {endpoint} not attached to the topology")

    def adjacency(self) -> Dict[str, Tuple[str, ...]]:
        """Switch → sorted neighbor tuple (sorted so the ECMP candidate
        order — and therefore every keyed path draw — is a pure function
        of the spec, not of link declaration order)."""
        neighbors: Dict[str, List[str]] = {name: [] for name in self.switches}
        for a, b in self.switch_links:
            neighbors[a].append(b)
            neighbors[b].append(a)
        return {name: tuple(sorted(links)) for name, links in neighbors.items()}

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @staticmethod
    def leaf_spine(
        racks: int = 2,
        hosts_per_rack: int = 2,
        spines: int = 1,
        ecmp_seed: int = 0,
        flow_shards: int = 8,
    ) -> "TopologySpec":
        """A two-tier leaf-spine: ``racks`` leaves, each attaching
        ``hosts_per_rack`` consecutive endpoints, fully meshed to
        ``spines`` spines.  Host *i* lives on ``leaf{i // hosts_per_rack}``;
        cross-rack paths are leaf → spine → leaf with ``spines``-way ECMP.
        """
        if racks < 1 or hosts_per_rack < 1 or spines < 1:
            raise ValueError("leaf_spine needs racks, hosts, spines >= 1")
        leaves = tuple(f"leaf{r}" for r in range(racks))
        spine_names = tuple(f"spine{s}" for s in range(spines))
        host_links = tuple(
            (r * hosts_per_rack + h, f"leaf{r}")
            for r in range(racks)
            for h in range(hosts_per_rack)
        )
        switch_links = tuple(
            (leaf, spine) for leaf in leaves for spine in spine_names
        )
        return TopologySpec(
            switches=leaves + spine_names,
            host_links=host_links,
            switch_links=switch_links,
            ecmp_seed=ecmp_seed,
            flow_shards=flow_shards,
        )

    @staticmethod
    def fat_tree(
        k: int = 4, ecmp_seed: int = 0, flow_shards: int = 8
    ) -> "TopologySpec":
        """The canonical k-ary fat-tree (k even): k pods of k/2 edge and
        k/2 aggregation switches, (k/2)² cores, k³/4 hosts.  Edge *e* of
        pod *p* attaches hosts ``p·(k/2)² + e·(k/2) + [0, k/2)``;
        aggregation switch *a* of every pod uplinks to core group *a*.
        """
        if k < 2 or k % 2:
            raise ValueError("fat_tree needs an even k >= 2")
        half = k // 2
        switches: List[str] = []
        host_links: List[Tuple[int, str]] = []
        switch_links: List[Tuple[str, str]] = []
        for p in range(k):
            for e in range(half):
                edge = f"edge{p}_{e}"
                switches.append(edge)
                for s in range(half):
                    host_links.append((p * half * half + e * half + s, edge))
            for a in range(half):
                switches.append(f"agg{p}_{a}")
        for g in range(half):
            for c in range(half):
                switches.append(f"core{g}_{c}")
        for p in range(k):
            for e in range(half):
                for a in range(half):
                    switch_links.append((f"edge{p}_{e}", f"agg{p}_{a}"))
            for a in range(half):
                for c in range(half):
                    switch_links.append((f"agg{p}_{a}", f"core{a}_{c}"))
        return TopologySpec(
            switches=tuple(switches),
            host_links=tuple(host_links),
            switch_links=tuple(switch_links),
            ecmp_seed=ecmp_seed,
            flow_shards=flow_shards,
        )


class TopologyRouter:
    """Shortest-path ECMP routing over one :class:`TopologySpec`.

    Holds the mutable derived state a frozen spec cannot: BFS distance
    labels per destination switch, the hop-count bound, and a memo of
    resolved routes.  Two routers over equal specs resolve identical
    routes (the keyed draws depend only on spec content), so a route is
    a property of the experiment, not of the run.
    """

    def __init__(self, topology: TopologySpec) -> None:
        self.topology = topology
        self.adjacency = topology.adjacency()
        self._host_switch: Dict[int, str] = {
            endpoint: switch for endpoint, switch in topology.host_links
        }
        self._distances: Dict[str, Dict[str, int]] = {}
        self._routes: Dict[Tuple[str, int, int], Tuple[str, ...]] = {}
        self._ports: Dict[Tuple[str, int, int], Tuple[str, ...]] = {}
        self._hop_bound: Optional[int] = None

    # ------------------------------------------------------------------
    def distances_to(self, switch: str) -> Dict[str, int]:
        """BFS hop counts from every switch to ``switch`` (memoized)."""
        cached = self._distances.get(switch)
        if cached is not None:
            return cached
        dist = {switch: 0}
        frontier = deque((switch,))
        while frontier:
            at = frontier.popleft()
            for neighbor in self.adjacency[at]:
                if neighbor not in dist:
                    dist[neighbor] = dist[at] + 1
                    frontier.append(neighbor)
        self._distances[switch] = dist
        return dist

    def hop_bound(self) -> int:
        """Max switches on any shortest path between attached hosts —
        the bound the invariant monitor holds every resolved route to."""
        if self._hop_bound is None:
            attached = sorted(set(self._host_switch.values()))
            bound = 1
            for dst_switch in attached:
                dist = self.distances_to(dst_switch)
                bound = max(bound, max(dist[sw] for sw in attached) + 1)
            self._hop_bound = bound
        return self._hop_bound

    def next_hops(self, at: str, dst_switch: str) -> Tuple[str, ...]:
        """Equal-cost next hops from ``at`` toward ``dst_switch``, in
        the spec's canonical (sorted-neighbor) order."""
        dist = self.distances_to(dst_switch)
        want = dist[at] - 1
        return tuple(n for n in self.adjacency[at] if dist[n] == want)

    # ------------------------------------------------------------------
    def route(self, flow: str, src: int, dst: int) -> Tuple[str, ...]:
        """The switch path of ``(flow, src, dst)``: access switch of
        ``src`` through to the access switch of ``dst``, each equal-cost
        tie broken by :func:`ecmp_hash` at its hop index."""
        key = (flow, src, dst)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        at = self._host_switch[src]
        dst_switch = self._host_switch[dst]
        seed = self.topology.ecmp_seed
        path = [at]
        hop = 0
        while at != dst_switch:
            options = self.next_hops(at, dst_switch)
            at = options[ecmp_hash(seed, flow, src, dst, hop) % len(options)]
            path.append(at)
            hop += 1
        resolved = tuple(path)
        self._routes[key] = resolved
        return resolved

    def route_ports(self, flow: str, src: int, dst: int) -> Tuple[str, ...]:
        """The egress-port keys the flow tuple traverses, one per
        switch on its path: ``"leaf0->spine1"`` style inter-switch
        links, then the final ``"leaf1->h7"`` access link down to the
        destination host."""
        key = (flow, src, dst)
        cached = self._ports.get(key)
        if cached is not None:
            return cached
        path = self.route(flow, src, dst)
        ports = tuple(
            f"{path[i]}->{path[i + 1]}" for i in range(len(path) - 1)
        ) + (f"{path[-1]}->h{dst}",)
        self._ports[key] = ports
        return ports
