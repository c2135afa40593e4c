"""Test-only reference kernels over the mutable :class:`DiGraph`.

The library's sampling and cascade kernels read only the frozen CSR
snapshot and are tuned for it (epoch-stamped arrays, traversal caches,
the provably dead ``st[·]`` memo elided). The functions here are the
literal textbook versions they replaced — dict/set bookkeeping over the
graph's adjacency lists — kept as oracles: for a fixed seed every tuned
kernel must reproduce them exactly, draw for draw, not merely in
distribution.

- :func:`ric_sample` / :func:`ric_samples` — Algorithm 1 as written,
  with the per-edge coin memo ``st[·]`` under IC and the per-node
  trigger memo under LT;
- :func:`rr_sets` — the list-based reverse-reachable walk;
- :func:`simulate_ic` / :func:`simulate_lt` — the IC and LT cascades.
"""

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.communities.structure import CommunityStructure
from repro.errors import GraphError, SamplingError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng, spawn_seed
from repro.sampling.ric import RICSample


def _pick_source(communities: CommunityStructure, rng) -> int:
    """Inverse-CDF draw from ``ρ(C_i) = b_i / b``, zero benefits skipped."""
    indices: List[int] = []
    cumulative: List[float] = []
    running = 0.0
    for index, p in enumerate(communities.benefit_distribution()):
        if p <= 0.0:
            continue
        running += p
        indices.append(index)
        cumulative.append(running)
    cumulative[-1] = 1.0
    u = rng.random()
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return indices[lo]


def _draw_lt_trigger(sources, weights, rng) -> Optional[int]:
    """Node's single LT trigger: in-neighbour ``u`` with probability
    ``w(u, v)``, or ``None`` with the residual mass."""
    if not sources:
        return None
    total = sum(weights)
    if total > 1.0 + 1e-9:
        raise SamplingError(
            "LT-mode RIC requires incoming weights to sum to <= 1 "
            f"(found {total:.6f}); use assign_weighted_cascade"
        )
    draw = rng.random()
    cumulative = 0.0
    for u, w in zip(sources, weights):
        cumulative += w
        if draw < cumulative:
            return u
    return None


def ric_sample(
    graph: DiGraph,
    communities: CommunityStructure,
    sample_seed: int,
    model: str = "ic",
    community_index: Optional[int] = None,
) -> RICSample:
    """The RIC sample determined by ``sample_seed`` (Algorithm 1)."""
    rng = make_rng(sample_seed)
    if community_index is None:
        community_index = _pick_source(communities, rng)
    community = communities[community_index]
    members = community.members

    # Phase 1 — backward BFS with lazy realisation of the sample graph.
    # Under IC, st[·] is the per-edge coin memo of Alg. 1 (an edge
    # absent from `state` is ⊥, otherwise y/n). Under LT, the
    # triggering-set view realises at most one in-edge per node,
    # memoised per node.
    lt_mode = model == "lt"
    state: Dict[Tuple[int, int], bool] = {}
    lt_trigger: Dict[int, Optional[int]] = {}
    live_in: Dict[int, List[int]] = {}
    visited: Set[int] = set(members)
    queue = deque(members)
    while queue:
        u = queue.popleft()
        realized_sources = live_in.setdefault(u, [])
        sources, weights = graph.in_adjacency(u)
        if lt_mode:
            if u not in lt_trigger:
                lt_trigger[u] = _draw_lt_trigger(sources, weights, rng)
            trigger = lt_trigger[u]
            if trigger is not None:
                realized_sources.append(trigger)
                if trigger not in visited:
                    visited.add(trigger)
                    queue.append(trigger)
            continue
        for v, w in zip(sources, weights):
            key = (v, u)
            realized = state.get(key)
            if realized is None:
                realized = rng.random() < w
                state[key] = realized
            if not realized:
                continue
            realized_sources.append(v)
            if v not in visited:
                visited.add(v)
                queue.append(v)

    # Phase 2 — per-member reachable sets R_g(u) over realised edges.
    reach_sets: List[FrozenSet[int]] = []
    for u in members:
        reach: Set[int] = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for v in live_in.get(x, ()):
                if v not in reach:
                    reach.add(v)
                    stack.append(v)
        reach_sets.append(frozenset(reach))

    return RICSample(
        community_index=community_index,
        threshold=community.threshold,
        members=tuple(members),
        reach_sets=tuple(reach_sets),
    )


def ric_samples(
    graph: DiGraph,
    communities: CommunityStructure,
    seed: SeedLike,
    count: int,
    model: str = "ic",
) -> List[RICSample]:
    """``count`` samples, one master-stream child seed each — the
    stream discipline of ``RICSampler(seed=seed).sample_many(count)``."""
    master = make_rng(seed)
    return [
        ric_sample(graph, communities, spawn_seed(master), model)
        for _ in range(count)
    ]


def rr_sets(graph: DiGraph, seed: SeedLike, count: int) -> List[FrozenSet[int]]:
    """``count`` RR sets from one RNG stream, walking adjacency lists."""
    rng = make_rng(seed)
    result = []
    for _ in range(count):
        root = rng.randrange(graph.num_nodes)
        visited = {root}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            sources, weights = graph.in_adjacency(u)
            for v, w in zip(sources, weights):
                if v not in visited and rng.random() < w:
                    visited.add(v)
                    queue.append(v)
        result.append(frozenset(visited))
    return result


def simulate_ic(graph: DiGraph, seeds, seed: SeedLike = None) -> Set[int]:
    """One IC cascade in BFS order, one coin per out-edge."""
    rng = make_rng(seed)
    active: Set[int] = set()
    frontier = deque()
    for s in seeds:
        if s not in active:
            active.add(s)
            frontier.append(s)
    while frontier:
        u = frontier.popleft()
        targets, weights = graph.out_adjacency(u)
        for v, w in zip(targets, weights):
            if v not in active and rng.random() < w:
                active.add(v)
                frontier.append(v)
    return active


def simulate_lt(
    graph: DiGraph, seeds, seed: SeedLike = None, strict: bool = True
) -> Set[int]:
    """One LT cascade with lazily drawn thresholds."""
    if strict:
        for v in graph.nodes():
            _, weights = graph.in_adjacency(v)
            total = sum(weights)
            if total > 1.0 + 1e-9:
                raise GraphError(
                    f"LT model requires incoming weights to sum to <= 1; "
                    f"node {v} has total {total:.6f}"
                )
    rng = make_rng(seed)
    thresholds: Dict[int, float] = {}
    incoming_active: Dict[int, float] = {}
    active: Set[int] = set()
    frontier = deque()
    for s in seeds:
        if s not in active:
            active.add(s)
            frontier.append(s)
    while frontier:
        u = frontier.popleft()
        targets, weights = graph.out_adjacency(u)
        for v, w in zip(targets, weights):
            if v in active:
                continue
            if v not in thresholds:
                thresholds[v] = rng.random()
            incoming_active[v] = incoming_active.get(v, 0.0) + w
            if incoming_active[v] >= thresholds[v]:
                active.add(v)
                frontier.append(v)
    return active
