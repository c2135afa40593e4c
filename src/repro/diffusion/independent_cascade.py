"""Independent Cascade (IC) model.

The paper's diffusion model (Section II-A): seeds are active at round 0;
when a node becomes active it gets a *single* chance to activate each
currently inactive out-neighbour ``v`` with probability ``w(u, v)``;
active nodes stay active. Equivalently (the live-edge view), realise
each edge independently with its probability and activate everything
forward-reachable from the seeds — the equivalence is exercised by the
test suite.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, List, Set, Union

from repro.graph.csr import FrozenDiGraph
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng


def simulate_ic(
    graph: Union[DiGraph, FrozenDiGraph],
    seeds: Iterable[int],
    seed: SeedLike = None,
) -> Set[int]:
    """Run one IC cascade; return the set of activated nodes.

    The simulation is round-free (BFS order): each newly activated node
    flips a coin per out-edge exactly once, which is distribution-
    equivalent to the round-based formulation. The cascade walks the
    CSR snapshot's :meth:`~repro.graph.csr.FrozenDiGraph.out_pairs`
    traversal cache; a mutable graph is frozen first (memoised, so a
    Monte-Carlo loop over one graph freezes it once).
    """
    pairs = graph.freeze().out_pairs()
    random = make_rng(seed).random
    active: Set[int] = set()
    frontier = deque()
    for s in seeds:
        if s not in active:
            active.add(s)
            frontier.append(s)
    while frontier:
        u = frontier.popleft()
        for v, w in pairs[u]:
            if v not in active and random() < w:
                active.add(v)
                frontier.append(v)
    return active


def sample_live_edge_graph(graph: DiGraph, seed: SeedLike = None) -> DiGraph:
    """Draw a deterministic *sample graph* G ~ G(V, E, w).

    Each edge is kept independently with its weight (probability); kept
    edges have weight 1.0 in the result. This is the generative view of
    the probabilistic graph used throughout the paper's analysis.
    """
    rng = make_rng(seed)
    live = DiGraph(graph.num_nodes)
    for u, v, w in graph.edges():
        if rng.random() < w:
            live.add_edge(u, v, 1.0)
    return live


def ic_round_trace(
    graph: Union[DiGraph, FrozenDiGraph],
    seeds: Iterable[int],
    seed: SeedLike = None,
) -> List[Set[int]]:
    """Run IC round by round; return the list of per-round activations.

    ``result[0]`` is the seed set; ``result[t]`` the nodes first
    activated at round ``t``. Useful for visualisation and for tests of
    the round-based formulation's equivalence with :func:`simulate_ic`.
    """
    pairs = graph.freeze().out_pairs()
    rng = make_rng(seed)
    active: Set[int] = set()
    current: Set[int] = set()
    for s in seeds:
        if s not in active:
            active.add(s)
            current.add(s)
    rounds: List[Set[int]] = [set(current)]
    while current:
        next_round: Set[int] = set()
        for u in sorted(current):
            for v, w in pairs[u]:
                if v not in active and rng.random() < w:
                    active.add(v)
                    next_round.add(v)
        if next_round:
            rounds.append(next_round)
        current = next_round
    return rounds
