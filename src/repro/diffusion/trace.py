"""Cascade tracing: when does each community tip?

Forward simulation utilities that record *when* activations happen —
per diffusion round — and derive the community-level timeline: the
round at which each community crossed its activation threshold. Used
by the examples for narrative output and by analyses of how quickly an
IMC seed set converts communities (the paper's diffusion is the
round-based IC of Section II-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.communities.structure import CommunityStructure
from repro.diffusion.independent_cascade import ic_round_trace
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike


@dataclass(frozen=True)
class CascadeTrace:
    """One traced cascade.

    - ``rounds``: per-round sets of newly activated nodes (round 0 is
      the seed set);
    - ``activation_round``: node -> round it became active;
    - ``community_tipping``: community index -> round its activated-
      member count first reached the threshold (absent if it never did);
    - ``influenced_benefit``: total benefit of tipped communities.
    """

    rounds: Tuple[frozenset, ...]
    activation_round: Dict[int, int]
    community_tipping: Dict[int, int]
    influenced_benefit: float

    @property
    def num_rounds(self) -> int:
        """Number of diffusion rounds (seed round included)."""
        return len(self.rounds)

    @property
    def total_activated(self) -> int:
        """Total nodes activated over the whole cascade."""
        return len(self.activation_round)

    def tipped_communities(self) -> List[int]:
        """Indices of influenced communities, by tipping round."""
        return sorted(self.community_tipping, key=lambda i: (self.community_tipping[i], i))


def trace_cascade(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    seed: SeedLike = None,
) -> CascadeTrace:
    """Run one IC cascade and derive its community timeline."""
    rounds = ic_round_trace(graph, seeds, seed=seed)
    activation_round: Dict[int, int] = {}
    for round_index, newly in enumerate(rounds):
        for node in newly:
            activation_round[node] = round_index

    counts = [0] * communities.r
    tipping: Dict[int, int] = {}
    for round_index, newly in enumerate(rounds):
        for node in newly:
            community_index = communities.community_of(node)
            if community_index is None:
                continue
            counts[community_index] += 1
            threshold = communities[community_index].threshold
            if (
                community_index not in tipping
                and counts[community_index] >= threshold
            ):
                tipping[community_index] = round_index
    benefit = sum(communities[i].benefit for i in tipping)
    return CascadeTrace(
        rounds=tuple(frozenset(r) for r in rounds),
        activation_round=activation_round,
        community_tipping=tipping,
        influenced_benefit=benefit,
    )


def average_tipping_profile(
    graph: DiGraph,
    communities: CommunityStructure,
    seeds: Iterable[int],
    num_trials: int = 200,
    seed: SeedLike = None,
) -> Dict[int, float]:
    """Per-community probability of tipping, averaged over cascades.

    Returns ``{community_index: Pr[tipped]}`` — the per-community
    decomposition of ``c(S)/b_i``. Communities that never tip across
    all trials are included with probability 0.0.
    """
    from repro.rng import make_rng, spawn_rng

    graph = graph.freeze()
    rng = make_rng(seed)
    seed_list = list(seeds)
    tipped_counts = [0] * communities.r
    for _ in range(num_trials):
        trace = trace_cascade(graph, communities, seed_list, seed=spawn_rng(rng))
        for index in trace.community_tipping:
            tipped_counts[index] += 1
    return {i: tipped_counts[i] / num_trials for i in range(communities.r)}
