"""CELF Monte-Carlo greedy influence maximization.

The Kempe-Leskovec lineage baseline: greedy on the Monte-Carlo spread
estimate with CELF lazy evaluation (sound because expected spread is
submodular). Much slower than RIS for equal accuracy; included as the
reference the RIS solver is validated against on small graphs, and for
users who want a sampling-free code path.
"""

from __future__ import annotations

from typing import List

from repro.diffusion.simulator import spread_monte_carlo
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.utils.heap import LazyMaxHeap
from repro.utils.validation import check_seed_budget


def celf_im(
    graph: DiGraph,
    k: int,
    num_trials: int = 200,
    seed: SeedLike = None,
) -> List[int]:
    """Select ``k`` seeds by CELF greedy over Monte-Carlo spread.

    ``num_trials`` cascades estimate each marginal; the same RNG parent
    seeds every evaluation so results are reproducible for a fixed seed.
    """
    check_seed_budget(k, graph.num_nodes, SolverError)
    if num_trials < 1:
        raise SolverError(f"num_trials must be >= 1, got {num_trials}")
    graph = graph.freeze()
    rng = make_rng(seed)
    chosen: List[int] = []
    current_spread = 0.0

    def marginal(node: int) -> float:
        spread = spread_monte_carlo(
            graph,
            chosen + [node],
            num_trials=num_trials,
            seed=spawn_rng(rng),
        )
        return spread - current_spread

    heap: LazyMaxHeap[int] = LazyMaxHeap()
    for node in graph.nodes():
        heap.push(node, float(graph.num_nodes))  # optimistic upper bound
    evaluated_this_round: dict = {}
    while heap and len(chosen) < k:
        node, cached = heap.pop_max()
        if evaluated_this_round.get(node) == len(chosen):
            # Fresh for the current round: it is the best available.
            chosen.append(node)
            current_spread += cached
            continue
        fresh = marginal(node)
        evaluated_this_round[node] = len(chosen)
        heap.push(node, fresh)
    return chosen
