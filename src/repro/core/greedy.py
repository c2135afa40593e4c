"""Greedy selection primitives over a RIC sample pool.

Two variants back the MAXR solvers:

- :func:`greedy_maxr` — greedy on the *non-submodular* ``ĉ_R``. Because
  CELF's lazy pruning is unsound without submodularity, every round
  recomputes the marginal of every candidate (via the pool's inverted
  index, so a round costs the total coverage size, not ``n · |R|``).
  Ties on the ĉ marginal — which are pervasive early on, when no single
  node pushes any sample past its threshold — are broken by the ν
  (fractional-progress) marginal, then by node id; the fallback keeps
  the greedy directed instead of stalling on an all-zeros round.

- :func:`lazy_greedy_nu` — CELF lazy greedy on the *submodular* ``ν_R``
  (Lemma 3 proves submodularity), with the classic cached-upper-bound
  invariant.

Both accept an optional ``deadline``
(:class:`~repro.utils.retry.Deadline`): it is polled between selection
rounds and the loop exits early with the seeds chosen so far. The first
round always runs to completion so a deadline-bounded caller is
guaranteed at least one seed whenever one exists — "best-so-far, never
empty-handed" is the contract the deadline-aware solvers build on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.bitset_engine import BitsetCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.sampling.pool import RICSamplePool
from repro.utils.heap import LazyMaxHeap
from repro.utils.retry import Deadline


def _out_of_time(deadline: Optional[Deadline], chosen: Sequence[int]) -> bool:
    """Deadline poll between greedy rounds.

    Only truncates once at least one seed was selected, so bounded runs
    degrade to a smaller seed set instead of an empty one.
    """
    return deadline is not None and bool(chosen) and deadline.expired()


def _candidates(pool: RICSamplePool, restrict: Optional[Iterable[int]]) -> List[int]:
    if restrict is not None:
        return sorted(set(restrict))
    return sorted(pool.touching_nodes())


def greedy_maxr(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    tie_break_fractional: bool = True,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Greedy on ``ĉ_R`` — full marginal recomputation each round.

    Returns up to ``k`` seeds (fewer when the pool has fewer touching
    nodes than ``k``, or when ``deadline`` expires mid-selection). With
    ``tie_break_fractional`` disabled, ties on the ĉ marginal fall
    straight to the node-id order — the literal greedy of Alg. 2
    line 2, kept for ablations.
    """
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")
    state = BitsetCoverage(pool)
    pool_candidates = _candidates(pool, candidates)
    chosen: List[int] = []
    remaining = set(pool_candidates)
    for _ in range(min(k, len(pool_candidates))):
        if _out_of_time(deadline, chosen):
            break
        best_node = None
        best_key = None
        for node in sorted(remaining):
            gain_c, gain_nu = state.gain_pair(node)
            key = (gain_c, gain_nu) if tie_break_fractional else (gain_c, 0.0)
            if best_key is None or key > best_key:
                best_key = key
                best_node = node
        if best_node is None:
            break
        state.add_seed(best_node)
        remaining.discard(best_node)
        chosen.append(best_node)
    return chosen


def lazy_greedy_nu(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """CELF lazy greedy on the submodular ``ν_R``.

    Submodularity guarantees each cached marginal upper-bounds the true
    current marginal, so only the top heap entry ever needs
    re-evaluation; the selected set matches eager greedy exactly (up to
    the same tie-breaking), verified by the test suite. ``deadline`` is
    polled between CELF iterations; on expiry the seeds selected so far
    are returned.
    """
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")
    state = BitsetCoverage(pool)
    heap: LazyMaxHeap[int] = LazyMaxHeap()
    for node in _candidates(pool, candidates):
        gain = state.gain_fractional(node)
        if gain > 0.0:
            # Negative id as secondary key is encoded by pushing in id
            # order: LazyMaxHeap is stable for equal priorities because
            # the entry counter favours earlier pushes on ties.
            heap.push(node, gain)
    chosen: List[int] = []
    while heap and len(chosen) < k:
        if _out_of_time(deadline, chosen):
            break
        node, cached_gain = heap.pop_max()
        fresh_gain = state.gain_fractional(node)
        if fresh_gain <= 0.0:
            continue
        if heap:
            _, next_best = heap.peek_max()
            if fresh_gain < next_best - 1e-12:
                heap.push(node, fresh_gain)
                continue
        state.add_seed(node)
        chosen.append(node)
    return chosen


def greedy_eager_nu(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Eager (recompute-everything) greedy on ``ν_R``.

    Exists as the reference implementation that
    :func:`lazy_greedy_nu` is validated against, and as the slow arm of
    the CELF ablation benchmark — hence it runs on the readable
    :class:`~repro.core.objective.CoverageState` rather than the
    :class:`~repro.core.bitset_engine.BitsetCoverage` engine the other
    two greedies use.
    """
    if k < 0:
        raise SolverError(f"k must be non-negative, got {k}")
    state = CoverageState(pool)
    remaining = set(_candidates(pool, candidates))
    chosen: List[int] = []
    for _ in range(min(k, len(remaining))):
        if _out_of_time(deadline, chosen):
            break
        best_node = None
        best_gain = 0.0
        for node in sorted(remaining):
            gain = state.gain_fractional(node)
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_node = node
        if best_node is None:
            break
        state.add_seed(best_node)
        remaining.discard(best_node)
        chosen.append(best_node)
    return chosen
