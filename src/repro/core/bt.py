"""Bounded-threshold algorithms BT (Algorithm 4), BT^(d) and MB.

BT exploits Lemma 5: for every node ``u``, a near-optimal companion set
``K(u)`` for the samples ``G_R(u)`` that ``u`` touches can be found by
*reducing* each such sample — remove the members ``u`` already reaches
and decrement the threshold accordingly. With thresholds bounded by 2,
every reduced threshold is at most 1, so the reduced problem is plain
(submodular) max coverage and greedy earns ``1 - 1/e``; BT then returns
the best ``K(u)`` over all ``u``, for a ``(1 - 1/e)/k`` ratio
(Theorem 4).

``BT^(d)`` recurses: the companion set of the reduced (threshold ≤ d-1)
problem is found by ``BT^(d-1)``, giving ``(1 - 1/e)/k^{d-1}``.

``MB`` returns the better of MAF and BT under ``ĉ_R``; Theorem 5 shows
the combination is a ``Θ(√((1-1/e)/r))``-approximation — tight to the
inapproximability bound of Theorem 1.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.maf import MAF
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.obs import trace
from repro.rng import SeedLike
from repro.sampling.pool import RICSamplePool
from repro.utils.heap import LazyMaxHeap
from repro.utils.retry import Deadline, as_deadline
from repro.utils.validation import check_positive


class _Collection:
    """A lightweight reduced RIC collection.

    Each sample is ``(threshold, reach_sets)`` where ``threshold`` may
    be 0 (already influenced by the implicit outer seeds). An inverted
    ``node → [(sample, member)]`` index supports greedy selection.
    """

    __slots__ = ("thresholds", "reach_sets", "coverage", "auto_influenced")

    def __init__(
        self,
        thresholds: List[int],
        reach_sets: List[Tuple[FrozenSet[int], ...]],
    ) -> None:
        self.thresholds = thresholds
        self.reach_sets = reach_sets
        self.coverage: Dict[int, List[Tuple[int, int]]] = {}
        self.auto_influenced = sum(1 for h in thresholds if h <= 0)
        for sample_idx, reaches in enumerate(reach_sets):
            if thresholds[sample_idx] <= 0:
                continue  # already influenced; coverage is irrelevant
            for member_idx, reach in enumerate(reaches):
                for node in reach:
                    self.coverage.setdefault(node, []).append(
                        (sample_idx, member_idx)
                    )

    def __len__(self) -> int:
        return len(self.thresholds)

    @classmethod
    def from_pool(cls, pool: RICSamplePool) -> "_Collection":
        """The unreduced collection mirroring the full pool."""
        return cls(
            [s.threshold for s in pool.samples],
            [s.reach_sets for s in pool.samples],
        )

    def nodes(self) -> List[int]:
        """Nodes covering at least one member of a live sample."""
        return list(self.coverage)

    def touched_by(self, node: int) -> List[int]:
        """Distinct live-sample indices with ``node`` in some reach set."""
        return sorted({s for s, _ in self.coverage.get(node, ())})

    def reduce_by(self, node: int) -> "_Collection":
        """The collection ``G_R(node)`` after seeding ``node``.

        Keeps only samples touched by ``node`` (plus none others — BT's
        score ``|D_R(K(u), u)|`` only counts those); in each, removes
        every member reached by ``node`` and decrements the threshold
        per removal (Alg. 4 lines 2-7).
        """
        touched = self.touched_by(node)
        thresholds: List[int] = []
        reach_sets: List[Tuple[FrozenSet[int], ...]] = []
        for sample_idx in touched:
            kept = [
                reach
                for reach in self.reach_sets[sample_idx]
                if node not in reach
            ]
            removed = len(self.reach_sets[sample_idx]) - len(kept)
            thresholds.append(max(0, self.thresholds[sample_idx] - removed))
            reach_sets.append(tuple(kept))
        return _Collection(thresholds, reach_sets)

    def influenced_count(self, seeds: Sequence[int]) -> int:
        """Samples influenced by ``seeds`` (auto-influenced included)."""
        seed_set = set(seeds)
        covered: Dict[int, Set[int]] = {}
        for v in seed_set:
            for sample_idx, member_idx in self.coverage.get(v, ()):
                covered.setdefault(sample_idx, set()).add(member_idx)
        live_influenced = sum(
            1
            for sample_idx, members in covered.items()
            if len(members) >= self.thresholds[sample_idx]
        )
        return live_influenced + self.auto_influenced

    def max_threshold(self) -> int:
        """Largest live threshold (0 for an all-influenced collection)."""
        return max(self.thresholds, default=0)


def _greedy_cover(
    collection: _Collection,
    k: int,
    allowed: Optional[Set[int]] = None,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """CELF greedy for a collection whose thresholds are all ≤ 1.

    With ``h ≤ 1`` a sample is influenced as soon as *any* member is
    covered — plain max coverage, submodular, so lazy evaluation is
    sound and the result carries the ``1 - 1/e`` guarantee. ``deadline``
    is polled between CELF iterations (after at least one pick).
    """
    sample_covered = [h <= 0 for h in collection.thresholds]
    heap: LazyMaxHeap[int] = LazyMaxHeap()

    def gain(node: int) -> int:
        return len(
            {
                s
                for s, _ in collection.coverage.get(node, ())
                if not sample_covered[s]
            }
        )

    for node in sorted(collection.coverage):
        if allowed is not None and node not in allowed:
            continue
        g = gain(node)
        if g > 0:
            heap.push(node, g)
    chosen: List[int] = []
    while heap and len(chosen) < k:
        if deadline is not None and chosen and deadline.expired():
            break
        node, _ = heap.pop_max()
        fresh = gain(node)
        if fresh <= 0:
            continue
        if heap:
            _, next_best = heap.peek_max()
            if fresh < next_best:
                heap.push(node, fresh)
                continue
        chosen.append(node)
        for s, _ in collection.coverage.get(node, ()):
            sample_covered[s] = True
    return chosen


def _bt_solve(
    collection: _Collection,
    k: int,
    depth: int,
    candidate_limit: Optional[int],
    allowed: Optional[Set[int]] = None,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Recursive core of BT^(d): returns up to ``k`` seeds.

    ``depth`` is the threshold bound ``d`` of the *current* collection;
    at ``depth <= 1`` the problem is max coverage and plain greedy
    finishes the recursion. The outer loop over candidate nodes ``u``
    is BT's dominant cost; a ``deadline`` is polled per candidate and
    the best companion set found so far is returned on expiry (the
    first candidate is always evaluated in full).
    """
    if k <= 0 or len(collection) == 0:
        return []
    if depth <= 1 or collection.max_threshold() <= 1:
        return _greedy_cover(collection, k, allowed=allowed, deadline=deadline)
    candidates = collection.nodes()
    if allowed is not None:
        candidates = [v for v in candidates if v in allowed]
    # Rank by how many live samples each node touches; the limit keeps
    # the O(n)-fold outer loop tractable on larger instances (the paper
    # itself reports MB exceeding runtime limits on Pokec).
    candidates.sort(key=lambda v: (-len(collection.touched_by(v)), v))
    if candidate_limit is not None:
        candidates = candidates[:candidate_limit]
    best_seeds: List[int] = []
    best_score = -1
    for u in candidates:
        if deadline is not None and best_seeds and deadline.expired():
            break
        reduced = collection.reduce_by(u)
        companions = _bt_solve(
            reduced,
            k - 1,
            depth - 1,
            candidate_limit,
            allowed=allowed,
            deadline=deadline,
        )
        companions = [v for v in companions if v != u][: k - 1]
        score = reduced.influenced_count(companions)
        if score > best_score:
            best_score = score
            best_seeds = [u] + companions
    return best_seeds


class BT:
    """Bounded-threshold MAXR solver (Algorithm 4 / BT^(d)).

    ``threshold_bound`` is the constant ``d`` the instance's thresholds
    must respect (2 reproduces Algorithm 4 exactly).
    ``candidate_limit`` optionally truncates the outer loop over ``u``
    to the most-touching nodes — a practical knob the paper's runtime
    discussion motivates; ``None`` is the faithful full loop.
    """

    name = "BT"

    def __init__(
        self,
        threshold_bound: int = 2,
        candidate_limit: Optional[int] = None,
        candidates: Optional[Iterable[int]] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        if threshold_bound < 1:
            raise SolverError(
                f"threshold_bound must be >= 1, got {threshold_bound}"
            )
        self.threshold_bound = threshold_bound
        self.candidate_limit = candidate_limit
        #: Restrict seeding to these nodes (None = all nodes).
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )
        #: Optional time bound (Deadline or seconds): polled per outer
        #: candidate and per CELF pick; best-so-far + ``truncated`` on
        #: expiry.
        self.deadline: Optional[Deadline] = as_deadline(deadline)

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """``(1 - 1/e) / k^{d-1}`` (Theorem 4 + induction)."""
        return (1.0 - 1.0 / math.e) / (k ** (self.threshold_bound - 1))

    def _check_bound(self, pool: RICSamplePool) -> None:
        h_max = pool.sampler.communities.max_threshold
        if h_max > self.threshold_bound:
            raise SolverError(
                f"BT configured for thresholds <= {self.threshold_bound} "
                f"but the instance has max threshold {h_max}; raise "
                "threshold_bound (ratio degrades as 1/k^(d-1)) or use "
                "UBG/MAF"
            )

    def solve(self, pool: RICSamplePool, k: int) -> SeedSelection:
        """Run BT^(d) on the pool."""
        check_positive(k, "k", SolverError)
        self._check_bound(pool)
        deadline = self.deadline
        with trace.span("bt/select", k=k, num_samples=len(pool)):
            collection = _Collection.from_pool(pool)
            seeds = _bt_solve(
                collection,
                k,
                self.threshold_bound,
                self.candidate_limit,
                allowed=self.candidates,
                deadline=deadline,
            )
        return SeedSelection(
            seeds=tuple(seeds),
            objective=pool.estimate_benefit(seeds),
            solver=self.name,
            metadata={
                "threshold_bound": self.threshold_bound,
                "candidate_limit": self.candidate_limit,
                "num_samples": len(pool),
            },
            truncated=deadline is not None and deadline.expired(),
        )

    def __call__(self, pool: RICSamplePool, k: int) -> SeedSelection:
        return self.solve(pool, k)


class MB:
    """MAF + BT: return the better of the two under ``ĉ_R``.

    Theorem 5: with thresholds bounded by 2, the combination is a
    ``Θ(√((1-1/e)/r))``-approximation — tight to the Theorem 1
    inapproximability bound (up to the ``(log log r)^c`` refinement).
    """

    name = "MB"

    def __init__(
        self,
        threshold_bound: int = 2,
        candidate_limit: Optional[int] = None,
        seed: SeedLike = None,
        candidates: Optional[Iterable[int]] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        #: Optional time bound shared by both arms. MAF (fast) runs
        #: first; if the deadline has expired by then the BT arm is
        #: skipped and the MAF result returned flagged ``truncated``.
        self.deadline: Optional[Deadline] = as_deadline(deadline)
        self._maf = MAF(
            seed=seed,
            candidates=candidates,
            deadline=self.deadline,
        )
        self._bt = BT(
            threshold_bound=threshold_bound,
            candidate_limit=candidate_limit,
            candidates=candidates,
            deadline=self.deadline,
        )

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """``√((1-1/e)·⌊k/2⌋ / (k·r))`` — the geometric-mean bound,
        capped at 1."""
        r = pool.sampler.communities.r
        if k < 2:
            return self._bt.alpha(pool, k)
        return min(1.0, math.sqrt((1.0 - 1.0 / math.e) * (k // 2) / (k * r)))

    def solve(self, pool: RICSamplePool, k: int) -> SeedSelection:
        """Run both arms and keep the better seed set.

        With an expired deadline after the MAF arm, the (much slower)
        BT arm is skipped and MAF's seeds are returned as-is."""
        deadline = self.deadline
        # A deadline installed on MB after construction (e.g. by
        # solve_imc) must reach the arms too; install transiently so a
        # later deadline-free reuse of this instance is unaffected.
        lend_maf = deadline is not None and self._maf.deadline is None
        lend_bt = deadline is not None and self._bt.deadline is None
        if lend_maf:
            self._maf.deadline = deadline
        if lend_bt:
            self._bt.deadline = deadline
        try:
            with trace.span("mb/maf_arm", k=k, num_samples=len(pool)):
                maf_result = self._maf.solve(pool, k)
            if (
                deadline is not None
                and maf_result.seeds
                and deadline.expired()
            ):
                bt_result = None
                winner = maf_result
            else:
                with trace.span("mb/bt_arm", k=k, num_samples=len(pool)):
                    bt_result = self._bt.solve(pool, k)
                winner = (
                    maf_result
                    if maf_result.objective >= bt_result.objective
                    else bt_result
                )
        finally:
            if lend_maf:
                self._maf.deadline = None
            if lend_bt:
                self._bt.deadline = None
        return SeedSelection(
            seeds=winner.seeds,
            objective=winner.objective,
            solver=self.name,
            metadata={
                "arm": winner.solver,
                "value_maf": maf_result.objective,
                "value_bt": bt_result.objective if bt_result else None,
                "num_samples": len(pool),
            },
            truncated=deadline is not None and deadline.expired(),
        )

    def __call__(self, pool: RICSamplePool, k: int) -> SeedSelection:
        return self.solve(pool, k)
