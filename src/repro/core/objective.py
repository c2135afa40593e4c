"""Incremental coverage state over a RIC sample pool.

Both MAXR objectives are functions of, per sample ``g``, the set of
*covered members* ``I_g(S) = {u ∈ C_g : R_g(u) ∩ S ≠ ∅}``:

- ``ĉ_R``  counts samples with ``|I_g(S)| ≥ h_g``          (eq. 3),
- ``ν_R``  sums ``min(|I_g(S)|/h_g, 1)``                   (eq. 7).

:class:`CoverageState` maintains ``I_g(S)`` incrementally as seeds are
added, and computes the marginal gain of a candidate node for either
objective in time proportional to the candidate's coverage list. It
keeps per-sample member *sets* — the readable reference that the
solvers' engine, :class:`~repro.core.bitset_engine.BitsetCoverage`
(packed member masks, same answers), is checked against in the tests
and by :func:`~repro.core.greedy.greedy_eager_nu`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.errors import SolverError
from repro.obs import metrics
from repro.sampling.pool import RICSamplePool


class CoverageState:
    """Mutable coverage bookkeeping for greedy selection on a pool.

    The state snapshots the pool's sample count at construction. If the
    pool later grows (IMCAF's doubling loop), a stale state would either
    IndexError on new sample indices or silently ignore the new samples
    in gains — so every accessor fails fast with :class:`SolverError`
    until :meth:`resync` incorporates the growth (or a fresh state is
    built, which is what IMCAF's per-stage ``solver.solve`` call does).
    """

    def __init__(self, pool: RICSamplePool) -> None:
        self.pool = pool
        self.seeds: List[int] = []
        self._seed_set: Set[int] = set()
        # covered[g] = set of member indices of sample g hit by the seeds.
        self._covered: List[Set[int]] = [set() for _ in pool.samples]
        self._influenced = 0
        self._fractional = 0.0
        self._synced_samples = len(pool.samples)
        self._resyncing = False

    def _check_sync(self) -> None:
        """Fail fast when the pool grew since this state last synced."""
        if self._resyncing:
            raise SolverError(
                "coverage state is mid-resync() (another thread is "
                "rebuilding it); concurrent marginal/accessor calls "
                "would read half-built state — serialize engine access "
                "(see the locking contract in docs/serving.md)"
            )
        if len(self.pool.samples) != self._synced_samples:
            raise SolverError(
                f"pool grew from {self._synced_samples} to "
                f"{len(self.pool.samples)} samples since this coverage "
                "state was built; call resync() or rebuild the state"
            )

    def resync(self) -> None:
        """Incorporate samples added to the pool since the last sync.

        Extends the per-sample bookkeeping for the new indices and
        replays the current seed set's coverage of the *new* samples
        only — O(total coverage of the seeds in the new suffix).

        Not thread-safe: a concurrent :meth:`resync` (or any marginal /
        accessor call while one is in progress) raises ``SolverError``
        instead of corrupting state silently — callers must serialize
        engine access (see docs/serving.md).
        """
        if self._resyncing:
            raise SolverError(
                "CoverageState.resync() re-entered while another "
                "resync() is in progress; serialize engine access "
                "(see the locking contract in docs/serving.md)"
            )
        samples = self.pool.samples
        old = self._synced_samples
        if len(samples) == old:
            return
        metrics.inc("coverage.resyncs")
        self._resyncing = True
        try:
            self._covered.extend(set() for _ in range(len(samples) - old))
            for node in self.seeds:
                for sample_idx, member_idx in self.pool.coverage_of(node):
                    if sample_idx < old:
                        continue
                    covered = self._covered[sample_idx]
                    if member_idx in covered:
                        continue
                    threshold = samples[sample_idx].threshold
                    before = len(covered)
                    covered.add(member_idx)
                    if before < threshold:
                        self._fractional += 1.0 / threshold
                        if before + 1 == threshold:
                            self._influenced += 1
            self._synced_samples = len(samples)
        finally:
            self._resyncing = False

    # ------------------------------------------------------------------
    # Current objective values
    # ------------------------------------------------------------------

    @property
    def influenced_count(self) -> int:
        """``Σ_g X_g(S)`` for the current seed set."""
        return self._influenced

    @property
    def fractional_count(self) -> float:
        """``Σ_g min(|I_g(S)|/h_g, 1)`` for the current seed set."""
        return self._fractional

    def estimate_benefit(self) -> float:
        """``ĉ_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return (
            self.pool.total_benefit * self._influenced / len(self.pool.samples)
        )

    def estimate_upper_bound(self) -> float:
        """``ν_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return (
            self.pool.total_benefit * self._fractional / len(self.pool.samples)
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_seed(self, node: int) -> None:
        """Add ``node`` to the seed set and update all per-sample state."""
        self._check_sync()
        if node in self._seed_set:
            raise SolverError(f"node {node} is already a seed")
        self.seeds.append(node)
        self._seed_set.add(node)
        samples = self.pool.samples
        for sample_idx, member_idx in self.pool.coverage_of(node):
            covered = self._covered[sample_idx]
            if member_idx in covered:
                continue
            threshold = samples[sample_idx].threshold
            before = len(covered)
            covered.add(member_idx)
            if before < threshold:
                self._fractional += 1.0 / threshold
                if before + 1 == threshold:
                    self._influenced += 1

    # ------------------------------------------------------------------
    # Marginal gains
    # ------------------------------------------------------------------

    def _new_coverage(self, node: int) -> Dict[int, int]:
        """Per-sample count of members newly covered by ``node``."""
        fresh: Dict[int, Set[int]] = {}
        for sample_idx, member_idx in self.pool.coverage_of(node):
            if member_idx not in self._covered[sample_idx]:
                fresh.setdefault(sample_idx, set()).add(member_idx)
        return {idx: len(members) for idx, members in fresh.items()}

    def gain_influenced(self, node: int) -> int:
        """Marginal ``Σ_g X_g`` gain of adding ``node`` (ĉ objective)."""
        self._check_sync()
        if node in self._seed_set:
            return 0
        samples = self.pool.samples
        gain = 0
        for sample_idx, new in self._new_coverage(node).items():
            current = len(self._covered[sample_idx])
            threshold = samples[sample_idx].threshold
            if current < threshold <= current + new:
                gain += 1
        return gain

    def gain_fractional(self, node: int) -> float:
        """Marginal ``Σ_g min(|I_g|/h_g, 1)`` gain of ``node`` (ν objective)."""
        self._check_sync()
        if node in self._seed_set:
            return 0.0
        samples = self.pool.samples
        gain = 0.0
        for sample_idx, new in self._new_coverage(node).items():
            current = len(self._covered[sample_idx])
            threshold = samples[sample_idx].threshold
            if current < threshold:
                gain += (min(current + new, threshold) - current) / threshold
        return gain

    def gain_pair(self, node: int) -> Tuple[int, float]:
        """Both marginals in one pass (used by the ĉ greedy's tie-break)."""
        self._check_sync()
        if node in self._seed_set:
            return 0, 0.0
        samples = self.pool.samples
        gain_c = 0
        gain_nu = 0.0
        for sample_idx, new in self._new_coverage(node).items():
            current = len(self._covered[sample_idx])
            threshold = samples[sample_idx].threshold
            if current < threshold:
                gain_nu += (min(current + new, threshold) - current) / threshold
                if current + new >= threshold:
                    gain_c += 1
        return gain_c, gain_nu

