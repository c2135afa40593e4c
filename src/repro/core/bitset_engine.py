"""Bitset-backed coverage engine.

``CoverageState`` keeps per-sample member sets as Python ``set``
objects — flexible, but each greedy round churns many small sets. This
engine packs each sample's covered-member mask into a Python ``int``
(arbitrary-precision bitset) and each node's coverage into per-sample
masks, so a marginal evaluation is a handful of integer ANDs/ORs and
``bit_count`` calls. It is the one coverage engine the solvers use
(UBG, GreedyC, the greedy primitives and the budgeted variant);
behaviour is identical to the reference engine (the test suite
cross-checks them on random pools).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SolverError
from repro.obs import metrics
from repro.sampling.pool import RICSamplePool

# int.bit_count() exists from Python 3.10; fall back for 3.9.
if hasattr(int, "bit_count"):

    def _popcount(x: int) -> int:
        return x.bit_count()

else:  # pragma: no cover - exercised only on Python 3.9

    def _popcount(x: int) -> int:
        return bin(x).count("1")


class BitsetCoverage:
    """Incremental ĉ/ν coverage over a pool, bitset-backed.

    The public surface mirrors :class:`~repro.core.objective.CoverageState`:
    ``add_seed``, ``gain_influenced``, ``gain_fractional``, ``gain_pair``,
    ``resync`` and the two estimate accessors. Like the reference engine,
    it snapshots the pool's sample count at construction and fails fast
    (``SolverError``) when the pool has grown, until :meth:`resync` packs
    the new samples' masks in.
    """

    def __init__(self, pool: RICSamplePool) -> None:
        self.pool = pool
        samples = pool.samples
        self._thresholds = [s.threshold for s in samples]
        # node -> {sample_idx: member mask}
        self._node_masks: Dict[int, Dict[int, int]] = {}
        for node in pool.touching_nodes():
            masks: Dict[int, int] = {}
            for sample_idx, member_idx in pool.coverage_of(node):
                masks[sample_idx] = masks.get(sample_idx, 0) | (1 << member_idx)
            self._node_masks[node] = masks
        self._covered_mask = [0] * len(samples)
        self._covered_count = [0] * len(samples)
        self.seeds: List[int] = []
        self._seed_set = set()
        self._influenced = 0
        self._fractional = 0.0
        self._synced_samples = len(samples)
        self._resyncing = False

    def _check_sync(self) -> None:
        """Fail fast when the pool grew since this engine last synced."""
        if self._resyncing:
            raise SolverError(
                "bitset engine is mid-resync() (another thread is "
                "rebuilding it); concurrent marginal/accessor calls "
                "would read half-built state — serialize engine access "
                "(see the locking contract in docs/serving.md)"
            )
        if len(self.pool.samples) != self._synced_samples:
            raise SolverError(
                f"pool grew from {self._synced_samples} to "
                f"{len(self.pool.samples)} samples since this bitset "
                "engine was built; call resync() or rebuild the engine"
            )

    def resync(self) -> None:
        """Incorporate samples added to the pool since the last sync.

        Packs member masks for the new sample indices and replays the
        current seed set against the new suffix only.

        Not thread-safe: a concurrent :meth:`resync` (or any marginal /
        accessor call while one is in progress) raises ``SolverError``
        instead of corrupting state silently — callers must serialize
        engine access (see docs/serving.md).
        """
        if self._resyncing:
            raise SolverError(
                "BitsetCoverage.resync() re-entered while another "
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
            grown = len(samples) - old
            self._thresholds.extend(s.threshold for s in samples[old:])
            self._covered_mask.extend([0] * grown)
            self._covered_count.extend([0] * grown)
            for offset, sample in enumerate(samples[old:]):
                sample_idx = old + offset
                for member_idx, reach in enumerate(sample.reach_sets):
                    bit = 1 << member_idx
                    for node in reach:
                        masks = self._node_masks.setdefault(node, {})
                        masks[sample_idx] = masks.get(sample_idx, 0) | bit
            for node in self.seeds:
                for sample_idx, mask in self._node_masks.get(node, {}).items():
                    if sample_idx < old:
                        continue
                    self._apply_mask(sample_idx, mask)
            self._synced_samples = len(samples)
        finally:
            self._resyncing = False

    # -- accessors ------------------------------------------------------

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
        return self.pool.total_benefit * self._influenced / len(self.pool.samples)

    def estimate_upper_bound(self) -> float:
        """``ν_R(S)`` for the current seed set."""
        self._check_sync()
        if not self.pool.samples:
            return 0.0
        return self.pool.total_benefit * self._fractional / len(self.pool.samples)

    # -- mutation -------------------------------------------------------

    def _apply_mask(self, sample_idx: int, mask: int) -> None:
        """Merge one seed's member mask for one sample into the state."""
        new_bits = mask & ~self._covered_mask[sample_idx]
        if not new_bits:
            return
        threshold = self._thresholds[sample_idx]
        before = self._covered_count[sample_idx]
        added = _popcount(new_bits)
        self._covered_mask[sample_idx] |= new_bits
        self._covered_count[sample_idx] = before + added
        if before < threshold:
            effective = min(before + added, threshold) - before
            self._fractional += effective / threshold
            if before + added >= threshold:
                self._influenced += 1

    def add_seed(self, node: int) -> None:
        """Add ``node`` and update all masks/counters."""
        self._check_sync()
        if node in self._seed_set:
            raise SolverError(f"node {node} is already a seed")
        self.seeds.append(node)
        self._seed_set.add(node)
        for sample_idx, mask in self._node_masks.get(node, {}).items():
            self._apply_mask(sample_idx, mask)

    # -- marginals ------------------------------------------------------

    def gain_pair(self, node: int) -> Tuple[int, float]:
        """Marginal (ĉ, ν) gains of adding ``node``."""
        self._check_sync()
        if node in self._seed_set:
            return 0, 0.0
        gain_c = 0
        gain_nu = 0.0
        for sample_idx, mask in self._node_masks.get(node, {}).items():
            new_bits = mask & ~self._covered_mask[sample_idx]
            if not new_bits:
                continue
            threshold = self._thresholds[sample_idx]
            before = self._covered_count[sample_idx]
            if before >= threshold:
                continue
            added = _popcount(new_bits)
            gain_nu += (min(before + added, threshold) - before) / threshold
            if before + added >= threshold:
                gain_c += 1
        return gain_c, gain_nu

    def gain_influenced(self, node: int) -> int:
        """Marginal ĉ gain of ``node``."""
        return self.gain_pair(node)[0]

    def gain_fractional(self, node: int) -> float:
        """Marginal ν gain of ``node``."""
        return self.gain_pair(node)[1]
