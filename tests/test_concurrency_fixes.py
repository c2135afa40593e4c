"""Regression tests for the serving-layer concurrency sweep.

Each test pins one of the bugs found while putting a long-lived server
on top of the sampling/coverage/persistence layers:

- ``RICSamplePool.compact()`` under the repeated compact -> add ->
  compact top-up cycle (interning stays canonical, re-seals are
  idempotent, estimates are unaffected);
- coverage engines failing *loudly* when ``resync()`` races a marginal
  evaluation instead of answering from half-built state;
- ``read_jsonl`` racing a live ``JsonlSink`` writer (a partially
  flushed last line must be skipped, never mis-parsed);
- ``Deadline`` re-anchoring its monotonic expiry when pickled to a
  spawned worker process.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.bitset_engine import BitsetCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.retry import Deadline


def _make_pool(seed: int, graph, blocks) -> RICSamplePool:
    communities = CommunityStructure(
        [
            Community(members=tuple(block), threshold=2, benefit=float(len(block)))
            for block in blocks
        ]
    )
    return RICSamplePool(RICSampler(graph, communities, seed=seed))


# ----------------------------------------------------------------------
# Satellite 1: compact -> add -> compact cycle
# ----------------------------------------------------------------------


class TestCompactTopUpCycle:
    def test_estimates_match_never_compacted_pool(self, planted_instance):
        graph, blocks = planted_instance
        cycled = _make_pool(5, graph, blocks)
        plain = _make_pool(5, graph, blocks)
        for _ in range(4):
            cycled.grow(40)
            cycled.compact()
        plain.grow(160)
        seeds = sorted(plain.touching_nodes())[:4]
        assert cycled.estimate_benefit(seeds) == plain.estimate_benefit(seeds)
        assert cycled.estimate_upper_bound(seeds) == plain.estimate_upper_bound(seeds)
        for node in plain.touching_nodes():
            assert list(cycled.coverage_of(node)) == list(plain.coverage_of(node))

    def test_reach_sets_stay_canonical_across_reseals(self, planted_instance):
        graph, blocks = planted_instance
        pool = _make_pool(11, graph, blocks)
        pool.grow(60)
        pool.compact()
        pool.grow(60)  # added after the first seal: interned eagerly
        pool.compact()
        pool.grow(60)
        pool.compact()
        canonical = {}
        for sample in pool.samples:
            for reach in sample.reach_sets:
                # One object per distinct value, pool-wide: every equal
                # frozenset is the *same* object after compaction.
                assert canonical.setdefault(reach, reach) is reach

    def test_recompact_is_idempotent(self, planted_instance):
        graph, blocks = planted_instance
        pool = _make_pool(23, graph, blocks)
        pool.grow(80)
        first = pool.compact()
        again = pool.compact()
        assert again["interned_duplicates"] == 0
        assert again["reach_sets"] == first["reach_sets"]
        assert again["unique_reach_sets"] == first["unique_reach_sets"]
        assert again["coverage_entries"] == first["coverage_entries"]
        # Entries stay sealed (tuples) through a no-op re-compact.
        for node in pool.touching_nodes():
            assert type(pool.coverage_of(node)) is tuple

    def test_stats_account_for_growth_between_seals(self, planted_instance):
        graph, blocks = planted_instance
        pool = _make_pool(31, graph, blocks)
        pool.grow(50)
        pool.compact()
        pool.grow(50)
        stats = pool.compact()
        assert stats["reach_sets"] == sum(
            len(s.reach_sets) for s in pool.samples
        )
        distinct = {r for s in pool.samples for r in s.reach_sets}
        assert stats["unique_reach_sets"] == len(distinct)


# ----------------------------------------------------------------------
# Satellite 2: resync() vs marginal() must fail loudly
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "engine_factory",
    [CoverageState, BitsetCoverage],
    ids=["reference", "bitset"],
)
class TestResyncGuard:
    def test_marginals_raise_mid_resync(self, planted_pool, engine_factory):
        engine = engine_factory(planted_pool)
        node = planted_pool.touching_nodes()[0]
        engine._resyncing = True  # what a concurrent resync() sets
        try:
            with pytest.raises(SolverError, match="mid-resync"):
                engine.gain_pair(node)
            with pytest.raises(SolverError, match="mid-resync"):
                engine.estimate_benefit()
            with pytest.raises(SolverError, match="mid-resync"):
                engine.add_seed(node)
        finally:
            engine._resyncing = False
        # Loud failure, not corruption: the engine still works after.
        assert engine.gain_pair(node) is not None

    def test_reentrant_resync_raises(self, planted_pool, engine_factory):
        engine = engine_factory(planted_pool)
        engine._resyncing = True
        try:
            with pytest.raises(SolverError, match="resync"):
                engine.resync()
        finally:
            engine._resyncing = False

    def test_serialized_resync_still_works(self, planted_pool, engine_factory):
        engine = engine_factory(planted_pool)
        node = planted_pool.touching_nodes()[0]
        engine.add_seed(node)
        before = engine.influenced_count
        planted_pool.grow(25)
        engine.resync()
        assert engine._resyncing is False
        assert engine.influenced_count >= before
        assert engine._synced_samples == len(planted_pool.samples)


# ----------------------------------------------------------------------
# Satellite 3: read_jsonl racing a live JsonlSink writer
# ----------------------------------------------------------------------


class TestReadJsonlLiveTail:
    def test_unterminated_tail_skipped_even_if_prefix_parses(self, tmp_path):
        path = tmp_path / "live.jsonl"
        # The writer's record will be "22" but only "2" has been
        # flushed — the partial line *parses* (as 2), which is exactly
        # why parse-success must not be the completeness test.
        path.write_text('{"a": 1}\n2', encoding="utf-8")
        assert read_jsonl(str(path)) == [{"a": 1}]

    def test_unterminated_garbage_tail_does_not_raise(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"a": 1}\n{"b": ', encoding="utf-8")
        assert read_jsonl(str(path)) == [{"a": 1}]

    def test_tail_promoted_once_newline_lands(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"a": 1}\n{"b": 2')
            fh.flush()
            assert read_jsonl(str(path)) == [{"a": 1}]
            fh.write("2}\n")
            fh.flush()
            assert read_jsonl(str(path)) == [{"a": 1}, {"b": 22}]

    def test_live_sink_reader_sees_complete_prefix(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        with JsonlSink(str(path)) as sink:
            for i in range(5):
                sink.write({"i": i})
                records = read_jsonl(str(path))
                assert records == [{"i": j} for j in range(i + 1)]

    def test_malformed_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))


# ----------------------------------------------------------------------
# Satellite 4: Deadline must re-anchor across pickling
# ----------------------------------------------------------------------


class TestDeadlinePickle:
    def test_remaining_budget_survives_roundtrip(self):
        deadline = Deadline(30.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert 29.0 < clone.remaining() <= 30.0
        assert not clone.expired()

    def test_never_survives_roundtrip(self):
        clone = pickle.loads(pickle.dumps(Deadline.never()))
        assert clone.remaining() == float("inf")
        assert not clone.expired()

    def test_foreign_monotonic_epoch_is_discarded(self):
        # A clock whose epoch is nowhere near this process's
        # time.monotonic stands in for the *other process* in the bug:
        # shipping the raw anchor would make the deadline expire ~1e9
        # seconds in the future (or the past). Re-anchoring must keep
        # only the remaining budget.
        deadline = Deadline(10.0, clock=lambda: 1.0e9)
        clone = pickle.loads(pickle.dumps(deadline))
        assert 9.0 < clone.remaining() <= 10.0

    def test_expired_deadline_stays_expired(self):
        deadline = Deadline(5.0, clock=lambda: 1.0e9)
        deadline._expires_at = 1.0e9 - 1.0  # already 1s past due
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expired()
        assert clone.remaining() <= -0.9

    @pytest.mark.fault
    def test_roundtrip_into_spawned_worker(self):
        import concurrent.futures
        import multiprocessing

        deadline = Deadline(60.0)
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx
        ) as pool:
            remaining = pool.submit(_remaining_in_worker, deadline).result(
                timeout=60
            )
        # A spawned interpreter has its own monotonic epoch; the
        # re-anchored deadline must still measure ~60s, not the
        # difference of two unrelated clocks.
        assert 0.0 < remaining <= 60.0
        assert remaining > 30.0


def _remaining_in_worker(deadline: Deadline) -> float:
    return deadline.remaining()
