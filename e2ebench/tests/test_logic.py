"""Unit tests for the benchmark's own logic (no cluster, no solves).

Run from the root of a checkout::

    python -m pytest e2ebench/tests -q -o addopts=""
"""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import (  # noqa: E402
    LayerClock,
    OpTally,
    parse_server_timing,
    provenance,
    refuse_dirty_tree,
    tail_percentile,
)
from serve import CI_BLOCK, EPOCH, Reply, check_replies, epoch_queries  # noqa: E402
from solve import SolveSpec, answer_problem, parse_answer  # noqa: E402


# -- percentile rule ---------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 21))  # 20 samples
    assert tail_percentile(values, 50) == (10, 20)  # rank 10, 10 beyond
    assert tail_percentile(values, 55) == (None, 20)  # rank 11, 9 beyond


def test_p95_needs_two_hundred_samples():
    assert tail_percentile(range(200), 95) == (189, 200)
    assert tail_percentile(range(199), 95) == (None, 199)


def test_percentile_is_order_free_and_handles_empty():
    assert tail_percentile([5, 1, 4, 2, 3] * 4, 50) == (3, 20)
    assert tail_percentile([], 50) == (None, 0)
    with pytest.raises(ValueError):
        tail_percentile([1.0], 0)


# -- nested self time --------------------------------------------------


class FakeClock:
    """Advances only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_grow_to_calls_grow_nested_self_time():
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    grow = clock.wrap("sampling.grow", lambda: fake.spend(3.0))

    def grow_to_body():
        fake.spend(0.5)
        grow()

    grow_to = clock.wrap("sampling.grow", grow_to_body)
    grow_to()
    assert clock.self_s["sampling.grow"] == pytest.approx(3.5)
    assert clock.calls["sampling.grow"] == 1  # the nested grow is not a call


def test_solve_minus_influenced_count():
    fake = FakeClock()
    clock = LayerClock(clock=fake)
    influenced = clock.wrap(
        "sampling.influenced_count", lambda: fake.spend(0.25)
    )
    bt_arm = clock.wrap("core.select", lambda: (fake.spend(2.0), influenced()))

    def mb_body():
        fake.spend(1.0)
        influenced()
        bt_arm()

    solve = clock.wrap("core.select", mb_body)
    solve()
    solve()
    assert clock.self_s["core.select"] == pytest.approx(6.0)
    assert clock.self_s["sampling.influenced_count"] == pytest.approx(1.0)
    assert clock.calls == {"core.select": 2, "sampling.influenced_count": 4}
    assert clock.total() == pytest.approx(fake.now)


def test_self_time_survives_exceptions():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def boom():
        fake.spend(1.0)
        raise RuntimeError("layer failed")

    with pytest.raises(RuntimeError):
        clock.wrap("core.estimate", boom)()
    assert clock.self_s["core.estimate"] == pytest.approx(1.0)
    assert clock._stack == []


# -- Server-Timing -----------------------------------------------------


def test_server_timing_routed_header():
    header = (
        "parse;dur=0.012, batch;dur=3.500, resolve;dur=1.0, "
        "total;dur=4.600, router;dur=48.125"
    )
    assert parse_server_timing(header) == {
        "parse": 0.012,
        "batch": 3.5,
        "resolve": 1.0,
        "total": 4.6,
        "router": 48.125,
    }


def test_server_timing_skips_malformed_entries():
    header = 'cache;desc="hit", total;dur=abc, , router;dur="2.5";desc=x'
    assert parse_server_timing(header) == {"router": 2.5}
    assert parse_server_timing(None) == {}
    assert parse_server_timing("") == {}


# -- error counting ----------------------------------------------------


def _reply(query, status=200, **body):
    base = {
        "scenario": query["scenario"],
        "budget": query["budget"],
        "solver": query["solver"],
        "seeds": [1, 2],
        "objective": 10.0,
        "num_samples": 600,
        "cache_hit": False,
        "batched": False,
    }
    base.update(body)
    return Reply(query, status, base if status == 200 else None, 0.01, {})


def test_error_rate_counts_status_transport_and_wrong_answers():
    plain = {"scenario": "facebook", "budget": 2, "solver": "UBG"}
    ci = dict(plain, ci_width=0.1)
    replies = [
        _reply(plain),
        _reply(plain),  # same answer: fine
        _reply(plain, num_samples=1200, seeds=[1, 3]),  # grown pool: fine
        _reply(plain, seeds=[1, 3]),  # disagrees at 600 samples: wrong
        _reply(plain, status=500),  # non-200
        Reply(plain, 0, None, 0.01, {}, error="ConnectionResetError"),
        _reply(ci, ci_relative_width=0.05),  # met
        _reply(ci, ci_relative_width=0.3, pool_capped=True),  # capped: fine
        _reply(ci, ci_relative_width=0.3, pool_capped=False),  # wrong
        _reply(plain, seeds=[1, 2, 3]),  # more seeds than budget: wrong
    ]
    tally = OpTally()
    check_replies(replies, tally)
    assert tally.attempted == 10
    assert tally.failed == 5
    assert tally.error_rate == pytest.approx(0.5)


def test_solve_answer_checks():
    spec = SolveSpec("facebook", 0.3, "UBG", k=3)
    lines = [
        "instance: facebook n=224 m=5088 r=34 b=224 h_max=2",
        "seeds: [0, 13, 14]",
        "stopped_by=estimate samples=9716 iterations=3 alpha=0.6321",
        "pool objective c_R(S) = 171.804",
        "Monte-Carlo c(S) = 172.426 (of b = 224)",
    ]
    answer = parse_answer(lines)
    assert answer["samples"] == 9716 and answer["stages"] == 3
    assert answer_problem(answer, spec, None, None) is None
    assert answer_problem(answer, spec, answer, None) is None
    golden = {"seeds": [0, 13, 14], "c_R": "171.804", "samples": 9716,
              "stages": 3}
    assert answer_problem(answer, spec, None, golden) is None
    assert "golden" in answer_problem(
        answer, spec, None, dict(golden, c_R="171.805")
    )
    assert "first repetition" in answer_problem(
        answer, spec, dict(answer, mc="1.0"), None
    )
    assert "|S|" in answer_problem(
        answer, SolveSpec("facebook", 0.3, "UBG", k=10), None, None
    )
    assert "outside" in answer_problem(
        dict(answer, c_R="0.000"), spec, None, None
    )
    assert answer_problem(parse_answer(lines[:3]), spec, None, None)


def test_epoch_is_a_seeded_order_of_a_fixed_multiset():
    def canon(queries):
        return sorted(tuple(sorted(q.items())) for q in queries)

    a, b = epoch_queries(7, 0), epoch_queries(8, 0)
    assert len(a) == EPOCH
    assert a == epoch_queries(7, 0)
    assert a != b and canon(a) == canon(b)
    for start in range(0, EPOCH, CI_BLOCK):
        block = a[start:start + CI_BLOCK]
        assert sum("ci_width" in q for q in block) == 1


# -- provenance --------------------------------------------------------


def _git(cwd, *args):
    subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True,
        env=dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
                 GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t"),
    )


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_recording_refuses_a_dirty_tree(tmp_path):
    from repro.errors import ReproError

    _git(tmp_path, "init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    _git(tmp_path, "add", "a.txt")
    _git(tmp_path, "commit", "-q", "-m", "one")
    refuse_dirty_tree(str(tmp_path), allow_dirty=False)
    stamp = provenance(str(tmp_path), 11)
    assert stamp["workload_seed"] == 11 and stamp["nproc"] >= 1
    assert stamp["environment"]["git_dirty"] is False
    (tmp_path / "a.txt").write_text("two\n")
    with pytest.raises(ReproError):
        refuse_dirty_tree(str(tmp_path), allow_dirty=False)
    refuse_dirty_tree(str(tmp_path), allow_dirty=True)


def test_provenance_outside_a_repository_is_unknown(tmp_path):
    stamp = provenance(str(tmp_path), 7)
    assert stamp["environment"]["git_sha"] is None
    refuse_dirty_tree(str(tmp_path), allow_dirty=False)  # unknown is allowed
