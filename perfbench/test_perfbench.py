"""Tests of the benchmark itself: tracer, failure accounting, seeding."""

import random
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import frobamp.cohomology  # noqa: E402
import frobamp.linalg  # noqa: E402
import frobamp.modules  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from frobamp import catalog  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_tracer_counts_rank_calls_through_aliases():
    original = frobamp.linalg.rank_mod
    module = catalog.tangent_bundle(5, 2)
    tracer = Tracer()
    tracer.install()
    try:
        assert frobamp.modules.rank_mod is not original
        assert frobamp.cohomology.rank_mod is frobamp.modules.rank_mod
        module.hilbert_function(2)           # modules' alias, via a method
        frobamp.cohomology.rank_mod([[1, 2], [2, 4]], 5)
    finally:
        tracer.uninstall()
    assert frobamp.modules.rank_mod is original
    stats = tracer.summary()
    assert stats["linalg.rank_mod"][0] == 2
    assert stats["modules.GradedModule.hilbert_function"][0] == 1
    assert tracer.count_under("linalg.rank_mod",
                              "modules.GradedModule.hilbert_function") == 1
    # 2x2 call, plus T(2): 3 generators x 10 cubics by 6 quadrics
    assert tracer.counters["linalg.rank_cells"] == 4 + 30 * 6


def _run_guarded(op, budget):
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        return run.run_one(op, budget, workloads.run_op)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_over_budget_is_timeout_and_raising_is_error():
    four_quadrics = workloads.random_ideal(random.Random(0), 4, 5,
                                           (2, 2, 2, 2))
    rec = _run_guarded(workloads.Op("resolve", (four_quadrics, 5)), 0.2)
    assert rec.outcome == run.TIMEOUT
    assert rec.seconds >= 0.2
    rec = _run_guarded(workloads.Op("split", (1, 1, 0)), 5)
    assert rec.outcome == run.ERROR
    assert rec.detail.startswith("ValueError")
    rec = _run_guarded(workloads.Op("split", (1, 2, 0)), 5)
    assert rec.outcome == run.OK


def test_wrong_answer_is_marked_wrong():
    op = workloads.Op("schur", ((2, 1), 3))
    good = _run_guarded(op, 5)
    bad = run.Record(op, run.OK, 0.0, good.answer + 1, None)
    problems = run.check_records([good, bad], workloads)
    assert good.outcome == run.OK and bad.outcome == run.WRONG
    assert len(problems) == 1


def test_same_seed_gives_same_inputs():
    wl = workloads.WORKLOADS["generic_resolve"]
    first, second = workloads.generate(wl, 3), workloads.generate(wl, 3)
    assert first[3] == second[3]
    assert first[1:3] == second[1:3]
    assert workloads.generate(wl, 4)[3] != first[3]


def test_balanced_draws_use_every_value_equally_often():
    wl = workloads.WORKLOADS["catalog_sweep"]
    _, _, rounds, _ = workloads.generate(wl, 5)
    twists = sorted(op.spec[0][2] for ops in rounds for op in ops
                    if op.kind == "famp" and op.spec[0][:2] == ("tangent", 2))
    assert twists == sorted(workloads.TWISTS * (wl.rounds // 5))
