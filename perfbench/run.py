"""frobamp benchmark: closed-loop runs of seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, a table

One client drives frobamp in this single-threaded process: the next
operation starts when the previous one has finished.  Each workload runs in
its own process (``--workload all`` starts one child per workload), so peak
RSS and process-global caches do not leak between workloads.

Set-up is the import of frobamp (the median of three cold imports), input
generation from the seed and one untimed warm-up round.  The timed loop
runs a workload's once-per-run operations, then whole passes over the
workload's rounds until ``--seconds`` have passed and enough operations were
attempted for the workload's tail percentile to have ten samples beyond
it.  Every operation has a wall-clock budget
(SIGALRM); its outcome is ``ok``, ``error`` (it raised), ``timeout`` (over
budget) or ``wrong`` (the oracle checks after the loop rejected its
answer).  Answers are checked outside the timed loop.

With ``--trace 1`` every round runs twice, once untraced and once under the
outside-in tracer, for about ``--seconds`` in all; the per-layer metrics
come from the traced passes, normalised per operation, and
``trace.overhead_frac`` compares the two.  Spans are written to
``perfbench/results/``.

The last line of standard output is one JSON object: ``correct`` (no answer
was wrong and every check passed), ``attempted``, ``failed`` (error +
timeout + wrong) and ``metrics``.  The lines before it name the seed, the
input digest and the outcome of every kind of operation.  Tune on any seed;
claim a gain also on the hold-out seed below, which no change is tuned on.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RESULTS = HERE / "results"
HOLDOUT_SEED = 7919


def declared():
    """Workload names and metric units, as BENCHMARK.json declares them."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


WORKLOAD_NAMES, END_TO_END, PER_LAYER = declared()

OK, ERROR, TIMEOUT, WRONG = "ok", "error", "timeout", "wrong"


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its budget.

    A BaseException, so that no ``except Exception`` inside frobamp (the
    verify battery, the CLI) can swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


class Record:
    __slots__ = ("op", "outcome", "seconds", "answer", "detail")

    def __init__(self, op, outcome, seconds, answer, detail):
        self.op, self.outcome, self.seconds = op, outcome, seconds
        self.answer, self.detail = answer, detail


def run_one(op, budget, run, tracer=None):
    """Run one operation under its budget; never raises OpTimeout."""
    first = span = None
    if tracer is not None:
        first = len(tracer.span_name)
        span = tracer.begin(tracer.name_id(f"op.{op.kind}"))
    answer, detail = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            answer = run(op)
            outcome = OK
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome, detail = TIMEOUT, f"over the {budget} s budget"
    except Exception as exc:  # an operation that raises is a failed op
        outcome, detail = ERROR, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        if outcome == TIMEOUT:
            tracer.repair(first)
        else:
            tracer.end(span)
    if outcome == TIMEOUT:
        seconds = budget  # the client gave up at the budget
    return Record(op, outcome, seconds, answer, detail)


def closed_loop(rounds, budget, run, seconds, min_ops=0, passes=None,
                tracer=None, once=()):
    """``once``, then whole passes over ``rounds`` until ``seconds`` have
    passed and ``min_ops`` ops were attempted (or exactly ``passes``
    passes).  Returns the records, the wall time and the number of rounds
    run.

    Whole passes keep the mix of a run the mix the rounds were drawn for.
    """
    t0 = time.perf_counter()
    records = [run_one(op, budget, run, tracer) for op in once]
    r = 0
    while True:
        if r % len(rounds) == 0:
            done = r // len(rounds)
            if passes is not None:
                if done == passes:
                    break
            elif (len(records) >= min_ops
                  and time.perf_counter() - t0 >= seconds):
                break
        for op in rounds[r % len(rounds)]:
            records.append(run_one(op, budget, run, tracer))
        r += 1
    return records, time.perf_counter() - t0, r


def check_records(records, wl):
    """Oracle checks outside the timed loop; marks wrong answers in place.

    Each distinct input is checked once; every later answer for the same
    input must equal the checked one.  Returns the problems found.
    """
    checked, problems = {}, []
    for rec in records:
        key = (rec.op.kind, rec.op.spec)
        if key not in checked:
            try:
                bad = wl.input_checks(rec.op)
            except Exception as exc:  # a crashing oracle is a failed check
                bad = f"input check raised {type(exc).__name__}: {exc}"
            checked[key] = [None, bad]
            if bad:
                problems.append(f"{rec.op.kind} {rec.op.spec!r:.120}: {bad}")
        entry = checked[key]
        if rec.outcome != OK:
            continue
        if entry[0] is None:
            try:
                bad = wl.check_op(rec.op, rec.answer)
            except Exception as exc:
                bad = f"check raised {type(exc).__name__}: {exc}"
            entry[0] = rec.answer
            if bad:
                entry[1] = entry[1] or bad
                problems.append(f"{rec.op.kind} {rec.op.spec!r:.120}: {bad}")
        elif rec.answer != entry[0]:
            rec.detail = "answer differs from another run of the same input"
            problems.append(f"{rec.op.kind} {rec.op.spec!r:.120}: "
                            f"{rec.detail}")
            rec.outcome = WRONG
            continue
        if entry[1]:
            rec.outcome, rec.detail = WRONG, entry[1]
    return problems


def quantile(values, q):
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def ok_rate(records, seconds):
    """Operations that finished correctly per second of ``seconds``."""
    return sum(r.outcome == OK for r in records) / seconds


def latency_table(records, label):
    """label -> count, min, median and max latency (ms) of its operations."""
    groups = {}
    for rec in records:
        groups.setdefault(label(rec.op), []).append(1000 * rec.seconds)
    return {k: {"n": len(v), "min_ms": min(v),
                "median_ms": statistics.median(v), "max_ms": max(v)}
            for k, v in sorted(groups.items())}


def outcome_table(records):
    """kind -> {outcome: count}, plus the first message of each failure."""
    table, messages = {}, {}
    for rec in records:
        row = table.setdefault(rec.op.kind, {})
        row[rec.outcome] = row.get(rec.outcome, 0) + 1
        if rec.outcome != OK:
            messages.setdefault(f"{rec.op.kind}/{rec.outcome}",
                                rec.detail or "")
    return table, messages


def layer_metrics(tracer, n_ops, overhead):
    stats = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_s(prefix):
        return sum(s for name, (_, _, s) in stats.items()
                   if name.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    cells = calls("cohomology.sheaf_cohomology")
    regs = calls("cohomology.regularity")
    rank_cells = counters.get("linalg.rank_cells", 0)
    values = {
        "groebner.buchberger_calls": calls("groebner.buchberger"),
        "groebner.buchberger_self_s": stats.get(
            "groebner.buchberger", (0, 0.0, 0.0))[2],
        "groebner.basis_elems": counters.get("groebner.basis_elems", 0),
        "groebner.syzygies_calls": calls("groebner.syzygies"),
        "groebner.syzygies_out": counters.get("groebner.syzygies_out", 0),
        "groebner.normal_form_calls": calls("groebner.normal_form"),
        "groebner.self_s": self_s("groebner."),
        "resolution.free_resolution_calls":
            calls("resolution.free_resolution"),
        "resolution.self_s": self_s("resolution."),
        "resolution.betti_total": counters.get("resolution.betti_total", 0),
        "modules.hilbert_function_calls":
            calls("modules.GradedModule.hilbert_function"),
        "modules.hilbert_function_s":
            incl("modules.GradedModule.hilbert_function"),
        "modules.degree_piece_calls": calls("modules.GradedMap.degree_piece"),
        "modules.degree_piece_s": incl("modules.GradedMap.degree_piece"),
        "modules.degree_piece_cells":
            counters.get("modules.degree_piece_cells", 0),
        "linalg.rank_calls": calls("linalg.rank_mod"),
        "linalg.rank_s": incl("linalg.rank_mod"),
        "linalg.rank_cells": rank_cells,
        "linalg.rank_bytes_computed": 8 * rank_cells,
        "cohomology.cells": cells,
        "cohomology.self_s": self_s("cohomology."),
        "cohomology.regularity_calls": regs,
        "polynomials.mul_calls": calls("polynomials.MultiPoly.__mul__"),
        "polynomials.add_calls": calls("polynomials.MultiPoly.__add__"),
        "polynomials.self_s": self_s("polynomials."),
        "amplitude.f_amplitude_calls": calls("amplitude.f_amplitude"),
        "amplitude.self_s": self_s("amplitude."),
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli."),
        "modfile.load_s": incl("modfile.loads_module"),
    }
    values = {k: v / n_ops for k, v in values.items()}
    values.update({
        "resolution.syzygy_yield": ratio(
            counters.get("resolution.rank_ge2", 0),
            counters.get("groebner.syzygies_out", 0)),
        "modules.degree_piece_max_cells":
            counters.get("modules.degree_piece_max_cells", 0),
        "linalg.rank_max_cells": counters.get("linalg.rank_max_cells", 0),
        "cohomology.ranks_per_cell": ratio(tracer.count_under(
            "linalg.rank_mod", "cohomology.sheaf_cohomology"), cells),
        "cohomology.cells_per_regularity": ratio(tracer.count_under(
            "cohomology.sheaf_cohomology", "cohomology.regularity"), regs),
        "trace.overhead_frac": overhead,
    })
    return values, stats


IMPORT_PROBE = """
import sys, time
t = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
print(time.perf_counter() - t)
"""


def import_seconds() -> float:
    """Import time of frobamp in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(REPO / "src"), str(HERE)],
        capture_output=True, text=True, check=True)
    return float(proc.stdout)


def fix_mmap_threshold():
    """Serve every large block from mmap, so that RSS tracks live memory.

    glibc raises its mmap threshold after each large free; later big arrays
    then come from the heap and stay resident after they are freed, and the
    peak RSS depends on the order of the operations rather than on what each
    one needs.  Fixing the threshold (to its default) stops that.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: leave the allocator be
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def run_workload(args) -> int:
    fix_mmap_threshold()
    t0 = time.perf_counter()
    sys.path.insert(0, str(REPO / "src"))
    import workloads as wl  # imports frobamp

    imports = [time.perf_counter() - t0]
    t0 = time.perf_counter()
    workload = wl.WORKLOADS[args.workload]
    warmup, once, rounds, digest = wl.generate(workload, args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    closed_loop([warmup], workload.budget_s, wl.run_op, 0, passes=1,
                once=once)
    prepare_s = time.perf_counter() - t0
    # the import can only be cold once per process: repeat it in fresh
    # interpreters and take the median of three
    imports += [import_seconds() for _ in range(2)]
    setup_s = statistics.median(imports) + prepare_s

    report = {"workload": workload.name, "seed": args.seed,
              "cpus": os.cpu_count(), "input_digest": digest,
              "holdout_seed": HOLDOUT_SEED, "budget_s": workload.budget_s}
    measure = measure_traced if args.trace else measure_untraced
    records, metrics, units = measure(workload, once, rounds, args, wl,
                                      report)
    if not args.trace:
        metrics["setup_s"] = setup_s
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    problems = report["check_problems"]
    attempted = len(records)
    failed = sum(r.outcome != OK for r in records)
    table, messages = outcome_table(records)
    report.update({"trace": args.trace, "attempted": attempted,
                   "failed": failed, "ops_failed_frac": failed / attempted,
                   "outcomes": table, "failure_examples": messages,
                   "latency_by_shape": latency_table(records, wl.label),
                   "metrics": metrics})
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  inputs {digest}  "
          f"cpus {os.cpu_count()}")
    print(f"  hold-out seed {HOLDOUT_SEED}; rounds {report['rounds']}; "
          f"budget {workload.budget_s} s per op")
    for kind, row in sorted(table.items()):
        print(f"  {kind:12s} " + "  ".join(f"{k} {v}"
                                           for k, v in sorted(row.items())))
    for key, msg in sorted(messages.items()):
        print(f"  first {key}: {msg}")
    for msg in problems[:5]:
        print(f"  check: {msg}")
    print(f"  ops_failed_frac = {failed / attempted:.4f} ratio "
          f"({failed} of {attempted})")
    for name, value in metrics.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{100 * workload.tail_q:g} of {attempted} samples)"
        print(f"  {name} = {value:.6g} {units[name]}{extra}")
    print(f"  details: {out.relative_to(REPO)}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def measure_untraced(workload, once, rounds, args, wl, report):
    """The timed loop with tracing off: the end-to-end metrics."""
    records, wall, n_rounds = closed_loop(
        rounds, workload.budget_s, wl.run_op, args.seconds,
        min_ops=workload.min_ops, once=once)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["check_problems"] = check_records(records, wl)
    latencies = [r.seconds for r in records]
    report.update({"rounds": n_rounds, "wall_s": wall,
                   "tail_percentile": 100 * workload.tail_q,
                   "tail_samples": len(latencies)})
    metrics = {
        "ops_per_s": ok_rate(records, wall),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * quantile(latencies, workload.tail_q),
        "peak_rss_mb": peak_rss_mb,
    }
    return records, metrics, END_TO_END


def measure_traced(workload, once, rounds, args, wl, report):
    """Every round twice, untraced and traced, alternating which goes first,
    until the untraced passes have taken half the time: per-layer metrics.

    Pairing the passes round by round lets drift of the machine's speed
    cancel out of ``trace.overhead_frac``.
    """
    from tracer import Tracer

    tracer = Tracer()
    records = {False: [], True: []}
    wall = {False: 0.0, True: 0.0}
    r = -1  # round -1 holds the once-per-run operations
    while r < 0 or wall[False] < args.seconds / 2:
        ops = once if r < 0 else rounds[r % len(rounds)]
        for traced in ((True, False) if r % 2 else (False, True)):
            if traced:
                tracer.install()
            try:
                batch, seconds, _ = closed_loop(
                    [ops], workload.budget_s, wl.run_op, 0, passes=1,
                    tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
            records[traced] += batch
            wall[traced] += seconds
        r += 1
    report["check_problems"] = check_records(records[False] + records[True],
                                             wl)
    rate_u = ok_rate(records[False], wall[False])
    rate_t = ok_rate(records[True], wall[True])
    overhead = rate_u / rate_t - 1 if rate_t else 0.0
    metrics, stats = layer_metrics(tracer, len(records[True]), overhead)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload.name}-seed{args.seed}-spans.tsv.gz"
    tracer.write(spans)
    report.update({"rounds": r,
                   "spans_file": str(spans.relative_to(REPO)),
                   "spans": len(tracer.span_name),
                   "span_stats": {k: {"calls": c, "incl_s": a, "self_s": s}
                                  for k, (c, a, s) in sorted(stats.items())},
                   "ops_per_s_untraced": rate_u, "ops_per_s_traced": rate_t})
    return records[False] + records[True], metrics, PER_LAYER


def run_all(args) -> int:
    """Each workload in its own child process; print a table of metrics."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=REPO)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    units = PER_LAYER if args.trace else END_TO_END
    print()
    print(f"{'metric':36s}" + "".join(f"{w:>18s}" for w in results))
    for metric, unit in units.items():
        cells = "".join(
            f"{r['metrics'][metric]['value']:18.6g}" for r in results.values())
        print(f"{metric + ' [' + unit + ']':36s}{cells}")
    print(f"{'ops_failed_frac [ratio]':36s}" + "".join(
        f"{r['failed'] / r['attempted']:18.4f}" for r in results.values()))
    print(f"{'correct':36s}" + "".join(
        f"{str(r['correct']):>18s}" for r in results.values()))
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (REPO / "src" / "frobamp" / "__init__.py").is_file():
        print(f"error: frobamp sources not found in {REPO / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
