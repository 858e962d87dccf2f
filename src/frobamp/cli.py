"""Command-line front end.

Subcommands map one-to-one onto the library's public operations; every
command can emit either a human-readable text report or line-delimited
structured records (``--format structured``).  Structured output is
schema-stable and deterministic: the first record is always a ``meta``
record carrying the tool version, the primes in effect, and a digest of the
input; identical inputs produce byte-identical output.

The argument parser is built once per process and reused by every
``main`` call; ``main`` finds the handler ``_cmd_<subcommand>`` by name at
call time.  Module-file commands load every module they need before the
``meta`` record, so an input error leaves stdout empty.

Exit codes: 0 on success, 1 when a requested assertion or check failed,
2 on input errors (malformed module files, nonprime moduli, bad windows)
and when a computation runs out of memory, and 141 (128 + SIGPIPE) with
nothing on stderr when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .amplitude import f_amplitude
from .cohomology import cohomology_table, minreg_areg, regularity
from .modfile import ModuleFileError, file_digest, load_module, text_digest
from .polynomials import is_prime
from .pushforward import splitting_type
from .resolution import minimal_resolution
from .schur import carter_lusztig_complex, parse_partition, schur_dimension
from .verify import run_verify


class Reporter:
    def __init__(self, structured: bool):
        self.structured = structured

    def meta(self, subcommand, primes, digest):
        self.emit({"record": "meta", "tool": "frobamp",
                   "version": __version__, "subcommand": subcommand,
                   "primes": list(primes), "input_digest": digest}, None)

    def emit(self, record, text):
        if self.structured:
            if record is not None:
                print(json.dumps(record, sort_keys=True,
                                 separators=(",", ":")))
        elif text is not None:
            print(text)


def _parse_window(text: str, cap: int = 500):
    try:
        lo_s, hi_s = text.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad window {text!r}; expected lo..hi") from None
    if lo > hi:
        raise ValueError(f"window {text!r} is empty (lo > hi)")
    if hi - lo + 1 > cap:
        raise ValueError(f"window {text!r} exceeds {cap} twists")
    return lo, hi


def _check_primes(primes):
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
    return primes


def _module_primes(args):
    """Primes in effect for a module-file command."""
    if args.prime:
        return _check_primes(args.prime)
    return []  # fall back to the file's own prime


def _load(args, prime=None):
    return load_module(args.module, prime=prime)


def _cmd_cohomology(args, rep: Reporter):
    primes = _module_primes(args)
    p = primes[0] if primes else None
    module = _load(args, p)
    lo, hi = (_parse_window(args.window) if args.window
              else (-module.num_vars, 0))
    rep.meta("cohomology", [module.prime], file_digest(args.module))
    table = cohomology_table(module, lo, hi)
    rep.emit({"record": "window", "lo": lo, "hi": hi,
              "prime": module.prime}, f"prime {module.prime}, window "
             f"{lo}..{hi}")
    for i in range(table.n + 1):
        for d in range(lo, hi + 1):
            rep.emit({"record": "cohomology", "i": i, "d": d,
                      "h": table.cell(i, d)}, None)
    rep.emit({"record": "summary", "status": "ok"}, table.render_text())
    return 0


def _cmd_regularity(args, rep: Reporter):
    primes = _module_primes(args)
    module = _load(args, primes[0] if primes else None)
    rep.meta("regularity", [module.prime], file_digest(args.module))
    r = regularity(module)
    reg = r.sheaf_regularity
    rep.emit({"record": "regularity", "prime": module.prime,
              "sheaf_regularity": reg,
              "module_regularity_bound": r.module_regularity_bound,
              "reg_x": r.reg_x},
             f"sheaf regularity = {'-infinity' if reg is None else reg}\n"
             f"module Betti bound = {r.module_regularity_bound}\n"
             f"Reg(X) = {r.reg_x}")
    return 0


def _cmd_famp(args, rep: Reporter):
    # every module is loaded (and spot-checked) before anything is printed
    primes = _module_primes(args)
    modules = [_load(args, p) for p in primes] if primes else [_load(args)]
    rep.meta("famp", [m.prime for m in modules], file_digest(args.module))
    checks = tuple(args.check_frobenius or ())
    results = [(m.prime, f_amplitude(m, frobenius_check=checks))
               for m in modules]
    for p, report in results:
        rep.emit({"record": "famp", "prime": p, "phi": report.phi,
                  "f_ample": report.f_ample},
                 (f"prime {p}: phi = {report.phi}" if len(results) > 1
                  else f"phi = {report.phi}"))
        t = report.witness_table
        for i in range(t.n + 1):
            for d in range(t.twist_lo, t.twist_hi + 1):
                rep.emit({"record": "witness", "prime": p, "i": i, "d": d,
                          "h": t.cell(i, d)}, None)
        rep.emit(None, t.render_text())
    if len(results) > 1 and not rep.structured:
        print("phi per prime: "
              + ", ".join(f"{p}: {r.phi}" for p, r in results))
    return 0


def _cmd_minreg(args, rep: Reporter):
    primes = _module_primes(args)
    module = _load(args, primes[0] if primes else None)
    rep.meta("minreg", [module.prime], file_digest(args.module))
    r = minreg_areg(module, args.max_e)
    regs = ["-infinity" if v is None else v for v in r.regularities]
    rep.emit({"record": "minreg", "prime": module.prime,
              "regularities": regs,
              "minreg_upper_bound": ("-infinity"
                                     if r.minreg_upper_bound is None
                                     else r.minreg_upper_bound),
              "trend": r.trend},
             f"regularities of Frobenius pullbacks (e = 0..{args.max_e}): "
             + ", ".join(map(str, regs))
             + f"\nminreg upper bound = {r.minreg_upper_bound}"
             + f"\ntrend: {r.trend} (finite-sample evidence only)")
    return 0


def _cmd_frobsplit(args, rep: Reporter):
    digest = text_digest(f"frobsplit n={args.n} d={args.d} i={args.i}")
    rep.meta("frobsplit", [], digest)
    st = splitting_type(args.n, args.d, args.i)
    for l in sorted(st.multiplicities, reverse=True):
        rep.emit({"record": "splitting", "twist": l,
                  "multiplicity": st.multiplicities[l]}, None)
    ok = st.total == args.d ** args.n
    rep.emit({"record": "check", "name": "rank-identity",
              "status": "pass" if ok else "fail"},
             st.render_text() + f"\nrank identity: total {st.total} = "
             f"{args.d}^{args.n}: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_schur(args, rep: Reporter):
    lam = parse_partition(args.partition)
    digest = text_digest(f"schur r={args.rank} partition={lam}")
    rep.meta("schur", [], digest)
    dim = schur_dimension(lam, args.rank)
    rep.emit({"record": "schur", "rank": args.rank,
              "partition": list(lam.parts), "dimension": dim},
             f"dim of Schur power {lam} of a rank-{args.rank} space = {dim}")
    return 0


def _cmd_cl_check(args, rep: Reporter):
    digest = text_digest(f"cl-check r={args.rank} p={args.p}")
    rep.meta("cl-check", [args.p], digest)
    cx = carter_lusztig_complex(args.rank, args.p)
    rep.emit({"record": "carter-lusztig", "rank": cx.rank, "prime": cx.prime,
              "partitions": [list(q.parts) for q in cx.partitions],
              "dimensions": list(cx.dimensions),
              "alternating_sum": cx.alternating_sum},
             "resolution terms: "
             + ", ".join(f"{q} (dim {d})"
                         for q, d in zip(cx.partitions, cx.dimensions))
             + f"\nalternating sum (with leading rank {cx.rank}): "
             f"{cx.alternating_sum}  -> exactness-consistent")
    return 0


def _cmd_resolve(args, rep: Reporter):
    primes = _module_primes(args)
    module = _load(args, primes[0] if primes else None)
    rep.meta("resolve", [module.prime], file_digest(args.module))
    res = minimal_resolution(module)
    lines = []
    for k, counts in res.betti_numbers().items():
        rep.emit({"record": "betti", "index": k,
                  "twists": {str(t): c for t, c in sorted(counts.items())}},
                 None)
        desc = " + ".join(f"R(-{t})^{c}" if c > 1 else f"R(-{t})"
                          for t, c in sorted(counts.items())) or "0"
        lines.append(f"F_{k} = {desc}")
    rep.emit({"record": "summary", "status": "ok",
              "length": res.length, "minimal": res.is_minimal()},
             "\n".join(lines) + f"\nlength = {res.length}, minimal = "
             f"{res.is_minimal()}")
    return 0


def _cmd_verify(args, rep: Reporter):
    primes = _check_primes(args.prime or [2, 3, 5])
    digest = text_digest("verify primes=" + ",".join(map(str, primes)))
    rep.meta("verify", primes, digest)
    results = run_verify(primes)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "fail"
        if not r.passed:
            failed += 1
        rep.emit({"record": "check", "name": r.name, "status": status,
                  "detail": r.detail},
                 f"{'PASS' if r.passed else 'FAIL'}  {r.name}  ({r.detail})")
    rep.emit({"record": "summary",
              "status": "ok" if failed == 0 else "fail",
              "checks_passed": len(results) - failed,
              "checks_failed": failed},
             f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="frobamp",
        description="Exact computations of Frobenius amplitude, sheaf "
                    "cohomology, regularity, pushforward splitting types "
                    "and Schur-module dimensions on projective space over "
                    "prime fields.")
    parser.add_argument("--version", action="version",
                        version=f"frobamp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, module_arg=True, prime=True):
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")
        if prime:
            sp.add_argument("--prime", "-p", type=int, action="append",
                            help="prime modulus (repeatable where a sweep "
                                 "makes sense); overrides the module file")
        if module_arg:
            sp.add_argument("module", help="module file (YAML)")

    sp = sub.add_parser("cohomology", help="cohomology table over a window")
    sp.add_argument("--window", help="twist window lo..hi")
    common(sp)

    sp = sub.add_parser("regularity", help="Castelnuovo-Mumford regularity")
    common(sp)

    sp = sub.add_parser("famp", help="F-amplitude (optionally multi-prime)")
    sp.add_argument("--check-frobenius", type=int, action="append",
                    metavar="E", help="re-verify phi on the E-th Frobenius "
                                      "pullback")
    common(sp)

    sp = sub.add_parser("minreg", help="regularity of Frobenius pullbacks")
    sp.add_argument("--max-e", type=int, default=3)
    common(sp)

    sp = sub.add_parser("frobsplit",
                        help="splitting type of a pushforward of O(i)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    common(sp, module_arg=False, prime=False)

    sp = sub.add_parser("schur", help="Schur-module dimension")
    sp.add_argument("rank", type=int)
    sp.add_argument("partition", help='partition, e.g. "3,1"')
    common(sp, module_arg=False, prime=False)

    sp = sub.add_parser("cl-check",
                        help="hook resolution dimension bookkeeping")
    sp.add_argument("rank", type=int)
    sp.add_argument("p", type=int)
    common(sp, module_arg=False, prime=False)

    sp = sub.add_parser("resolve", help="minimal free resolution / Betti")
    common(sp)

    sp = sub.add_parser("verify", help="run the cross-check battery")
    common(sp, module_arg=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Reporter(structured=(args.format == "structured"))
    # looked up per call, by name, so a patched handler is the one called
    command = globals()["_cmd_" + args.subcommand.replace("-", "_")]
    try:
        code = command(args, rep)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush is silent, and exit as a writer killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ModuleFileError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.subcommand}; the input is "
              f"too large for the memory available", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
