"""The four benchmark workloads: seeded inputs, operations and oracles.

An operation is plain data: a kind and a spec of ints, strings and tuples.
Running it builds fresh frobamp objects from the spec, so no per-module cache
survives from one operation to the next, and returns an answer.  Checking it
compares the answer with an oracle that does not share the code path that
produced it.  Checks run after the timed loop.

Operations call frobamp through module attributes (``cohomology.regularity``
rather than a name imported into this file), so the tracer's patches see
them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from frobamp import (amplitude, catalog, cli, cohomology, groebner, modfile,
                     modules, polynomials, pushforward, resolution, schur,
                     verify)

REPO = Path(__file__).resolve().parent.parent
MODFILES = REPO / "modfiles"
GOLDEN = REPO / "tests" / "golden"
PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class Op:
    kind: str
    spec: tuple


# -- sheaves on P^n, as specs -------------------------------------------------
#
# ("lines", n, (a, ...))      O(a) + ... on P^n
# ("forms", n, j, a)          j-forms on P^n, twisted by a
# ("tangent", n, a)           tangent bundle, twisted by a
# ("irrelevant", n, a)        the irrelevant ideal (unsaturated; sheaf O(a))
# ("point", a)                ideal of a point on P^2, twisted by a
# ("tensor", s, t)            tensor product
# ("frobenius", s, e)         e-th Frobenius pullback
# ("modfile", name)           a file from modfiles/
# ("ideal", nv, gens)         R/I, gens = ((degree, ((exps, coeff), ...)), ...)
# ("matrix", nv, rows)        cokernel of a matrix of linear forms

MODFILE_SHEAF = {
    "cotangent_p2.mod": ("forms", 2, 1, 0),
    "point_ideal_p2.mod": ("point", 0),
    "structure_p2.mod": ("lines", 2, (0,)),
    "sum_o1_o2_p2.mod": ("lines", 2, (1, 2)),
    "tangent_p2.mod": ("tangent", 2, 0),
    "tangent_p3.mod": ("tangent", 3, 0),
    "twist1_p2.mod": ("lines", 2, (1,)),
}


def _twisted(module, a):
    return modules.twist(module, a) if a else module


def _poly(nv, p, terms):
    return polynomials.MultiPoly(nv, p, dict(terms))


def build(spec, p):
    """Fresh module objects for ``spec`` over F_p."""
    kind = spec[0]
    if kind == "lines":
        return catalog.line_bundle_sum(p, spec[1], spec[2])
    if kind == "forms":
        return _twisted(catalog.form_bundle(p, spec[1], spec[2]), spec[3])
    if kind == "tangent":
        return _twisted(catalog.tangent_bundle(p, spec[1]), spec[2])
    if kind == "irrelevant":
        return _twisted(catalog.irrelevant_ideal(p, spec[1]), spec[2])
    if kind == "point":
        return _twisted(catalog.point_ideal(p), spec[1])
    if kind == "tensor":
        return modules.tensor(build(spec[1], p), build(spec[2], p))
    if kind == "frobenius":
        return modules.frobenius_module(build(spec[1], p), spec[2])
    if kind == "modfile":
        return modfile.loads_module(_modfile_text(spec[1]), prime=p)
    if kind == "ideal":
        nv, gens = spec[1], spec[2]
        row = tuple(_poly(nv, p, terms) for _, terms in gens)
        pres = modules.GradedMap(p, nv, (0,), tuple(d for d, _ in gens),
                                 (row,))
        return modules.GradedModule(pres)
    if kind == "matrix":
        nv, rows = spec[1], spec[2]
        entries = tuple(tuple(_poly(nv, p, t) for t in row) for row in rows)
        pres = modules.GradedMap(p, nv, (0,) * len(rows),
                                 (1,) * len(rows[0]), entries)
        return modules.GradedModule(pres)
    raise ValueError(f"unknown module spec {spec!r}")


@functools.cache
def _modfile_text(name):
    return (MODFILES / name).read_text(encoding="utf-8")


def modfile_primes(name):
    """Primes that keep every coefficient of the file nonzero.

    Reading a file mod a prime that divides a coefficient presents another
    module (and the locally-free spot check rightly refutes the flag).
    """
    coeffs = [int(c) for c in re.findall(r"(\d+)\*", _modfile_text(name))]
    return tuple(p for p in PRIMES if all(c % p for c in coeffs))


def num_vars(spec) -> int:
    kind = spec[0]
    if kind in ("tensor", "frobenius"):
        return num_vars(spec[1])
    if kind == "modfile":
        return num_vars(MODFILE_SHEAF[spec[1]])
    if kind == "point":
        return 3
    return spec[1] + (0 if kind in ("ideal", "matrix") else 1)


def shift(spec, b):
    """The spec of the sheaf twisted by b, or None."""
    kind = spec[0]
    if kind == "lines":
        return ("lines", spec[1], tuple(a + b for a in spec[2]))
    if kind in ("forms", "tangent", "irrelevant", "point"):
        return spec[:-1] + (spec[-1] + b,)
    if kind == "tensor":
        first = shift(spec[1], b)
        return None if first is None else ("tensor", first, spec[2])
    return None


# -- closed-form oracles ------------------------------------------------------

def oracle_h(spec, p) -> Callable | None:
    """h(i, d) of the spec's sheaf in closed form, or None without one.

    Line bundles and forms come from Bott's formula; T = Omega^{n-1}(n+1);
    the irrelevant ideal sheafifies to O; the point ideal from
    0 -> I_p -> O -> k_p -> 0; the Frobenius pullback of O(a) is O(qa).
    """
    bott = cohomology.bott_oracle
    kind = spec[0]
    if kind == "lines":
        n, degs = spec[1], spec[2]
        return lambda i, d: sum(bott(n, 0, d + a, i) for a in degs)
    if kind == "forms":
        n, j, a = spec[1:]
        return lambda i, d: bott(n, j, d + a, i)
    if kind == "tangent":
        n, a = spec[1:]
        return lambda i, d: bott(n, n - 1, d + a + n + 1, i)
    if kind == "irrelevant":
        n, a = spec[1:]
        return lambda i, d: bott(n, 0, d + a, i)
    if kind == "point":
        a = spec[1]

        def point(i, d):
            t = d + a
            if i == 0:
                return comb(t + 2, 2) - 1 if t >= 0 else 0
            if i == 1:
                return 1 if t < 0 else 0
            return bott(2, 0, t, 2)
        return point
    if kind == "tensor":
        for x, y in ((spec[1], spec[2]), (spec[2], spec[1])):
            if y[0] == "lines":
                parts = [shift(x, b) for b in y[2]]
                if all(parts):
                    hs = [oracle_h(s, p) for s in parts]
                    if all(hs):
                        return lambda i, d: sum(h(i, d) for h in hs)
        return None
    if kind == "frobenius":
        inner, q = spec[1], p ** spec[2]
        if inner[0] == "lines":
            return oracle_h(("lines", inner[1],
                             tuple(q * a for a in inner[2])), p)
        if inner[0] == "irrelevant":
            return oracle_h(("lines", inner[1], (q * inner[2],)), p)
        return None
    if kind == "modfile":
        return oracle_h(MODFILE_SHEAF[spec[1]], p)
    return None


def oracle_regularity(h, n, top=200):
    """Least m with h^i(m - i) = 0 for all i > 0 (None if it never fails)."""
    m = top
    while m > -top:
        if any(h(i, m - 1 - i) for i in range(1, n + 1)):
            return m
        m -= 1
    return None


def weyl_dimension(parts, r) -> int:
    """Dimension of the Schur power from Weyl's product formula."""
    if len(parts) > r:
        return 0
    lam = list(parts) + [0] * (r - len(parts))
    value = Fraction(1)
    for i in range(r):
        for j in range(i + 1, r):
            value *= Fraction(lam[i] - lam[j] + j - i, j - i)
    return int(value)


def euler_mismatch(spec, p, lo, hi, rows):
    """First column whose Euler characteristic misses the Hilbert
    polynomial, or None."""
    coeffs = resolution.hilbert_polynomial(build(spec, p))
    for d in range(lo, hi + 1):
        chi = sum((-1) ** i * row[d - lo] for i, row in enumerate(rows))
        if chi != resolution.evaluate_polynomial(coeffs, d):
            return f"Euler characteristic at d={d}"
    return None


def table_mismatch(spec, p, lo, hi, rows):
    h = oracle_h(spec, p)
    if h is not None:
        for i, row in enumerate(rows):
            for d in range(lo, hi + 1):
                if row[d - lo] != h(i, d):
                    return f"h^{i}({d}) = {row[d - lo]}, oracle {h(i, d)}"
    return euler_mismatch(spec, p, lo, hi, rows)


def phi_of(rows):
    return max((i for i in range(1, len(rows)) if any(rows[i])), default=0)


def resolution_mismatch(res):
    if not res.compositions_are_zero():
        return "consecutive maps do not compose to zero"
    if not res.is_minimal():
        return "resolution is not minimal"
    if not res.degreewise_exact():
        return "resolution is not exact"
    return None


def betti(res):
    return tuple(tuple(sorted(res.module_twists(k)))
                 for k in range(res.length + 1))


# -- sympy as a second Groebner engine ----------------------------------------

def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _normalised(terms, p):
    """Polynomial divided by its grevlex leading coefficient."""
    terms = {e: c % p for e, c in terms.items() if c % p}
    lead = max(terms, key=_grevlex_key)
    inv = pow(terms[lead], p - 2, p)
    return frozenset((e, c * inv % p) for e, c in terms.items())


def groebner_mismatch(spec, p):
    import sympy

    nv, gens = spec[1], spec[2]
    xs = sympy.symbols(f"x0:{nv}")
    polys = [sympy.Poly.from_dict(dict(terms), *xs, modulus=p)
             for _, terms in gens if terms]
    theirs = sympy.groebner(polys, *xs, modulus=p, order="grevlex")
    theirs = {_normalised(g.as_dict(), p) for g in theirs.polys}
    cols = [(_poly(nv, p, terms),) for _, terms in gens]
    ours = groebner.groebner_basis(cols, (0,), p, num_vars=nv)
    ours = {_normalised(f.terms, p) for (f,) in ours}
    if ours != theirs:
        return f"Groebner basis differs from sympy ({len(ours)} vs " \
               f"{len(theirs)} elements)"
    return None


# -- operations ---------------------------------------------------------------

def _run_famp(spec):
    sheaf, p = spec
    report = amplitude.f_amplitude(build(sheaf, p))
    t = report.witness_table
    return report.phi, t.twist_lo, t.twist_hi, t.h


def _check_famp(spec, answer):
    sheaf, p = spec
    phi, lo, hi, rows = answer
    n = num_vars(sheaf) - 1
    if (lo, hi) != (-n - 1, 0):
        return f"witness window {lo}..{hi}"
    bad = table_mismatch(sheaf, p, lo, hi, rows)
    if bad:
        return bad
    return None if phi == phi_of(rows) else f"phi {phi} vs table"


def _run_table(spec):
    sheaf, p, lo, hi = spec
    return cohomology.cohomology_table(build(sheaf, p), lo, hi).h


def _check_table(spec, answer):
    sheaf, p, lo, hi = spec
    return table_mismatch(sheaf, p, lo, hi, answer)


def _run_regularity(spec):
    sheaf, p = spec
    r = cohomology.regularity(build(sheaf, p))
    return r.sheaf_regularity, r.module_regularity_bound, r.reg_x


def _regularity_bound(sheaf, p):
    """The Betti-number bound where it has a closed form, else None."""
    if sheaf[0] == "lines":
        return max(-a for a in sheaf[2])
    q, inner = 1, sheaf
    if sheaf[0] == "frobenius":
        q, inner = p ** sheaf[2], sheaf[1]
    if inner[0] == "irrelevant":
        # Koszul complex on x_i^q: last module in degree (n+1)q, index n
        n, a = inner[1], inner[2]
        return (n + 1) * q - q * a - n
    return None


def _check_regularity(spec, answer):
    sheaf, p = spec
    reg, bound, reg_x = answer
    if reg_x != 1:
        return f"Reg(X) = {reg_x}"
    h = oracle_h(sheaf, p)
    if h is None:
        return "no oracle for this sheaf"
    want = oracle_regularity(h, num_vars(sheaf) - 1)
    if reg != want:
        return f"regularity {reg}, oracle {want}"
    want = _regularity_bound(sheaf, p)
    if want is not None and bound != want:
        return f"Betti bound {bound}, oracle {want}"
    return None


def _run_minreg(spec):
    sheaf, p, e_max = spec
    r = cohomology.minreg_areg(build(sheaf, p), e_max)
    return r.regularities, r.minreg_upper_bound, r.trend


def _check_minreg(spec, answer):
    sheaf, p, e_max = spec
    n = num_vars(sheaf) - 1
    regs = tuple(
        oracle_regularity(oracle_h(("frobenius", sheaf, e) if e else sheaf,
                                   p), n)
        for e in range(e_max + 1))
    pairs = list(zip(regs, regs[1:]))
    trend = ("constant" if len(set(regs)) == 1
             else "decreasing" if all(a >= b for a, b in pairs)
             else "increasing" if all(a <= b for a, b in pairs)
             else "mixed")
    want = (regs, min(regs), trend)
    return None if answer == want else f"{answer} vs oracle {want}"


def _run_resolve(spec):
    module, p = spec
    return resolution.free_resolution(build(module, p))


def _check_resolve(spec, answer):
    return resolution_mismatch(answer)


def _run_split(spec):
    return tuple(pushforward.splitting_type(*spec).multiplicities.items())


def _check_split(spec, answer):
    want = tuple(pushforward.splitting_oracle(*spec).multiplicities.items())
    return None if answer == want else f"{answer} vs oracle {want}"


def _run_schur(spec):
    parts, r = spec
    return schur.schur_dimension(schur.Partition(parts), r)


def _check_schur(spec, answer):
    want = weyl_dimension(*spec)
    return None if answer == want else f"{answer} vs Weyl {want}"


def _run_verify(spec):
    return tuple((r.name, r.passed, r.detail)
                 for r in verify.run_verify(list(spec)))


def _check_verify(spec, answer):
    failed = [name for name, passed, _ in answer if not passed]
    return f"failed checks: {failed}" if failed else None


GOLDEN_CASES = {
    "frobsplit_n1_d2_i0.jsonl": ("frobsplit", "--n", "1", "--d", "2", "--i",
                                 "0", "--format", "structured"),
    "famp_tangent_p2.jsonl": ("famp", "--prime", "5", "--format",
                              "structured", "@tangent_p2.mod"),
    "cohomology_structure_p2.jsonl": ("cohomology", "--prime", "2",
                                      "--window=-3..0", "--format",
                                      "structured", "@structure_p2.mod"),
}


def cli_argv(spec):
    """argv for a CLI spec; ``@name`` stands for modfiles/name."""
    if spec[0] == "golden":
        argv = GOLDEN_CASES[spec[1]]
    else:
        sub, name, p = spec[:3]
        argv = (sub, "--prime", str(p), "--format", "structured")
        if sub == "cohomology":
            argv += (f"--window={spec[3]}..{spec[4]}",)
        argv += ("@" + name,)
    return [str(MODFILES / a[1:]) if a.startswith("@") else a for a in argv]


def _run_cli(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(cli_argv(spec))
    return code, out.getvalue()


def _check_cli(spec, answer):
    code, out = answer
    if code != 0:
        return f"exit code {code}"
    if spec[0] == "golden":
        golden = (GOLDEN / spec[1]).read_text(encoding="utf-8")
        return None if out == golden else "output differs from the golden"
    sub, name, p = spec[:3]
    sheaf = ("modfile", name)
    records = [json.loads(line) for line in out.splitlines()]
    meta = records[0]
    if meta.get("record") != "meta" or meta.get("primes") != [p]:
        return f"bad meta record {meta}"
    body = [r for r in records[1:] if r["record"] not in ("summary",
                                                          "window")]
    if sub in ("famp", "cohomology"):
        cell = "witness" if sub == "famp" else "cohomology"
        n = num_vars(sheaf) - 1
        lo, hi = (-n - 1, 0) if sub == "famp" else spec[3:5]
        rows = [[None] * (hi - lo + 1) for _ in range(n + 1)]
        for r in body:
            if r["record"] == cell:
                rows[r["i"]][r["d"] - lo] = r["h"]
        bad = table_mismatch(sheaf, p, lo, hi, rows)
        if bad or sub == "cohomology":
            return bad
        phi = next(r["phi"] for r in body if r["record"] == "famp")
        return None if phi == phi_of(rows) else f"phi {phi} vs table"
    if sub == "regularity":
        r = body[0]
        return _check_regularity(
            (sheaf, p), (r["sheaf_regularity"], r["module_regularity_bound"],
                         r["reg_x"]))
    if sub == "resolve":
        res = resolution.free_resolution(build(sheaf, p))
        bad = resolution_mismatch(res)
        if bad:
            return bad
        got = tuple(tuple(sorted(int(t) for t, c in r["twists"].items()
                                 for _ in range(c)))
                    for r in body if r["record"] == "betti")
        return None if got == betti(res) else f"Betti {got} vs {betti(res)}"
    return f"unknown CLI spec {spec!r}"


RUN = {
    "famp": _run_famp, "table": _run_table, "regularity": _run_regularity,
    "minreg": _run_minreg, "resolve": _run_resolve, "split": _run_split,
    "schur": _run_schur, "verify": _run_verify, "cli": _run_cli,
}
CHECK = {
    "famp": _check_famp, "table": _check_table,
    "regularity": _check_regularity, "minreg": _check_minreg,
    "resolve": _check_resolve, "split": _check_split,
    "schur": _check_schur, "verify": _check_verify, "cli": _check_cli,
}


def label(op: Op) -> str:
    """Short name of the operation's shape, without its random data."""
    spec = op.spec
    if op.kind == "resolve" and spec[0][0] in ("ideal", "matrix"):
        module = spec[0]
        if module[0] == "ideal":
            shape = "ideal" + "".join(str(d) for d, _ in module[2])
        else:
            shape = f"matrix{len(module[2])}x{len(module[2][0])}"
        return f"resolve {shape} P^{module[1] - 1}"
    if op.kind == "cli":
        return f"cli {spec[0]}"
    if op.kind in ("split", "schur", "verify"):
        return op.kind
    sheaf = spec[0]
    if sheaf[0] == "frobenius":
        return (f"{op.kind} {sheaf[1][0]} P^{sheaf[1][1]} "
                f"p={spec[1]} e={sheaf[2]}")
    if op.kind == "table":
        return f"table {_sheaf_name(sheaf)} [{spec[2]},{spec[3]}]"
    return f"{op.kind} {_sheaf_name(sheaf)}"


def _sheaf_name(sheaf):
    if sheaf[0] == "tensor":
        return f"{_sheaf_name(sheaf[1])}*{_sheaf_name(sheaf[2])}"
    if sheaf[0] in ("forms", "tangent", "irrelevant", "lines"):
        return f"{sheaf[0]}{sheaf[1]}" + (f",{sheaf[2]}" if sheaf[0] ==
                                          "forms" else "")
    return sheaf[0]


def run_op(op: Op):
    return RUN[op.kind](op.spec)


def check_op(op: Op, answer):
    """None when the answer is right, else a one-line reason."""
    return CHECK[op.kind](op.spec, answer)


def input_checks(op: Op):
    """Checks on the input itself, run whatever the operation's outcome."""
    if op.kind == "resolve" and op.spec[0][0] == "ideal":
        return groebner_mismatch(*op.spec)
    return None


# -- workloads ----------------------------------------------------------------

T2, T3 = ("tangent", 2, 0), ("tangent", 3, 0)
OMEGA = {(n, j): ("forms", n, j, 0) for n in (2, 3, 4) for j in (1, 2)}

FAMP_SHEAVES = (
    T2, T3, OMEGA[2, 1], OMEGA[3, 1], OMEGA[3, 2], OMEGA[4, 2],
    ("lines", 2, (1, 2)), ("irrelevant", 2, 0), ("point", 0),
    ("tensor", T2, ("lines", 2, (1,))), ("tensor", T2, T2),
    ("tensor", OMEGA[2, 1], T2),
)
REGULARITY_SHEAVES = (
    ("lines", 2, (0, 0)), OMEGA[2, 1], T3, ("irrelevant", 2, 0),
    ("point", 0), OMEGA[3, 2],
)
RESOLVE_MODULES = (("irrelevant", 3, 0), OMEGA[3, 1], T3, ("point", 0))
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)
TWISTS = (-2, -1, 0, 1, 2)


class Draws:
    """Seeded draws for the rounds of one run, balanced across the rounds.

    ``pick(site, values)`` gives the current round's value at a site (a place
    in a round that takes a random value).  Over the run's rounds each value
    comes up equally often, to within one, in a seeded order.  The inputs
    change from seed to seed but the mix of expensive and cheap ones does
    not: a twist can change an operation's cost fiftyfold.
    """

    def __init__(self, rng, rounds):
        self.rng, self.rounds, self.round, self.columns = rng, rounds, 0, {}

    def pick(self, site, values):
        column = self.columns.get(site)
        if column is None:
            column = [values[i % len(values)] for i in range(self.rounds)]
            self.rng.shuffle(column)
            self.columns[site] = column
        return column[self.round]


def catalog_round(rng, draws):
    """One of each library operation and CLI call, at balanced primes and
    twists: the millisecond traffic of the README and the verify battery,
    where per-call overhead and set-up cost show."""
    names = sorted(MODFILE_SHEAF)

    def twisted(site, spec):
        twist = shift(spec, draws.pick((site, "twist"), TWISTS)) or spec
        return twist, draws.pick((site, "p"), PRIMES)

    ops = [Op("famp", twisted(("famp", i), s))
           for i, s in enumerate(FAMP_SHEAVES)]
    ops += [Op("regularity", twisted(("regularity", i), s))
            for i, s in enumerate(REGULARITY_SHEAVES)]
    for kind in ("regularity", "famp"):
        name = rng.choice(names)
        ops.append(Op(kind, (("modfile", name),
                             rng.choice(modfile_primes(name)))))
    for base in (("lines", 2, (0,)), ("irrelevant", 2, 0)):
        ops.append(Op("minreg", twisted(("minreg", base), base)
                      + (draws.pick(("minreg e", base), (0, 1)),)))
    ops += [Op("resolve", (m, draws.pick(("resolve", m), PRIMES)))
            for m in RESOLVE_MODULES]
    for _ in range(2):
        n, d = rng.randint(1, 3), rng.choice(PRIME_POWERS)
        ops.append(Op("split", (n, d, rng.randint(-d - n, d - 1))))
        weight = rng.randint(1, 6)
        cuts = sorted(rng.sample(range(1, weight), rng.randint(
            0, min(3, weight - 1)))) if weight > 1 else []
        parts = [b - a for a, b in zip([0] + cuts, cuts + [weight])]
        ops.append(Op("schur", (tuple(sorted(parts, reverse=True)),
                                rng.randint(1, 5))))
    ops.append(Op("verify", (draws.pick("verify", PRIMES),)))
    ops.append(Op("cli", ("golden",
                          draws.pick("golden", sorted(GOLDEN_CASES)))))
    for sub in ("famp", "regularity", "resolve", "cohomology"):
        name = rng.choice(names)
        spec = (sub, name, rng.choice(modfile_primes(name)))
        if sub == "cohomology":
            lo = rng.randint(-6, 0)
            spec += (lo, lo + rng.randint(2, 8))
        ops.append(Op("cli", spec))
    rng.shuffle(ops)
    return ops


DENSE_TABLES = (
    (("tensor", T3, T3), -8, 8),
    (("tensor", T3, T3), -6, 6),
    (("tensor", OMEGA[3, 1], T3), -6, 6),
    (OMEGA[4, 2], -8, 8),
    (OMEGA[4, 1], -6, 6),
    (("tensor", T2, T2), -16, 16),
    (("tensor", T2, T2), -12, 12),
    (("tensor", ("tensor", T2, T2), T2), -8, 8),
    (("tensor", OMEGA[2, 1], T2), -12, 12),
)


def dense_round(rng, draws):
    """Wide cohomology tables at random primes: nearly all the time goes to
    dense degree pieces and rank_mod under hilbert_function."""
    ops = [Op("table", (sheaf, rng.choice(PRIMES), lo, hi))
           for sheaf, lo, hi in DENSE_TABLES]
    rng.shuffle(ops)
    return ops


# (n, p, e): Frobenius pullbacks of the irrelevant ideal of P^n.  With the
# sequences below, five operations run faster and five slower than
# (2, 3, 2), which runs three times, so that the round's median falls inside
# one operation rather than between two whose times overlap.
FROBENIUS_PULLBACKS = ((2, 7, 1), (2, 5, 1), (3, 3, 1),
                       (2, 3, 2), (2, 3, 2), (2, 3, 2),
                       (3, 2, 2), (3, 2, 2), (3, 5, 1), (2, 2, 4))
# (n, p, e_max) for minreg_areg on the irrelevant ideal
FROBENIUS_SEQUENCES = ((2, 3, 2), (2, 2, 3), (3, 2, 2))


def frobenius_round(rng, draws):
    """Regularity of Frobenius pullbacks of the unsaturated irrelevant ideal.

    The Betti bound sits far above the sheaf regularity, so the Mumford scan
    fills many cells, each a fresh dual rank; hilbert_function is never
    called.  The seed only orders the round: twisting the ideal would move
    the scan by q times the twist and change the work from seed to seed.
    """
    ops = [Op("regularity", (("frobenius", ("irrelevant", n, 0), e), p))
           for n, p, e in FROBENIUS_PULLBACKS]
    ops += [Op("minreg", (("irrelevant", n, 0), p, e_max))
            for n, p, e_max in FROBENIUS_SEQUENCES]
    rng.shuffle(ops)
    return ops


def random_form(rng, nv, p, degree):
    monos = polynomials.monomials_of_degree(nv, degree)
    return tuple((m, c) for m in monos if (c := rng.randrange(p)))


def random_ideal(rng, nv, p, degrees):
    return ("ideal", nv, tuple((d, random_form(rng, nv, p, d))
                               for d in degrees))


def random_matrix(rng, nv, p, rows, cols):
    return ("matrix", nv, tuple(tuple(random_form(rng, nv, p, 1)
                                      for _ in range(cols))
                                for _ in range(rows)))


def generic_round(rng, draws):
    """Random ideals and 3x4 linear matrices on P^2, at every prime.

    Three cubics and two quadrics plus a cubic hit the length-4 defect on
    half or more of the draws; a run averages over the draws of all its
    rounds.
    """
    ops = []
    for p in (3, 5, 7):
        for degrees in ((3, 3, 3), (2, 2, 3)):
            ops.append(Op("resolve", (random_ideal(rng, 3, p, degrees), p)))
        for _ in range(2):
            ops.append(Op("resolve", (random_matrix(rng, 3, p, 3, 4), p)))
    rng.shuffle(ops)
    return ops


def generic_once(rng):
    """P^3 ideals, resolved once per run.

    Four quadrics never finish within the budget, so a copy in every round
    would spend most of the run waiting; the exactness check of a P^3
    resolution costs most of a second, so they are not drawn every round.
    """
    ops = []
    for degrees in ((2, 2, 3), (2, 2, 2), (2, 2, 2, 2)):
        p = rng.choice((3, 5, 7))
        ops.append(Op("resolve", (random_ideal(rng, 4, p, degrees), p)))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    budget_s: float       # wall-clock budget of one operation
    tail_q: float         # the percentile reported as op_tail_ms
    rounds: int           # distinct rounds; the timed loop repeats them
    make_round: Callable  # (random.Random, Draws) -> list of Op
    make_once: Callable = lambda rng: []  # ops run once per timed loop

    @property
    def min_ops(self) -> int:
        """Fewest operations that leave 10 samples beyond ``tail_q``."""
        n = 11
        while n - 1 - int(self.tail_q * (n - 1)) < 10:
            n += 1
        return n


# A run repeats whole passes over a workload's rounds, so that its mix is the
# mix the rounds were drawn for and the checks after the loop run once per
# distinct input.  catalog_sweep has ten rounds so that each of the five
# twists comes up twice at every site.
# tail_q is about the highest percentile with ten samples beyond it at the
# number of operations a 20-second run attempts; the loop runs at least
# min_ops operations, so a slower program is measured at the same
# percentile.  generic_resolve repeats each input only three times, so its
# ten samples beyond p96 would be three or four random ideals, and which
# ideals are the heaviest changes with the seed; its p90 rests on a dozen.
# Budgets sit several times above the slowest operation that finishes.
WORKLOADS = {w.name: w for w in (
    Workload("catalog_sweep", budget_s=10.0, tail_q=0.99, rounds=10,
             make_round=catalog_round),
    Workload("dense_window", budget_s=30.0, tail_q=0.7, rounds=1,
             make_round=dense_round),
    Workload("frobenius_scan", budget_s=30.0, tail_q=0.7, rounds=1,
             make_round=frobenius_round),
    Workload("generic_resolve", budget_s=1.5, tail_q=0.9, rounds=10,
             make_round=generic_round, make_once=generic_once),
)}


def generate(workload: Workload, seed: int):
    """(warm-up round, once-per-run ops, timed rounds, input digest)."""
    base = f"{workload.name}:{seed}"
    once = workload.make_once(random.Random(base))
    warmup = workload.make_round(random.Random(f"{base}:warm-up"),
                                 Draws(random.Random(f"{base}:warm-up"), 1))
    draws = Draws(random.Random(base), workload.rounds)
    rounds = []
    for r in range(workload.rounds):
        draws.round = r
        rounds.append(workload.make_round(random.Random(f"{base}:{r}"), draws))
    blob = json.dumps([[[op.kind, op.spec] for op in ops]
                       for ops in [once, warmup] + rounds],
                      separators=(",", ":"))
    digest = "sha256:" + hashlib.sha256(blob.encode()).hexdigest()
    return warmup, once, rounds, digest
