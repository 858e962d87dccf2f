"""Sheaf cohomology on projective space and Castelnuovo-Mumford regularity.

For a graded module M over R = F_p[x_0..x_n], the cohomology of the twisted
sheafification is read off from one minimal free resolution of M: dualizing
the resolution into Hom(-, R(-n-1)) computes the graded pieces of the Ext
modules, and graded local duality turns those into local cohomology,

    dim H^j_m(M)_d = dim Ext^{n+1-j}(M, R(-n-1))_{-d},

from which  h^i(~M(d)) = dim H^{i+1}_m(M)_d  for i >= 1, while h^0 corrects
the module's own graded piece by the two lowest local cohomologies.  Every
number is a coefficient of a Hilbert series (``resolution.HilbertSeries``),
cached on the module: dim M_d comes from the resolution's K-polynomial, and
Ext^j from the cokernels of the dualized differentials,

    Ext^j = coker(d_{j-1}) + coker(d_j) - F*_{j+1}   (as Hilbert series).

A dualized differential is the transpose of a map's columns, built directly
in the same sparse column form.  By Macaulay's theorem a cokernel has the
Hilbert function of the lead-term module of the image, so one reduced
Groebner basis of a map's columns and the Hilbert numerator of each
component's lead ideal give its series (``cokernel_series``).  The same
series gives the ranks of the short-exact-sequence check in ``amplitude``
and the global-generation test here, which asks M/<M_0> to vanish in
positive degrees.  None of it builds a dense matrix or loads numpy; the
dense ranks (``GradedMap.degree_piece``, and ``GradedModule.hilbert_function``
for the module itself) are test oracles.

The regularity of a sheaf is the least m making all higher cohomology of the
properly twisted sheaf vanish, read off the initial degrees of the Ext
series; sheaves with zero-dimensional support satisfy the vanishing for
every m and get ``None`` (read: minus infinity) instead of an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf

from .groebner import buchberger, hilbert_numerator
# nothing here calls rank_mod: the import stays only for the alias that
# perfbench's tracer test asserts
from .linalg import rank_mod  # noqa: F401
from .modules import GradedMap, GradedModule, frobenius_module
from .polynomials import monomials_of_degree
from .resolution import (HilbertSeries, evaluate_polynomial, hilbert_function,
                         hilbert_polynomial, minimal_resolution,
                         sheaf_is_zero)


def _dual_maps(module: GradedModule):
    """Differentials of Hom(resolution, R(-n-1)), cached on the module."""
    cached = module._cache.get("dual_maps")
    if cached is not None:
        return cached
    res = minimal_resolution(module)
    nv = module.num_vars
    duals = []
    for k, m in enumerate(res.maps):
        tt = tuple(nv - t for t in m.source_twists)
        st = tuple(nv - t for t in res.module_twists(k))
        cols = [{} for _ in st]
        for c, vec in enumerate(m.columns):
            for (exps, r), v in vec.items():
                cols[r][(exps, c)] = v
        duals.append(GradedMap.from_columns(module.prime, nv, tt, st, cols))
    out = (res, tuple(duals))
    module._cache["dual_maps"] = out
    return out


def cokernel_series(gm: GradedMap) -> HilbertSeries:
    """Hilbert series of the cokernel of gm: by Macaulay's theorem,
    sum_r t^twist_r HN(lead ideal of component r) over one reduced
    Groebner basis of its columns."""
    leads = {}
    for g in buchberger(gm.columns, gm.target_twists, gm.prime):
        exps, r = next(iter(g))  # buchberger puts each lead first
        leads.setdefault(r, []).append(exps)
    return HilbertSeries.from_terms(gm.num_vars, (
        (t + j, c) for r, t in enumerate(gm.target_twists)
        for j, c in hilbert_numerator(leads.get(r, ()))))


def _coker_series(module: GradedModule, k: int) -> HilbertSeries:
    """Hilbert series of the cokernel of the k-th dual differential (F*_0
    for k = -1), cached."""
    series = module._cache.get(("coker_series", k))
    if series is None:
        res, duals = _dual_maps(module)
        if k < 0:
            series = HilbertSeries.from_terms(module.num_vars, (
                (module.num_vars - t, 1) for t in res.f0_twists))
        else:
            series = cokernel_series(duals[k])
        module._cache[("coker_series", k)] = series
    return series


def ext_series(module: GradedModule, j: int) -> HilbertSeries:
    """Hilbert series of Ext^j_R(M, R(-n-1)), cached: coker(j - 1) +
    coker(j) - F*_{j+1} (only coker(j - 1) at the end), and zero for j
    outside 0..length."""
    series = module._cache.get(("ext_series", j))
    if series is None:
        res = minimal_resolution(module)
        terms = []
        if 0 <= j <= res.length:
            terms += _coker_series(module, j - 1).terms
        if 0 <= j < res.length:
            terms += _coker_series(module, j).terms
            terms += [(module.num_vars - t, -1)
                      for t in res.module_twists(j + 1)]
        series = HilbertSeries.from_terms(module.num_vars, terms)
        module._cache[("ext_series", j)] = series
    return series


def ext_dual_dimension(module: GradedModule, j: int, e: int) -> int:
    """dim Ext^j_R(M, R(-n-1))_e, a coefficient of ``ext_series``."""
    return ext_series(module, j).at(e)


def sheaf_cohomology(module: GradedModule, i: int, d: int) -> int:
    """h^i of the sheafification of M, twisted by d."""
    n = module.num_vars - 1
    if not 0 <= i <= n:
        raise ValueError(f"cohomological degree {i} out of range [0, {n}]")
    if i >= 1:
        return ext_dual_dimension(module, n - i, -d)
    return (hilbert_function(module, d)
            - ext_dual_dimension(module, n + 1, -d)
            + ext_dual_dimension(module, n, -d))


@dataclass(frozen=True)
class CohomologyTable:
    """h^i(~M(d)) over a twist window, rows i = 0..n, columns the window."""

    n: int
    twist_lo: int
    twist_hi: int
    h: tuple  # h[i][d - twist_lo]

    def cell(self, i: int, d: int) -> int:
        if not (0 <= i <= self.n and self.twist_lo <= d <= self.twist_hi):
            raise ValueError(f"cell ({i}, {d}) outside the table")
        return self.h[i][d - self.twist_lo]

    def euler_characteristic(self, d: int) -> int:
        return sum((-1) ** i * self.cell(i, d) for i in range(self.n + 1))

    def render_text(self) -> str:
        window = range(self.twist_lo, self.twist_hi + 1)
        widths = [max(len(str(d)), max(len(str(self.cell(i, d)))
                                       for i in range(self.n + 1)))
                  for d in window]
        lines = ["      " + "  ".join(f"d={d}".rjust(w + 2)
                                      for d, w in zip(window, widths))]
        for i in range(self.n, -1, -1):
            cells = "  ".join(str(self.cell(i, d)).rjust(w + 2)
                              for d, w in zip(window, widths))
            lines.append(f"h^{i}:  {cells}")
        return "\n".join(lines)


def cohomology_table(module: GradedModule, twist_lo: int,
                     twist_hi: int) -> CohomologyTable:
    if twist_lo > twist_hi:
        raise ValueError(f"window {twist_lo}..{twist_hi} is empty")
    n = module.num_vars - 1
    rows = tuple(tuple(sheaf_cohomology(module, i, d)
                       for d in range(twist_lo, twist_hi + 1))
                 for i in range(n + 1))
    return CohomologyTable(n, twist_lo, twist_hi, rows)


# -- regularity --------------------------------------------------------------

@dataclass(frozen=True)
class RegularityReport:
    """Sheaf regularity, the Betti-number bound, and Reg of the ambient space.

    ``sheaf_regularity`` is None exactly when the sheaf has zero-dimensional
    support, where every twist satisfies the vanishing conditions.
    """

    sheaf_regularity: object  # int or None (= minus infinity)
    module_regularity_bound: int
    reg_x: int


def reg_of_space(num_vars: int, prime: int) -> int:
    """max(1, reg(O)) for projective (num_vars - 1)-space; equals 1.

    reg(O) = 0 on every P^n in every characteristic, so no scan is needed;
    the tests recompute it with the Mumford scan.
    """
    return 1


def regularity(module: GradedModule) -> RegularityReport:
    """Least m with h^i of the (m - i)-twisted sheaf zero for all i > 0.

    For i > 0, h^i(~M(m - i)) = dim Ext^{n-i}(M, R(-n-1))_{i-m}, and a
    nonzero Ext module vanishes below its initial degree low_i, the least
    exponent of its series numerator, and not at it.  So m works, and so do
    all twists above it, exactly when i - m < low_i for every nonzero
    Ext^{n-i}: reg = max(i + 1 - low_i) over i = 1..n with Ext^{n-i} != 0.
    The Mumford scan down from the Betti bound is the tests' oracle.
    """
    if sheaf_is_zero(module):
        raise ValueError("regularity of the zero sheaf is undefined")
    res = minimal_resolution(module)
    bound = res.regularity_bound()
    reg_x = reg_of_space(module.num_vars, module.prime)
    if len(hilbert_polynomial(module)) == 1:
        # zero-dimensional support: all higher cohomology vanishes always
        return RegularityReport(None, bound, reg_x)
    n = module.num_vars - 1
    reg = max(i + 1 - series.terms[0][0] for i in range(1, n + 1)
              if (series := ext_series(module, n - i)).terms)
    if reg > bound:
        raise AssertionError(
            "vanishing fails at the Betti bound; resolution is inconsistent")
    return RegularityReport(reg, bound, reg_x)


@dataclass(frozen=True)
class FrobeniusRegularityReport:
    """Regularities of the iterated Frobenius pullbacks M^(p^e), e = 0..e_max.

    ``minreg_upper_bound`` certifies an upper bound for the infimum over all
    e; ``trend`` summarizes the finite sample (decreasing / constant /
    increasing / mixed) as evidence about the limsup, never a certified
    value.

    Sign convention worth spelling out: F-ampleness is equivalent to the
    infimum dropping below -Reg(X) * (dim X - 1), i.e. the pullback
    regularities must become very negative.  (Statements of this criterion
    sometimes appear with the threshold's sign flipped; the negative
    threshold is the one the resolution argument actually proves.)
    """

    prime: int
    regularities: tuple
    minreg_upper_bound: object
    trend: str


def minreg_areg(module: GradedModule, e_max: int) -> FrobeniusRegularityReport:
    """Regularities of M and of its pullbacks for e = 1..e_max; each
    pullback's series derive from M's (``frobenius_module``), so only M
    runs the Groebner engine."""
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    regs = []
    for e in range(e_max + 1):
        m_e = module if e == 0 else frobenius_module(module, e)
        regs.append(regularity(m_e).sheaf_regularity)
    numeric = [(-inf if r is None else r) for r in regs]
    if all(v == numeric[0] for v in numeric):
        trend = "constant"
    elif all(a >= b for a, b in zip(numeric, numeric[1:])):
        trend = "decreasing"
    elif all(a <= b for a, b in zip(numeric, numeric[1:])):
        trend = "increasing"
    else:
        trend = "mixed"
    if any(r is None for r in regs):
        bound = None  # minus infinity is attained
    else:
        bound = min(regs)
    return FrobeniusRegularityReport(module.prime, tuple(regs), bound, trend)


# -- independent closed-form oracle ------------------------------------------

def bott_oracle(n: int, j: int, d: int, i: int) -> int:
    """h^i of the d-twisted j-th exterior power of the cotangent bundle on P^n.

    Closed form, independent of the resolution pipeline; valid in every
    characteristic.
    """
    if not 0 <= j <= n:
        raise ValueError(f"form degree {j} out of range [0, {n}]")
    if not 0 <= i <= n:
        raise ValueError(f"cohomological degree {i} out of range [0, {n}]")
    if i == 0 and d > j:
        return comb(d + n - j, n - j) * comb(d - 1, j)
    if i == n and d < j - n:
        return comb(-d + j, j) * comb(-d - 1, n - j)
    if i == j and d == 0:
        return 1
    return 0


# -- global generation --------------------------------------------------------

def generated_in_degrees(module: GradedModule, top: int = 3) -> bool:
    """Surjectivity of (degree-0 part) ⊗ R_d -> M_d for d = 0..top, read
    off the series of M/<M_0>: the relations plus every degree-0 term of
    the free module present it, and it must vanish in degrees 1..top.

    Meaningful as a global-generation check only when the degree-0 part of
    the module realizes the sections of the sheaf; that identification is
    verified first and a mismatch raises.
    """
    if hilbert_function(module, 0) != sheaf_cohomology(module, 0, 0):
        raise ValueError(
            "degree-0 part does not realize the sheaf's global sections")
    pres = module.presentation
    degree0 = [{(mono, r): 1} for r, t in enumerate(pres.target_twists)
               for mono in monomials_of_degree(module.num_vars, -t)]
    quotient = cokernel_series(GradedMap.from_columns(
        module.prime, module.num_vars, pres.target_twists,
        pres.source_twists + (0,) * len(degree0),
        [*pres.columns, *degree0]))
    return not any(quotient.at(d) for d in range(1, top + 1))


def euler_characteristic_matches_hilbert(module: GradedModule,
                                         table: CohomologyTable) -> bool:
    """Alternating sum of table columns equals the Hilbert polynomial."""
    coeffs = hilbert_polynomial(module)
    return all(table.euler_characteristic(d) == evaluate_polynomial(coeffs, d)
               for d in range(table.twist_lo, table.twist_hi + 1))
