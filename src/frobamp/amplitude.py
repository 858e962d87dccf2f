"""F-amplitude of coherent sheaves on projective space.

On P^n the asymptotic definition of the amplitude (the least l such that
twisting by high Frobenius powers eventually kills cohomology above l)
collapses to a finite criterion: phi is determined by the single cohomology
table over the twist window [-n-1, 0].  This module computes that table,
tests F-ampleness (phi = 0), derives the regularity-based upper bound on
phi, and provides the inequality checks used by the verification suite
(short exact sequences, tensor subadditivity, and the dimension/rank bounds
for ample bundles).

A remark for users: F-ample bundles are in particular p-ample (high
Frobenius pullbacks tensored with any coherent sheaf become globally
generated, since their regularity runs off to minus infinity), and hence
ample; no p-ampleness tester is provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .cohomology import (CohomologyTable, cohomology_table,
                         cokernel_series, regularity)
from .modules import GradedModule, ModuleHom, frobenius_module
from .resolution import generic_rank, hilbert_function, sheaf_is_zero


@dataclass(frozen=True)
class AmplitudeReport:
    """phi together with the witness cohomology table over [-n-1, 0]."""

    phi: int
    witness_table: CohomologyTable
    prime: int
    frobenius_checked: tuple

    @property
    def f_ample(self) -> bool:
        return self.phi == 0


def _phi_from_table(table: CohomologyTable) -> int:
    phi = 0
    for i in range(1, table.n + 1):
        if any(table.cell(i, d)
               for d in range(table.twist_lo, table.twist_hi + 1)):
            phi = i
    return phi


def f_amplitude(module: GradedModule, frobenius_check=()) -> AmplitudeReport:
    """Exact amplitude from the finite twist window.

    ``frobenius_check`` lists pullback exponents e at which the invariance
    phi(M^(p^e)) = phi(M) is re-verified by direct recomputation; the value
    of phi itself never needs Frobenius iteration.
    """
    if sheaf_is_zero(module):
        raise ValueError("amplitude of the zero sheaf is undefined")
    n = module.num_vars - 1
    table = cohomology_table(module, -n - 1, 0)
    phi = _phi_from_table(table)
    for e in frobenius_check:
        pulled = frobenius_module(module, e)
        pulled_phi = _phi_from_table(cohomology_table(pulled, -n - 1, 0))
        if pulled_phi != phi:
            raise AssertionError(
                f"amplitude not Frobenius-invariant: {phi} vs {pulled_phi} "
                f"at e={e}")
    return AmplitudeReport(phi, table, module.prime, tuple(frobenius_check))


def f_ample_test(module: GradedModule) -> bool:
    return f_amplitude(module).phi == 0


@dataclass(frozen=True)
class RegularityBoundReport:
    """The regularity-driven upper bound on phi, next to the exact value.

    ``n_star`` is the greatest integer strictly below -reg / Reg(X); the
    bound is max(dim X - n_star - 1, 0).  A sheaf with zero-dimensional
    support (regularity minus infinity) gets bound 0 outright.
    """

    bound: int
    phi: int
    sheaf_regularity: object
    reg_x: int
    n_star: object


def amplitude_bound_from_regularity(module: GradedModule) -> RegularityBoundReport:
    if sheaf_is_zero(module):
        raise ValueError("amplitude bound of the zero sheaf is undefined")
    n = module.num_vars - 1
    rep = regularity(module)
    phi = f_amplitude(module).phi
    if rep.sheaf_regularity is None:
        report = RegularityBoundReport(0, phi, None, rep.reg_x, None)
    else:
        q = Fraction(-rep.sheaf_regularity, rep.reg_x)
        n_star = q - 1 if q.denominator == 1 else floor(q)
        bound = max(n - int(n_star) - 1, 0)
        report = RegularityBoundReport(bound, phi, rep.sheaf_regularity,
                                       rep.reg_x, int(n_star))
    if report.bound < report.phi:
        raise AssertionError(
            f"regularity bound {report.bound} below exact phi {report.phi}")
    return report


# -- short exact sequences ----------------------------------------------------

@dataclass(frozen=True)
class ExactSequenceReport:
    phis: tuple
    inequality_holds: bool
    window: tuple


def check_exact_sequence_bounds(first: ModuleHom, second: ModuleHom,
                                window=None) -> ExactSequenceReport:
    """Verify 0 -> E1 -> E2 -> E3 -> 0 degreewise, then compare amplitudes.

    The middle amplitude is bounded by the max of the outer two; the
    supplied maps are checked for well-definedness, zero composition,
    injectivity, surjectivity and middle exactness on the degree window
    before any amplitude is trusted.  Each map's image in degree d has
    dimension dim N_d - dim C_d, where C is its cokernel N/image, read off
    one Hilbert series: E1 -> E2 is injective when that equals dim E1_d,
    E2 -> E3 is surjective when its C_d is zero, and then the middle is
    exact when the first map's C_d has dimension dim E3_d.
    """
    if window is not None and not window:
        raise ValueError(f"degree window {window!r} is empty")
    e1, e2 = first.source, first.target
    e3 = second.target
    if second.source is not e2 and second.source != e2:
        raise ValueError("maps do not compose: middle modules differ")
    if not (first.is_well_defined() and second.is_well_defined()):
        raise ValueError("supplied maps are not well defined on relations")
    if not e3.relations_contain(second.matrix.compose(first.matrix)):
        raise ValueError("composition of the supplied maps is nonzero")
    if window is None:
        twists = (e1.presentation.target_twists
                  + e2.presentation.target_twists
                  + e3.presentation.target_twists)
        window = range(min(twists), max(twists) + e2.num_vars + 2)
    coker_a = cokernel_series(first.cokernel_presentation())
    coker_b = cokernel_series(second.cokernel_presentation())
    for d in window:
        if hilbert_function(e2, d) - coker_a.at(d) != hilbert_function(e1, d):
            raise ValueError(f"first map not injective in degree {d}")
        if coker_b.at(d):
            raise ValueError(f"second map not surjective in degree {d}")
        if coker_a.at(d) != hilbert_function(e3, d):
            raise ValueError(f"sequence not exact in the middle, degree {d}")
    phis = tuple(f_amplitude(m).phi for m in (e1, e2, e3))
    holds = phis[1] <= max(phis[0], phis[2])
    return ExactSequenceReport(phis, holds, (min(window), max(window)))


# -- tensor subadditivity ------------------------------------------------------

@dataclass(frozen=True)
class TensorSubadditivityReport:
    phi_left: int
    phi_right: int
    phi_tensor: int
    inequality_holds: bool


def check_tensor_subadditivity(e, f) -> TensorSubadditivityReport:
    """phi(E ⊗ F) <= phi(E) + phi(F), both factors flagged locally free."""
    if not (e.locally_free and f.locally_free):
        raise ValueError("tensor subadditivity requires locally-free flags")
    from .modules import tensor
    n = e.num_vars - 1
    pe = f_amplitude(e).phi
    pf = f_amplitude(f).phi
    pt = f_amplitude(tensor(e, f)).phi
    return TensorSubadditivityReport(pe, pf, pt, pt <= min(n, pe + pf))


# -- bounds for ample bundles --------------------------------------------------

@dataclass(frozen=True)
class AmpleBoundsReport:
    """phi against dim X and rank for a bundle the caller asserts is ample.

    The dimension bound holds in every characteristic.  The rank bound is a
    characteristic-zero statement; at a fixed prime the report only records
    whether it was observed, labeled as per-prime evidence.
    """

    phi: int
    dim: int
    rank: int
    dim_bound_holds: bool
    rank_bound_observed: bool
    rank_bound_label: str = "char-0 theorem, per-prime evidence"


def check_rank_and_dimension_bounds(module: GradedModule) -> AmpleBoundsReport:
    if not module.locally_free:
        raise ValueError("bounds check requires the locally-free flag")
    n = module.num_vars - 1
    phi = f_amplitude(module).phi
    rank = generic_rank(module)
    report = AmpleBoundsReport(phi, n, rank, phi < n, phi < rank)
    if not report.dim_bound_holds:
        raise AssertionError(
            f"phi = {phi} not below dim = {n} for an asserted-ample bundle")
    return report
