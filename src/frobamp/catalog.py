"""Standard modules on projective space used by the test and verify suites.

Everything here is built from two presentations: the Koszul complex on the
variables (differential forms, ideal modules) and the Euler presentation of
the tangent bundle.  The exterior-power modules are presented on the Koszul
generators one step up, so the j-th one sheafifies to the bundle of j-forms;
the j = 0 member is the irrelevant-ideal module, deliberately unsaturated,
which exercises the cohomology pipeline away from the easy saturated case.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .modules import (GradedMap, GradedModule, ModuleHom, direct_sum,
                      free_module, tensor, twist)


def structure_sheaf(p: int, n: int) -> GradedModule:
    return free_module(p, n + 1, (0,))


def line_bundle(p: int, n: int, a: int) -> GradedModule:
    """O(a) as the free module with one generator in degree -a."""
    return free_module(p, n + 1, (-a,))


def line_bundle_sum(p: int, n: int, degrees) -> GradedModule:
    return free_module(p, n + 1, tuple(-a for a in degrees))


def _x(nv: int, i: int, r: int) -> tuple:
    """The column term x_i in row r, as a key of a sparse column vector."""
    return tuple(int(j == i) for j in range(nv)), r


def _generator_map(source: GradedModule, target: GradedModule,
                   images) -> ModuleHom:
    """The constant hom sending source generator c to target generator
    ``images[c]``, or to zero where that is None."""
    nv = source.num_vars
    one = (0,) * nv
    return ModuleHom(source, target, GradedMap.from_columns(
        source.prime, nv, target.presentation.target_twists,
        source.presentation.target_twists,
        [{} if r is None else {(one, r): 1} for r in images]))


def koszul_map(p: int, n: int, k: int) -> GradedMap:
    """k-th Koszul differential on the variables of P^n (wedge basis)."""
    nv = n + 1
    if not 1 <= k <= nv:
        raise ValueError(f"Koszul index {k} out of range [1, {nv}]")
    rows_idx = list(combinations(range(nv), k - 1))
    cols_idx = list(combinations(range(nv), k))
    row_pos = {s: r for r, s in enumerate(rows_idx)}
    cols = []
    for cset in cols_idx:
        # (-1)^t x_i in the row of cset without its t-th member i, filled
        # from the last member down so that the rows ascend
        col = {}
        for t in reversed(range(k)):
            col[_x(nv, cset[t], row_pos[cset[:t] + cset[t + 1:]])] = (
                p - 1 if t % 2 else 1)
        cols.append(col)
    return GradedMap.from_columns(p, nv, (k - 1,) * len(rows_idx),
                                  (k,) * len(cols_idx), cols)


def form_bundle(p: int, n: int, j: int) -> GradedModule:
    """Module of j-forms on P^n: the (j+1)-st Koszul cycles.

    Presented on the wedge-(j+1) generators with the next Koszul
    differential as relations.  j = n gives the free module O(-n-1);
    j = 0 gives the irrelevant ideal, whose sheafification is O.
    """
    nv = n + 1
    if not 0 <= j <= n:
        raise ValueError(f"form degree {j} out of range [0, {n}]")
    if j + 2 > nv:
        pres = GradedMap.zero_map(p, nv, (j + 1,) * comb(nv, j + 1), ())
    else:
        pres = koszul_map(p, n, j + 2)
    return GradedModule(pres, locally_free=(j != 0), spot_check=False)


def irrelevant_ideal(p: int, n: int) -> GradedModule:
    """The ideal generated by all variables; sheafifies to the structure sheaf."""
    return GradedModule(koszul_map(p, n, 2), locally_free=False)


def tangent_bundle(p: int, n: int) -> GradedModule:
    """Euler presentation: quotient of O(1)^{n+1} by the weighted-sum line."""
    nv = n + 1
    pres = GradedMap.from_columns(p, nv, (-1,) * nv, (0,),
                                  [{_x(nv, i, i): 1 for i in range(nv)}])
    return GradedModule(pres, locally_free=True, spot_check=False)


def point_ideal(p: int) -> GradedModule:
    """Ideal of a point on P^2, generated by x0 and x1 with one relation."""
    pres = GradedMap.from_columns(p, 3, (1, 1), (2,),
                                  [{_x(3, 1, 0): 1, _x(3, 0, 1): p - 1}])
    return GradedModule(pres)


# -- canonical short exact sequences ------------------------------------------
#
# In each of the first three the last module is presented by the first map,
# and the middle one is the free module on its generators.

def euler_sequence(p: int, n: int):
    """0 -> O -> O(1)^{n+1} -> T -> 0 with explicit maps."""
    e2 = line_bundle_sum(p, n, [1] * (n + 1))
    e3 = tangent_bundle(p, n)
    return (ModuleHom(structure_sheaf(p, n), e2, e3.presentation),
            _generator_map(e2, e3, range(n + 1)))


def point_koszul_sequence(p: int):
    """0 -> O(-2) -> O(-1)^2 -> (point ideal) -> 0 on P^2."""
    e2 = line_bundle_sum(p, 2, [-1, -1])
    e3 = point_ideal(p)
    return (ModuleHom(line_bundle(p, 2, -2), e2, e3.presentation),
            _generator_map(e2, e3, range(2)))


def form_sequence(p: int, n: int):
    """0 -> (1-forms) -> O(-1)^{n+1} -> (irrelevant ideal) -> 0."""
    e2 = line_bundle_sum(p, n, [-1] * (n + 1))
    e3 = irrelevant_ideal(p, n)  # presented by koszul_map(p, n, 2)
    return (ModuleHom(form_bundle(p, n, 1), e2, e3.presentation),
            _generator_map(e2, e3, range(n + 1)))


def split_sequence(e1: GradedModule, e3: GradedModule):
    """0 -> E1 -> E1 ⊕ E3 -> E3 -> 0 with inclusion and projection."""
    e2 = direct_sum([e1, e3])
    r1 = e1.presentation.target_rank
    r3 = e3.presentation.target_rank
    return (_generator_map(e1, e2, range(r1)),
            _generator_map(e2, e3, [None] * r1 + list(range(r3))))


# -- named collections --------------------------------------------------------

def ample_examples(p: int):
    """Locally free modules the suite asserts ample (catalog knowledge)."""
    return [
        ("tangent on P^2", tangent_bundle(p, 2)),
        ("tangent on P^3", tangent_bundle(p, 3)),
        ("O(1) + O(2) on P^2", line_bundle_sum(p, 2, [1, 2])),
        ("O(1)^3 on P^3", line_bundle_sum(p, 3, [1, 1, 1])),
        ("O(2) on P^1", line_bundle(p, 1, 2)),
        ("twisted tangent on P^2", tensor(tangent_bundle(p, 2),
                                          line_bundle(p, 2, 1))),
    ]


def regularity_examples(p: int):
    """Modules exercising the regularity-based amplitude bound."""
    mods = [
        ("O on P^2", structure_sheaf(p, 2)),
        ("O(3) on P^2", line_bundle(p, 2, 3)),
        ("O(-2) on P^2", line_bundle(p, 2, -2)),
        ("O(1) + O(-1) on P^2", line_bundle_sum(p, 2, [1, -1])),
        ("tangent on P^2", tangent_bundle(p, 2)),
        ("1-forms on P^2", form_bundle(p, 2, 1)),
        ("twisted 1-forms on P^2", twist(form_bundle(p, 2, 1), 2)),
        ("point ideal on P^2", point_ideal(p)),
        ("irrelevant ideal on P^2", irrelevant_ideal(p, 2)),
        ("O on P^1", structure_sheaf(p, 1)),
        ("tangent on P^3", tangent_bundle(p, 3)),
        ("2-forms on P^3", form_bundle(p, 3, 2)),
    ]
    return mods


def locally_free_pairs(p: int):
    """Pairs for the tensor subadditivity suite, all flagged locally free."""
    t2 = tangent_bundle(p, 2)
    om = form_bundle(p, 2, 1)
    o1 = line_bundle(p, 2, 1)
    om1 = line_bundle(p, 2, -1)
    sums = line_bundle_sum(p, 2, [0, 2])
    return [
        ("O(1), O(1)", o1, o1),
        ("O(1), O(-1)", o1, om1),
        ("O+O(2), O(1)", sums, o1),
        ("T, O(1)", t2, o1),
        ("T, O(-1)", t2, om1),
        ("T, T", t2, t2),
        ("forms, O(1)", om, o1),
        ("forms, T", om, t2),
        ("forms, forms", om, om),
        ("O+O(2), O(-1)", sums, om1),
        ("T, O+O(2)", t2, sums),
    ]
