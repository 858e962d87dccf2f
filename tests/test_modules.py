import itertools
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import PRIMES, dual_rank_modules, plane_modules

from frobamp import catalog, modules
from frobamp.cohomology import cokernel_series, sheaf_cohomology
from frobamp.linalg import rank_mod
from frobamp.modules import (GradedMap, GradedModule, direct_sum,
                             frobenius_module, projective_points,
                             restrict_hyperplane, spot_check_constant_rank,
                             tensor, twist, zero_module)
from frobamp.polynomials import MultiPoly, monomials_of_degree, parse_poly
from frobamp.resolution import hilbert_function


def test_graded_map_validates_homogeneity():
    p, nv = 3, 3
    x0 = MultiPoly.variable(nv, p, 0)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        GradedMap(p, nv, (0,), (2,), ((x0,),))  # degree 1 entry, expected 2
    inhom = parse_poly("x0 + x0^2", nv, p)
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        GradedMap(p, nv, (0,), (1,), ((inhom,),))


def test_hilbert_function_free_closed_form():
    # monomial counts: dim R_d on P^2 is C(d+2, 2)
    m = catalog.structure_sheaf(5, 2)
    assert [m.hilbert_function(d) for d in range(5)] == [1, 3, 6, 10, 15]
    assert m.hilbert_function(3) == 10
    # R(-1) on P^1 in degree 0
    assert catalog.line_bundle(5, 1, -1).hilbert_function(0) == 0


def test_hilbert_function_tangent():
    # frozen from the Euler-sequence count 3*3 - 1 = 8
    t = catalog.tangent_bundle(3, 2)
    assert t.hilbert_function(0) == 8


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(dual_rank_modules())
def test_cokernel_series_matches_the_dense_hilbert_function(module):
    series = cokernel_series(module.presentation)
    for d in range(-2, 7):
        assert series.at(d) == module.hilbert_function(d), d


@pytest.mark.parametrize("p", PRIMES)
def test_hom_ranks_from_the_series_match_the_dense_rank(p):
    # rank of M_d -> N_d = dim N_d - dim (N/image)_d, by the series and by
    # dense ranks of the same cokernel presentation
    sequences = (catalog.euler_sequence(p, 2), catalog.euler_sequence(p, 3),
                 catalog.point_koszul_sequence(p), catalog.form_sequence(p, 2),
                 catalog.form_sequence(p, 3),
                 catalog.split_sequence(catalog.line_bundle(p, 2, 2),
                                        catalog.tangent_bundle(p, 2)))
    for hom in (h for pair in sequences for h in pair):
        pres = hom.cokernel_presentation()
        series = cokernel_series(pres)
        dense = GradedModule(pres, spot_check=False)
        for d in range(-3, 6):
            rank = hilbert_function(hom.target, d) - series.at(d)
            assert rank == (hom.target.hilbert_function(d)
                            - dense.hilbert_function(d)), (hom, d)


def test_twist_basics():
    p = 3
    o = catalog.structure_sheaf(p, 2)
    assert twist(o, 2).presentation.target_twists == (-2,)
    t = catalog.tangent_bundle(p, 2)
    assert twist(twist(t, 1), 2).presentation == twist(t, 3).presentation
    # h^i(twist(M, d)) = h^i at shifted twist
    assert twist(o, 2).hilbert_function(0) == o.hilbert_function(2)


def test_twist_commutes_with_frobenius_structurally():
    # p = 3, d = 1 on the tangent module: same presentation either way
    t = catalog.tangent_bundle(3, 2)
    a = frobenius_module(twist(t, 1), 1)
    b = twist(frobenius_module(t, 1), 3)
    assert a.presentation == b.presentation


def test_frobenius_module_line_bundle():
    o_a = catalog.line_bundle(5, 2, 2)
    assert frobenius_module(o_a, 1).presentation.target_twists == (-10,)


def test_frobenius_module_composes():
    t = catalog.tangent_bundle(2, 2)
    a = frobenius_module(t, 3)
    b = frobenius_module(frobenius_module(t, 1), 2)
    assert a.presentation == b.presentation


def test_frobenius_exponent_cap_names_the_first_bad_entry():
    # the cap (2^40) holds for nonzero entries only, as in frobenius_poly
    p, nv = 5, 3
    zero, one = MultiPoly.zero(nv, p), MultiPoly.constant(nv, p, 1)
    square = MultiPoly.variable(nv, p, 1, 2)

    def module(*row):
        return GradedModule(GradedMap(p, nv, (0,), tuple(
            0 if f is one else 2 for f in row), (row,)))

    assert frobenius_module(module(zero), 30).presentation.source_twists \
        == (2 * 5 ** 30,)
    frobenius_module(module(square), 16)
    with pytest.raises(OverflowError, match=r"^exponent overflow scaling "
                       r"\(0, 2, 0\) by p\^e = 762939453125$"):
        frobenius_module(module(zero, square), 17)
    # a unit entry has no exponent to overflow, but q itself is refused
    frobenius_module(module(one), 17)
    with pytest.raises(OverflowError,
                       match=r"^p\^e = 3814697265625 exceeds the exponent "
                             r"cap$"):
        frobenius_module(module(one), 18)
    with pytest.raises(ValueError, match="must be positive"):
        frobenius_module(module(one), 0)


def test_frobenius_tangent_two_ways():
    # direct functor versus hand-built squared Euler presentation, p = 2
    p, nv = 2, 3
    t2 = frobenius_module(catalog.tangent_bundle(p, 2), 1)
    sq = tuple((MultiPoly.variable(nv, p, i, 2),) for i in range(nv))
    hand = GradedModule(GradedMap(p, nv, (-2, -2, -2), (0,), sq),
                        locally_free=True, spot_check=False)
    assert t2.presentation == hand.presentation
    for d in range(-3, 4):
        for i in range(3):
            assert sheaf_cohomology(t2, i, d) == sheaf_cohomology(hand, i, d)


def test_tensor_of_line_bundles():
    p = 3
    a = catalog.line_bundle(p, 2, 1)
    b = catalog.line_bundle(p, 2, 2)
    ab = tensor(a, b)
    assert ab.presentation.target_twists == (-3,)
    assert ab.presentation.source_twists == ()


def test_tensor_unit_and_flags():
    p = 3
    t = catalog.tangent_bundle(p, 2)
    unit = catalog.structure_sheaf(p, 2)
    tt = tensor(t, unit)
    for d in range(-2, 3):
        assert tt.hilbert_function(d) == t.hilbert_function(d)
    plain = GradedModule(catalog.point_ideal(p).presentation)
    with pytest.raises(ValueError):
        tensor(plain, plain)


def test_tensor_sections_frozen():
    # h^0(T ⊗ T) on P^2: frozen from the degree-0 dimension of the tensor
    # presentation, itself a pure rank computation
    p = 3
    t = catalog.tangent_bundle(p, 2)
    tt = tensor(t, t)
    assert tt.hilbert_function(0) == 37
    assert sheaf_cohomology(tt, 0, 0) == 37


def test_direct_sum():
    p = 5
    s = direct_sum([catalog.line_bundle(p, 2, 1),
                    catalog.structure_sheaf(p, 2)])
    assert s.presentation.target_twists == (-1, 0)
    assert s.presentation.source_twists == ()
    t = catalog.tangent_bundle(p, 2)
    both = direct_sum([t, catalog.line_bundle(p, 2, -1)])
    for d in range(-2, 3):
        assert both.hilbert_function(d) == \
            t.hilbert_function(d) + catalog.line_bundle(p, 2, -1).hilbert_function(d)
        for i in range(3):
            assert sheaf_cohomology(both, i, d) == \
                sheaf_cohomology(t, i, d) + \
                sheaf_cohomology(catalog.line_bundle(p, 2, -1), i, d)


def test_direct_sum_empty():
    z = direct_sum([], prime=3, num_vars=3)
    assert z.presentation.target_twists == ()
    with pytest.raises(ValueError):
        direct_sum([])
    with pytest.raises(ValueError):
        direct_sum([catalog.structure_sheaf(3, 2),
                    catalog.structure_sheaf(5, 2)])


def test_zero_module_is_zero():
    z = zero_module(3, 3)
    assert all(z.hilbert_function(d) == 0 for d in range(-2, 4))


def test_restrict_hyperplane_tangent():
    # T on P^2 restricted to a line: O(2) + O(1), so sections jump by rank
    t = catalog.tangent_bundle(5, 2)
    r = restrict_hyperplane(t)
    assert r.num_vars == 2
    assert r.hilbert_function(0) == 5  # h^0(O(2)) + h^0(O(1)) = 3 + 2
    with pytest.raises(ValueError):
        restrict_hyperplane(catalog.structure_sheaf(5, 0))


def test_projective_points_count():
    assert len(projective_points(3, 3)) == 13  # (3^3 - 1) / 2
    assert len(projective_points(2, 5)) == 6


def test_spot_check_refutes_bad_flag():
    # coker of (x0) on P^2 is a torsion sheaf on a line: rank jumps at x0=0
    p, nv = 3, 3
    x0 = MultiPoly.variable(nv, p, 0)
    pres = GradedMap(p, nv, (0,), (1,), ((x0,),))
    ok, _ = spot_check_constant_rank(pres)
    assert not ok
    with pytest.raises(ValueError):
        GradedModule(pres, locally_free=True)


def test_spot_check_reports_a_skip_as_skipped(monkeypatch):
    # P^3 over F_11 has 1464 rational points, above the cap of 1000
    p, nv = 11, 4
    assert len(projective_points(nv, p)) == 1464
    status, detail = spot_check_constant_rank(
        catalog.tangent_bundle(p, 3).presentation)
    assert status is None and detail.startswith("skipped")
    # a skip is no refutation: the torsion sheaf of coker (x0) still loads
    x0 = MultiPoly.variable(nv, p, 0)
    pres = GradedMap(p, nv, (0,), (1,), ((x0,),))
    assert spot_check_constant_rank(pres)[0] is None
    GradedModule(pres, locally_free=True)
    status, _ = spot_check_constant_rank(
        catalog.tangent_bundle(3, 3).presentation)
    assert status is True
    # the skip is decided from the point count, before any point is listed
    monkeypatch.setattr(modules, "projective_points", None)
    assert spot_check_constant_rank(
        catalog.tangent_bundle(1009, 2).presentation) == (
        None, "skipped (1019091 points exceed 1000)")


def test_tensor_rank():
    from frobamp.resolution import generic_rank
    t = catalog.tangent_bundle(3, 2)
    assert generic_rank(tensor(t, t)) == 4


def test_graded_map_shape_validation():
    p, nv = 3, 3
    x0 = MultiPoly.variable(nv, p, 0)
    with pytest.raises(ValueError, match="rows"):
        GradedMap(p, nv, (0, 0), (1,), ((x0,),))
    with pytest.raises(ValueError, match="row 0"):
        GradedMap(p, nv, (0,), (1,), ((x0, x0),))
    with pytest.raises(ValueError, match="ring mismatch"):
        GradedMap(p, nv, (0,), (1,), ((MultiPoly.variable(nv, 5, 0),),))
    with pytest.raises(ValueError, match="not composable"):
        GradedMap.zero_map(p, nv, (0,), (1,)).compose(
            GradedMap.zero_map(p, nv, (0,), (1,)))


def test_frobenius_commutes_with_direct_sum():
    p = 3
    a = catalog.tangent_bundle(p, 2)
    b = catalog.line_bundle(p, 2, -2)
    left = frobenius_module(direct_sum([a, b]), 1)
    right = direct_sum([frobenius_module(a, 1), frobenius_module(b, 1)])
    assert left.presentation == right.presentation


@st.composite
def _matrix(draw, p, nv, targets, sources):
    """Random entries of the right degrees; coefficients are not filtered,
    so zero entries occur."""
    def entry(t, s):
        monos = monomials_of_degree(nv, s - t)
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                               max_size=len(monos)))
        return MultiPoly(nv, p, dict(zip(monos, coeffs)))
    return tuple(tuple(entry(t, s) for s in sources) for t in targets)


@st.composite
def composable_maps(draw):
    """A: F_1 -> F_0 and B: F_2 -> F_1 on P^2 with random twists."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nv = 3
    twists = [tuple(draw(st.lists(st.integers(k, k + 2), min_size=1,
                                  max_size=3)))
              for k in range(3)]
    a = GradedMap(p, nv, twists[0], twists[1],
                  draw(_matrix(p, nv, twists[0], twists[1])))
    b = GradedMap(p, nv, twists[1], twists[2],
                  draw(_matrix(p, nv, twists[1], twists[2])))
    return a, b


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(composable_maps())
def test_compose_is_the_matrix_product_and_entries_round_trip(maps):
    a, b = maps
    ab = a.compose(b)
    zero = MultiPoly.zero(a.num_vars, a.prime)
    product = tuple(
        tuple(sum((a.entries[r][k] * b.entries[k][c]
                   for k in range(a.source_rank)), zero)
              for c in range(b.source_rank))
        for r in range(a.target_rank))
    assert ab.entries == product
    assert (ab.target_twists, ab.source_twists) == (a.target_twists,
                                                    b.source_twists)
    assert ab.is_zero() == all(f.is_zero() for row in product for f in row)
    for m in (a, b, ab):
        assert GradedMap(m.prime, m.num_vars, m.target_twists,
                         m.source_twists, m.entries) == m


@st.composite
def spot_check_presentations(draw):
    """The presentation of a random plane module, or a small random matrix
    on P^1..P^3; zero entries occur."""
    if draw(st.booleans()):
        return draw(plane_modules()).presentation
    p = draw(st.sampled_from(PRIMES))
    nv = draw(st.integers(2, 4))
    targets = tuple(draw(st.lists(st.integers(0, 1), min_size=1,
                                  max_size=3)))
    sources = tuple(draw(st.lists(st.integers(0, 2), min_size=1,
                                  max_size=3)))
    return GradedMap(p, nv, targets, sources,
                     draw(_matrix(p, nv, targets, sources)))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(spot_check_presentations())
def test_spot_check_matches_dense_ranks_at_every_point(pres):
    # the oracle evaluates the MultiPoly entries into a dense matrix at
    # each point of P^n(F_p) and ranks it with numpy
    p = pres.prime
    points = [v for v in itertools.product(range(p), repeat=pres.num_vars)
              if any(v) and next(x for x in v if x) == 1]
    ranks = sorted({
        rank_mod([[sum(c * prod(x ** e for x, e in zip(pt, exps))
                       for exps, c in f.terms.items()) % p for f in row]
                  for row in pres.entries], p)
        for pt in points})
    assert spot_check_constant_rank(pres) == (
        (True, f"constant rank {ranks[0]} at {len(points)} points")
        if len(ranks) == 1 else
        (False, f"presentation rank varies over points: {ranks}"))
