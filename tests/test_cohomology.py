import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from strategies import dual_rank_modules

from frobamp import catalog
from frobamp.cohomology import (_coker_series, _dual_maps, bott_oracle,
                                cohomology_table,
                                euler_characteristic_matches_hilbert,
                                ext_dual_dimension, generated_in_degrees,
                                minreg_areg, reg_of_space, regularity,
                                sheaf_cohomology)
from frobamp.groebner import buchberger, hilbert_numerator
from frobamp.linalg import rank_mod
from frobamp.modules import (GradedMap, GradedModule, direct_sum,
                             free_module, free_piece_dimension,
                             frobenius_module, frobenius_presentation, tensor,
                             twist, zero_module)
from frobamp.polynomials import MultiPoly, monomials_of_degree
from frobamp.resolution import (HilbertSeries, minimal_resolution,
                                sheaf_is_zero)


# -- the Mumford scan: the regularity oracle ----------------------------------

def satisfies_vanishing(module, m):
    n = module.num_vars - 1
    return all(sheaf_cohomology(module, i, m - i) == 0
               for i in range(1, n + 1))


def mumford_scan(module, bound):
    """Least m with every twist from m up to ``bound`` passing the
    vanishing test, found one twist at a time down from ``bound``."""
    assert satisfies_vanishing(module, bound)
    m = bound
    while satisfies_vanishing(module, m - 1):
        m -= 1
    return m


def test_line_bundle_values_on_p2():
    o = catalog.structure_sheaf(2, 2)
    assert sheaf_cohomology(o, 2, -3) == 1  # top cohomology of O(-3)
    assert sheaf_cohomology(o, 0, 0) == 1
    assert all(sheaf_cohomology(o, 1, d) == 0 for d in range(-6, 6))
    with pytest.raises(ValueError):
        sheaf_cohomology(o, 3, 0)


def test_line_bundle_sections_on_p1():
    o = catalog.structure_sheaf(3, 1)
    for d in range(0, 5):
        assert sheaf_cohomology(o, 0, d) == d + 1


def test_table_on_p1():
    table = cohomology_table(catalog.structure_sheaf(5, 1), -2, 1)
    assert table.h[0] == (0, 0, 1, 2)
    assert table.h[1] == (1, 0, 0, 0)
    assert table.render_text()
    with pytest.raises(ValueError):
        cohomology_table(catalog.structure_sheaf(5, 1), 2, 1)
    with pytest.raises(ValueError):
        table.cell(0, 5)


def test_forms_table_window():
    # middle row of the 1-forms on P^2: single nonzero entry at twist 0
    table = cohomology_table(catalog.form_bundle(3, 2, 1), -1, 1)
    assert table.cell(1, 0) == 1
    assert table.cell(1, -1) == 0 and table.cell(1, 1) == 0
    assert table.cell(0, -1) == 0 and table.cell(2, 1) == 0


def test_zero_module_table_is_zero():
    table = cohomology_table(zero_module(3, 3), -3, 3)
    assert all(v == 0 for row in table.h for v in row)


def test_free_modules_have_no_middle_cohomology():
    rng = random.Random(5)
    for _ in range(5):
        twists = [rng.randrange(-4, 5) for _ in range(3)]
        m = free_module(5, 4, tuple(twists))
        for d in range(-6, 7):
            assert sheaf_cohomology(m, 1, d) == 0
            assert sheaf_cohomology(m, 2, d) == 0


def test_tangent_witness_value():
    # h^1 of the (-3)-twisted tangent bundle equals the Hodge number
    # h^1(forms) = 1, via duality; both sides computed independently
    for p in (2, 3, 5, 7):
        t = catalog.tangent_bundle(p, 2)
        assert sheaf_cohomology(t, 1, -3) == 1
        assert bott_oracle(2, 1, 0, 1) == 1


def test_bott_oracle_closed_forms():
    assert bott_oracle(2, 1, 0, 1) == 1
    assert bott_oracle(2, 0, 3, 0) == 10
    assert bott_oracle(3, 2, 2, 0) == 0
    assert bott_oracle(2, 0, -3, 2) == 1
    with pytest.raises(ValueError):
        bott_oracle(2, 3, 0, 0)
    with pytest.raises(ValueError):
        bott_oracle(2, 0, 0, 5)


def test_bott_oracle_serre_symmetry():
    for n in (1, 2, 3):
        for j in range(n + 1):
            for d in range(-5, 6):
                for i in range(n + 1):
                    assert bott_oracle(n, j, d, i) == \
                        bott_oracle(n, n - j, -d, n - i)


def test_serre_duality_line_bundles():
    o = catalog.structure_sheaf(3, 2)
    for d in range(-6, 4):
        assert sheaf_cohomology(o, 0, d) == sheaf_cohomology(o, 2, -d - 3)


def test_wide_window_never_builds_a_dense_module_piece(monkeypatch):
    # the dense piece of T⊗T at d = 20 would be 36800 x 16192; h^0 must come
    # from the resolution instead
    def dense(self, d):
        raise AssertionError("dense Hilbert function called")

    monkeypatch.setattr(GradedModule, "hilbert_function", dense)
    t = catalog.tangent_bundle(5, 3)
    tt = tensor(t, t)
    table = cohomology_table(tt, 0, 20)
    assert table.h[0][-1] == 22379
    assert euler_characteristic_matches_hilbert(tt, table)


def test_euler_characteristic_matches_hilbert_polynomial():
    for m in (catalog.tangent_bundle(3, 2), catalog.point_ideal(3),
              catalog.form_bundle(3, 2, 1), catalog.irrelevant_ideal(3, 2)):
        table = cohomology_table(m, -4, 3)
        assert euler_characteristic_matches_hilbert(m, table)


def test_spectral_bound_on_koszul_complexes():
    # a sheaf quasi-isomorphic to a bounded complex of frees inherits the
    # vanishing: if every h^{i+b} of the b-th term is zero, h^i vanishes
    p = 3
    point = GradedModule(GradedMap(
        p, 3, (0,), (1, 1),
        ((MultiPoly.variable(3, p, 0), MultiPoly.variable(3, p, 1)),)))
    komponents = [(0,), (1, 1), (2,)]  # Koszul resolution twist data
    for t in range(-5, 6):
        for i in range(3):
            premise = True
            for b, twists in enumerate(komponents):
                if i + b > 2:
                    continue
                piece = free_module(p, 3, twists)
                if sheaf_cohomology(piece, i + b, t) != 0:
                    premise = False
            if premise:
                assert sheaf_cohomology(point, i, t) == 0, (i, t)


def test_regularity_line_bundles():
    for p in (2, 5):
        for d in range(-3, 4):
            rep = regularity(catalog.line_bundle(p, 2, d))
            assert rep.sheaf_regularity == -d
            assert rep.reg_x == 1
            assert rep.sheaf_regularity <= rep.module_regularity_bound


def test_regularity_point_ideal():
    rep = regularity(catalog.point_ideal(2))
    assert rep.sheaf_regularity == 1
    assert rep.module_regularity_bound == 1


def test_regularity_unsaturated_module():
    # the irrelevant ideal sheafifies to the structure sheaf: regularity 0,
    # while the module-level Betti bound is 1
    rep = regularity(catalog.irrelevant_ideal(3, 2))
    assert rep.sheaf_regularity == 0
    assert rep.module_regularity_bound == 1


def test_regularity_zero_dimensional_support():
    # structure sheaf of a point: every twist satisfies the vanishing
    p, nv = 3, 3
    pres = GradedMap(p, nv, (0,), (1, 1),
                     ((MultiPoly.variable(nv, p, 0),
                       MultiPoly.variable(nv, p, 1)),))
    rep = regularity(GradedModule(pres))
    assert rep.sheaf_regularity is None
    # P^0 itself; a scan for reg(O) there would never stop
    assert regularity(catalog.structure_sheaf(p, 0)).sheaf_regularity is None


def test_regularity_rejects_zero_sheaf():
    with pytest.raises(ValueError):
        regularity(zero_module(3, 3))


def test_reg_of_space_is_one():
    for nv in (2, 3, 4):
        for p in (2, 3, 5):
            assert reg_of_space(nv, p) == 1
            # the constant agrees with an independent Mumford scan of O
            assert max(1, mumford_scan(free_module(p, nv, (0,)), 0)) == 1


def test_resolution_regularity_estimate():
    # reg of a resolved sheaf is bounded by max(reg of the i-th term - i)
    for m in (catalog.point_ideal(3), catalog.tangent_bundle(3, 2),
              catalog.form_bundle(3, 2, 1)):
        from frobamp.resolution import minimal_resolution
        res = minimal_resolution(m)
        bound = max(max(res.module_twists(k)) - k
                    for k in range(res.length + 1))
        assert regularity(m).sheaf_regularity <= bound


def test_minreg_structure_sheaf_constant():
    rep = minreg_areg(catalog.structure_sheaf(2, 2), 3)
    assert rep.regularities == (0, 0, 0, 0)
    assert rep.trend == "constant"
    assert rep.minreg_upper_bound == 0


def test_minreg_positive_line_bundle():
    rep = minreg_areg(catalog.line_bundle(2, 2, 1), 3)
    assert rep.regularities == (-1, -2, -4, -8)
    assert rep.trend == "decreasing"


def test_minreg_negative_line_bundle_diverges():
    for p in (2, 3):
        rep = minreg_areg(catalog.line_bundle(p, 2, -1), 3)
        assert rep.regularities == (1, p, p ** 2, p ** 3)
        assert rep.trend == "increasing"
        assert rep.minreg_upper_bound == 1
    with pytest.raises(ValueError):
        minreg_areg(catalog.structure_sheaf(2, 2), -1)


def test_minreg_zero_dimensional_support_is_constant():
    # R/(x0, x1): a point, so every pullback has regularity None
    p, nv = 3, 3
    pres = GradedMap(p, nv, (0,), (1, 1),
                     ((MultiPoly.variable(nv, p, 0),
                       MultiPoly.variable(nv, p, 1)),))
    rep = minreg_areg(GradedModule(pres), 2)
    assert rep.regularities == (None, None, None)
    assert rep.trend == "constant"
    assert rep.minreg_upper_bound is None


def test_global_generation_checks():
    t = catalog.tangent_bundle(3, 2)
    assert generated_in_degrees(t, 3)
    # the point ideal twisted once realizes its sections but the twist by
    # zero does not (sections of the ideal sheaf in degree 0 are empty,
    # matching the module, so it trivially passes); a negative control:
    # O(-1) has no sections at all, so multiplication never surjects onto
    # nonzero pieces
    assert not generated_in_degrees(catalog.line_bundle(3, 2, -1), 2)
    # O + O(-3): the second summand's generator sits in degree 3, so only
    # the top degree of the scan fails
    late = catalog.line_bundle_sum(3, 2, [0, -3])
    assert generated_in_degrees(late, 2)
    assert not generated_in_degrees(late, 3)


def test_global_generation_requires_section_match():
    # the irrelevant ideal has module degree-0 part 0 but one section
    with pytest.raises(ValueError):
        generated_in_degrees(catalog.irrelevant_ideal(3, 2), 2)


def test_cohomology_of_direct_sum_additivity():
    a = catalog.line_bundle(3, 2, -4)
    b = catalog.tangent_bundle(3, 2)
    s = direct_sum([a, b])
    for i in range(3):
        for d in range(-4, 3):
            assert sheaf_cohomology(s, i, d) == \
                sheaf_cohomology(a, i, d) + sheaf_cohomology(b, i, d)


def test_tangent_is_twisted_top_minus_one_forms():
    # duality pairing: the tangent bundle agrees with the (n-1)-forms
    # twisted by n+1, checked value-by-value against the closed form
    for p in (2, 5):
        for n in (2, 3):
            t = catalog.tangent_bundle(p, n)
            for d in range(-5, 3):
                for i in range(n + 1):
                    assert sheaf_cohomology(t, i, d) == \
                        bott_oracle(n, n - 1, d + n + 1, i), (p, n, d, i)


def test_point_ideal_cohomology_long_exact_sequence_closed_forms():
    # independent route: the ideal sheaf of a point on the plane sits
    # between the structure sheaves of the plane and of the point, so
    # h^0(I(d)) = C(d+2,2) - 1 for d >= 1 and 0 below, h^1(I(d)) = 1
    # exactly for d <= -1, and h^2 agrees with the ambient line bundle
    from math import comb
    ideal = catalog.point_ideal(5)
    for d in range(-5, 5):
        h0 = comb(d + 2, 2) - 1 if d >= 1 else 0
        h1 = 1 if d <= -1 else 0
        h2 = comb(-d - 1, 2) if d <= -3 else 0
        assert sheaf_cohomology(ideal, 0, d) == h0, d
        assert sheaf_cohomology(ideal, 1, d) == h1, d
        assert sheaf_cohomology(ideal, 2, d) == h2, d


def test_regularity_scan_across_long_unsaturated_stretch():
    # Frobenius power of the irrelevant ideal still sheafifies to the
    # structure sheaf: sheaf regularity 0 while the module Betti bound is
    # the socle degree 3(p-1) + 1 of the cube-power quotient
    from frobamp.modules import frobenius_module
    rep = regularity(frobenius_module(catalog.irrelevant_ideal(3, 2), 1))
    assert rep.sheaf_regularity == 0
    assert rep.module_regularity_bound == 7


# -- Ext pieces from Hilbert series against the dense oracle -----------------

# derandomize seeds from the test's source, so the seed pins the 40 modules
# across edits of the body; other draws can be far heavier for the dense rank
@seed(int("8058490a5e718fcbed1b71456e7835f94f7d9a6bfb1fef6f11792f605aeb1145"
          "2700aec72fdea6d089fdf2235dd245c7", 16))
@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(dual_rank_modules())
def test_dual_ranks_match_the_dense_rank(module):
    # dim Ext^j_e = dim (F*_j)_e - rank of the outgoing and the incoming
    # dual differential in degree e, both ranks dense
    res, duals = _dual_maps(module)
    nv, p = module.num_vars, module.prime
    for j in range(res.length + 1):
        twists = [nv - t for t in res.module_twists(j)]
        for e in range(-8, 9):
            dim = free_piece_dimension(nv, twists, e)
            if j < res.length:
                dim -= rank_mod(duals[j].degree_piece(e), p)
            if j >= 1:
                dim -= rank_mod(duals[j - 1].degree_piece(e), p)
            assert ext_dual_dimension(module, j, e) == dim, (j, e)
    assert ext_dual_dimension(module, -1, 0) == 0
    assert ext_dual_dimension(module, res.length + 1, 0) == 0


@st.composite
def monomial_sets(draw):
    """(number of variables, exponent tuples), the unit monomial now and
    then and the empty set among them."""
    nv = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nv), max_size=6))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * nv)
    return nv, gens


def _quotient_series(nv, gens):
    return HilbertSeries.from_terms(nv, hilbert_numerator(gens))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(monomial_sets())
def test_hilbert_numerator_counts_the_monomials_of_the_ideal(case):
    nv, gens = case
    series = _quotient_series(nv, gens)
    for d in range(9):
        standard = sum(
            1 for m in monomials_of_degree(nv, d)
            if not any(all(a <= b for a, b in zip(g, m)) for g in gens))
        assert series.at(d) == standard, d


def test_hilbert_numerator_of_the_empty_set_and_the_unit_ideal():
    assert hilbert_numerator([]) == ((0, 1),)
    assert hilbert_numerator([(0, 0, 0), (1, 2, 0)]) == ()
    assert hilbert_numerator([(1, 0), (0, 1)]) == ((0, 1), (1, -2), (2, 1))
    for nv in (1, 3):
        unit, zero = (0,) * nv, _quotient_series(nv, [])
        assert _quotient_series(nv, [unit]).at(4) == 0
        assert _quotient_series(nv, [unit]).terms == ()
        assert zero.at(4) == len(monomials_of_degree(nv, 4))
        assert zero.at(-1) == 0


def test_hilbert_numerator_is_sparse_in_high_degrees():
    # a dense coefficient list would need 2 * 5^20 entries here
    q = 5 ** 20
    assert hilbert_numerator([(q, 0, 0), (0, q, 0)]) == (
        (0, 1), (q, -2), (2 * q, 1))


def test_regularity_and_wide_tables_never_build_a_dense_map_piece(
        monkeypatch):
    def dense(self, d):
        raise AssertionError("dense degree piece built")

    # the cokernel series are cached: one Buchberger run per dual
    # differential serves a whole scan or table
    runs = []
    monkeypatch.setattr(GradedMap, "degree_piece", dense)
    monkeypatch.setattr("frobamp.cohomology.buchberger",
                        lambda *args: runs.append(1) or buchberger(*args))
    module = frobenius_module(catalog.irrelevant_ideal(2, 2), 4)
    rep = regularity(module)
    assert rep.sheaf_regularity == 0
    assert rep.module_regularity_bound == 46
    assert 0 < len(runs) <= len(_dual_maps(module)[1])
    runs.clear()
    t = catalog.tangent_bundle(5, 3)
    tt = tensor(t, t)
    table = cohomology_table(tt, -8, 8)
    assert euler_characteristic_matches_hilbert(tt, table)
    assert cohomology_table(tt, -12, 12).h[1][4:-4] == table.h[1]
    assert 0 < len(runs) <= len(_dual_maps(tt)[1])


# -- table properties on random modules ---------------------------------------

@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(dual_rank_modules(), st.integers(-3, 3))
def test_twisting_shifts_the_table(module, a):
    table = cohomology_table(module, -5, 5)
    assert euler_characteristic_matches_hilbert(module, table)
    assert cohomology_table(twist(module, a), -5, 5).h == \
        cohomology_table(module, -5 + a, 5 + a).h


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(st.data())
def test_cohomology_tables_add_over_direct_sums(data):
    a = data.draw(dual_rank_modules())
    b = data.draw(dual_rank_modules(a.prime, a.num_vars))
    tables = [cohomology_table(m, -5, 5) for m in (a, b, direct_sum([a, b]))]
    for m, table in zip((a, b), tables):
        assert euler_characteristic_matches_hilbert(m, table)
    assert tables[2].h == tuple(tuple(x + y for x, y in zip(ra, rb))
                                for ra, rb in zip(tables[0].h, tables[1].h))


# -- Frobenius pullbacks: derived caches and the closed-form regularity ------

def _direct_pullback(module, e):
    """The e-th pullback as a fresh module, so that it runs the engine."""
    pres = frobenius_presentation(module.presentation, e) if e else \
        module.presentation
    return GradedModule(pres, module.locally_free, spot_check=False)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(dual_rank_modules(), st.sampled_from((1, 2)))
def test_pullback_caches_match_a_direct_recompute(module, e):
    pulled = frobenius_module(module, e)
    direct = _direct_pullback(module, e)
    res = pulled._cache["resolution"]
    assert res == minimal_resolution(direct)
    for k in range(-1, res.length):
        assert pulled._cache[("coker_series", k)] == _coker_series(direct, k)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(dual_rank_modules(), st.sampled_from((0, 1, 2)))
def test_regularity_matches_the_mumford_scan(module, e):
    if e:
        module = frobenius_module(module, e)
    assume(not sheaf_is_zero(module))
    rep = regularity(module)
    bound = rep.module_regularity_bound
    if rep.sheaf_regularity is None:
        # zero-dimensional support: a scan would never stop
        assert all(satisfies_vanishing(module, m)
                   for m in range(bound - 10, bound + 1))
    else:
        assert rep.sheaf_regularity == mumford_scan(module, bound)


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(dual_rank_modules())
def test_minreg_matches_direct_regularities(module):
    assume(not sheaf_is_zero(module))
    assert minreg_areg(module, 2).regularities == tuple(
        regularity(_direct_pullback(module, e)).sheaf_regularity
        for e in range(3))
