import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import dual_rank_modules

from frobamp import catalog
from frobamp.amplitude import (amplitude_bound_from_regularity,
                               check_exact_sequence_bounds,
                               check_rank_and_dimension_bounds,
                               check_tensor_subadditivity, f_ample_test,
                               f_amplitude)
from frobamp.cohomology import (cohomology_table, regularity,
                                sheaf_cohomology)
from frobamp.modules import (GradedMap, ModuleHom, direct_sum,
                             frobenius_module, restrict_hyperplane, tensor,
                             twist, zero_module)
from frobamp.polynomials import MultiPoly
from frobamp.resolution import sheaf_is_zero


def test_line_bundle_amplitudes():
    for p in (2, 7):
        assert f_amplitude(catalog.line_bundle(p, 2, 1)).phi == 0
        assert f_amplitude(catalog.line_bundle(p, 2, 0)).phi == 2
        assert f_amplitude(catalog.line_bundle(p, 2, -5)).phi == 2
        assert f_ample_test(catalog.line_bundle(p, 2, 3))
        assert not f_ample_test(catalog.line_bundle(p, 2, 0))


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(st.sampled_from((2, 3)).flatmap(dual_rank_modules))
def test_amplitude_is_frobenius_invariant_on_random_modules(module):
    assume(not sheaf_is_zero(module))
    assert f_amplitude(frobenius_module(module, 1)).phi == \
        f_amplitude(module).phi


def test_frobenius_check_recomputes_the_pullback(monkeypatch):
    # the check must not read phi off caches derived from M's: each
    # pullback's table starts from a module with no resolution
    tables = []

    def table(module, lo, hi):
        tables.append((module.presentation, "resolution" in module._cache))
        return cohomology_table(module, lo, hi)

    monkeypatch.setattr("frobamp.amplitude.cohomology_table", table)
    t = catalog.tangent_bundle(3, 2)
    f_amplitude(t, frobenius_check=(1, 2))
    assert tables[1:] == [(frobenius_module(t, e).presentation, False)
                          for e in (1, 2)]


def test_tangent_amplitude_with_frobenius_sampling():
    rep = f_amplitude(catalog.tangent_bundle(3, 2), frobenius_check=(1, 2))
    assert rep.phi == 1
    assert rep.frobenius_checked == (1, 2)
    assert not rep.f_ample
    assert not f_ample_test(catalog.tangent_bundle(5, 2))


def test_amplitude_report_is_deterministic():
    a = f_amplitude(catalog.tangent_bundle(5, 2))
    b = f_amplitude(catalog.tangent_bundle(5, 2))
    assert a == b


def test_amplitude_rejects_zero_sheaf():
    with pytest.raises(ValueError):
        f_amplitude(zero_module(3, 3))


def test_amplitude_of_sums_is_max():
    rng = random.Random(17)
    p = 3
    for _ in range(8):
        degrees_a = [rng.randrange(-3, 4) for _ in range(2)]
        degrees_b = [rng.randrange(-3, 4) for _ in range(2)]
        a = catalog.line_bundle_sum(p, 2, degrees_a)
        b = catalog.line_bundle_sum(p, 2, degrees_b)
        s = direct_sum([a, b])
        assert f_amplitude(s).phi == max(f_amplitude(a).phi,
                                         f_amplitude(b).phi)


def test_serre_vanishing_scan():
    # twisting upward eventually clears the window
    for module in (catalog.tangent_bundle(3, 2), catalog.form_bundle(3, 2, 1)):
        for d in range(0, 8):
            if f_amplitude(twist(module, d)).phi == 0:
                break
        else:
            pytest.fail("no positive twist became F-ample")


def test_f_ample_implies_minus_one_regular():
    p = 5
    candidates = [catalog.line_bundle(p, 2, 1),
                  catalog.line_bundle(p, 2, 2),
                  tensor(catalog.tangent_bundle(p, 2),
                         catalog.line_bundle(p, 2, 1)),
                  catalog.line_bundle_sum(p, 2, [1, 3])]
    for m in candidates:
        assert f_amplitude(m).phi == 0
        reg = regularity(m).sheaf_regularity
        assert reg is not None and reg <= -1


def test_plane_classification_counts_split_line_bundles():
    # an F-ample bundle on the plane splits off one O(1) per unit of the
    # top cohomology of its (-4)-twist; on constructed sums the count is
    # known in advance
    p = 3
    t1 = tensor(catalog.tangent_bundle(p, 2), catalog.line_bundle(p, 2, 1))
    for base, n_split in ((t1, 0), (catalog.line_bundle(p, 2, 2), 0)):
        for extra in range(3):
            v = direct_sum([base] + [catalog.line_bundle(p, 2, 1)] * extra)
            assert f_amplitude(v).phi == 0
            assert sheaf_cohomology(v, 2, -4) == n_split + extra
            # the residual summand is (-2)-regular exactly when no O(1)
            # remains to split off
            if extra == 0:
                assert regularity(base).sheaf_regularity <= -2


def test_regularity_bound_examples():
    rep = amplitude_bound_from_regularity(catalog.line_bundle(3, 2, 5))
    assert (rep.sheaf_regularity, rep.n_star, rep.bound, rep.phi) == \
        (-5, 4, 0, 0)
    rep = amplitude_bound_from_regularity(catalog.structure_sheaf(3, 2))
    assert (rep.sheaf_regularity, rep.n_star, rep.bound, rep.phi) == \
        (0, -1, 2, 2)
    for _, m in catalog.regularity_examples(3):
        rep = amplitude_bound_from_regularity(m)
        assert rep.bound >= rep.phi


def _hom(source, target, entries):
    """The hom given by a matrix of MultiPoly entries, one row per target
    generator."""
    return ModuleHom(source, target, GradedMap(
        source.prime, source.num_vars, target.presentation.target_twists,
        source.presentation.target_twists, entries))


def test_exact_sequence_checks_reject_bad_maps():
    p = 3
    h1, h2 = catalog.euler_sequence(p, 2)
    # swap the maps: composition no longer zero / not well defined
    with pytest.raises(ValueError):
        check_exact_sequence_bounds(h2, h2)
    # break exactness: project the middle onto a single summand
    e2 = h1.target
    one = MultiPoly.constant(3, p, 1)
    z = MultiPoly.zero(3, p)
    proj = _hom(e2, catalog.line_bundle(p, 2, 1), ((one, z, z),))
    with pytest.raises(ValueError):
        check_exact_sequence_bounds(h1, proj)
    # each rank test names the first degree it fails in
    zero_in = _hom(h1.source, e2, ((z,),) * 3)
    with pytest.raises(ValueError, match="first map not injective in "
                                         "degree 0"):
        check_exact_sequence_bounds(zero_in, h2)
    zero_out = _hom(e2, h2.target, ((z,) * 3,) * 3)
    with pytest.raises(ValueError, match="second map not surjective in "
                                         "degree -1"):
        check_exact_sequence_bounds(h1, zero_out)
    o = catalog.structure_sheaf(p, 2)
    o3 = catalog.line_bundle_sum(p, 2, [0] * 3)
    first = _hom(o, o3, ((one,), (z,), (z,)))
    last = _hom(o3, o, ((z, z, one),))
    with pytest.raises(ValueError, match="not exact in the middle, "
                                         "degree 0"):
        check_exact_sequence_bounds(first, last)


def test_exact_sequence_refuses_an_empty_window():
    h1, h2 = catalog.euler_sequence(3, 2)
    with pytest.raises(ValueError, match=r"window range\(3, 1\) is empty"):
        check_exact_sequence_bounds(h1, h2, window=range(3, 1))
    rep = check_exact_sequence_bounds(h1, h2, window=range(3, 4))
    assert rep.window == (3, 3)


def test_exact_sequence_euler():
    h1, h2 = catalog.euler_sequence(2, 2)
    rep = check_exact_sequence_bounds(h1, h2)
    assert rep.phis == (2, 0, 1)
    assert rep.inequality_holds


def test_exact_sequence_split_equality():
    e1 = catalog.line_bundle(3, 2, 2)
    e3 = catalog.tangent_bundle(3, 2)
    h1, h2 = catalog.split_sequence(e1, e3)
    rep = check_exact_sequence_bounds(h1, h2)
    assert rep.phis[1] == max(rep.phis[0], rep.phis[2])


def test_exact_sequence_twisted_koszul():
    h1, h2 = catalog.point_koszul_sequence(5)
    rep = check_exact_sequence_bounds(h1, h2)
    assert rep.phis == (2, 2, 2)
    assert rep.inequality_holds


def test_tensor_subadditivity_reports():
    p = 3
    o1 = catalog.line_bundle(p, 2, 1)
    assert check_tensor_subadditivity(o1, o1).phi_tensor == 0
    t = catalog.tangent_bundle(p, 2)
    rep = check_tensor_subadditivity(t, o1)
    assert rep.phi_tensor <= 1
    rep = check_tensor_subadditivity(t, t)
    assert rep.inequality_holds
    with pytest.raises(ValueError):
        check_tensor_subadditivity(catalog.point_ideal(p), o1)


def test_rank_dimension_bounds():
    rep = check_rank_and_dimension_bounds(catalog.tangent_bundle(3, 2))
    assert (rep.phi, rep.dim, rep.rank) == (1, 2, 2)
    assert rep.dim_bound_holds and rep.rank_bound_observed
    rep = check_rank_and_dimension_bounds(
        catalog.line_bundle_sum(3, 3, [1, 2]))
    assert (rep.phi, rep.dim, rep.rank) == (0, 3, 2)
    with pytest.raises(ValueError):
        check_rank_and_dimension_bounds(catalog.point_ideal(3))


def test_hyperplane_restriction_sandwich():
    # phi restricted to a hyperplane bounds phi from below, and from above
    # after adding one
    for module in (catalog.tangent_bundle(3, 2),
                   catalog.tangent_bundle(3, 3),
                   catalog.line_bundle_sum(5, 3, [2, 0]),
                   catalog.form_bundle(3, 3, 1)):
        inner = f_amplitude(restrict_hyperplane(module)).phi
        outer = f_amplitude(module).phi
        assert inner <= outer <= inner + 1, (inner, outer)


def test_witness_table_drives_phi():
    rep = f_amplitude(catalog.structure_sheaf(2, 2))
    t = rep.witness_table
    assert t.twist_lo == -3 and t.twist_hi == 0
    assert t.cell(2, -3) == 1  # the obstruction pinning phi at 2


def test_tensor_with_forms_on_threefold():
    # T ⊗ (1-forms) contains the trace line O, whose top cohomology at
    # twist -4 blocks everything: phi = 3 = min(n, 2 + 3)
    p = 3
    t = catalog.tangent_bundle(p, 3)
    om = catalog.form_bundle(p, 3, 1)
    rep = check_tensor_subadditivity(t, om)
    assert (rep.phi_left, rep.phi_right, rep.phi_tensor) == (2, 3, 3)
    assert rep.inequality_holds
