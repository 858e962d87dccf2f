import random
from math import comb

import pytest

from frobamp.linalg import solve_rational
from frobamp.pushforward import (BinomialPoly, boundary_cases,
                                 minimal_full_support_degree,
                                 prime_power_root, splitting_oracle,
                                 splitting_type, support_coverage)


def test_binomial_poly_values():
    p2 = BinomialPoly(2)
    assert [p2(x) for x in range(-3, 4)] == [1, 0, 0, 1, 3, 6, 10]
    p0 = BinomialPoly(0)
    assert p0(-5) == p0(7) == 1
    with pytest.raises(ValueError):
        BinomialPoly(-1)


def test_binomial_finite_difference_identity():
    rng = random.Random(2)
    for m in range(1, 6):
        pm, pm1 = BinomialPoly(m), BinomialPoly(m - 1)
        for _ in range(20):
            x = rng.randrange(-30, 30)
            assert pm(x) - pm(x - 1) == pm1(x)


def test_classical_splitting_on_the_line():
    st = splitting_type(1, 2, 0)
    assert st.multiplicities == {0: 1, -1: 1}
    assert st.render_text() == "O: 1, O(-1): 1"
    # consistency of the defining identity: (x+1) + x = 2x + 1
    p1 = BinomialPoly(1)
    for x in range(6):
        assert p1(x) + p1(x - 1) == p1(2 * x)


def test_oracle_small_cases():
    assert splitting_oracle(1, 2, 0).multiplicities == {0: 1, -1: 1}
    assert splitting_oracle(1, 3, 0).multiplicities == {0: 1, -1: 2}
    for n, q in ((1, 4), (2, 3), (3, 2)):
        for i in range(-n - 1, q):
            assert splitting_oracle(n, q, i).total == q ** n


def test_solver_matches_oracle():
    for n in (1, 2, 3):
        for q in (2, 3, 4, 5):
            for i in range(-n - 1, q):
                assert splitting_type(n, q, i).multiplicities == \
                    splitting_oracle(n, q, i).multiplicities


def test_recurrence_matches_the_rational_solve():
    # the full overdetermined system: the Euler rows at x = 0..n+1 and the
    # section and top-cohomology pins, solved exactly over Q
    cases = 0
    for n in range(1, 5):
        p_n = BinomialPoly(n)
        supports = range(-n - 1, 1)
        for d in range(2, 10):
            for i in range(-d - n, d):
                rows = [[p_n(x + l) for l in supports] for x in range(n + 2)]
                rhs = [p_n(d * x + i) for x in range(n + 2)]
                rows.append([int(l == 0) for l in supports])
                rhs.append(comb(i + n, n) if i >= 0 else 0)
                rows.append([int(l == -n - 1) for l in supports])
                rhs.append(comb(-i - 1, n) if i <= -n - 1 else 0)
                st = splitting_type(n, d, i).multiplicities
                assert solve_rational(rows, rhs) == \
                    [st.get(l, 0) for l in supports], (n, d, i)
                cases += 1
    assert cases == 432


def test_identity_at_many_extra_points():
    p = BinomialPoly(2)
    st = splitting_type(2, 5, -1)
    for x in range(4, 14):
        lhs = sum(f * BinomialPoly(2)(x + l)
                  for l, f in st.multiplicities.items())
        assert lhs == p(5 * x - 1)


def test_closed_forms_on_interior_range():
    for n in (1, 2):
        p_n = BinomialPoly(n)
        for d in (2, 4, 7):
            for i in range(-n, d):
                st = splitting_type(n, d, i).multiplicities
                assert st.get(0, 0) == p_n(i)
                assert st.get(-n, 0) == (-1) ** n * p_n(i - d)
                want = ((-1) ** (n - 1) * (n + 1) * p_n(i - d)
                        + (-1) ** (n - 2) * p_n(i - 2 * d))
                if n >= 2:
                    assert st.get(-n + 1, 0) == want


def test_corner_values_at_the_boundary_twist():
    # at i = -n-1 the extreme summand appears once and the closed forms'
    # hidden hypothesis fails; the true values are pinned by cohomology
    for n in (1, 2, 3):
        st = splitting_type(n, 4, -n - 1).multiplicities
        assert st.get(-n - 1, 0) == 1
        assert st.get(0, 0) == 0


def test_boundary_cases_reports():
    for n, d in ((1, 2), (2, 4), (3, 3)):
        rep = boundary_cases(n, d)
        assert rep.corner_multiplicities_are_one
        assert rep.support_windows_hold
    with pytest.raises(ValueError):
        boundary_cases(2, 1)


def test_out_of_range_twist_rejected():
    with pytest.raises(ValueError):
        splitting_type(1, 2, 2)  # i = d
    with pytest.raises(ValueError):
        splitting_type(1, 2, -4)  # i = -d-n-1
    with pytest.raises(ValueError):
        splitting_type(0, 2, 0)
    with pytest.raises(ValueError):
        splitting_type(1, 1, 0)


def test_oracle_requires_prime_power():
    assert prime_power_root(8) == (2, 3)
    assert prime_power_root(9) == (3, 2)
    assert prime_power_root(6) is None
    with pytest.raises(ValueError):
        splitting_oracle(1, 6, 0)


def test_support_coverage_search():
    # every twist in the window occurs already for small degrees
    coverage = support_coverage(1, 3)
    assert all(coverage[l] for l in coverage)
    d_min = minimal_full_support_degree(2, d_max=12)
    assert d_min is not None
    for l, occurrences in support_coverage(2, d_min).items():
        assert occurrences, l


def test_splitting_sum_has_no_middle_cohomology():
    # rebuild the computed splitting as an actual direct sum of line
    # bundles and confirm through the cohomology pipeline that it has the
    # intermediate vanishing that forces split-ness
    from frobamp.cohomology import sheaf_cohomology
    from frobamp.modules import free_module

    for n, q, i in ((2, 3, -1), (2, 4, 0), (3, 2, -2)):
        st = splitting_type(n, q, i)
        twists = []
        for l, f in st.multiplicities.items():
            twists.extend([-l] * f)
        bundle = free_module(3, n + 1, tuple(twists))
        for d in range(-3, 4):
            for a in range(1, n):
                assert sheaf_cohomology(bundle, a, d) == 0
