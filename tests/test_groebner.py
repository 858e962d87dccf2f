import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobamp.groebner import (_buchberger_basis, _interreduce, _lead_index,
                              _reduce, buchberger, buchberger_criterion_holds,
                              groebner_basis, leading_term, normal_form,
                              submodule_contains, syzygies, term_divides,
                              term_key, vec_scale, vec_sub_multiple,
                              vector_degree, vectors_from_polys)
from frobamp.polynomials import MultiPoly, monomials_of_degree, parse_poly


def vec(items):
    return dict(items)


def x(i, nv=3, p=2, power=1):
    return MultiPoly.variable(nv, p, i, power)


def test_term_order_is_position_over_term():
    # lower component dominates; grevlex within a component
    a = ((1, 0, 0), 0)
    b = ((5, 5, 5), 1)
    assert term_key(a) > term_key(b)
    assert term_key(((0, 2, 0), 0)) > term_key(((1, 0, 1), 0))


def test_monomial_generators_already_a_basis():
    # ideal of a point on P^1 over F_2
    gens = vectors_from_polys([(x(0, 2),), (x(1, 2),)])
    basis = buchberger(gens, (0,), 2)
    leads = sorted(leading_term(g) for g in basis)
    assert leads == [(((0, 1), 0)), (((1, 0), 0))]
    assert buchberger_criterion_holds(basis, (0,), 2)


def test_buchberger_criterion_on_nontrivial_ideal():
    p, nv = 3, 3
    f = parse_poly("x0^2 + x1*x2", nv, p)
    g = parse_poly("x1^2", nv, p)
    gens = vectors_from_polys([(f,), (g,)])
    basis = buchberger(gens, (0,), p)
    assert buchberger_criterion_holds(basis, (0,), p)
    # both generators lie in the submodule spanned by the basis
    for v in gens:
        assert submodule_contains(v, basis, p)


def test_empty_generators():
    assert buchberger([], (0,), 2) == []
    syz, degs = syzygies([], (0,), 2, 1)
    assert syz == [] and degs == []


def test_normal_form_is_canonical():
    p, nv = 3, 2
    f = parse_poly("x0^2 - x1^2", nv, p)
    gens = vectors_from_polys([(f,)])
    basis = buchberger(gens, (0,), p)
    g = parse_poly("x0^4", nv, p)
    nf = normal_form(vectors_from_polys([(g,)])[0], basis, p)
    # x0^4 = (x0^2 + x1^2)(x0^2 - x1^2) + x1^4
    assert nf == {((0, 4), 0): 1}


def test_normal_form_when_a_cancelled_term_returns():
    # reducing x0^2 by x0^2 + x1^2 cancels the x1^2 of v; reducing x0*x1
    # by x0*x1 + x1^2 then brings it back
    p, nv = 2, 3
    gens = vectors_from_polys([(parse_poly("x0^2 + x1^2", nv, p),),
                               (parse_poly("x0*x1 + x1^2", nv, p),)])
    basis = buchberger(gens, (0,), p)
    assert sorted(basis, key=leading_term) == sorted(gens, key=leading_term)
    v = vectors_from_polys([(parse_poly("x0^2 + x0*x1 + x1^2", nv, p),)])[0]
    assert normal_form(v, basis, p) == {((0, 2, 0), 0): 1}


def test_koszul_syzygy_of_two_variables():
    # generators x0, x1 of an ideal on P^1: single relation (x1, -x0)
    p, nv = 3, 2
    gens = vectors_from_polys([(x(0, nv, p),), (x(1, nv, p),)])
    syz, degs = syzygies(gens, (0,), p, nv, degrees=(1, 1))
    assert degs == [2]
    assert len(syz) == 1
    s = syz[0]
    # s = a e_0 + b e_1 with a x0 + b x1 = 0, i.e. (x1, -x0) up to scalar
    a = {e: v for (e, c), v in s.items() if c == 0}
    b = {e: v for (e, c), v in s.items() if c == 1}
    assert set(a) == {(0, 1)} and set(b) == {(1, 0)}
    assert (a[(0, 1)] + b[(1, 0)]) % p == 0


def test_single_nonzerodivisor_has_no_syzygies():
    p, nv = 5, 3
    f = parse_poly("x0^2 + x1*x2", nv, p)
    gens = vectors_from_polys([(f,)])
    syz, _ = syzygies(gens, (0,), p, nv, degrees=(2,))
    assert syz == []


def test_syzygies_kill_generators():
    rng = random.Random(11)
    p, nv = 3, 3
    from frobamp.polynomials import monomials_of_degree
    for _ in range(10):
        cols = []
        for _ in range(3):
            deg = rng.randrange(1, 3)
            monos = monomials_of_degree(nv, deg)
            terms = {rng.choice(monos): rng.randrange(1, p)
                     for _ in range(2)}
            cols.append((MultiPoly(nv, p, terms),))
        gens = vectors_from_polys(cols)
        degrees = tuple(c[0].degree() for c in cols)
        syz, _ = syzygies(gens, (0,), p, nv, degrees=degrees)
        for s in syz:
            acc = {}
            for (exps, comp), v in s.items():
                for (ge, _gc), gv in gens[comp].items():
                    key = tuple(a + b for a, b in zip(exps, ge))
                    acc[key] = (acc.get(key, 0) + v * gv) % p
            assert all(c == 0 for c in acc.values())


def test_inhomogeneous_input_rejected():
    p, nv = 2, 2
    f = parse_poly("x0 + x0^2", nv, p)
    with pytest.raises(ValueError):
        buchberger(vectors_from_polys([(f,)]), (0,), p)


def test_public_groebner_basis_wrapper():
    p, nv = 2, 2
    basis = groebner_basis([(x(0, nv, p), x(1, nv, p))], (0, 0), p,
                           num_vars=nv)
    assert len(basis) == 1
    assert basis[0][0] == x(0, nv, p)


def test_reduced_basis_is_deterministic():
    p, nv = 5, 3
    polys = [parse_poly(s, nv, p) for s in
             ("x0^2 + x1*x2", "x1^2 - x0*x2", "x2^2 + 2*x0*x1")]
    gens = vectors_from_polys([(f,) for f in polys])
    b1 = buchberger(gens, (0,), p)
    b2 = buchberger(list(reversed(gens)), (0,), p)
    assert b1 == b2


def test_random_module_generators_stress():
    # random homogeneous generators in a rank-3 twisted free module:
    # the reduced basis passes the criterion, contains the generators,
    # and its syzygies kill the generators exactly
    from frobamp.polynomials import monomials_of_degree

    rng = random.Random(20260809)
    p, nv = 3, 3
    twists = (0, 1, 2)
    for trial in range(6):
        gens = []
        degrees = []
        for _ in range(3):
            deg = rng.randrange(2, 4)
            vec = {}
            for comp, t in enumerate(twists):
                if deg - t < 0:
                    continue
                monos = monomials_of_degree(nv, deg - t)
                for _ in range(2):
                    key = (rng.choice(monos), comp)
                    vec[key] = rng.randrange(0, p)
            vec = {k: v for k, v in vec.items() if v}
            if not vec:
                continue
            gens.append(vec)
            degrees.append(deg)
        if not gens:
            continue
        basis = buchberger(gens, twists, p)
        assert buchberger_criterion_holds(basis, twists, p), trial
        for g in gens:
            assert submodule_contains(g, basis, p), trial
        syz, _ = syzygies(gens, twists, p, nv, degrees=tuple(degrees))
        for s in syz:
            acc = {}
            for (exps, comp), v in s.items():
                for (ge, gc), gv in gens[comp].items():
                    key = (tuple(a + b for a, b in zip(exps, ge)), gc)
                    acc[key] = (acc.get(key, 0) + v * gv) % p
            assert all(c == 0 for c in acc.values()), trial


@st.composite
def _coefficients(draw, p, count):
    return draw(st.lists(st.integers(0, p - 1), min_size=count,
                         max_size=count))


@st.composite
def random_form_ideals(draw):
    """2-4 homogeneous forms of degree 1-3 in 3 variables over F_p."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    forms = []
    for degree in draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)):
        monos = monomials_of_degree(3, degree)
        coeffs = draw(_coefficients(p, len(monos)))
        forms.append(MultiPoly(3, p, dict(zip(monos, coeffs))))
    return p, forms


def _monic_terms(terms, p):
    terms = {e: c % p for e, c in terms.items() if c % p}
    lead = max(terms, key=lambda e: term_key((e, 0)))
    inv = pow(terms[lead], p - 2, p)
    return frozenset((e, c * inv % p) for e, c in terms.items())


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(random_form_ideals())
def test_reduced_basis_matches_sympy_grevlex(case):
    p, forms = case
    xs = sympy.symbols("x0:3")
    theirs = sympy.groebner(
        [sympy.Poly.from_dict(dict(f.terms), *xs, modulus=p)
         for f in forms], *xs, modulus=p, order="grevlex")
    ours = groebner_basis([(f,) for f in forms], (0,), p, num_vars=3)
    assert ({_monic_terms(f.terms, p) for (f,) in ours}
            == {_monic_terms(g.as_dict(), p) for g in theirs.polys})


@st.composite
def rank_two_submodules(draw):
    """Homogeneous generators in R(-t0) + R(-t1) on P^2, a vector of
    degree 4, and (element, monomial, coefficient) picks of multiples."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    twists = draw(st.sampled_from(((0, 0), (0, 1), (1, 0))))

    def vector(degree, terms_per_comp):
        vec = {}
        for comp, t in enumerate(twists):
            monos = monomials_of_degree(3, degree - t)
            picks = draw(st.lists(st.sampled_from(monos),
                                  max_size=terms_per_comp))
            coeffs = draw(_coefficients(p, len(picks)))
            vec.update({(m, comp): c for m, c in zip(picks, coeffs) if c})
        return vec

    gens = [vector(draw(st.sampled_from((2, 3))), 3)
            for _ in range(draw(st.integers(1, 3)))]
    multiples = draw(st.lists(st.tuples(st.integers(0, 99),
                                        st.integers(0, 99),
                                        st.integers(1, p - 1)), max_size=4))
    return p, twists, gens, vector(4, 6), multiples


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(rank_two_submodules())
def test_normal_form_is_irreducible_and_constant_on_cosets(case):
    p, twists, gens, v, multiples = case
    basis = buchberger(gens, twists, p)
    nf = normal_form(v, basis, p)
    leads = [leading_term(g) for g in basis]
    assert not any(term_divides(lt, t) for lt in leads for t in nf)
    # v + sum c x^a g: a term of v may cancel, then come back in reduction
    w = dict(v)
    fits = [g for g in basis if vector_degree(g, twists) <= 4]
    for b, m, c in multiples:
        if fits:
            g = fits[b % len(fits)]
            monos = monomials_of_degree(3, 4 - vector_degree(g, twists))
            vec_sub_multiple(w, -c, monos[m % len(monos)], g, p)
    assert normal_form(w, basis, p) == nf
    v_minus_nf = dict(v)
    vec_sub_multiple(v_minus_nf, 1, (0, 0, 0), nf, p)
    assert normal_form(v_minus_nf, basis, p) == {}


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(rank_two_submodules())
def test_min_component_keeps_the_trailing_part_of_the_reduced_basis(case):
    # what syzygies asks for: the other elements cannot reduce these
    p, twists, gens, _, _ = case
    full = buchberger(gens, twists, p)
    assert buchberger(gens, twists, p, min_component=1) == \
        [g for g in full if leading_term(g)[1] == 1]


def _monic(vec, p):
    return vec_scale(vec, pow(vec[leading_term(vec)], p - 2, p), p)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(rank_two_submodules())
def test_reduce_builds_its_result_in_decreasing_term_order(case):
    # Buchberger reads a new element's lead off the first key, for any
    # monic homogeneous reducers, Groebner basis or not
    p, twists, gens, v, _ = case
    monic = [_monic(g, p) for g in gens if g]
    index = _lead_index(monic, [leading_term(g) for g in monic])
    h = _reduce(v, index, p)
    keys = [term_key(t) for t in h]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    if h:
        assert next(iter(h)) == leading_term(h)


@st.composite
def generators_with_shared_leads(draw):
    """rank_two_submodules' generators, plus copies of some of them with
    every coefficient but the lead's redrawn: equal leads on input."""
    p, twists, gens, _, _ = draw(rank_two_submodules())
    twins = []
    for g in gens:
        if g and draw(st.booleans()):
            lead = leading_term(g)
            twin = {t: draw(st.integers(0, p - 1)) for t in g}
            twin[lead] = draw(st.integers(1, p - 1))
            twins.append({t: c for t, c in twin.items() if c})
    return p, twists, gens + twins


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(generators_with_shared_leads())
def test_buchberger_leads_are_distinct_before_interreduction(case):
    p, twists, gens = case
    basis, leads = _buchberger_basis(gens, twists, p)
    assert leads == [leading_term(g) for g in basis]
    assert len(set(leads)) == len(leads)
    assert buchberger_criterion_holds(basis, twists, p)
    assert _interreduce(basis, leads, twists, p) == buchberger(gens, twists,
                                                               p)
