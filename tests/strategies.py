"""Hypothesis strategies for random graded modules, shared by the tests."""

from hypothesis import strategies as st

from frobamp import catalog
from frobamp.modules import GradedMap, GradedModule, frobenius_module
from frobamp.polynomials import MultiPoly, monomials_of_degree

PRIMES = (2, 3, 5, 7)


@st.composite
def forms(draw, p, nv, degree):
    monos = monomials_of_degree(nv, degree)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos),
                           max_size=len(monos)))
    return MultiPoly(nv, p, dict(zip(monos, coeffs)))


@st.composite
def plane_modules(draw, p=None, kind=None):
    """R/I for 2-3 random quadrics and cubics, or the cokernel of a random
    3x4 matrix of linear forms, on P^2; zero forms occur."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    kind = draw(st.sampled_from(("ideal", "matrix"))) if kind is None else kind
    if kind == "ideal":
        degrees = tuple(draw(st.lists(st.sampled_from((2, 3)),
                                      min_size=2, max_size=3)))
        row = tuple(draw(forms(p, 3, d)) for d in degrees)
        return GradedModule(GradedMap(p, 3, (0,), degrees, (row,)))
    entries = tuple(tuple(draw(forms(p, 3, 1)) for _ in range(4))
                    for _ in range(3))
    return GradedModule(GradedMap(p, 3, (0,) * 3, (1,) * 4, entries))


@st.composite
def dual_rank_modules(draw, p=None, num_vars=None):
    """Random ideals and 3x4 linear matrices on P^2, 2-3 forms on P^3,
    catalog bundles, and e = 1 Frobenius pullbacks of all but the P^3
    forms; the coefficients are not filtered, so zero forms occur.  ``p``
    and ``num_vars`` pin the ring when given."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    kinds = {None: ("ideal", "matrix", "forms on P^3", "catalog"),
             3: ("ideal", "matrix", "catalog"),
             4: ("forms on P^3", "catalog")}[num_vars]
    kind = draw(st.sampled_from(kinds))
    if kind in ("ideal", "matrix"):
        module = draw(plane_modules(p, kind))
    elif kind == "forms on P^3":
        degrees = tuple(draw(st.lists(st.sampled_from((1, 2)),
                                      min_size=2, max_size=3)))
        row = tuple(draw(forms(p, 4, d)) for d in degrees)
        return GradedModule(GradedMap(p, 4, (0,), degrees, (row,)))
    else:
        n = draw(st.sampled_from((2, 3))) if num_vars is None else num_vars - 1
        bundles = (catalog.tangent_bundle(p, n), catalog.form_bundle(p, n, 1),
                   catalog.irrelevant_ideal(p, n), catalog.point_ideal(p),
                   catalog.line_bundle_sum(p, n, [0, 2]))
        module = draw(st.sampled_from([  # the point ideal lives on P^2
            m for m in bundles if num_vars in (None, m.num_vars)]))
    if draw(st.booleans()):
        module = frobenius_module(module, 1)
    return module
