import random

import pytest

from frobamp.polynomials import (MAX_EXPONENT, MultiPoly, format_poly,
                                 frobenius_poly, grevlex_key, is_prime,
                                 monomials_of_degree, parse_poly)


def poly(text, num_vars=3, p=3):
    return parse_poly(text, num_vars, p)


def random_homogeneous(rng, num_vars, p, degree, terms=4):
    monos = monomials_of_degree(num_vars, degree)
    chosen = {}
    for _ in range(terms):
        chosen[rng.choice(monos)] = rng.randrange(1, p)
    return MultiPoly(num_vars, p, chosen)


def test_is_prime_small():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert is_prime(2 ** 31 - 1)
    assert not is_prime(2 ** 31)


def test_product_difference_of_squares():
    # (x0 + x1)(x0 - x1) = x0^2 - x1^2 over F_3
    f = poly("x0 + x1") * poly("x0 - x1")
    assert f == poly("x0^2 - x1^2")


def test_additive_identity():
    f = poly("x0^2 + 2*x1*x2")
    assert f + MultiPoly.zero(3, 3) == f


def test_integer_multiples_reduce_mod_p():
    f = poly("x0^2 + 2*x1*x2")
    assert f * 2 == 2 * f == poly("2*x0^2 + x1*x2")
    assert f * 3 == MultiPoly.zero(3, 3)
    assert f * -1 == -f


def test_cube_over_f3():
    # frozen via the direct-multiplication oracle: cross terms carry
    # binomial coefficients 3 and vanish mod 3
    f = poly("x0 + x1")
    cube = f * f * f
    assert cube == poly("x0^3 + x1^3")


def test_frobenius_linear():
    f = parse_poly("x0 + 2*x1", 2, 5)
    assert frobenius_poly(f, 1) == parse_poly("x0^5 + 2*x1^5", 2, 5)


def test_frobenius_constant():
    one = MultiPoly.constant(3, 5, 1)
    assert frobenius_poly(one, 2) == one


def test_frobenius_via_repeated_squaring():
    # p = 2, e = 2: the fourth power computed by plain multiplication
    f = parse_poly("x0*x1 + x2^2", 3, 2)
    fourth = f * f
    fourth = fourth * fourth
    assert frobenius_poly(f, 2) == fourth
    assert frobenius_poly(f, 2) == parse_poly("x0^4*x1^4 + x2^8", 3, 2)


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(20260809)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        f = random_homogeneous(rng, 3, p, rng.randrange(1, 4))
        g = random_homogeneous(rng, 3, p, rng.randrange(1, 4))
        e = rng.randrange(1, 3)
        assert frobenius_poly(f * g, e) == \
            frobenius_poly(f, e) * frobenius_poly(g, e)
        if f.degree() == g.degree():
            assert frobenius_poly(f + g, e) == \
                frobenius_poly(f, e) + frobenius_poly(g, e)


def test_frobenius_composes():
    rng = random.Random(7)
    for _ in range(10):
        f = random_homogeneous(rng, 3, 3, 2)
        assert frobenius_poly(f, 3) == \
            frobenius_poly(frobenius_poly(f, 1), 2)


def test_frobenius_errors():
    f = poly("x0")
    with pytest.raises(ValueError):
        frobenius_poly(f, 0)
    big = MultiPoly(2, 3, {(MAX_EXPONENT // 2, 0): 1})
    with pytest.raises(OverflowError):
        frobenius_poly(big, 30)


def test_homogeneity_preserved():
    rng = random.Random(99)
    for _ in range(20):
        f = random_homogeneous(rng, 3, 5, 3)
        g = random_homogeneous(rng, 3, 5, 2)
        assert (f * g).is_homogeneous()
        assert (f * g).degree() == 5
        assert frobenius_poly(f, 1).degree() == 15


def test_arith_rejects_mismatched_rings():
    f = poly("x0")
    with pytest.raises(ValueError):
        f + parse_poly("x0", 3, 5)  # modulus mismatch
    with pytest.raises(ValueError):
        f * parse_poly("x0", 2, 3)  # num_vars mismatch


def test_grevlex_order():
    # x0 > x1 > x2, and x1^2 > x0*x2 in graded reverse lex
    k = grevlex_key
    assert k((1, 0, 0)) > k((0, 1, 0)) > k((0, 0, 1))
    assert k((0, 2, 0)) > k((1, 0, 1))
    assert format_poly(poly("x0*x2 + x1^2")) == "x1^2 + x0*x2"


def test_parse_format_round_trip():
    rng = random.Random(4)
    for _ in range(30):
        p = rng.choice([2, 3, 7])
        f = random_homogeneous(rng, 3, p, rng.randrange(0, 5))
        assert parse_poly(format_poly(f), 3, p) == f
    assert format_poly(MultiPoly.zero(3, 3)) == "0"
    assert parse_poly("0", 3, 3) == MultiPoly.zero(3, 3)


def test_parse_rejects_garbage():
    for bad in ("", "x0 + + x1", "x9", "2**x0", "x0^", "y0", "3x0"):
        with pytest.raises(ValueError):
            parse_poly(bad, 3, 5)


def test_parse_optional_star_and_power():
    assert parse_poly("x0^1", 3, 5) == poly("x0", 3, 5)
    assert parse_poly("2*x0*x0", 3, 5) == parse_poly("2*x0^2", 3, 5)
    assert parse_poly("-x0 + 3", 3, 5) == parse_poly("4*x0 + 3", 3, 5)
