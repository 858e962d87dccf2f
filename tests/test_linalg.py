import random
from fractions import Fraction

import pytest

from frobamp.linalg import rank_mod, solve_rational


def _loop_rank(rows, p):
    """Rank over F_p by row reduction in plain Python, one entry at a
    time: the reference for the vectorized rank_mod."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rank_mod_matches_the_loop_reference():
    rng = random.Random(3)
    for trial in range(300):
        p = rng.choice((2, 3, 5, 7, 11))
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        density = rng.random()
        rows = [[rng.randrange(p) if rng.random() < density else 0
                 for _ in range(m)] for _ in range(n)]
        if n > 2:
            rows[-1] = [(a + 2 * b) % p for a, b in zip(rows[0], rows[1])]
        assert rank_mod(rows, p) == _loop_rank(rows, p), trial


def test_solve_rational_on_random_overdetermined_systems():
    # fraction-free elimination: the answer satisfies every equation
    # exactly, rows of Fractions included
    rng = random.Random(11)
    for trial in range(200):
        n = rng.randrange(1, 6)
        x = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
             for _ in range(n)]
        rows = [[rng.randrange(-4, 5) for _ in range(n)]
                for _ in range(n + rng.randrange(0, 3))]
        if trial % 3 == 0:
            rows = [[Fraction(v, rng.randrange(1, 4)) for v in row]
                    for row in rows]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        try:
            got = solve_rational(rows, rhs)
        except ValueError as err:
            assert "underdetermined" in str(err)
            continue
        assert got == x, trial


def test_solve_rational_rejects_bad_systems():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_rational([[1, 1], [2, 2], [1, 0]], [1, 3, 0])
    with pytest.raises(ValueError, match="underdetermined"):
        solve_rational([[1, 1], [2, 2]], [1, 2])
    assert solve_rational([[2, 0], [0, 3], [2, 3]], [1, 1, 2]) == [
        Fraction(1, 2), Fraction(1, 3)]
