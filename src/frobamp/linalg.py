"""Dense linear algebra over F_p (numpy-backed) and exact rational solving.

The mod-p routines use int64 arrays; residues are < 2**31 so products of two
residues never overflow.  The rational solver eliminates fraction-free over
the integers; the tests use it as the reference for the splitting types,
which ``pushforward`` finds by integer forward substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def as_mod_array(rows, p) -> np.ndarray:
    import numpy as np

    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, 0)
    return np.mod(a, p)


def rank_mod(matrix, p: int) -> int:
    """Rank of a matrix over F_p via Gaussian elimination."""
    import numpy as np

    a = as_mod_array(matrix, p)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    rank = 0
    for col in range(cols):
        nz = rank + np.flatnonzero(a[rank:, col])
        if not nz.size:
            continue
        if nz[0] != rank:
            a[[rank, nz[0]]] = a[[nz[0], rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        # the swap moved a row that is zero in this column to nz[0]
        below = nz[1:]
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def rref_mod(matrix, p: int):
    """Reduced row echelon form over F_p; returns (array, pivot columns)."""
    import numpy as np

    a = as_mod_array(matrix, p)
    rows, cols = a.shape
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        other = np.nonzero(a[:, col])[0]
        other = other[other != rank]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, col], a[rank])) % p
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return a, pivots


def row_space_contains(matrix, vector, p: int) -> bool:
    """Whether ``vector`` lies in the row space of ``matrix`` over F_p."""
    import numpy as np

    a = as_mod_array(matrix, p)
    v = as_mod_array([vector], p)
    if a.shape[0] == 0:
        return not v.any()
    stacked = np.vstack([a, v])
    return rank_mod(stacked, p) == rank_mod(a, p)


def solve_rational(matrix, rhs):
    """Solve A x = b exactly over Q.

    ``matrix`` is a list of rows of ints/Fractions, ``rhs`` a list.  Raises
    ValueError if the system is inconsistent or underdetermined.

    Each row is scaled to integers and the augmented matrix is brought to
    echelon form by Bareiss's fraction-free elimination: every entry after
    a step is a minor of the input, so the division by the previous pivot
    is exact.  Back substitution finds the integers D x_c, where D is the
    last pivot (Cramer's rule), and makes one Fraction per unknown.
    """
    m = []
    for row, b in zip(matrix, rhs):
        ratios = [v.as_integer_ratio() for v in (*row, b)]
        den = lcm(*(d for _, d in ratios))
        m.append([n * (den // d) for n, d in ratios])
    rows = len(m)
    cols = len(m[0]) - 1 if rows else 0
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        lead = top[c]
        for i in range(r + 1, rows):
            f = m[i][c]
            m[i] = [(lead * a - f * t) // prev for a, t in zip(m[i], top)]
        prev = lead
        r += 1
    if any(m[i][cols] for i in range(r, rows)):
        raise ValueError("inconsistent linear system")
    if r < cols:
        raise ValueError("underdetermined linear system")
    # row c holds the pivot of column c; y[c] = D x_c with D = prev
    y = [0] * cols
    for c in reversed(range(cols)):
        row = m[c]
        acc = prev * row[cols] - sum(row[j] * y[j]
                                     for j in range(c + 1, cols))
        y[c] = acc // row[c]
    return [Fraction(v, prev) for v in y]
