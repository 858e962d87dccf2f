"""Dense linear algebra over F_p (numpy-backed) and exact rational solving.

The mod-p routines use int64 arrays; residues are < 2**31 so products of two
residues never overflow.  The rational solver works with ``fractions.Fraction``
and is meant for the small overdetermined systems arising from splitting-type
computations.
"""

from __future__ import annotations

from fractions import Fraction
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
        below = a[rank + 1:, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz]
                                - np.outer(below[nz], a[rank])) % p
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
    """
    m = [[Fraction(v) for v in row] + [Fraction(b)]
         for row, b in zip(matrix, rhs)]
    rows = len(m)
    cols = len(m[0]) - 1 if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if m[i][cols] != 0:
            raise ValueError("inconsistent linear system")
    if len(pivots) < cols:
        raise ValueError("underdetermined linear system")
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return x
