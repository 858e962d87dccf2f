"""Splitting types of pushforwards of line bundles under finite self-maps of P^n.

For a finite self-map of degree d on hyperplane classes, the pushforward of
O(i) splits as a direct sum of line bundles; for -d-n-1 < i < d the twists
lie in [-n-1, 0].  Equating Euler characteristics of the pushforward twisted
by O(x) with those of O(dx + i) gives, with p_m(x) = C(x+m, m),

    sum_l f(l, i) p_n(x + l) = p_n(dx + i),

an identity of integer polynomials in x.  Since p_n vanishes at -n..-1,
the identity at x = k in 1..n is triangular in f(-k), so the multiplicities
follow by integer forward substitution from two cohomological pins; the
identity at further sample points and nonnegativity are then checked.  The
Frobenius case d = p^e has an independent oracle: count monomials with
exponents below q in each congruence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class BinomialPoly:
    """p_m(x) = C(x + m, m) evaluated exactly at any integer x.

    Finite differences step down the family: p_m(x) - p_m(x-1) = p_{m-1}(x).
    """

    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("binomial degree must be nonnegative")

    def __call__(self, x: int) -> int:
        num = 1
        for k in range(self.m):
            num *= x + self.m - k
        value, rem = divmod(num, factorial(self.m))
        if rem:
            raise AssertionError("binomial value is not integral")
        return value


@dataclass(frozen=True)
class SplittingType:
    """Multiplicities f(l, i) of O(l) inside the pushforward of O(i)."""

    n: int
    d: int
    i: int
    multiplicities: dict

    def __post_init__(self):
        cleaned = {l: f for l, f in sorted(self.multiplicities.items(),
                                           reverse=True) if f}
        object.__setattr__(self, "multiplicities", cleaned)

    @property
    def total(self) -> int:
        return sum(self.multiplicities.values())

    @property
    def support(self):
        return sorted(l for l, f in self.multiplicities.items() if f)

    def render_text(self) -> str:
        parts = []
        for l in sorted(self.multiplicities, reverse=True):
            f = self.multiplicities[l]
            if f:
                name = "O" if l == 0 else f"O({l})"
                parts.append(f"{name}: {f}")
        return ", ".join(parts) if parts else "0"


def _h0_line(m: int, n: int) -> int:
    return BinomialPoly(n)(m) if m >= 0 else 0


def _hn_line(m: int, n: int) -> int:
    from math import comb
    return comb(-m - 1, n) if m <= -n - 1 else 0


def splitting_type(n: int, d: int, i: int) -> SplittingType:
    """Solve the Euler-characteristic identity for the multiplicities.

    Requires -d-n-1 < i < d, the range in which the splitting is supported
    on twists in [-n-1, 0].  The identity alone leaves a one-dimensional
    ambiguity (the shifted binomials satisfy one linear relation), so two
    further cohomological functionals from the projection formula pin it:
    the section count forces f(0) = h^0(O(i)) and the top cohomology forces
    f(-n-1) = h^n(O(i)).  At x = k in 1..n the identity involves only the
    twists l >= -k, and f(-k) with coefficient p_n(0) = 1, so

        f(-k) = p_n(dk + i) - sum_{l > -k} f(l) p_n(k + l).

    The identity at x = 0 and x = n+1..n+4 is then checked.  Negative
    multiplicities or a failed check raise: they would signal a violated
    hypothesis or an implementation bug, never valid output.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 2:
        raise ValueError("degree d must be at least 2")
    if not -d - n - 1 < i < d:
        raise ValueError(
            f"twist i={i} outside (-d-n-1, d) = ({-d - n - 1}, {d}); "
            "the splitting is not supported on [-n-1, 0] there")
    p_n = BinomialPoly(n)
    mult = {0: _h0_line(i, n)}
    for k in range(1, n + 1):
        mult[-k] = p_n(d * k + i) - sum(f * p_n(k + l)
                                        for l, f in mult.items())
    mult[-n - 1] = _hn_line(i, n)
    for l, f in mult.items():
        if f < 0:
            raise AssertionError(f"negative multiplicity f({l}) = {f}")
    for x in (0, *range(n + 1, n + 5)):
        lhs = sum(f * p_n(x + l) for l, f in mult.items())
        if lhs != p_n(d * x + i):
            raise AssertionError(
                f"Euler-characteristic identity fails at sample x = {x}")
    return SplittingType(n, d, i, mult)


def prime_power_root(q: int):
    """(p, e) with q = p^e, or None when q is not a prime power."""
    if q < 2:
        return None
    p = None
    for c in range(2, q + 1):
        if c * c > q:
            p = q
            break
        if q % c == 0:
            p = c
            break
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    return (p, e) if rest == 1 else None


def splitting_oracle(n: int, q: int, i: int) -> SplittingType:
    """Independent monomial-counting computation for the Frobenius case.

    The pushforward under the q-power map has a basis indexed by monomials
    in x_0..x_n with exponents in [0, q-1]; the basis monomial of total
    degree s contributes to the summand O((i - s)/q) when s = i mod q.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if prime_power_root(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    # histogram of total degrees of monomials with exponents in [0, q-1]
    hist = [1] * 1
    for _ in range(n + 1):
        new = [0] * (len(hist) + q - 1)
        for s, c in enumerate(hist):
            for a in range(q):
                new[s + a] += c
        hist = new
    mult = {}
    for s, count in enumerate(hist):
        if count and (i - s) % q == 0:
            l = (i - s) // q
            mult[l] = mult.get(l, 0) + count
    return SplittingType(n, q, i, mult)


@dataclass(frozen=True)
class BoundaryReport:
    n: int
    d: int
    corner_multiplicities_are_one: bool
    support_windows_hold: bool


def boundary_cases(n: int, d: int) -> BoundaryReport:
    """Corner multiplicities and refined support windows over i in [-n-1, 0].

    f(0, 0) = 1 and f(-n-1, -n-1) = 1 always; the support of the splitting
    of the i-twisted pushforward avoids 0 for i < 0 and avoids -n-1 for
    i > -n-1.
    """
    if d < 2:
        raise ValueError("degree d must be at least 2")
    corners = (splitting_type(n, d, 0).multiplicities[0] == 1
               and splitting_type(n, d, -n - 1).multiplicities[-n - 1] == 1)
    windows = True
    for i in range(-n - 1, 1):
        support = splitting_type(n, d, i).support
        if i == 0:
            lo, hi = -n, 0
        elif i == -n - 1:
            lo, hi = -n - 1, -1
        else:
            lo, hi = -n, -1
        if support and not (lo <= min(support) and max(support) <= hi):
            windows = False
    return BoundaryReport(n, d, corners, windows)


def support_coverage(n: int, d: int) -> dict:
    """Which twists l in [-n-1, 0] occur for some i in [-n-1, 0].

    Empirical probe for the existence statement that every l occurs once d
    is large; no effective threshold is claimed, only observations.
    """
    coverage = {l: [] for l in range(-n - 1, 1)}
    for i in range(-n - 1, 1):
        for l in splitting_type(n, d, i).support:
            coverage[l].append(i)
    return coverage


def minimal_full_support_degree(n: int, d_max: int = 30):
    """Least degree 2 <= d <= d_max with every twist covered, else None."""
    for d in range(2, d_max + 1):
        if all(support_coverage(n, d).values()):
            return d
    return None
