"""Prime fields, monomials, and sparse polynomials at the edges of frobamp.

Every computation runs on the sparse column vectors of ``groebner`` and
``modules``; ``MultiPoly``, an element of F_p[x_0, ..., x_n] stored as a map
from exponent tuples to nonzero residues, is the form in which polynomials
come in (the text syntax below, a caller's matrix rows) and go out
(``GradedMap.entries``, printing, ``groebner.groebner_basis``).  Graded
reverse lexicographic order (x0 > x1 > ... > xn) is the canonical term order
for printing and for the Groebner engine.
"""

from __future__ import annotations

import re
from functools import lru_cache

# Primes must fit comfortably in a machine word so that products of two
# residues stay below 2**63 (needed by the numpy-backed linear algebra).
MAX_PRIME = 2**31

# Per-variable exponent cap.  Frobenius powers scale exponents by p^e, which
# grows fast; exceeding the cap raises instead of silently producing
# unusably large objects.
MAX_EXPONENT = 2**40


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the word-size cap."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    if p >= MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the word-size cap {MAX_PRIME}")
    return p


def grevlex_key(exps: tuple) -> tuple:
    """Sort key realizing graded reverse lex; larger key = larger monomial."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, grevlex-descending."""
    if degree < 0:
        return ()

    def gen(nv, d):
        if nv == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in gen(nv - 1, d - first):
                yield (first,) + rest

    monos = sorted(gen(num_vars, degree), key=grevlex_key, reverse=True)
    return tuple(monos)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict:
    """Map exponent tuple -> position in ``monomials_of_degree``."""
    return {m: i for i, m in enumerate(monomials_of_degree(num_vars, degree))}


def count_monomials(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    from math import comb
    return comb(degree + num_vars - 1, num_vars - 1)


class MultiPoly:
    """Sparse multivariate polynomial over F_p.

    ``terms`` maps exponent tuples (length ``num_vars``) to residues in
    [1, p); zero coefficients are never stored.  Instances are immutable:
    all operations return new polynomials.
    """

    __slots__ = ("num_vars", "modulus", "terms")

    def __init__(self, num_vars: int, modulus: int, terms=None):
        check_prime(modulus)
        if num_vars < 1:
            raise ValueError("num_vars must be at least 1")
        reduced = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(
                    f"exponent tuple {exps} has length {len(exps)}, "
                    f"expected {num_vars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > MAX_EXPONENT for e in exps):
                raise OverflowError(f"exponent overflow in {exps}")
            c %= modulus
            if c:
                reduced[exps] = c
        self.num_vars = num_vars
        self.modulus = modulus
        self.terms = reduced

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars, modulus):
        return cls(num_vars, modulus, {})

    @classmethod
    def constant(cls, num_vars, modulus, c):
        return cls(num_vars, modulus, {(0,) * num_vars: c})

    @classmethod
    def variable(cls, num_vars, modulus, index, power=1):
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(power if i == index else 0 for i in range(num_vars))
        return cls(num_vars, modulus, {exps: 1})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, MultiPoly):
            raise TypeError(f"expected MultiPoly, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ValueError(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")
        if other.num_vars != self.num_vars:
            raise ValueError(
                f"num_vars mismatch: {self.num_vars} vs {other.num_vars}")

    def __add__(self, other):
        self._check_compatible(other)
        p = self.modulus
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = (terms.get(exps, 0) + c) % p
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return MultiPoly(self.num_vars, p, terms)

    def __neg__(self):
        p = self.modulus
        return MultiPoly(self.num_vars, p,
                         {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.num_vars, self.modulus,
                             {e: v * other for e, v in self.terms.items()})
        self._check_compatible(other)
        p = self.modulus
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = (terms.get(e, 0) + c1 * c2) % p
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly(self.num_vars, p, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(self.num_vars, self.modulus, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.num_vars == other.num_vars
                and self.modulus == other.modulus
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.num_vars, self.modulus,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MultiPoly({self.num_vars}, {self.modulus}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


def frobenius_poly(f: MultiPoly, e: int) -> MultiPoly:
    """Apply the ring endomorphism c -> c^{p^e}, x_i -> x_i^{p^e}.

    On F_p coefficients the map is the identity, so only the exponents
    scale.  For homogeneous f the output degree is p^e * deg(f).
    """
    if e <= 0:
        raise ValueError(f"Frobenius exponent must be positive, got {e}")
    q = f.modulus ** e
    if q > MAX_EXPONENT:
        raise OverflowError(f"p^e = {q} exceeds the exponent cap")
    terms = {}
    for exps, c in f.terms.items():
        scaled = tuple(a * q for a in exps)
        if any(a > MAX_EXPONENT for a in scaled):
            raise OverflowError(
                f"exponent overflow scaling {exps} by p^e = {q}")
        terms[scaled] = c
    return MultiPoly(f.num_vars, f.modulus, terms)


# -- text format -----------------------------------------------------------
#
# Terms joined by '+'/'-'; a monomial is  c*x0^a0*x1^a1*...  with '*' and
# '^1' optional and the coefficient omitted when it is 1.  Coefficients are
# decimal integers, reduced mod p on parse.  format/parse round-trip
# bit-exactly.

_TERM_RE = re.compile(r"^(?:(\d+)|x(\d+)(?:\^(\d+))?)$")


def format_poly(f: MultiPoly) -> str:
    if not f.terms:
        return "0"
    parts = []
    for exps in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{i}")
            elif e > 1:
                factors.append(f"x{i}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, num_vars: int, modulus: int) -> MultiPoly:
    """Parse the textual syntax above; inverse of ``format_poly``."""
    check_prime(modulus)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return MultiPoly.zero(num_vars, modulus)
    # split into signed chunks
    chunks = []
    sign = 1
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        s = s[1:]
    buf = ""
    for ch in s:
        if ch in "+-":
            if not buf:
                raise ValueError(f"misplaced sign in {text!r}")
            chunks.append((sign, buf))
            sign = -1 if ch == "-" else 1
            buf = ""
        else:
            buf += ch
    if not buf:
        raise ValueError(f"trailing sign in {text!r}")
    chunks.append((sign, buf))

    terms = {}
    for sign, chunk in chunks:
        coeff = sign
        exps = [0] * num_vars
        for factor in chunk.split("*"):
            m = _TERM_RE.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                idx = int(m.group(2))
                if idx >= num_vars:
                    raise ValueError(
                        f"variable x{idx} out of range (num_vars={num_vars})")
                exps[idx] += int(m.group(3)) if m.group(3) else 1
        key = tuple(exps)
        c = (terms.get(key, 0) + coeff) % modulus
        if c:
            terms[key] = c
        else:
            terms.pop(key, None)
    return MultiPoly(num_vars, modulus, terms)
