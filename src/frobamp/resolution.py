"""Finite free resolutions of graded modules, minimalized step by step.

The construction is the classical iterated-syzygy one: starting from the
presentation, compute a Groebner-basis generating set of the kernel of the
last map, splice it on, and repeat.  Every differential is the list of its
columns, in the Groebner engine's sparse vector form, which is also how a
``GradedMap`` stores a map: the presentation's columns are copied once
(minimalization edits them in place), and each finished differential
becomes a ``GradedMap`` without conversion.

After each step the new differential is minimalized.  Cancelling a unit
(degree-zero) entry at (r, c) is a column step: every other column loses
the multiple of column c that clears its row r, then column c and target
generator r are dropped, together with column r of the previous
differential (which the complex property forces to be redundant - the
product of that map with column c is asserted to vanish, not assumed).  A
column that cancellation has reduced to zero is then dropped too: a zero
vector is a redundant generator of the kernel (graded Nakayama).

Over F_p[x_0..x_n] every graded module has projective dimension at most
n + 1, so the minimal chain always terminates within num_vars maps.

The module's Hilbert data is one cached ``HilbertSeries``, whose numerator
is the K-polynomial sum_k (-1)^k sum t^twist over the resolution: dim M_d,
the Hilbert polynomial, the generic rank and the zero-sheaf test read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from . import groebner
from .linalg import rank_mod
from .modules import GradedMap, GradedModule, free_piece_dimension


def _first_unit(cols, zero):
    """Position (r, c) of the first unit entry in row-major order, or None."""
    units = [(r, c) for c, vec in enumerate(cols)
             for exps, r in vec if exps == zero]
    return min(units, default=None)


def _cancel_unit(cols, sources, targets, left, r, c, zero, p):
    """Cancel the unit entry (r, c) of the map with columns ``cols``.

    ``sources`` and ``targets`` are the twist lists of its source and
    target; ``targets`` is also the source list of the previous map, whose
    columns are ``left`` (None for the presentation).
    """
    pivot = cols.pop(c)
    del sources[c]
    uinv = pow(pivot[(zero, r)], p - 2, p)
    for i, col in enumerate(cols):
        row = [(exps, v) for (exps, comp), v in col.items() if comp == r]
        for exps, v in row:
            groebner.vec_sub_multiple(col, v * uinv, exps, pivot, p)
        cols[i] = {(exps, comp - (comp > r)): v
                   for (exps, comp), v in col.items()}
    del targets[r]
    if left is not None:
        # the cancelled target generator is u^{-1} * (image of source gen c);
        # the previous differential kills it, so its adjusted column vanishes
        image = {}
        for (exps, comp), v in pivot.items():
            groebner.vec_sub_multiple(image, -v, exps, left[comp], p)
        if image:
            raise AssertionError(
                "complex property violated during minimalization")
        del left[r]


def _minimalize(cols, sources, targets, left, zero, p):
    """Cancel every unit entry, then drop the columns reduced to zero."""
    while (pos := _first_unit(cols, zero)) is not None:
        _cancel_unit(cols, sources, targets, left, *pos, zero, p)
    kept = [c for c, vec in enumerate(cols) if vec]
    cols[:] = [cols[c] for c in kept]
    sources[:] = [sources[c] for c in kept]


@dataclass(frozen=True, slots=True)
class FreeResolution:
    """Chain F_len -> ... -> F_1 -> F_0 with maps[k]: F_{k+1} -> F_k."""

    f0_twists: tuple
    maps: tuple

    @property
    def length(self) -> int:
        return len(self.maps)

    def module_twists(self, k: int) -> tuple:
        if k == 0:
            return self.f0_twists
        return self.maps[k - 1].source_twists

    def betti_numbers(self):
        """Homological index -> Counter of generator degrees."""
        out = {0: Counter(self.f0_twists)}
        for k, m in enumerate(self.maps):
            out[k + 1] = Counter(m.source_twists)
        return out

    def regularity_bound(self) -> int:
        """max(generator degree - homological index) over the resolution."""
        best = max(self.f0_twists, default=None)
        if best is None:
            raise ValueError("resolution of the zero module")
        for k, m in enumerate(self.maps):
            for t in m.source_twists:
                best = max(best, t - (k + 1))
        return best

    def is_minimal(self) -> bool:
        """No differential has a nonzero constant (unit) entry."""
        return all(any(exps) for m in self.maps for vec in m.columns
                   for exps, _ in vec)

    def compositions_are_zero(self) -> bool:
        for a, b in zip(self.maps, self.maps[1:]):
            if not a.compose(b).is_zero():
                return False
        return True

    def default_window(self):
        nv = self.maps[0].num_vars if self.maps else len(self.f0_twists)
        twists = list(self.f0_twists)
        for m in self.maps:
            twists.extend(m.source_twists)
        if not twists:
            return range(0, 1)
        return range(min(twists), max(twists) + nv + 2)

    def degreewise_exact(self, window=None) -> bool:
        """Exactness at every interior step, degree by degree.

        At F_k (k >= 1) the kernel of the outgoing map must match the image
        of the incoming one; at the last module the outgoing map must be
        injective.
        """
        if not self.maps:
            return True
        p = self.maps[0].prime
        nv = self.maps[0].num_vars
        window = window if window is not None else self.default_window()
        for d in window:
            for k in range(1, self.length + 1):
                fk = self.module_twists(k)
                dim_fk = free_piece_dimension(nv, fk, d)
                rank_out = rank_mod(self.maps[k - 1].degree_piece(d), p)
                kernel = dim_fk - rank_out
                rank_in = (rank_mod(self.maps[k].degree_piece(d), p)
                           if k < self.length else 0)
                if kernel != rank_in:
                    return False
        return True


def syzygy_map(gm: GradedMap) -> GradedMap:
    """Presentation of the kernel of the map defined by the columns of gm.

    The returned map's target is gm's source; composing gm with it gives
    zero.  Raises on inhomogeneous input (via the Groebner layer).
    """
    syz, syz_degs = groebner.syzygies(gm.columns, gm.target_twists,
                                      gm.prime, gm.num_vars,
                                      degrees=gm.source_twists)
    return GradedMap.from_columns(gm.prime, gm.num_vars, gm.source_twists,
                                  syz_degs, syz)


def free_resolution(module: GradedModule) -> FreeResolution:
    """Minimal free resolution of the module.

    The minimal chain terminates by homological index num_vars (Hilbert's
    syzygy theorem); a longer one is asserted against.
    """
    p = module.prime
    nv = module.num_vars
    zero = (0,) * nv
    pres = module.presentation
    # maps[k] has source twists[k + 1] and target twists[k]; a target list
    # is the previous map's source list, so cancellation edits both at once
    twists = [list(pres.target_twists), list(pres.source_twists)]
    maps = [[dict(vec) for vec in pres.columns]]
    _minimalize(maps[0], twists[1], twists[0], None, zero, p)
    while twists[-1] and len(maps) <= nv:
        syz, syz_degs = groebner.syzygies(maps[-1], tuple(twists[-2]), p, nv,
                                          degrees=tuple(twists[-1]))
        if not syz:
            break
        _minimalize(syz, syz_degs, twists[-1], maps[-1], zero, p)
        if not syz_degs:
            break
        maps.append(syz)
        twists.append(syz_degs)
    if not twists[-1]:
        maps.pop()
    res = FreeResolution(tuple(twists[0]), tuple(
        GradedMap.from_columns(p, nv, twists[k], twists[k + 1], cols)
        for k, cols in enumerate(maps)))
    if res.length > nv:
        raise AssertionError(
            f"resolution length {res.length} exceeds the syzygy bound {nv}")
    return res


def minimal_resolution(module: GradedModule) -> FreeResolution:
    res = module._cache.get("resolution")
    if res is None:
        res = free_resolution(module)
        module._cache["resolution"] = res
    return res


# -- Hilbert series ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class HilbertSeries:
    """The Hilbert series N(t) / (1 - t)^num_vars of a graded module.

    ``terms`` are the sorted nonzero (exponent, coefficient) pairs of the
    integer numerator N(t); every other Hilbert datum derives from them.
    """

    num_vars: int
    terms: tuple

    @classmethod
    def from_terms(cls, num_vars, terms):
        """The series whose numerator is the sum of the monomials c t^j."""
        acc = Counter()
        for j, c in terms:
            acc[j] += c
        return cls(num_vars, tuple(sorted(t for t in acc.items() if t[1])))

    def at(self, d: int) -> int:
        """The coefficient of t^d: sum of c C(d - j + n, n) over j <= d."""
        n = self.num_vars - 1
        return sum(c * comb(d - j + n, n) for j, c in self.terms if j <= d)

    def polynomial(self):
        """Ascending Fraction coefficients of the Hilbert polynomial: the
        sum of c C(d - j + n, n), expanded in integers, over n!."""
        n = self.num_vars - 1
        coeffs = [0] * (n + 1)
        for j, c in self.terms:
            row = [c]
            for k in range(n):  # multiply by (d + n - j - k)
                row = [a * (n - j - k) + b
                       for a, b in zip(row + [0], [0] + row)]
            coeffs = [a + b for a, b in zip(coeffs, row)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(Fraction(a, factorial(n)) for a in coeffs)


def hilbert_series(module: GradedModule) -> HilbertSeries:
    """The module's Hilbert series, cached: its numerator is the
    K-polynomial sum_k (-1)^k sum t^twist over the minimal resolution."""
    series = module._cache.get("hilbert_series")
    if series is None:
        res = minimal_resolution(module)
        series = HilbertSeries.from_terms(module.num_vars, (
            (t, (-1) ** k) for k in range(res.length + 1)
            for t in res.module_twists(k)))
        module._cache["hilbert_series"] = series
    return series


def hilbert_polynomial(module: GradedModule):
    """Coefficients (ascending) of the Hilbert polynomial of the module.

    Equals the Euler characteristic of the twisted sheafification at every
    integer, and the Hilbert function in all large degrees.
    """
    return hilbert_series(module).polynomial()


def hilbert_function(module: GradedModule, d: int) -> int:
    """dim_k M_d from the Hilbert series; the dense rank of the
    presentation (``GradedModule.hilbert_function``) is the test oracle."""
    return hilbert_series(module).at(d)


def evaluate_polynomial(coeffs, d: int):
    total = Fraction(0)
    for i, c in enumerate(reversed(coeffs)):
        total = total * d + c
    return total


def sheaf_is_zero(module: GradedModule) -> bool:
    """True when the sheafification vanishes (finite-length module)."""
    return not hilbert_polynomial(module)


def generic_rank(module: GradedModule) -> int:
    """Rank of the sheafification: N(1), which is n! times the Hilbert
    polynomial's degree-n coefficient."""
    return sum(c for _, c in hilbert_series(module).terms)
