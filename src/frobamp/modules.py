"""Graded modules over F_p[x_0..x_n] via finite free presentations.

A ``GradedMap`` is a homogeneous matrix between twisted free modules
⊕_c R(-s_c) -> ⊕_r R(-t_r); a ``GradedModule`` is the cokernel of such a
map.  The stored twist lists are the generator degrees: generator r of the
target sits in degree t_r, and entry (r, c) is zero or homogeneous of degree
s_c - t_r.

A map stores only its columns, in the Groebner engine's sparse vector form
{(exps, r): residue}, so resolutions, composition, the functors and the
relation Groebner basis all work on one representation.  ``MultiPoly``
appears only at the edges: the constructor takes a caller's rows of
``MultiPoly`` entries (the module file, tests), and ``entries`` derives the
matrix back for printing and for the wording of an exponent-cap refusal.

Modules are never normalized behind the caller's back; two presentations of
isomorphic modules compare unequal, and only invariants (Hilbert data,
cohomology) are meant to be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING

from . import groebner
from .linalg import rank_mod
from .polynomials import (MAX_EXPONENT, check_prime, count_monomials,
                          frobenius_poly, monomial_index, monomials_of_degree)

if TYPE_CHECKING:
    import numpy as np


# The canonical object of every term (exps, r), exponent tuple and twist
# tuple that a GradedMap has stored.  Equal keys are interchangeable
# immutable tuples, so one table serves all three kinds.
_SHARED = {}


@dataclass(frozen=True, init=False, slots=True)
class GradedMap:
    """Homogeneous matrix ⊕_c R(-source_twists[c]) -> ⊕_r R(-target_twists[r]).

    The map is stored as its columns only: ``columns[c]`` is the image of
    source generator c, a sparse Groebner vector {(exps, r): residue} in
    the target free module.  Columns are shared, never edited in place;
    code that needs to edit one copies it first.
    """

    prime: int
    num_vars: int
    target_twists: tuple
    source_twists: tuple
    columns: tuple = field(hash=False, repr=False)

    def __init__(self, prime, num_vars, target_twists, source_twists,
                 entries):
        """Build the map from its matrix, given as one row per target
        generator of MultiPoly entries; every entry is validated."""
        check_prime(prime)
        target_twists = tuple(target_twists)
        source_twists = tuple(source_twists)
        for name, twists in (("target_twists", target_twists),
                             ("source_twists", source_twists)):
            if any(isinstance(t, bool) for t in twists):
                raise ValueError(f"{name} must be integers, got {twists}")
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != len(target_twists):
            raise ValueError(
                f"{len(rows)} rows for {len(target_twists)} target twists")
        columns = [{} for _ in source_twists]
        for r, row in enumerate(rows):
            if len(row) != len(source_twists):
                raise ValueError(
                    f"row {r} has {len(row)} entries for "
                    f"{len(source_twists)} source twists")
            for c, f in enumerate(row):
                if f.modulus != prime or f.num_vars != num_vars:
                    raise ValueError(
                        f"matrix entry ({r}, {c}): ring mismatch")
                if f.is_zero():
                    continue
                want = source_twists[c] - target_twists[r]
                if not f.is_homogeneous() or f.degree() != want:
                    raise ValueError(
                        f"matrix entry ({r}, {c}): expected homogeneous of "
                        f"degree {want}, got {f}")
                for exps, v in f.terms.items():
                    columns[c][(exps, r)] = v
        self._set(prime, num_vars, target_twists, source_twists, columns)

    @classmethod
    def from_columns(cls, prime, num_vars, target_twists, source_twists,
                     columns):
        """The map with the given column vectors, taken as valid (they are
        copied, and equal terms are shared with every other map)."""
        gm = cls.__new__(cls)
        gm._set(prime, num_vars, tuple(target_twists), tuple(source_twists),
                columns)
        return gm

    def _set(self, prime, num_vars, target_twists, source_twists, columns):
        # one tuple object per distinct term, exponent vector and twist list
        # in every map of the process: the table lives as long as the
        # process and holds each distinct one ever stored once, and
        # resolutions use few distinct terms, each many times over
        cols = []
        for vec in columns:
            col = {}
            for term, v in vec.items():
                t = _SHARED.get(term)
                if t is None:
                    exps, r = term
                    t = _SHARED[term] = (_SHARED.setdefault(exps, exps), r)
                col[t] = v
            cols.append(col)
        target_twists = _SHARED.setdefault(target_twists, target_twists)
        source_twists = _SHARED.setdefault(source_twists, source_twists)
        for name, value in (("prime", prime), ("num_vars", num_vars),
                            ("target_twists", target_twists),
                            ("source_twists", source_twists),
                            ("columns", tuple(cols))):
            object.__setattr__(self, name, value)

    # -- basic accessors ----------------------------------------------------

    @property
    def target_rank(self):
        return len(self.target_twists)

    @property
    def source_rank(self):
        return len(self.source_twists)

    @property
    def entries(self):
        """The matrix, one row of MultiPoly per target generator (derived)."""
        cols = [groebner.polys_from_vector(vec, self.target_rank,
                                           self.num_vars, self.prime)
                for vec in self.columns]
        return tuple(tuple(col[r] for col in cols)
                     for r in range(self.target_rank))

    @classmethod
    def zero_map(cls, prime, num_vars, target_twists, source_twists):
        return cls.from_columns(prime, num_vars, target_twists,
                                source_twists, [{} for _ in source_twists])

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other (other's target must equal self's source)."""
        if other.target_twists != self.source_twists:
            raise ValueError("maps are not composable")
        p = self.prime
        cols = []
        for vec in other.columns:
            acc = {}
            for (exps, k), v in vec.items():
                groebner.vec_sub_multiple(acc, -v, exps, self.columns[k], p)
            cols.append(acc)
        return GradedMap.from_columns(p, self.num_vars, self.target_twists,
                                      other.source_twists, cols)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def degree_piece(self, d: int) -> np.ndarray:
        """The induced F_p-linear map on degree-d graded pieces.

        Rows are indexed by (target generator, monomial) pairs in a fixed
        deterministic order, columns likewise for the source.
        """
        import numpy as np

        nv = self.num_vars
        row_offsets, nrows = [], 0
        for t in self.target_twists:
            row_offsets.append(nrows)
            nrows += count_monomials(nv, d - t)
        col_offsets, ncols = [], 0
        for s in self.source_twists:
            col_offsets.append(ncols)
            ncols += count_monomials(nv, d - s)
        indices = [monomial_index(nv, d - t) for t in self.target_twists]
        a = np.zeros((nrows, ncols), dtype=np.int64)
        for c, s in enumerate(self.source_twists):
            vec = self.columns[c]
            for mi, mono in enumerate(monomials_of_degree(nv, d - s)):
                col = col_offsets[c] + mi
                for (exps, r), v in vec.items():
                    shifted = tuple(a_ + b_ for a_, b_ in zip(exps, mono))
                    a[row_offsets[r] + indices[r][shifted], col] = v
        return a


def free_piece_dimension(num_vars, twists, d):
    return sum(count_monomials(num_vars, d - t) for t in twists)


class GradedModule:
    """Cokernel of a graded map, with optional locally-free metadata.

    The ``locally_free`` flag is user-supplied; construction runs a rank
    spot-check of the presentation matrix at the rational points of
    projective space, which can refute the flag but never prove it.
    """

    __slots__ = ("presentation", "locally_free", "_cache")

    def __init__(self, presentation: GradedMap, locally_free: bool = False,
                 spot_check: bool = True):
        self.presentation = presentation
        self.locally_free = locally_free
        self._cache = {}
        if locally_free and spot_check:
            ok, detail = spot_check_constant_rank(presentation)
            if ok is False:
                raise ValueError(f"locally-free spot check failed: {detail}")

    # -- identity -----------------------------------------------------------

    @property
    def prime(self):
        return self.presentation.prime

    @property
    def num_vars(self):
        return self.presentation.num_vars

    def __eq__(self, other):
        return (isinstance(other, GradedModule)
                and self.presentation == other.presentation
                and self.locally_free == other.locally_free)

    def __repr__(self):
        return (f"GradedModule(p={self.prime}, vars={self.num_vars}, "
                f"gens={list(self.presentation.target_twists)}, "
                f"rels={list(self.presentation.source_twists)})")

    # -- graded pieces ------------------------------------------------------

    def hilbert_function(self, d: int) -> int:
        """dim_k M_d = dim(target piece) - rank(presentation piece)."""
        cached = self._cache.get(("hf", d))
        if cached is not None:
            return cached
        pres = self.presentation
        total = free_piece_dimension(pres.num_vars, pres.target_twists, d)
        if total:
            total -= rank_mod(pres.degree_piece(d), pres.prime)
        self._cache[("hf", d)] = total
        return total

    def column_groebner(self):
        """Groebner basis of the relation submodule (cached)."""
        gb = self._cache.get("column_gb")
        if gb is None:
            gb = groebner.buchberger(self.presentation.columns,
                                     self.presentation.target_twists,
                                     self.prime)
            self._cache["column_gb"] = gb
        return gb

    def relations_contain(self, gm: GradedMap) -> bool:
        """Every column of ``gm`` lies in the relation submodule, so the
        map gm composed with the quotient onto this module vanishes."""
        gb = self.column_groebner()
        return not any(groebner.normal_form(vec, gb, self.prime)
                       for vec in gm.columns)


def free_module(prime, num_vars, twists) -> GradedModule:
    """⊕ R(-t) for t in twists, presented with no relations."""
    pres = GradedMap(prime, num_vars, tuple(twists), (),
                     tuple(() for _ in twists))
    return GradedModule(pres, locally_free=True, spot_check=False)


def zero_module(prime, num_vars) -> GradedModule:
    return GradedModule(GradedMap(prime, num_vars, (), (), ()),
                        locally_free=False, spot_check=False)


# -- functors ---------------------------------------------------------------

def twist(module: GradedModule, d: int) -> GradedModule:
    """M(d): all generator and relation degrees drop by d."""
    pres = module.presentation
    shifted = GradedMap.from_columns(pres.prime, pres.num_vars,
                                     tuple(t - d for t in pres.target_twists),
                                     tuple(s - d for s in pres.source_twists),
                                     pres.columns)
    return GradedModule(shifted, module.locally_free, spot_check=False)


def _frobenius_map(gm: GradedMap, q: int) -> GradedMap:
    """gm under the substitution x_i -> x_i^q, every twist times q."""
    return GradedMap.from_columns(
        gm.prime, gm.num_vars, tuple(t * q for t in gm.target_twists),
        tuple(s * q for s in gm.source_twists),
        [{(tuple(a * q for a in exps), r): v for (exps, r), v in vec.items()}
         for vec in gm.columns])


def frobenius_presentation(pres: GradedMap, e: int) -> GradedMap:
    """The presentation of the e-th Frobenius pullback: every exponent and
    twist times q = p^e (F_p coefficients are fixed by Frobenius).

    The exponent cap is ``frobenius_poly``'s and, as there, applies to the
    nonzero entries only: a presentation without any is never refused.
    """
    if e <= 0:
        raise ValueError(f"Frobenius exponent must be positive, got {e}")
    q = pres.prime ** e
    top = max((max(exps) for vec in pres.columns for exps, _ in vec),
              default=None)
    if top is not None and max(top, 1) * q > MAX_EXPONENT:
        for row in pres.entries:  # raises, naming the first bad entry
            for f in row:
                if not f.is_zero():
                    frobenius_poly(f, e)
    return _frobenius_map(pres, q)


def frobenius_module(module: GradedModule, e: int) -> GradedModule:
    """Frobenius pullback F^{e*}M, presented by ``frobenius_presentation``,
    with its resolution and dual cokernel series derived from M's.

    On projective space the Frobenius is flat (Kunz), so the pulled-back
    presentation presents the pullback sheaf.  The substitution
    x_i -> x_i^q keeps the term order and divisibility, so it commutes with
    every Groebner computation (Hong): the pullback's minimal resolution is
    M's under the substitution, twists times q, and R/phi(I) has Hilbert
    numerator N(t^q) where R/I has N(t).  The dual twists n_v - q t are
    q (n_v - t) - (q - 1) n_v, so each cokernel series of the dual
    resolution (k = -1 .. length - 1, as ``cohomology._coker_series``)
    has a term (q j - (q - 1) n_v, c) for each term (j, c) of M's.  Only
    M runs the engine; the pullback's Ext series, Hilbert data and
    regularity are read off these caches.
    """
    # imported here because resolution and cohomology import this module
    from .cohomology import _coker_series
    from .resolution import FreeResolution, HilbertSeries, minimal_resolution

    pulled = GradedModule(frobenius_presentation(module.presentation, e),
                          module.locally_free, spot_check=False)
    q, nv = module.prime ** e, module.num_vars
    res = minimal_resolution(module)
    pulled._cache["resolution"] = FreeResolution(
        tuple(t * q for t in res.f0_twists),
        tuple(_frobenius_map(m, q) for m in res.maps))
    for k in range(-1, res.length):
        pulled._cache[("coker_series", k)] = HilbertSeries(nv, tuple(
            (q * j - (q - 1) * nv, c)
            for j, c in _coker_series(module, k).terms))
    return pulled


def direct_sum(modules, prime=None, num_vars=None) -> GradedModule:
    """Block-diagonal presentation; ring data required for the empty sum."""
    mods = list(modules)
    if not mods:
        if prime is None or num_vars is None:
            raise ValueError("empty direct sum needs prime and num_vars")
        return zero_module(prime, num_vars)
    p, nv = mods[0].prime, mods[0].num_vars
    for m in mods[1:]:
        if m.prime != p or m.num_vars != nv:
            raise ValueError("direct sum of modules over different rings")
    tt = sum((m.presentation.target_twists for m in mods), ())
    st = sum((m.presentation.source_twists for m in mods), ())
    cols = []
    offset = 0
    for m in mods:
        cols.extend({(exps, r + offset): v for (exps, r), v in vec.items()}
                    for vec in m.presentation.columns)
        offset += m.presentation.target_rank
    pres = GradedMap.from_columns(p, nv, tt, st, cols)
    return GradedModule(pres, all(m.locally_free for m in mods),
                        spot_check=False)


def tensor(a: GradedModule, b: GradedModule) -> GradedModule:
    """Standard (possibly non-minimal) presentation of M ⊗ N."""
    pa, pb = a.presentation, b.presentation
    if pa.prime != pb.prime or pa.num_vars != pb.num_vars:
        raise ValueError("tensor product of modules over different rings")
    if not (a.locally_free or b.locally_free):
        raise ValueError("tensor requires at least one locally-free factor")
    p, nv = pa.prime, pa.num_vars
    ta, tb = pa.target_twists, pb.target_twists
    tt = tuple(x + y for x in ta for y in tb)
    st = (tuple(s + y for s in pa.source_twists for y in tb)
          + tuple(x + s for x in ta for s in pb.source_twists))
    # generator (r1, r2) of the target is row r1 * len(tb) + r2
    nb = len(tb)
    cols = [{(exps, r1 * nb + r2): v for (exps, r1), v in vec.items()}
            for vec in pa.columns for r2 in range(nb)]
    cols += [{(exps, r1 * nb + r2): v for (exps, r2), v in vec.items()}
             for r1 in range(len(ta)) for vec in pb.columns]
    pres = GradedMap.from_columns(p, nv, tt, st, cols)
    return GradedModule(pres, a.locally_free and b.locally_free,
                        spot_check=False)


def restrict_hyperplane(module: GradedModule) -> GradedModule:
    """Restriction to the hyperplane {x_n = 0}, as a module over n variables.

    Right-exactness makes this present the restricted sheaf; for locally
    free modules the restriction is again locally free.
    """
    pres = module.presentation
    nv = pres.num_vars
    if nv < 2:
        raise ValueError("cannot restrict below one variable")

    cols = [{(exps[:-1], r): v for (exps, r), v in vec.items()
             if exps[-1] == 0}
            for vec in pres.columns]
    cut_pres = GradedMap.from_columns(pres.prime, nv - 1, pres.target_twists,
                                      pres.source_twists, cols)
    return GradedModule(cut_pres, module.locally_free, spot_check=False)


# -- module homomorphisms ---------------------------------------------------

@dataclass(frozen=True)
class ModuleHom:
    """Degree-0 homomorphism between presented modules, given on generators.

    Column c of ``matrix`` is the image of source generator c in the
    target's free module; entry (r, c) is homogeneous of degree (source gen
    degree) - (target gen degree).
    """

    source: GradedModule = field(compare=False)
    target: GradedModule = field(compare=False)
    matrix: GradedMap = field(compare=True)

    def is_well_defined(self) -> bool:
        """Images of the source relations must lie in the target relations."""
        return self.target.relations_contain(
            self.matrix.compose(self.source.presentation))

    def cokernel_presentation(self) -> GradedMap:
        """Presentation of the target modulo the image: the target's
        relations followed by the columns of the map."""
        rel, m = self.target.presentation, self.matrix
        return GradedMap.from_columns(
            m.prime, m.num_vars, m.target_twists,
            rel.source_twists + m.source_twists, rel.columns + m.columns)


# -- locally-free spot check -------------------------------------------------

def projective_points(num_vars, p):
    """All F_p-rational points of P^{num_vars-1}, first nonzero coord = 1."""
    def rec(prefix, started):
        if len(prefix) == num_vars:
            if started:
                yield tuple(prefix)
            return
        if not started:
            yield from rec(prefix + [0], False)
            yield from rec(prefix + [1], True)
        else:
            for v in range(p):
                yield from rec(prefix + [v], True)
    return list(rec([], False))


# The spot check is skipped on spaces with more rational points than this.
MAX_SPOT_CHECK_POINTS = 1000


def spot_check_constant_rank(pres: GradedMap):
    """Evaluate the presentation at rational points; constant rank expected.

    A locally free cokernel has constant corank at every point of projective
    space; a rank drop at a rational point refutes the flag.  At each point
    the columns become constant vectors {row: residue}, and their rank is
    found by sparse elimination against monic pivot rows keyed by their
    least row.  Returns (status, detail): status is False on a refutation,
    True when the rank is constant, and None when the check was skipped
    because the point count exceeds ``MAX_SPOT_CHECK_POINTS``.
    """
    if pres.source_rank == 0 or pres.target_rank == 0:
        return True, "free module"
    p, nv = pres.prime, pres.num_vars
    # counted before any point is listed: a large prime has too many
    count = (p ** nv - 1) // (p - 1)
    if count > MAX_SPOT_CHECK_POINTS:
        return None, (f"skipped ({count} points exceed "
                      f"{MAX_SPOT_CHECK_POINTS})")
    mods = (p,) * nv
    ranks = set()
    for pt in projective_points(nv, p):
        pivots = {}  # least row -> monic row vector; one per rank
        values = {}  # exponent tuple -> monomial value at the point
        for vec in pres.columns:
            col = {}
            for (exps, r), v in vec.items():
                at = values.get(exps)
                if at is None:
                    at = values[exps] = prod(map(pow, pt, exps, mods))
                col[r] = (col.get(r, 0) + v * at) % p
            col = {r: v for r, v in col.items() if v}
            # a pivot row is zero before its lead, so one pass in
            # increasing lead order clears every lead the column has
            for lead in sorted(pivots):
                c = col.get(lead)
                if c:
                    for r, v in pivots[lead].items():
                        w = (col.get(r, 0) - c * v) % p
                        if w:
                            col[r] = w
                        else:
                            del col[r]
            if col:
                lead = min(col)
                inv = pow(col[lead], p - 2, p)
                pivots[lead] = {r: v * inv % p for r, v in col.items()}
        ranks.add(len(pivots))
    if len(ranks) > 1:
        return False, f"presentation rank varies over points: {sorted(ranks)}"
    return True, f"constant rank {ranks.pop()} at {count} points"
