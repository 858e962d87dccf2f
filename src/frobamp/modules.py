"""Graded modules over F_p[x_0..x_n] via finite free presentations.

A ``GradedMap`` is a homogeneous matrix between twisted free modules
⊕_c R(-s_c) -> ⊕_r R(-t_r); a ``GradedModule`` is the cokernel of such a
map.  The stored twist lists are the generator degrees: generator r of the
target sits in degree t_r, and entry (r, c) is zero or homogeneous of degree
s_c - t_r.

Modules are never normalized behind the caller's back; two presentations of
isomorphic modules compare unequal, and only invariants (Hilbert data,
cohomology) are meant to be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import groebner
from .linalg import rank_mod
from .polynomials import (MultiPoly, check_prime, count_monomials,
                          frobenius_poly, monomial_index,
                          monomials_of_degree)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class GradedMap:
    """Homogeneous matrix ⊕_c R(-source_twists[c]) -> ⊕_r R(-target_twists[r])."""

    prime: int
    num_vars: int
    target_twists: tuple
    source_twists: tuple
    entries: tuple  # rows of tuples of MultiPoly; one row per target generator

    def __post_init__(self):
        check_prime(self.prime)
        object.__setattr__(self, "target_twists", tuple(self.target_twists))
        object.__setattr__(self, "source_twists", tuple(self.source_twists))
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if len(rows) != len(self.target_twists):
            raise ValueError(
                f"{len(rows)} rows for {len(self.target_twists)} target twists")
        for r, row in enumerate(rows):
            if len(row) != len(self.source_twists):
                raise ValueError(
                    f"row {r} has {len(row)} entries for "
                    f"{len(self.source_twists)} source twists")
            for c, f in enumerate(row):
                if f.modulus != self.prime or f.num_vars != self.num_vars:
                    raise ValueError(
                        f"matrix entry ({r}, {c}): ring mismatch")
                if f.is_zero():
                    continue
                want = self.source_twists[c] - self.target_twists[r]
                if not f.is_homogeneous() or f.degree() != want:
                    raise ValueError(
                        f"matrix entry ({r}, {c}): expected homogeneous of "
                        f"degree {want}, got {f}")

    # -- basic accessors ----------------------------------------------------

    @property
    def target_rank(self):
        return len(self.target_twists)

    @property
    def source_rank(self):
        return len(self.source_twists)

    def entry(self, r, c) -> MultiPoly:
        return self.entries[r][c]

    def column_vectors(self):
        """Columns as sparse Groebner vectors in the target free module."""
        return groebner.vectors_from_polys(
            [row[c] for row in self.entries] for c in range(self.source_rank))

    @classmethod
    def from_column_vectors(cls, prime, num_vars, target_twists, columns,
                            column_degrees):
        # one tuple object per distinct exponent vector in the map; a
        # resolution repeats each one about four times
        canon = {}
        cols = [groebner.polys_from_vector(
                    {(canon.setdefault(exps, exps), comp): v
                     for (exps, comp), v in vec.items()},
                    len(target_twists), num_vars, prime)
                for vec in columns]
        rows = tuple(tuple(col[r] for col in cols)
                     for r in range(len(target_twists)))
        return cls(prime, num_vars, tuple(target_twists),
                   tuple(column_degrees), rows)

    @classmethod
    def zero_map(cls, prime, num_vars, target_twists, source_twists):
        z = MultiPoly.zero(num_vars, prime)
        rows = tuple(tuple(z for _ in source_twists) for _ in target_twists)
        return cls(prime, num_vars, tuple(target_twists),
                   tuple(source_twists), rows)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self ∘ other (other's target must equal self's source)."""
        if other.target_twists != self.source_twists:
            raise ValueError("maps are not composable")
        z = MultiPoly.zero(self.num_vars, self.prime)
        rows = []
        for r in range(self.target_rank):
            row = []
            for c in range(other.source_rank):
                acc = z
                for k in range(self.source_rank):
                    acc = acc + self.entries[r][k] * other.entries[k][c]
                row.append(acc)
            rows.append(tuple(row))
        return GradedMap(self.prime, self.num_vars, self.target_twists,
                         other.source_twists, tuple(rows))

    def is_zero(self) -> bool:
        return all(f.is_zero() for row in self.entries for f in row)

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
        a = np.zeros((nrows, ncols), dtype=np.int64)
        for c, s in enumerate(self.source_twists):
            for mi, mono in enumerate(monomials_of_degree(nv, d - s)):
                col = col_offsets[c] + mi
                for r, t in enumerate(self.target_twists):
                    f = self.entries[r][c]
                    if f.is_zero():
                        continue
                    idx = monomial_index(nv, d - t)
                    for exps, v in f.terms.items():
                        shifted = tuple(a_ + b_ for a_, b_ in zip(exps, mono))
                        a[row_offsets[r] + idx[shifted], col] = v
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
            if not ok:
                raise ValueError(f"locally-free spot check failed: {detail}")

    # -- identity -----------------------------------------------------------

    @property
    def prime(self):
        return self.presentation.prime

    @property
    def num_vars(self):
        return self.presentation.num_vars

    @property
    def dim_projective_space(self):
        return self.num_vars - 1

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
            gb = groebner.buchberger(self.presentation.column_vectors(),
                                     self.presentation.target_twists,
                                     self.prime)
            self._cache["column_gb"] = gb
        return gb

    def standard_monomials(self, d: int):
        """Monomial basis of M_d: terms outside the lead-term submodule."""
        gb = self.column_groebner()
        leads = [groebner.leading_term(g) for g in gb]
        basis = []
        for comp, t in enumerate(self.presentation.target_twists):
            for mono in monomials_of_degree(self.num_vars, d - t):
                term = (mono, comp)
                if not any(groebner.term_divides(lt, term) for lt in leads):
                    basis.append(term)
        return basis

    def coordinates(self, vec, d: int):
        """Coordinates of a degree-d element of the ambient free module in M_d."""
        basis = self.standard_monomials(d)
        index = {t: i for i, t in enumerate(basis)}
        nf = groebner.normal_form(vec, self.column_groebner(), self.prime)
        out = [0] * len(basis)
        for term, v in nf.items():
            out[index[term]] = v
        return out


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
    shifted = GradedMap(pres.prime, pres.num_vars,
                        tuple(t - d for t in pres.target_twists),
                        tuple(s - d for s in pres.source_twists),
                        pres.entries)
    return GradedModule(shifted, module.locally_free, spot_check=False)


def frobenius_module(module: GradedModule, e: int) -> GradedModule:
    """Frobenius pullback: entries through the p^e power map, twists scaled.

    On projective space the Frobenius is flat, so the naive pullback of a
    presentation presents the pullback sheaf.
    """
    if e <= 0:
        raise ValueError(f"Frobenius exponent must be positive, got {e}")
    pres = module.presentation
    q = pres.prime ** e
    rows = tuple(tuple(frobenius_poly(f, e) if not f.is_zero() else f
                       for f in row)
                 for row in pres.entries)
    scaled = GradedMap(pres.prime, pres.num_vars,
                       tuple(t * q for t in pres.target_twists),
                       tuple(s * q for s in pres.source_twists),
                       rows)
    return GradedModule(scaled, module.locally_free, spot_check=False)


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
    z = MultiPoly.zero(nv, p)
    tt = sum((m.presentation.target_twists for m in mods), ())
    st = sum((m.presentation.source_twists for m in mods), ())
    rows = []
    row_block = 0
    col_starts = []
    acc = 0
    for m in mods:
        col_starts.append(acc)
        acc += m.presentation.source_rank
    for bi, m in enumerate(mods):
        for r in range(m.presentation.target_rank):
            row = [z] * len(st)
            for c in range(m.presentation.source_rank):
                row[col_starts[bi] + c] = m.presentation.entries[r][c]
            rows.append(tuple(row))
        row_block += m.presentation.target_rank
    pres = GradedMap(p, nv, tt, st, tuple(rows))
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
    z = MultiPoly.zero(nv, p)
    ta, tb = pa.target_twists, pb.target_twists
    tt = tuple(x + y for x in ta for y in tb)
    st = (tuple(s + y for s in pa.source_twists for y in tb)
          + tuple(x + s for x in ta for s in pb.source_twists))
    rows = []
    for r1 in range(len(ta)):
        for r2 in range(len(tb)):
            row = []
            for c1 in range(pa.source_rank):
                for c2 in range(len(tb)):
                    row.append(pa.entries[r1][c1] if c2 == r2 else z)
            for c1 in range(len(ta)):
                for c2 in range(pb.source_rank):
                    row.append(pb.entries[r2][c2] if c1 == r1 else z)
            rows.append(tuple(row))
    pres = GradedMap(p, nv, tt, st, tuple(rows))
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

    def cut(f: MultiPoly) -> MultiPoly:
        terms = {exps[:-1]: v for exps, v in f.terms.items()
                 if exps[-1] == 0}
        return MultiPoly(nv - 1, pres.prime, terms)

    rows = tuple(tuple(cut(f) for f in row) for row in pres.entries)
    cut_pres = GradedMap(pres.prime, nv - 1, pres.target_twists,
                         pres.source_twists, rows)
    return GradedModule(cut_pres, module.locally_free, spot_check=False)


# -- module homomorphisms ---------------------------------------------------

@dataclass(frozen=True)
class ModuleHom:
    """Degree-0 homomorphism between presented modules, given on generators.

    ``entries[r][c]`` is the coefficient of target generator r in the image
    of source generator c, homogeneous of degree (source gen degree) -
    (target gen degree).
    """

    source: GradedModule = field(compare=False)
    target: GradedModule = field(compare=False)
    matrix: GradedMap = field(compare=True)

    @classmethod
    def from_entries(cls, source, target, entries):
        gm = GradedMap(source.prime, source.num_vars,
                       target.presentation.target_twists,
                       source.presentation.target_twists,
                       entries)
        return cls(source, target, gm)

    def is_well_defined(self) -> bool:
        """Images of the source relations must lie in the target relations."""
        pushed = self.matrix.compose(self.source.presentation)
        gb = self.target.column_groebner()
        for vec in pushed.column_vectors():
            if groebner.normal_form(vec, gb, self.target.prime):
                return False
        return True

    def degree_matrix(self, d: int) -> np.ndarray:
        """Matrix of M_d -> N_d in standard-monomial coordinates."""
        import numpy as np

        src_basis = self.source.standard_monomials(d)
        tgt_basis = self.target.standard_monomials(d)
        a = np.zeros((len(tgt_basis), len(src_basis)), dtype=np.int64)
        for j, (mono, comp) in enumerate(src_basis):
            image = {}
            for r in range(self.matrix.target_rank):
                f = self.matrix.entries[r][comp]
                for exps, v in f.terms.items():
                    t = (tuple(x + y for x, y in zip(exps, mono)), r)
                    image[t] = (image.get(t, 0) + v) % self.target.prime
            col = self.target.coordinates(
                {t: v for t, v in image.items() if v}, d)
            a[:, j] = col
        return a


def identity_hom(module: GradedModule) -> ModuleHom:
    p, nv = module.prime, module.num_vars
    tw = module.presentation.target_twists
    one = MultiPoly.constant(nv, p, 1)
    z = MultiPoly.zero(nv, p)
    entries = tuple(tuple(one if r == c else z for c in range(len(tw)))
                    for r in range(len(tw)))
    return ModuleHom.from_entries(module, module, entries)


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


def spot_check_constant_rank(pres: GradedMap, max_points=1000):
    """Evaluate the presentation at rational points; constant rank expected.

    A locally free cokernel has constant corank at every point of projective
    space; a rank drop at a rational point refutes the flag.  Silently
    passes when the point count exceeds ``max_points``.
    """
    import numpy as np

    if pres.source_rank == 0 or pres.target_rank == 0:
        return True, "free module"
    pts = projective_points(pres.num_vars, pres.prime)
    if len(pts) > max_points:
        return True, "skipped (too many points)"
    ranks = set()
    for pt in pts:
        a = np.array([[f.evaluate(pt).value for f in row]
                      for row in pres.entries], dtype=np.int64)
        ranks.add(rank_mod(a, pres.prime))
    if len(ranks) > 1:
        return False, f"presentation rank varies over points: {sorted(ranks)}"
    return True, f"constant rank {ranks.pop()} at {len(pts)} points"
