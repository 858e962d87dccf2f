"""Groebner bases for submodules of graded free modules over F_p[x_0..x_n].

Elements of a free module ⊕_r R(-t_r) are stored as sparse dicts mapping
(exponent tuple, component) -> residue.  The module monomial order is fixed:
position-over-term with graded reverse lex on monomials (components with
smaller index dominate).  Because the component comparison comes first, the
order is an elimination order for components, which is what the syzygy
computation exploits: augment each generator f_i with a fresh trailing unit
component e_i, compute a Groebner basis, and the basis elements supported
entirely on the trailing block are exactly a basis of the syzygy module.

Buchberger's algorithm with the chain criterion is used throughout; the
coprimality (product) criterion is applied only when both elements are
supported in a single component, where the classical ideal-case proof
applies verbatim.  Pairs are formed, and the chain criterion is checked,
only among basis elements whose leads share a component.  S-pairs leave a
heap in a fixed priority order (degree, then the term order of the lcm,
then the pair's indices), so runs are deterministic.  One heap-driven
reducer, ``_reduce``, serves Buchberger, interreduction and
``normal_form``; every generator and S-vector enters the basis through it.
It builds its result in decreasing term order, so a new element's leading
term is its first key: leads are never searched for inside the engine, and
each is filed once in a per-component lead index.  The reducer's heap key
drops the degree because the basis vectors are homogeneous: a reduction
replaces a term by terms of its own degree.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, neg, sub

from .polynomials import MultiPoly

# A module term is (exponent tuple, component index); a vector is a dict
# from terms to residues in [1, p).


def term_key(term):
    exps, comp = term
    return (-comp, sum(exps), tuple(map(neg, reversed(exps))))


def leading_term(vec):
    return max(vec, key=term_key)


def term_divides(t_small, t_big) -> bool:
    (a, ca), (b, cb) = t_small, t_big
    return ca == cb and min(map(sub, b, a)) >= 0


def hilbert_numerator(monomials):
    """Numerator N(t) of the Hilbert series N(t) / (1 - t)^v of R / I.

    I is the ideal of F_p[x_1..x_v] generated by the exponent tuples
    ``monomials``; N is returned as its coefficient tuple, (1,) for the
    empty set and () for the unit ideal.  By Macaulay's theorem a lead-term
    ideal has the Hilbert function of the ideal it came from, so this counts
    any Groebner basis.  With minimal generators m_1..m_k in ascending
    degree, HN(I) = HN(I') - t^|m_k| HN(I' : m_k) for I' = (m_1..m_k-1)
    (Bigatti 1997); unrolled, HN(I) = 1 - sum_i t^|m_i| HN((m_1..m_i-1) :
    m_i), memoized on the generator sets of the colon ideals.
    """
    memo = {}

    def minimal(gens):
        gens = sorted(set(gens), key=lambda a: (sum(a), a))
        kept = []
        for a in gens:
            if not any(all(x <= y for x, y in zip(b, a)) for b in kept):
                kept.append(a)
        return tuple(kept)

    def numerator(gens):
        out = memo.get(gens)
        if out is None:
            coeffs = [1]
            for i, m in enumerate(gens):
                colon = minimal(tuple(max(x - y, 0) for x, y in zip(a, m))
                                for a in gens[:i])
                shift = sum(m)
                for j, c in enumerate(numerator(colon), shift):
                    coeffs.extend([0] * (j + 1 - len(coeffs)))
                    coeffs[j] -= c
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            out = memo[gens] = tuple(coeffs)
        return out

    return numerator(minimal(monomials))


def vector_degree(vec, twists):
    """Common degree of a homogeneous vector, or None for the zero vector."""
    degs = {sum(exps) + twists[comp] for exps, comp in vec}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError(f"vector is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def vec_scale(vec, c, p):
    c %= p
    if c == 0:
        return {}
    return {t: v * c % p for t, v in vec.items()}


def vec_sub_multiple(target, coeff, shift, src, p):
    """target -= coeff * x^shift * src, in place."""
    for (exps, comp), v in src.items():
        t = (tuple(map(add, exps, shift)), comp)
        s = (target.get(t, 0) - coeff * v) % p
        if s:
            target[t] = s
        else:
            target.pop(t, None)


def normal_form(vec, basis, p):
    """Full normal form of ``vec`` modulo the (monic, homogeneous) basis
    vectors.

    Every term of the result is reducible by no basis leading term; for a
    Groebner basis this is the canonical representative mod the submodule.
    """
    return _reduce(vec, _lead_index(basis, map(leading_term, basis)), p)


def _lead_index(basis, leads):
    """Map each component to the (lead exponents, vector) pairs of
    ``basis`` whose leading term lies in it, in basis order."""
    index = {}
    for g, (exps, comp) in zip(basis, leads):
        index.setdefault(comp, []).append((exps, g))
    return index


def _reduce(vec, lead_index, p):
    """Full normal form of ``vec`` by the monic vectors of ``lead_index``.

    Each term is reduced by the first vector in index order whose lead
    divides it.  Terms leave a heap keyed by (comp, reversed exponents).
    The indexed vectors are homogeneous, so a reduction replaces a term by
    terms of its own degree, all smaller than it; within one degree that
    key orders terms exactly opposite to ``term_key``, and the terms of
    different degrees never meet.  Every term that appears is pushed once
    and keeps its entry in ``work``; one cancelled to zero is skipped when
    it comes off, and one that comes back before then is still queued.  For
    a homogeneous ``vec`` every component holds one degree, so the result
    is built in decreasing term order and its first key is its leading
    term.
    """
    work = dict(vec)
    heap = [(t[1], t[0][::-1], t) for t in work]
    heapify(heap)
    result = {}
    while heap:
        comp, _, t = heappop(heap)
        c = work[t]
        if not c:
            continue
        exps = t[0]
        for lexps, g in lead_index.get(comp, ()):
            shift = tuple(map(sub, exps, lexps))
            if min(shift) >= 0:
                # g is monic, so the reduction coefficient is just c, and
                # the term t cancels
                for (gexps, gcomp), v in g.items():
                    uexps = tuple(map(add, gexps, shift))
                    u = (uexps, gcomp)
                    old = work.get(u)
                    if old is None:
                        work[u] = -c * v % p
                        heappush(heap, (gcomp, uexps[::-1], u))
                    else:
                        work[u] = (old - c * v) % p
                break
        else:
            result[t] = c
    return result


def _monic(vec, lead, p):
    """``vec`` scaled so that its coefficient at ``lead`` is 1."""
    c = vec[lead]
    return vec if c == 1 else vec_scale(vec, pow(c, p - 2, p), p)


def _canonical_sort_key(vec, lead, twists):
    """Sort key of a homogeneous vector with leading term ``lead``."""
    exps, comp = lead
    return (sum(exps) + twists[comp], term_key(lead),
            tuple(sorted(vec.items())))


def _s_pair(f, fa, g, ga, p):
    """S-vector of monic ``f`` and ``g`` with lead exponents ``fa``, ``ga``."""
    lcm = tuple(map(max, fa, ga))
    s = {}
    vec_sub_multiple(s, p - 1, tuple(map(sub, lcm, fa)), f, p)
    vec_sub_multiple(s, 1, tuple(map(sub, lcm, ga)), g, p)
    return s


def _single_component(vec) -> bool:
    comps = {comp for _, comp in vec}
    return len(comps) == 1


def buchberger(generators, twists, p, min_component=0):
    """Reduced Groebner basis of the submodule generated by ``generators``.

    Input vectors must be homogeneous with respect to ``twists``.  The
    result is monic, interreduced, and deterministically ordered, hence
    canonical for the fixed module order; each vector's first key is its
    leading term.

    Only the elements with leads in components ``min_component`` and above
    are returned, and only they are interreduced.  A lead has the least
    component of its vector's terms, so those elements lie wholly in the
    trailing components, where an element with its lead in an earlier
    component divides no lead and reduces no term: the result is exactly
    the trailing part of the reduced basis (``syzygies`` wants no more).
    """
    basis, leads = _buchberger_basis(generators, twists, p)
    kept = [i for i, (_, comp) in enumerate(leads) if comp >= min_component]
    return _interreduce([basis[i] for i in kept], [leads[i] for i in kept],
                        twists, p)


def _buchberger_basis(generators, twists, p):
    """(basis, leads): a Groebner basis, not yet interreduced, of the
    submodule, and the leading term of each element.

    Each element enters as the full normal form of a generator or an
    S-vector by the elements before it, so no lead divides a later one and
    the leads are pairwise distinct.
    """
    gens = []
    for g in generators:
        if g:
            vector_degree(g, twists)  # homogeneity check
            lead = leading_term(g)
            g = _monic(g, lead, p)
            gens.append((_canonical_sort_key(g, lead, twists), g))
    gens.sort(key=lambda kg: kg[0])

    basis = []
    leads = []  # leading term of each basis element
    pure = []  # supported in a single component
    lead_index = {}  # component -> (lead exps, vector), as _reduce takes
    same_comp = {}  # component -> indices of the elements with lead there
    pairs = set()  # pending pairs, for the chain criterion
    # the same pairs, as a heap of (degree, term_key((lcm, comp)), i, j,
    # lcm) with the key flattened and its sum(lcm), which the degree and
    # component fix, left out
    queue = []

    def add_reduced(vec):
        h = _reduce(vec, lead_index, p)
        if not h:
            return
        lead = next(iter(h))
        h = _monic(h, lead, p)
        j = len(basis)
        ja, jc = lead
        basis.append(h)
        leads.append(lead)
        pure_j = _single_component(h)
        pure.append(pure_j)
        lead_index.setdefault(jc, []).append((ja, h))
        same = same_comp.setdefault(jc, [])
        twist = twists[jc]
        for i in same:
            ia = leads[i][0]
            if pure_j and pure[i] and not any(map(min, ia, ja)):
                continue  # coprime leads in an embedded ideal: S-pair drops
            lcm = tuple(map(max, ia, ja))
            pairs.add((i, j))
            heappush(queue, (sum(lcm) + twist, -jc,
                             tuple(map(neg, reversed(lcm))), i, j, lcm))
        same.append(j)

    for _, g in gens:
        add_reduced(g)

    while queue:
        _, negc, _, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        if any(k != i and k != j
               and min(map(sub, lcm, leads[k][0])) >= 0
               and ((i, k) if i < k else (k, i)) not in pairs
               and ((j, k) if j < k else (k, j)) not in pairs
               for k in same_comp[-negc]):
            continue  # chain criterion
        add_reduced(_s_pair(basis[i], leads[i][0], basis[j], leads[j][0],
                            p))

    return basis, leads


def _interreduce(basis, leads, twists, p):
    # drop elements whose lead is divisible by another lead, then tail-reduce
    # in the canonical order; the leads are distinct, so (degree, lead)
    # orders them completely
    order = sorted(range(len(basis)), key=lambda i: (
        sum(leads[i][0]) + twists[leads[i][1]], term_key(leads[i])))
    kept = []
    kept_exps = {}  # component -> lead exponents of the kept elements
    for i in order:
        exps, comp = leads[i]
        same = kept_exps.setdefault(comp, [])
        if any(min(map(sub, exps, e)) >= 0 for e in same):
            continue
        same.append(exps)
        kept.append(i)
    # A homogeneous vector's lead divides none of its other terms, nor any
    # term its tail reduces to, so one index of all survivors serves every
    # survivor's tail.
    index = _lead_index([basis[i] for i in kept], [leads[i] for i in kept])
    reduced = []
    for i in kept:
        tail = dict(basis[i])
        h = {leads[i]: tail.pop(leads[i])}
        h.update(_reduce(tail, index, p))
        reduced.append(h)
    return reduced


def buchberger_criterion_holds(basis, twists, p) -> bool:
    """Check directly that every S-vector of ``basis`` reduces to zero."""
    for g in basis:
        vector_degree(g, twists)
    basis = [g for g in basis if g]
    leads = [leading_term(g) for g in basis]
    monic = [_monic(g, lead, p) for g, lead in zip(basis, leads)]
    index = _lead_index(monic, leads)
    for i in range(len(monic)):
        for j in range(i + 1, len(monic)):
            if leads[i][1] != leads[j][1]:
                continue
            s = _s_pair(monic[i], leads[i][0], monic[j], leads[j][0], p)
            if _reduce(s, index, p):
                return False
    return True


def submodule_contains(vec, groebner, p) -> bool:
    return not normal_form(vec, groebner, p)


def syzygies(generators, twists, p, num_vars, degrees=None):
    """Generators of the syzygy module of ``generators``.

    Returns (syzygy vectors, their degrees).  Each syzygy s satisfies
    sum_c s[c] * generators[c] = 0; the syzygy vectors live in a free module
    with one component per generator, twisted by that generator's degree
    (zero generators carry no degree, so ``degrees`` supplies it).  The
    returned set is a Groebner basis of the syzygy module.
    """
    m = len(twists)
    if degrees is None:
        degrees = []
        for g in generators:
            deg = vector_degree(g, twists)
            if deg is None:
                raise ValueError(
                    "zero generator: pass explicit column degrees")
            degrees.append(deg)
    else:
        for g, d in zip(generators, degrees):
            deg = vector_degree(g, twists)
            if deg is not None and deg != d:
                raise ValueError(
                    f"declared degree {d} does not match computed {deg}")
    zero_exp = (0,) * num_vars
    aug_twists = tuple(twists) + tuple(degrees)
    augmented = []
    for c, g in enumerate(generators):
        vec = dict(g)
        vec[(zero_exp, m + c)] = 1
        augmented.append(vec)
    syz = []
    syz_degrees = []
    for g in buchberger(augmented, aug_twists, p, min_component=m):
        lexps, lcomp = next(iter(g))
        syz.append({(exps, comp - m): v for (exps, comp), v in g.items()})
        syz_degrees.append(sum(lexps) + aug_twists[lcomp])
    return syz, syz_degrees


# -- conversions between vectors and tuples of MultiPoly --------------------

def vectors_from_polys(columns):
    """Convert columns given as sequences of MultiPoly into sparse vectors."""
    vecs = []
    for col in columns:
        vec = {}
        for comp, f in enumerate(col):
            for exps, c in f.terms.items():
                vec[(exps, comp)] = c
        vecs.append(vec)
    return vecs


def polys_from_vector(vec, rank, num_vars, p):
    terms = [{} for _ in range(rank)]
    for (exps, comp), v in vec.items():
        terms[comp][exps] = v
    return tuple(MultiPoly(num_vars, p, t) for t in terms)


def groebner_basis(generators, target_twists, p, num_vars=None):
    """Public entry point: generators as tuples of MultiPoly.

    Returns the reduced Groebner basis, again as tuples of MultiPoly.
    """
    rank = len(target_twists)
    if num_vars is None:
        num_vars = next((f.num_vars for col in generators for f in col
                         if not f.is_zero()), None)
        if num_vars is None:
            return []
    vecs = vectors_from_polys(generators)
    basis = buchberger(vecs, tuple(target_twists), p)
    return [polys_from_vector(v, rank, num_vars, p) for v in basis]
