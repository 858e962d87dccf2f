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
applies verbatim.  Each basis element's leading term is computed once, when
the element is added, and filed in a per-component lead index.  S-pairs
leave a heap in a fixed priority order (degree, then the term order of the
lcm, then the pair's indices), so runs are deterministic.  One heap-driven
reducer, ``_reduce``, serves Buchberger, interreduction and
``normal_form``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .polynomials import MultiPoly

# A module term is (exponent tuple, component index); a vector is a dict
# from terms to residues in [1, p).


def term_key(term):
    exps, comp = term
    return (-comp, sum(exps), tuple(-e for e in reversed(exps)))


def leading_term(vec):
    return max(vec, key=term_key)


def term_divides(t_small, t_big) -> bool:
    (a, ca), (b, cb) = t_small, t_big
    if ca != cb:
        return False
    return all(x <= y for x, y in zip(a, b))


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
        t = (tuple(a + b for a, b in zip(exps, shift)), comp)
        s = (target.get(t, 0) - coeff * v) % p
        if s:
            target[t] = s
        else:
            target.pop(t, None)


def normal_form(vec, basis, p):
    """Full normal form of ``vec`` modulo the (monic) basis vectors.

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
    divides it.  Terms leave a heap largest first, keyed by
    (comp, -degree, reversed exponents), which orders terms exactly
    opposite to ``term_key``.  Every term that appears is pushed once and
    keeps its entry in ``work``; one cancelled to zero is skipped when it
    comes off, and one that comes back before then is still queued.  A
    reduction only adds terms below the one it removes, so the result is
    built in decreasing term order.
    """
    work = dict(vec)
    heap = [(comp, -sum(exps), exps[::-1], exps) for exps, comp in work]
    heapify(heap)
    result = {}
    while heap:
        comp, _, _, exps = heappop(heap)
        t = (exps, comp)
        c = work[t]
        if not c:
            continue
        for lexps, g in lead_index.get(comp, ()):
            if all(x <= y for x, y in zip(lexps, exps)):
                shift = tuple(y - x for x, y in zip(lexps, exps))
                # g is monic, so the reduction coefficient is just c, and
                # the term t cancels
                for (gexps, gcomp), v in g.items():
                    uexps = tuple(a + b for a, b in zip(gexps, shift))
                    u = (uexps, gcomp)
                    old = work.get(u)
                    if old is None:
                        work[u] = -c * v % p
                        heappush(heap, (gcomp, -sum(uexps), uexps[::-1],
                                        uexps))
                    else:
                        work[u] = (old - c * v) % p
                break
        else:
            result[t] = c
    return result


def _monic(vec, p):
    lt = leading_term(vec)
    inv = pow(vec[lt], p - 2, p)
    return vec_scale(vec, inv, p)


def _canonical_sort_key(vec, twists):
    return (vector_degree(vec, twists), term_key(leading_term(vec)),
            tuple(sorted(vec.items())))


def _s_pair(f, fa, g, ga, p):
    """S-vector of monic ``f`` and ``g`` with lead exponents ``fa``, ``ga``."""
    lcm = tuple(max(a, b) for a, b in zip(fa, ga))
    s = {}
    vec_sub_multiple(s, p - 1, tuple(l - a for l, a in zip(lcm, fa)), f, p)
    vec_sub_multiple(s, 1, tuple(l - a for l, a in zip(lcm, ga)), g, p)
    return s


def _single_component(vec) -> bool:
    comps = {comp for _, comp in vec}
    return len(comps) == 1


def buchberger(generators, twists, p):
    """Reduced Groebner basis of the submodule generated by ``generators``.

    Input vectors must be homogeneous with respect to ``twists``.  The
    result is monic, interreduced, and deterministically ordered, hence
    canonical for the fixed module order.
    """
    gens = [g for g in generators if g]
    for g in gens:
        vector_degree(g, twists)  # homogeneity check
    gens = [_monic(g, p) for g in gens]
    gens.sort(key=lambda g: _canonical_sort_key(g, twists))

    basis = []
    leads = []  # leading term of each basis element
    pure = []  # supported in a single component
    lead_index = {}
    pairs = set()  # pending pairs, for the chain criterion
    queue = []  # the same pairs as a heap of (degree, lcm key, i, j, lcm)

    def add_element(vec):
        j = len(basis)
        ja, jc = lead = leading_term(vec)
        basis.append(vec)
        leads.append(lead)
        pure.append(_single_component(vec))
        lead_index.setdefault(jc, []).append((ja, vec))
        for i in range(j):
            ia, ic = leads[i]
            if ic != jc:
                continue
            if (pure[i] and pure[j]
                    and all(min(a, b) == 0 for a, b in zip(ia, ja))):
                continue  # coprime leads in an embedded ideal: S-pair drops
            lcm = tuple(max(a, b) for a, b in zip(ia, ja))
            pairs.add((i, j))
            heappush(queue, (sum(lcm) + twists[jc], term_key((lcm, jc)),
                             i, j, lcm))

    for g in gens:
        add_element(g)

    while queue:
        _, _, i, j, lcm = heappop(queue)
        pairs.discard((i, j))
        lcm_term = (lcm, leads[i][1])
        if any(k != i and k != j and term_divides(lead, lcm_term)
               and (min(i, k), max(i, k)) not in pairs
               and (min(j, k), max(j, k)) not in pairs
               for k, lead in enumerate(leads)):
            continue  # chain criterion
        s = _s_pair(basis[i], leads[i][0], basis[j], leads[j][0], p)
        h = _reduce(s, lead_index, p)
        if h:
            add_element(_monic(h, p))

    return _interreduce(basis, leads, twists, p)


def _interreduce(basis, leads, twists, p):
    # drop elements whose lead is divisible by another lead, then tail-reduce
    order = sorted(range(len(basis)),
                   key=lambda i: _canonical_sort_key(basis[i], twists))
    kept = []
    for i in order:
        if any(term_divides(leads[j], leads[i]) for j in kept):
            continue
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
    reduced.sort(key=lambda g: _canonical_sort_key(g, twists))
    return reduced


def buchberger_criterion_holds(basis, twists, p) -> bool:
    """Check directly that every S-vector of ``basis`` reduces to zero."""
    for g in basis:
        vector_degree(g, twists)
    monic = [_monic(g, p) for g in basis if g]
    leads = [leading_term(g) for g in monic]
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
    basis = buchberger(augmented, aug_twists, p)
    syz = []
    syz_degrees = []
    for g in basis:
        if all(comp >= m for _, comp in g):
            shifted = {(exps, comp - m): v for (exps, comp), v in g.items()}
            syz.append(shifted)
            syz_degrees.append(vector_degree(shifted, degrees))
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
