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
applies verbatim.
"""

from __future__ import annotations

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
    by_comp = {}
    for g in basis:
        lt = leading_term(g)
        by_comp.setdefault(lt[1], []).append((lt, g))
    work = dict(vec)
    result = {}
    while work:
        t = max(work, key=term_key)
        c = work.pop(t)
        exps, comp = t
        for (lexps, _), g in by_comp.get(comp, ()):
            if all(x <= y for x, y in zip(lexps, exps)):
                shift = tuple(y - x for x, y in zip(lexps, exps))
                # g is monic, so the reduction coefficient is just c
                work[t] = c
                vec_sub_multiple(work, c, shift, g, p)
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


def _s_pair(f, g, p):
    (fa, comp), (ga, _) = leading_term(f), leading_term(g)
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
    pure = []  # supported in a single component
    pairs = set()

    def lt(i):
        return leading_term(basis[i])

    def add_element(vec):
        j = len(basis)
        basis.append(vec)
        pure.append(_single_component(vec))
        (ja, jc) = lt(j)
        for i in range(j):
            (ia, ic) = lt(i)
            if ic != jc:
                continue
            if (pure[i] and pure[j]
                    and all(min(a, b) == 0 for a, b in zip(ia, ja))):
                continue  # coprime leads in an embedded ideal: S-pair drops
            pairs.add((i, j))
        return j

    for g in gens:
        add_element(g)

    def pair_priority(pair):
        i, j = pair
        (ia, c), (ja, _) = lt(i), lt(j)
        lcm = tuple(max(a, b) for a, b in zip(ia, ja))
        return (sum(lcm) + twists[c], term_key((lcm, c)), i, j)

    while pairs:
        i, j = min(pairs, key=pair_priority)
        pairs.discard((i, j))
        (ia, c), (ja, _) = lt(i), lt(j)
        lcm = ((tuple(max(a, b) for a, b in zip(ia, ja))), c)
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (term_divides(lt(k), lcm)
                    and (min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                skip = True
                break
        if skip:
            continue
        s = _s_pair(basis[i], basis[j], p)
        h = normal_form(s, basis, p)
        if h:
            add_element(_monic(h, p))

    return _interreduce(basis, twists, p)


def _interreduce(basis, twists, p):
    # drop elements whose lead is divisible by another lead, then tail-reduce
    order = sorted(range(len(basis)),
                   key=lambda i: _canonical_sort_key(basis[i], twists))
    kept = []
    for i in order:
        lt_i = leading_term(basis[i])
        if any(term_divides(leading_term(basis[j]), lt_i)
               for j in kept if j != i):
            continue
        kept.append(i)
    reduced = []
    survivors = [basis[i] for i in kept]
    for idx, g in enumerate(survivors):
        others = survivors[:idx] + survivors[idx + 1:]
        h = normal_form(g, others, p) if others else dict(g)
        if h:
            reduced.append(_monic(h, p))
    reduced.sort(key=lambda g: _canonical_sort_key(g, twists))
    return reduced


def buchberger_criterion_holds(basis, twists, p) -> bool:
    """Check directly that every S-vector of ``basis`` reduces to zero."""
    for g in basis:
        vector_degree(g, twists)
    monic = [_monic(g, p) for g in basis if g]
    for i in range(len(monic)):
        for j in range(i + 1, len(monic)):
            if leading_term(monic[i])[1] != leading_term(monic[j])[1]:
                continue
            s = _s_pair(monic[i], monic[j], p)
            if normal_form(s, monic, p):
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
