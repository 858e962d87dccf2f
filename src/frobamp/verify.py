"""The battery of cross-checks behind the ``verify`` subcommand.

Every check is deterministic and exercises one documented property of the
library against an independent computation: closed-form cohomology against
the resolution pipeline, the splitting solver against monomial counting,
Buchberger's criterion against emitted bases, and the amplitude inequalities
on the catalog.  Checks are cheap enough to run on every invocation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from .amplitude import (check_exact_sequence_bounds,
                        check_rank_and_dimension_bounds,
                        check_tensor_subadditivity, f_amplitude)
from .cohomology import (bott_oracle, minreg_areg, regularity,
                         sheaf_cohomology)
from .groebner import buchberger_criterion_holds
from .pushforward import (BinomialPoly, boundary_cases, splitting_oracle,
                          splitting_type)
from .resolution import minimal_resolution
from .schur import carter_lusztig_complex, schur_weyl_sum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name, fn, *args):
    try:
        detail = fn(*args)
        return CheckResult(name, True, detail or "ok")
    except AssertionError as exc:
        return CheckResult(name, False, str(exc) or "assertion failed")


def _splitting_oracle_agreement():
    count = 0
    for n in (1, 2):
        for q in (2, 3, 4):
            for i in range(-n - 1, q):
                a = splitting_type(n, q, i).multiplicities
                b = splitting_oracle(n, q, i).multiplicities
                assert a == b, f"mismatch at (n={n}, q={q}, i={i})"
                count += 1
    return f"{count} cases"


def _splitting_closed_forms():
    count = 0
    for n in (1, 2):
        p_n = BinomialPoly(n)
        for d in (2, 3, 5):
            for i in range(-n, d):
                st = splitting_type(n, d, i).multiplicities
                assert st.get(0, 0) == p_n(i), f"f(0,{i}) at n={n}, d={d}"
                assert st.get(-n, 0) == (-1) ** n * p_n(i - d), \
                    f"f({-n},{i}) at n={n}, d={d}"
                count += 1
    return f"{count} cases"


def _splitting_corners():
    for (n, d) in ((1, 2), (2, 3), (2, 4)):
        rep = boundary_cases(n, d)
        assert rep.corner_multiplicities_are_one, f"corners at n={n}, d={d}"
        assert rep.support_windows_hold, f"windows at n={n}, d={d}"
    return "3 cases"


def _splitting_rank():
    for n in (1, 2):
        for d in (2, 3, 4):
            for i in range(-n - 1, d):
                assert splitting_type(n, d, i).total == d ** n
    return "ok"


def _carter_lusztig():
    for r in range(1, 5):
        for p in (2, 3, 5):
            carter_lusztig_complex(r, p)  # asserts the alternating sum
    return "r <= 4, p <= 5"


def _schur_weyl():
    for m in range(1, 5):
        for r in range(1, 4):
            assert schur_weyl_sum(m, r) == r ** m, f"m={m}, r={r}"
    return "m <= 4, r <= 3"


def _bott_agreement(p):
    for j in range(3):
        module = catalog.form_bundle(p, 2, j)
        for d in range(-4, 3):
            for i in range(3):
                got = sheaf_cohomology(module, i, d)
                want = bott_oracle(2, j, d, i)
                assert got == want, \
                    f"h^{i}(forms^{j}({d})): {got} != {want}"
    return "n=2, d in [-4,2]"


def _amplitudes(p):
    assert f_amplitude(catalog.line_bundle(p, 2, 1)).phi == 0
    assert f_amplitude(catalog.structure_sheaf(p, 2)).phi == 2
    rep = f_amplitude(catalog.tangent_bundle(p, 2))
    assert rep.phi == 1, f"phi(T) = {rep.phi}"
    assert rep.witness_table.cell(1, -3) == 1
    return "phi(O(1)), phi(O), phi(T) = 0, 2, 1"


def _regularities(p):
    for d in range(-2, 3):
        got = regularity(catalog.line_bundle(p, 2, d)).sheaf_regularity
        assert got == -d, f"reg(O({d})) = {got}"
    got = regularity(catalog.point_ideal(p)).sheaf_regularity
    assert got == 1, f"reg(point ideal) = {got}"
    return "line bundles and point ideal"


def _minreg(p):
    rep = minreg_areg(catalog.line_bundle(p, 2, -1), 2)
    want = (1, p, p * p)
    assert rep.regularities == want, f"{rep.regularities} != {want}"
    assert rep.trend == "increasing"
    return f"sequence {want}, diverging"


def _neg1_regular(p):
    from .modules import tensor
    f_ample = [catalog.line_bundle(p, 2, 1), catalog.line_bundle(p, 2, 2),
               tensor(catalog.tangent_bundle(p, 2),
                      catalog.line_bundle(p, 2, 1))]
    for m in f_ample:
        assert f_amplitude(m).phi == 0
        reg = regularity(m).sheaf_regularity
        assert reg is not None and reg <= -1, f"reg = {reg}"
    return "3 cases"


def _euler_sequence(p):
    h1, h2 = catalog.euler_sequence(p, 2)
    rep = check_exact_sequence_bounds(h1, h2)
    assert rep.phis == (2, 0, 1), str(rep.phis)
    assert rep.inequality_holds
    return "phis (2, 0, 1)"


def _tensor_subadditivity(p):
    t = catalog.tangent_bundle(p, 2)
    o1 = catalog.line_bundle(p, 2, 1)
    for left, right in ((t, o1), (t, t)):
        rep = check_tensor_subadditivity(left, right)
        assert rep.inequality_holds, str(rep)
    return "2 pairs"


def _ample_bounds(p):
    for name, m in catalog.ample_examples(p):
        rep = check_rank_and_dimension_bounds(m)
        assert rep.dim_bound_holds, name
    return f"{len(catalog.ample_examples(p))} bundles"


def _serre_duality(p):
    o = catalog.structure_sheaf(p, 2)
    for d in range(-5, 3):
        assert (sheaf_cohomology(o, 0, d)
                == sheaf_cohomology(o, 2, -d - 3))
    t = catalog.tangent_bundle(p, 2)
    forms = catalog.form_bundle(p, 2, 1)
    for d in range(-4, 3):
        for i in range(3):
            assert (sheaf_cohomology(t, i, d)
                    == sheaf_cohomology(forms, 2 - i, -d - 3)), (i, d)
    return "structure sheaf and tangent/forms pairing"


def _groebner_soundness(p):
    for module in (catalog.point_ideal(p), catalog.tangent_bundle(p, 2),
                   catalog.form_bundle(p, 2, 1)):
        gb = module.column_groebner()
        assert buchberger_criterion_holds(
            gb, module.presentation.target_twists, p)
        res = minimal_resolution(module)
        assert res.compositions_are_zero()
        assert res.is_minimal()
        assert res.degreewise_exact()
        assert res.length <= module.num_vars - 1 + 1
    return "3 modules"


def run_verify(primes=(2, 3, 5)):
    """Run the whole battery; returns an ordered list of CheckResult."""
    results = [
        _check("splitting-oracle-agreement", _splitting_oracle_agreement),
        _check("splitting-closed-forms", _splitting_closed_forms),
        _check("splitting-corners", _splitting_corners),
        _check("splitting-rank-identity", _splitting_rank),
        _check("carter-lusztig-euler", _carter_lusztig),
        _check("schur-weyl-count", _schur_weyl),
    ]
    for p in primes:
        results.extend([
            _check(f"bott-agreement[p={p}]", _bott_agreement, p),
            _check(f"amplitude-values[p={p}]", _amplitudes, p),
            _check(f"regularity-values[p={p}]", _regularities, p),
            _check(f"minreg-divergence[p={p}]", _minreg, p),
            _check(f"f-ample-implies-neg1-regular[p={p}]", _neg1_regular, p),
            _check(f"euler-sequence-bounds[p={p}]", _euler_sequence, p),
            _check(f"tensor-subadditivity[p={p}]", _tensor_subadditivity, p),
            _check(f"ample-bounds[p={p}]", _ample_bounds, p),
            _check(f"serre-duality[p={p}]", _serre_duality, p),
            _check(f"groebner-soundness[p={p}]", _groebner_soundness, p),
        ])
    return results
