import json
import os
import subprocess
import sys
from pathlib import Path

from frobamp.cli import main
from frobamp.verify import CheckResult

REPO = Path(__file__).resolve().parent.parent
MODFILES = REPO / "modfiles"
GOLDEN = REPO / "tests" / "golden"


# a missing field, bad YAML, an inhomogeneous entry, exponent overflow and a
# boolean twist
_POINT = "prime: 5\nnum_vars: 3\ntarget_twists: [0]\nsource_twists: [1]\n"
BAD_MODULE_TEXTS = (
    "prime: 5\n",
    "prime: [unclosed",
    _POINT + 'matrix:\n  - ["x0 + x1^2"]\n',
    _POINT + 'matrix:\n  - ["x0^99999999999999999999"]\n',
    _POINT.replace("[1]", "[true]") + 'matrix:\n  - ["x0"]\n',
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_famp_text_output(capsys):
    code, out, _ = run(capsys, "famp", "--prime", "5",
                       str(MODFILES / "tangent_p2.mod"))
    assert code == 0
    assert out.splitlines()[0] == "phi = 1"
    assert "h^1" in out


def test_famp_multi_prime_sweep(capsys):
    code, out, _ = run(capsys, "famp", "-p", "2", "-p", "3",
                       str(MODFILES / "tangent_p2.mod"))
    assert code == 0
    assert "prime 2: phi = 1" in out
    assert "prime 3: phi = 1" in out
    assert "phi per prime: 2: 1, 3: 1" in out


def test_frobsplit_text(capsys):
    code, out, _ = run(capsys, "frobsplit", "--n", "1", "--d", "2", "--i", "0")
    assert code == 0
    assert out.splitlines()[0] == "O: 1, O(-1): 1"
    assert "rank identity" in out


def test_cohomology_window_and_value(capsys):
    code, out, _ = run(capsys, "cohomology", "--prime", "2",
                       "--window=-3..0", str(MODFILES / "structure_p2.mod"))
    assert code == 0
    assert "h^2:" in out
    first_row = [l for l in out.splitlines() if l.startswith("h^2:")][0]
    assert first_row.split()[1] == "1"  # h^2 at d = -3


def test_regularity_text(capsys):
    code, out, _ = run(capsys, "regularity",
                       str(MODFILES / "point_ideal_p2.mod"))
    assert code == 0
    assert "sheaf regularity = 1" in out


def test_minreg_text(capsys):
    code, out, _ = run(capsys, "minreg", "--max-e", "2",
                       str(MODFILES / "twist1_p2.mod"))
    assert code == 0
    assert "-1, -5, -25" in out


def test_resolve_betti(capsys):
    code, out, _ = run(capsys, "resolve",
                       str(MODFILES / "point_ideal_p2.mod"))
    assert code == 0
    assert "F_0 = R(-1)^2" in out
    assert "F_1 = R(-2)" in out


def test_schur_and_cl_check(capsys):
    code, out, _ = run(capsys, "schur", "2", "2,1")
    assert code == 0 and "= 2" in out
    code, out, _ = run(capsys, "cl-check", "2", "3")
    assert code == 0
    assert "(3) (dim 4), (2,1) (dim 2)" in out


def test_structured_golden_files(capsys):
    cases = [
        (("frobsplit", "--n", "1", "--d", "2", "--i", "0",
          "--format", "structured"), "frobsplit_n1_d2_i0.jsonl"),
        (("famp", "--prime", "5", "--format", "structured",
          str(MODFILES / "tangent_p2.mod")), "famp_tangent_p2.jsonl"),
        (("cohomology", "--prime", "2", "--window=-3..0", "--format",
          "structured", str(MODFILES / "structure_p2.mod")),
         "cohomology_structure_p2.jsonl"),
    ]
    for argv, golden_name in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        golden = (GOLDEN / golden_name).read_text()
        assert out == golden, golden_name


def test_structured_meta_schema(capsys):
    code, out, _ = run(capsys, "famp", "--prime", "3", "--format",
                       "structured", str(MODFILES / "tangent_p2.mod"))
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    meta = lines[0]
    assert meta["record"] == "meta"
    assert meta["tool"] == "frobamp"
    assert meta["version"]
    assert meta["input_digest"].startswith("sha256:")
    assert meta["primes"] == [3]


def test_verify_runs_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "-p", "2", "--format",
                         "structured")
    code2, out2, _ = run(capsys, "verify", "-p", "2", "--format",
                         "structured")
    assert code1 == code2 == 0
    assert out1 == out2
    summary = json.loads(out1.splitlines()[-1])
    assert summary["record"] == "summary"
    assert summary["status"] == "ok"
    assert summary["checks_failed"] == 0


def test_exit_code_2_on_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "famp", "--prime", "4",
                       str(MODFILES / "tangent_p2.mod"))
    assert code == 2 and "not prime" in err
    code, _, err = run(capsys, "cohomology", "--window=0..-3",
                       str(MODFILES / "structure_p2.mod"))
    assert code == 2 and "empty" in err
    bad = tmp_path / "bad.mod"
    bad.write_text(BAD_MODULE_TEXTS[0])
    code, _, err = run(capsys, "famp", str(bad))
    assert code == 2 and "missing required" in err
    code, _, err = run(capsys, "famp", str(tmp_path / "missing.mod"))
    assert code == 2
    code, _, err = run(capsys, "frobsplit", "--n", "1", "--d", "2",
                       "--i", "5")
    assert code == 2 and "outside" in err
    for text in BAD_MODULE_TEXTS[1:]:
        bad.write_text(text)
        code, _, err = run(capsys, "famp", str(bad))
        assert code == 2 and "error:" in err, text


def test_both_yaml_loaders_give_the_same_errors(capsys, tmp_path,
                                                monkeypatch):
    # libyaml parses; a document it refuses gets the pure-Python message
    import yaml
    bad = tmp_path / "bad.mod"
    errors = []
    for text in BAD_MODULE_TEXTS:
        bad.write_text(text)
        errors.append(run(capsys, "famp", str(bad)))
    monkeypatch.delattr(yaml, "CSafeLoader")
    for text, fast in zip(BAD_MODULE_TEXTS, errors):
        bad.write_text(text)
        assert run(capsys, "famp", str(bad)) == fast, text
    assert "not a valid document" in errors[1][2]


def test_exponent_cap_applies_to_nonzero_entries_only(capsys):
    # O(1) has no relations: 5^26 is past the cap, but only twists scale
    code, out, _ = run(capsys, "minreg", "--max-e", "26",
                       str(MODFILES / "twist1_p2.mod"))
    assert code == 0
    assert "minreg upper bound = -1490116119384765625" in out
    # the tangent bundle's linear entries take 5^17 and stop at 5^18
    code, _, err = run(capsys, "minreg", "--max-e", "26",
                       str(MODFILES / "tangent_p2.mod"))
    assert code == 2
    assert err == "error: p^e = 3814697265625 exceeds the exponent cap\n"


def test_exit_code_1_on_failed_checks(capsys, monkeypatch):
    import frobamp.cli as cli_module
    monkeypatch.setattr(
        cli_module, "run_verify",
        lambda primes: [CheckResult("forced-failure", False, "boom")])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out


def test_structured_schema_of_remaining_subcommands(capsys):
    cases = [
        ("regularity", str(MODFILES / "point_ideal_p2.mod")),
        ("minreg", "--max-e", "1", str(MODFILES / "twist1_p2.mod")),
        ("resolve", str(MODFILES / "cotangent_p2.mod")),
        ("schur", "3", "2,1"),
        ("cl-check", "2", "5"),
    ]
    for argv in cases:
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0, argv
        lines = [json.loads(l) for l in out.splitlines()]
        assert lines[0]["record"] == "meta"
        assert lines[0]["subcommand"] == argv[0]
        assert all("record" in l for l in lines)
        kinds = {l["record"] for l in lines[1:]}
        assert kinds, argv


def test_structured_same_bytes_as_two_runs(capsys):
    a = run(capsys, "resolve", str(MODFILES / "tangent_p3.mod"),
            "--format", "structured")
    b = run(capsys, "resolve", str(MODFILES / "tangent_p3.mod"),
            "--format", "structured")
    assert a == b


def test_production_paths_never_load_numpy():
    # numpy backs only the dense test oracles and verify's exactness check
    script = f"""
import contextlib, io, sys
from frobamp import catalog
from frobamp.amplitude import check_exact_sequence_bounds
from frobamp.cli import main
from frobamp.cohomology import generated_in_degrees
mod = {str(MODFILES / "tangent_p3.mod")!r}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["famp", mod], ["regularity", mod], ["resolve", mod],
                 ["minreg", "--max-e", "1", mod], ["cohomology", mod]):
        assert main(argv) == 0, argv
check_exact_sequence_bounds(*catalog.euler_sequence(3, 2))
assert generated_in_degrees(catalog.tangent_bundle(3, 2))
assert "numpy" not in sys.modules, "numpy was imported"
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=REPO,
                         env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
