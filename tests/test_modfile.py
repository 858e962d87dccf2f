from pathlib import Path

import pytest
import yaml

from frobamp import catalog
from frobamp.modfile import (ModuleFileError, dumps_module, file_digest,
                             load_module, loads_module)
from frobamp.modules import GradedMap
from frobamp.polynomials import MultiPoly

GOOD = """\
prime: 5
num_vars: 3
target_twists: [-1, -1, -1]
source_twists: [0]
matrix:
  - ["x0"]
  - ["x1"]
  - ["x2"]
locally_free: true
"""


def test_round_trip_through_text():
    m = loads_module(GOOD)
    assert m.prime == 5
    assert m.locally_free
    assert dumps_module(m) == GOOD


def test_round_trip_catalog(tmp_path):
    for module in (catalog.point_ideal(3), catalog.form_bundle(7, 2, 1),
                   catalog.structure_sheaf(2, 2)):
        path = tmp_path / "m.mod"
        path.write_text(dumps_module(module))
        back = load_module(path)
        assert back.presentation == module.presentation
        assert file_digest(path).startswith("sha256:")


def test_prime_override_reinterprets_matrix():
    m = loads_module(GOOD, prime=7)
    assert m.prime == 7
    assert m.presentation.entries[0][0].modulus == 7


def test_missing_and_unknown_fields():
    with pytest.raises(ModuleFileError, match="missing required"):
        loads_module("prime: 5\nnum_vars: 3\n")
    with pytest.raises(ModuleFileError, match="unknown fields"):
        loads_module(GOOD + "extra: 1\n")


def test_nonprime_modulus_rejected():
    with pytest.raises(ModuleFileError, match="not prime"):
        loads_module(GOOD.replace("prime: 5", "prime: 6"))
    with pytest.raises(ModuleFileError, match="not prime"):
        loads_module(GOOD, prime=9)


def test_bad_entry_names_position():
    bad = GOOD.replace('- ["x1"]', '- ["x1 + x1^2"]')
    with pytest.raises(ModuleFileError, match=r"\(1, 0\)"):
        loads_module(bad)
    unparsable = GOOD.replace('- ["x2"]', '- ["zz"]')
    with pytest.raises(ModuleFileError, match=r"\(2, 0\)"):
        loads_module(unparsable)


def test_shape_mismatches():
    with pytest.raises(ModuleFileError, match="3 rows"):
        loads_module(GOOD.replace('  - ["x2"]\n', ""))
    with pytest.raises(ModuleFileError, match="row 0 must have 1"):
        loads_module(GOOD.replace('- ["x0"]', '- ["x0", "x1"]'))


def test_locally_free_spot_check_on_load():
    # torsion cokernel flagged locally free must be refused
    bad = """\
prime: 3
num_vars: 3
target_twists: [0]
source_twists: [1]
matrix:
  - ["x0"]
locally_free: true
"""
    with pytest.raises(ModuleFileError, match="spot check"):
        loads_module(bad)


def test_not_yaml_at_all():
    with pytest.raises(ModuleFileError):
        loads_module("just some text")
    with pytest.raises(ModuleFileError):
        loads_module("prime: [unclosed")


def test_booleans_are_not_integers():
    # True == 1 and hash(True) == hash(1): a boolean twist taken for an
    # integer would be stored in the term table that all maps share
    cases = (("num_vars", GOOD.replace("num_vars: 3", "num_vars: true")),
             ("target_twists", GOOD.replace("[-1, -1, -1]", "[-1, false, -1]")),
             ("source_twists", GOOD.replace("[0]", "[true]")),
             ("target_twists", "prime: 5\nnum_vars: 3\ntarget_twists: [false]\n"
              "source_twists: [true]\nmatrix:\n  - [\"x0\"]\n"))
    for field, text in cases:
        with pytest.raises(ModuleFileError, match=field):
            loads_module(text)
    x0 = MultiPoly.variable(3, 5, 0)
    with pytest.raises(ValueError, match="source_twists"):
        GradedMap(5, 3, (0,), (True,), ((x0,),))


def test_both_yaml_loaders_read_every_modfile_alike():
    files = sorted((Path(__file__).parent.parent / "modfiles").glob("*.mod"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert yaml.load(text, Loader=yaml.CSafeLoader) == \
            yaml.load(text, Loader=yaml.SafeLoader), path.name
