"""The on-disk module format: a small YAML document.

Required keys: ``prime``, ``num_vars``, ``target_twists``, ``source_twists``
and ``matrix`` (one row of polynomial strings per target generator, one
column per relation); optional ``locally_free``.  Twists follow the
generator-degree convention: the module's ambient free module is
⊕_r R(-target_twists[r]).  Homogeneity is validated on load and violations
name the offending entry.
"""

from __future__ import annotations

import hashlib

from .modules import GradedMap, GradedModule
from .polynomials import format_poly, is_prime, parse_poly


class ModuleFileError(ValueError):
    """Raised for malformed module files; messages name the bad field."""


_REQUIRED = ("prime", "num_vars", "target_twists", "source_twists", "matrix")
_ALLOWED = set(_REQUIRED) | {"locally_free"}


def _expect_int_list(doc, key):
    value = doc[key]
    # a YAML boolean is an int to isinstance, and True == 1 as a dict key
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise ModuleFileError(f"field {key!r} must be a list of integers")
    return value


def loads_module(text: str, prime: int | None = None) -> GradedModule:
    """Parse a module document; ``prime`` reinterprets the matrix mod p."""
    import yaml

    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModuleFileError(f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModuleFileError("module document must be a mapping")
    unknown = set(doc) - _ALLOWED
    if unknown:
        raise ModuleFileError(f"unknown fields: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in doc:
            raise ModuleFileError(f"missing required field {key!r}")
    p = prime if prime is not None else doc["prime"]
    if not isinstance(p, int) or not is_prime(p):
        raise ModuleFileError(f"modulus {p!r} is not prime")
    nv = doc["num_vars"]
    if type(nv) is not int or nv < 1:
        raise ModuleFileError(f"num_vars must be a positive integer, got {nv!r}")
    tt = _expect_int_list(doc, "target_twists")
    st = _expect_int_list(doc, "source_twists")
    matrix = doc["matrix"]
    if not isinstance(matrix, list) or len(matrix) != len(tt):
        raise ModuleFileError(
            f"matrix must have {len(tt)} rows (one per target generator)")
    rows = []
    for r, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != len(st):
            raise ModuleFileError(
                f"matrix row {r} must have {len(st)} entries")
        out = []
        for c, cell in enumerate(row):
            if not isinstance(cell, str):
                raise ModuleFileError(
                    f"matrix entry ({r}, {c}): expected a polynomial string")
            try:
                out.append(parse_poly(cell, nv, p))
            except (ValueError, OverflowError) as exc:
                raise ModuleFileError(
                    f"matrix entry ({r}, {c}): {exc}") from exc
        rows.append(tuple(out))
    lf = doc.get("locally_free", False)
    if not isinstance(lf, bool):
        raise ModuleFileError("locally_free must be a boolean")
    try:
        pres = GradedMap(p, nv, tuple(tt), tuple(st), tuple(rows))
    except ValueError as exc:
        raise ModuleFileError(str(exc)) from exc
    try:
        return GradedModule(pres, locally_free=lf)
    except ValueError as exc:
        raise ModuleFileError(str(exc)) from exc


def load_module(path, prime: int | None = None) -> GradedModule:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_module(fh.read(), prime=prime)


def dumps_module(module: GradedModule) -> str:
    pres = module.presentation
    lines = [
        f"prime: {pres.prime}",
        f"num_vars: {pres.num_vars}",
        f"target_twists: [{', '.join(map(str, pres.target_twists))}]",
        f"source_twists: [{', '.join(map(str, pres.source_twists))}]",
        "matrix:",
    ]
    rows = pres.entries
    for row in rows:
        cells = ", ".join(f'"{format_poly(f)}"' for f in row)
        lines.append(f"  - [{cells}]")
    if not rows:
        lines[-1] = "matrix: []"
    if module.locally_free:
        lines.append("locally_free: true")
    return "\n".join(lines) + "\n"


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def text_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
