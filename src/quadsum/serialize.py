"""JSON (de)serialization for fields, matrices, decisions and certificates.

Field elements travel as strings ("3", "-1/2" over the rationals, decimal
residues over GF(p)); matrices as {"rows", "cols", "entries"}; job inputs as
{"field", "matrix", "params"}.  Output dictionaries are built with a fixed
key order so rendered JSON is byte-deterministic.  Every scalar of an output
is rendered by :func:`_text`, which refuses a number too long to print.
"""

from __future__ import annotations

import json

from .errors import MalformedInput, QuadsumError
from .field import Field, GF, QQ
from .matrix import Matrix
from .poly import Polynomial
from .sums import (CaseClassification, Certificate, Decision, NecessaryReport,
                   QuadParams, VerificationReport)


# ---- fields and elements ---------------------------------------------

def _is_json_scalar(x) -> bool:
    return isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool))


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"GF"}:
        try:
            if not _is_json_scalar(obj["GF"]):
                raise TypeError("the modulus must be a string or an integer")
            return GF(int(obj["GF"]))
        except (ValueError, TypeError) as exc:
            raise MalformedInput(f"bad field modulus: {obj['GF']!r}") from exc
    raise MalformedInput(f'field must be "Q" or {{"GF": p}}, got {obj!r}')


def _parse_element(field: Field, s):
    """The one parse of a scalar that comes from outside (job files, CLI
    arguments): a string such as "3", "-1/2" or "0.25", or an integer.
    Everything else (floats, bools, null, lists), and any string the field
    cannot read (``Field.parse`` also refuses huge exponents), is
    MalformedInput."""
    try:
        if not _is_json_scalar(s):
            raise TypeError("a scalar must be a string or an integer")
        return field.element(s)
    except (QuadsumError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise MalformedInput(f"bad element {s!r} for {field!r}") from exc


def _text(x) -> str:
    """The one rendering of a scalar (raw or wrapped) for output.  Python
    refuses to print an integer of more than 4300 digits, and such a number
    makes the input malformed for this tool."""
    try:
        return str(x)
    except ValueError as exc:
        raise MalformedInput("a number in the result has too many digits to print") from exc


# ---- matrices --------------------------------------------------------

def matrix_to_json(m: Matrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[_text(x) for x in row] for row in m.raw_rows()],
    }


def matrix_from_json(field: Field, obj) -> Matrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise MalformedInput('matrix needs keys "rows", "cols", "entries"')
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    if any(isinstance(x, bool) or not isinstance(x, int) or x < 0 for x in (rows, cols)):
        raise MalformedInput("matrix dimensions must be non-negative integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MalformedInput(f"expected {rows} entry rows")
    flat = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise MalformedInput(f"every entry row must have {cols} entries")
        flat.extend(_parse_element(field, x) for x in row)
    return Matrix(field, rows, cols, flat)


def matrix_from_rows(field: Field, rows) -> Matrix:
    """Matrix from the bare list-of-rows form used in job inputs."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise MalformedInput("matrix must be a list of rows")
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise MalformedInput("ragged matrix rows")
    flat = [_parse_element(field, x) for row in rows for x in row]
    return Matrix(field, len(rows), width, flat)


# ---- polynomials, params, sequences ----------------------------------

def poly_to_json(p: Polynomial):
    return [_text(c) for c in p.coeffs]


def params_to_json(params: QuadParams):
    return {"a": _text(params.a), "b": _text(params.b),
            "c": _text(params.c), "d": _text(params.d)}


def params_from_json(field: Field, obj) -> QuadParams:
    if obj is None:
        obj = {}
    defaults = {"a": "1", "b": "0", "c": "0", "d": "0"}
    if not isinstance(obj, dict) or not set(obj) <= set(defaults):
        raise MalformedInput('params must be an object with keys among "a", "b", "c", "d"')
    return QuadParams(**{key: _parse_element(field, obj.get(key, dflt))
                         for key, dflt in defaults.items()})


def classification_to_json(cls: CaseClassification):
    return {
        "case": cls.case,
        "alpha": _text(cls.alpha),
        "beta": _text(cls.beta),
        "shift": _text(cls.shift),
        "scale": None if cls.scale is None else _text(cls.scale),
        "swapped": cls.swapped,
    }


def pairing_to_json(units):
    """The Jordan units of a decision as paired sizes (size_at_1, size_at_0)
    and singletons (eigenvalue, size)."""
    return {"pairs": [[one, zero] for one, zero in units if one and zero],
            "singletons": [[1, one] if one else [0, zero] for one, zero in units
                           if not (one and zero)]}


def decision_diagnostics(decision: Decision):
    failing = decision.failing
    if failing is not None and failing["kind"] == "invariant_factor":
        failing = {"kind": "invariant_factor", "factor": poly_to_json(failing["factor"])}
    return {
        "invariant_factors": [poly_to_json(f) for f in decision.invariant_factors],
        "g_factors": [poly_to_json(g) for g in decision.g_factors],
        "nullity_at_0": list(decision.nullity_at_0.values),
        "nullity_at_1": list(decision.nullity_at_1.values),
        "pairing": None,
        "failing_witness": failing,
    }


def decision_to_json(decision: Decision):
    return {
        "decision": "yes" if decision.yes else "no",
        "diagnostics": decision_diagnostics(decision),
    }


def certificate_to_json(cert: Certificate):
    diagnostics = None
    if cert.decision is not None:
        diagnostics = decision_diagnostics(cert.decision)
        diagnostics["pairing"] = pairing_to_json(cert.decision.pairing)
    return {
        "decision": "yes",
        "case": cert.classification.case if cert.classification else None,
        "A": matrix_to_json(cert.a_part),
        "B": matrix_to_json(cert.b_part),
        "params": params_to_json(cert.params),
        "diagnostics": diagnostics,
    }


def certificate_from_json(field: Field, obj) -> Certificate:
    if not isinstance(obj, dict) or not {"A", "B", "params"} <= set(obj):
        raise MalformedInput('certificate needs keys "A", "B", "params"')
    a_part = matrix_from_json(field, obj["A"])
    b_part = matrix_from_json(field, obj["B"])
    params = params_from_json(field, obj["params"])
    return Certificate(a_part, b_part, params)


def verification_to_json(report: VerificationReport):
    return {
        "pass": report.ok,
        "sum_ok": report.sum_ok,
        "first_quadratic_ok": report.first_quadratic_ok,
        "second_quadratic_ok": report.second_quadratic_ok,
    }


def necessary_to_json(report: NecessaryReport):
    return {
        "status": report.status,
        "nullity_at_alpha": None if report.seq_alpha is None else list(report.seq_alpha.values),
        "nullity_at_beta": None if report.seq_beta is None else list(report.seq_beta.values),
        "violation": report.violation,
    }


# ---- job inputs ------------------------------------------------------

def jobspec_from_json(obj):
    """Parse {"field", "matrix", "params"} into (field, matrix, params); any
    other key is refused, so a misspelt one never falls back to a default."""
    keys = set(obj) if isinstance(obj, dict) else set()
    if not {"field", "matrix"} <= keys <= {"field", "matrix", "params"}:
        raise MalformedInput('job needs keys "field" and "matrix", and may add only "params"')
    field = field_from_json(obj["field"])
    matrix = matrix_from_rows(field, obj["matrix"])
    if not matrix.is_square:
        raise MalformedInput("job matrix must be square")
    params = params_from_json(field, obj.get("params"))
    return field, matrix, params


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, UTF-8 or a huge int
        raise MalformedInput(f"cannot read JSON from {path}: {exc}") from exc


def dumps(obj) -> str:
    """Canonical rendering: insertion-ordered keys, compact separators."""
    return json.dumps(obj, separators=(", ", ": "), ensure_ascii=True)
