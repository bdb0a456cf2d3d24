"""JSON (de)serialization for fields, matrices, decisions and certificates.

Field elements travel as strings ("3", "-1/2" over the rationals, decimal
residues over GF(p)); matrices as {"rows", "cols", "entries"}; job inputs as
{"field", "matrix", "params"}.  One renderer, :func:`to_json`, writes every
value of a result, and every scalar through :func:`_texts`, which refuses a
number too long to print.  A result renders as its dataclass fields in
order, or through one writer here that names its keys in a fixed order, so
rendered JSON is byte-deterministic.
"""

from __future__ import annotations

import json
import reprlib

from .errors import MalformedInput, QuadsumError
from .field import Field, FieldElement, GF, QQ, _is_int, _plain
from .matrix import Matrix
from .poly import Polynomial
from .sums import Certificate, Decision, QuadParams, VerificationReport


# ---- fields and elements ---------------------------------------------

#: The most characters of an input value that an error message echoes.
_ECHO_CHARS = 60


def _echo(x) -> str:
    """An input value for an error message: its type, then its text cut
    short (``reprlib`` shortens long strings and lists and deep nesting, and
    the rest is cut at ``_ECHO_CHARS``)."""
    text = reprlib.repr(x)
    if len(text) > _ECHO_CHARS:
        text = text[:_ECHO_CHARS - 3] + "..."
    return f"{type(x).__name__} {text}"


def _integer(x, what: str) -> int:
    """The integer ``x`` from outside (a field modulus, the oracle's size):
    an int (not a bool) or a string of plain ASCII decimals
    (:func:`_plain`).  Anything else, and a string of more than 4300 digits,
    is MalformedInput, whose message names ``what`` and echoes ``x`` cut
    short."""
    try:
        if not (_is_int(x) or isinstance(x, str)):
            raise TypeError(f"{type(x).__name__} is not an integer")
        return int(_plain(x) if isinstance(x, str) else x)
    except (ValueError, TypeError) as exc:
        raise MalformedInput(f"bad {what}: {_echo(x)}") from exc


def field_from_json(obj) -> Field:
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"GF"}:
        try:
            return GF(_integer(obj["GF"], "field modulus"))
        except ValueError as exc:  # not a prime below the supported limit
            raise MalformedInput(f"bad field modulus: {_echo(obj['GF'])}") from exc
    raise MalformedInput(f'field must be "Q" or {{"GF": p}}, got {_echo(obj)}')


def _parse_element(field: Field, s, where):
    """The raw value of a scalar that comes from outside (job files, CLI
    arguments): a string such as "3", "-1/2" or "0.25", or an integer.
    Everything else (floats, bools, null, lists: ``Field.value`` refuses
    them), and any string the field cannot read (``Field.value`` also
    refuses huge exponents), is MalformedInput, whose message names the
    scalar by ``where``, a (row, column) pair of a matrix entry or a text,
    and echoes it cut short."""
    try:
        return field.value(s)
    except (QuadsumError, ValueError, TypeError, ZeroDivisionError) as exc:
        place = "row {}, column {}".format(*where) if isinstance(where, tuple) else where
        raise MalformedInput(f"bad element at {place}: {_echo(s)} for {field!r}") from exc


def _texts(values) -> list:
    """The one rendering of scalars (raw or wrapped) for output, as a list of
    texts.  Python refuses to print an integer of more than 4300 digits, and
    such a number makes the input malformed for this tool."""
    try:
        return list(map(str, values))
    except ValueError as exc:
        raise MalformedInput("a number in the result has too many digits to print") from exc


# ---- the renderer ---------------------------------------------------

def to_json(value):
    """The one rendering of a result value as JSON data: a matrix as its
    shape and entry texts, a polynomial as its coefficient texts, a field
    element as its text (every scalar through :func:`_texts`), a field as a
    job names it ("Q" or {"GF": p}), a dataclass as its fields in order, a
    dict entry by entry, a list or tuple as a list, and None, bools,
    counting ints and strings as they are."""
    return _rendered(value)


def _rendered(x):
    """The body of :func:`to_json`, which recurses through this private
    name."""
    if isinstance(x, (str, int)) or x is None:  # a bool is an int
        return x
    if isinstance(x, (list, tuple)):
        return list(map(_rendered, x))
    if isinstance(x, dict):
        return {key: _rendered(v) for key, v in x.items()}
    if isinstance(x, Matrix):
        return {
            "rows": x.rows,
            "cols": x.cols,
            "entries": list(map(_texts, x.raw_rows())),
        }
    if isinstance(x, Polynomial):
        return _texts(x.coeffs)
    if isinstance(x, FieldElement):
        return _texts([x])[0]
    if isinstance(x, Field):
        return "Q" if x.p is None else {"GF": x.p}
    return _rendered(vars(x))  # a dataclass, whose dict holds its fields in order


# ---- matrices --------------------------------------------------------

def matrix_from_json(field: Field, obj) -> Matrix:
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= set(obj):
        raise MalformedInput('matrix needs keys "rows", "cols", "entries"')
    rows, cols = obj["rows"], obj["cols"]
    if any(not _is_int(x) or x < 0 for x in (rows, cols)):
        raise MalformedInput("matrix dimensions must be non-negative integers")
    m = matrix_from_rows(field, obj["entries"])
    # no rows state no width: 0 x cols is read as 0 x 0, then takes the stated cols
    if m.rows != rows or (rows and m.cols != cols):
        raise MalformedInput(f'matrix "entries" are {m.rows}x{m.cols}, not "rows" x "cols"')
    return Matrix._raw(field, rows, cols, m._e)


def matrix_from_rows(field: Field, rows) -> Matrix:
    """Matrix from the bare list-of-rows form used in job inputs."""
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise MalformedInput("matrix must be a list of rows")
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise MalformedInput("ragged matrix rows")
    flat = [_parse_element(field, x, (i, j)) for i, row in enumerate(rows)
            for j, x in enumerate(row)]
    return Matrix._raw(field, len(rows), width, flat)


# ---- params and results ---------------------------------------------

def params_from_json(field: Field, obj) -> QuadParams:
    """The params of a job or a certificate; a key left out takes its
    default from :meth:`QuadParams.of`."""
    if obj is None:
        obj = {}
    if not isinstance(obj, dict) or not set(obj) <= set("abcd"):
        raise MalformedInput('params must be an object with keys among "a", "b", "c", "d"')
    return QuadParams.of(field, **{key: _parse_element(field, obj[key], f"parameter {key}")
                                   for key in "abcd" if key in obj})


def pairing_to_json(units):
    """The Jordan units of a decision as paired sizes (size_at_1, size_at_0)
    and singletons (eigenvalue, size)."""
    return {"pairs": [[one, zero] for one, zero in units if one and zero],
            "singletons": [[1, one] if one else [0, zero] for one, zero in units
                           if not (one and zero)]}


def decision_diagnostics(decision: Decision):
    """The diagnostics of a decision, with no pairing: a certificate adds it."""
    return {
        "invariant_factors": decision.invariant_factors,
        "g_factors": decision.g_factors,
        "nullity_at_0": decision.nullity_at_0,
        "nullity_at_1": decision.nullity_at_1,
        "pairing": None,
        "failing_witness": decision.failing,
    }


def decision_to_json(decision: Decision | None, classification=None):
    """A decision, "yes" or "no" with its diagnostics, or "unsupported_case"
    when it is None; the classification follows when given."""
    payload = ({"decision": "unsupported_case"} if decision is None else
               {"decision": "yes" if decision.yes else "no",
                "diagnostics": decision_diagnostics(decision)})
    if classification is not None:
        payload["classification"] = classification
    return to_json(payload)


def certificate_to_json(cert: Certificate):
    diagnostics = None
    if cert.decision is not None:
        diagnostics = decision_diagnostics(cert.decision)
        diagnostics["pairing"] = pairing_to_json(cert.decision.pairing)
    return to_json({
        "decision": "yes",
        "case": cert.classification.case if cert.classification else None,
        "A": cert.a_part,
        "B": cert.b_part,
        "params": cert.params,
        "diagnostics": diagnostics,
    })


def certificate_from_json(field: Field, obj) -> Certificate:
    if not isinstance(obj, dict) or not {"A", "B", "params"} <= set(obj):
        raise MalformedInput('certificate needs keys "A", "B", "params"')
    a_part = matrix_from_json(field, obj["A"])
    b_part = matrix_from_json(field, obj["B"])
    params = params_from_json(field, obj["params"])
    return Certificate(a_part, b_part, params)


def verification_to_json(report: VerificationReport):
    return {"pass": report.ok, **to_json(report)}


def comparison_to_json(report):
    """The oracle's comparison of ``decide`` with the atlas, and whether it
    passed."""
    return {**to_json(report), "pass": report.ok}


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
    except RecursionError as exc:
        raise MalformedInput(f"cannot read JSON from {path}: nested too deeply") from exc


def dumps(obj) -> str:
    """Canonical rendering: insertion-ordered keys, compact separators."""
    return json.dumps(obj, separators=(", ", ": "), ensure_ascii=True)
