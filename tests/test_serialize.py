"""Lossless JSON round trips for fields, matrices and certificates."""

import random

import pytest

from quadsum import GF, QQ, Matrix, QuadParams, construct, verify_certificate
from quadsum import serialize
from quadsum.field import Field, FieldElement
from quadsum.poly import Polynomial
from quadsum.errors import MalformedInput
from conftest import rand_decomposable, rand_matrix


def test_field_round_trip():
    assert serialize.field_from_json("Q") is QQ or serialize.field_from_json("Q") == QQ
    assert serialize.field_from_json({"GF": 7}) == GF(7)
    with pytest.raises(MalformedInput):
        serialize.field_from_json({"GF": 6})
    with pytest.raises(MalformedInput):
        serialize.field_from_json("R")


def test_modulus_strings_are_plain_ascii_decimals():
    """``int`` reads an Arabic-Indic seven as 7, and reads surrounding
    whitespace and digit separators; a modulus string with any of them is
    malformed input, while the string "7" and the integer 7 are GF(7)."""
    for text in ("\u0667", " 7", "7 ", "7\n", "1_1"):
        with pytest.raises(MalformedInput, match="bad field modulus"):
            serialize.field_from_json({"GF": text})
    assert serialize.field_from_json({"GF": "7"}) == serialize.field_from_json({"GF": 7}) == GF(7)


def test_matrix_round_trip():
    rng = random.Random(41)
    for f in (QQ, GF(5)):
        for _ in range(10):
            m = rand_matrix(f, rng.randint(0, 4), rng, cols=rng.randint(0, 4))
            again = serialize.matrix_from_json(f, serialize.to_json(m))
            assert again == m


def test_to_json_renders_each_kind_of_value():
    """A matrix as its shape and entry texts, a polynomial as its
    coefficient texts, an element as its text, a dataclass as its fields in
    order, dicts, lists and tuples entry by entry, and None, bools, ints and
    strings as they are."""
    half = QQ.element("1/2")
    m = Matrix.from_rows(QQ, [[half, 0, 3]])
    assert serialize.to_json(m) == {"rows": 1, "cols": 3, "entries": [["1/2", "0", "3"]]}
    assert serialize.to_json(Polynomial(GF(5), [-1, 0, 1])) == ["4", "0", "1"]
    assert serialize.to_json(QuadParams.of(QQ, b=half)) == {"a": "1", "b": "1/2", "c": "0",
                                                            "d": "0"}
    assert serialize.to_json({"x": (half, [None, True]), "y": ("s", 7)}) == {
        "x": ["1/2", [None, True]], "y": ["s", 7]}


def test_matrix_malformed():
    with pytest.raises(MalformedInput):
        serialize.matrix_from_json(QQ, {"rows": 1, "cols": 2, "entries": [["1"]]})
    with pytest.raises(MalformedInput):
        serialize.matrix_from_rows(QQ, [["1"], ["2", "3"]])
    with pytest.raises(MalformedInput):
        serialize.matrix_from_rows(GF(3), [["1/2"]])
    for dims in ((True, True), (1.0, 1), (1, "1"), (None, 1), (-1, 0)):
        obj = {"rows": dims[0], "cols": dims[1], "entries": [["1"]]}
        with pytest.raises(MalformedInput):
            serialize.matrix_from_json(QQ, obj)


def test_params_defaults():
    params = serialize.params_from_json(QQ, None)
    assert (params.a, params.b, params.c, params.d) == \
        (QQ.element(1), QQ.element(0), QQ.element(0), QQ.element(0))
    params = serialize.params_from_json(QQ, {"a": "3", "b": "-2"})
    assert params.a == QQ.element(3) and params.c == QQ.element(0)


def test_certificate_round_trip_preserves_verification():
    rng = random.Random(42)
    for f in (QQ, GF(2)):
        for _ in range(5):
            m = rand_decomposable(f, rng.randint(1, 4), rng)
            cert = construct(m, QuadParams.of(f))
            payload = serialize.certificate_to_json(cert)
            again = serialize.certificate_from_json(f, payload)
            assert again.a_part == cert.a_part and again.b_part == cert.b_part
            assert verify_certificate(m, again).ok


def test_jobspec_parsing():
    field, matrix, params = serialize.jobspec_from_json({
        "field": {"GF": 2},
        "matrix": [["1", "0"], ["1", "1"]],
    })
    assert field == GF(2) and matrix.rows == 2
    assert params.a == GF(2).element(1)
    for bad in ({"matrix": [["1"]]}, {"field": "Q", "matrix": [["1"]], "parms": {"a": "2"}},
                {"field": "Q", "matrix": [["1"]], "params": {"A": "2"}}):
        with pytest.raises(MalformedInput):
            serialize.jobspec_from_json(bad)


def test_readers_read_each_entry_once_and_wrap_only_the_params(monkeypatch):
    """Job and certificate entries are read straight to raw values: the
    matrix readers wrap no scalar, and a job or a certificate wraps exactly
    its four params, whatever the size of its matrices."""
    made = []
    monkeypatch.setattr(Field, "make", lambda self, v: made.append(v) or FieldElement(self, v))
    rng = random.Random(43)
    for f, name in ((QQ, "Q"), (GF(2), {"GF": 2}), (GF(10007), {"GF": "10007"})):
        for n in (1, 3, 5):
            m = rand_decomposable(f, n, rng)
            rows = [[str(x) for x in row] for row in m.raw_rows()]
            cert = serialize.certificate_to_json(construct(m, QuadParams.of(f)))
            made.clear()
            assert serialize.matrix_from_rows(f, rows) == m
            assert serialize.matrix_from_json(f, serialize.to_json(m)) == m
            assert made == []
            assert serialize.jobspec_from_json({"field": name, "matrix": rows})[1] == m
            assert len(made) == 4
            made.clear()
            again = serialize.certificate_from_json(f, cert)
            assert len(made) == 4 and verify_certificate(m, again).ok
