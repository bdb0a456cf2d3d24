"""Lossless JSON round trips for fields, matrices and certificates."""

import random

import pytest

from quadsum import GF, QQ, Matrix, QuadParams, construct, verify_certificate
from quadsum import serialize
from quadsum.errors import MalformedInput
from conftest import rand_decomposable, rand_matrix


def test_field_round_trip():
    assert serialize.field_from_json("Q") is QQ or serialize.field_from_json("Q") == QQ
    assert serialize.field_from_json({"GF": 7}) == GF(7)
    with pytest.raises(MalformedInput):
        serialize.field_from_json({"GF": 6})
    with pytest.raises(MalformedInput):
        serialize.field_from_json("R")


def test_matrix_round_trip():
    rng = random.Random(41)
    for f in (QQ, GF(5)):
        for _ in range(10):
            m = rand_matrix(f, rng.randint(0, 4), rng, cols=rng.randint(0, 4))
            again = serialize.matrix_from_json(f, serialize.matrix_to_json(m))
            assert again == m


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
    assert params.a == GF(2).one()
    for bad in ({"matrix": [["1"]]}, {"field": "Q", "matrix": [["1"]], "parms": {"a": "2"}},
                {"field": "Q", "matrix": [["1"]], "params": {"A": "2"}}):
        with pytest.raises(MalformedInput):
            serialize.jobspec_from_json(bad)
