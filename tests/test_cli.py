"""End-to-end CLI behavior: JSON in/out, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_wide_rational
from quadsum import GF, canonical, cli, oracle
from quadsum.cli import main
from quadsum.matrix import Matrix
from quadsum.sums import Certificate

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "decide_golden.json")
CONSTRUCT_GOLDEN = os.path.join(DATA, "construct_golden.json")


def write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


J3_JOB = {
    "field": "Q",
    "matrix": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]],
}

DIAG_JOB = {
    "field": "Q",
    "matrix": [["1", "0"], ["0", "0"]],
    "params": {"a": "1", "b": "0", "c": "0", "d": "0"},
}


def test_decide_no_with_diagnostics(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", J3_JOB)
    code, out, _ = run(capsys, ["decide", "--input", job])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "no"
    assert payload["diagnostics"]["failing_witness"]["kind"] == "intertwining"
    assert payload["diagnostics"]["nullity_at_0"] == [1, 1, 1]


def test_decide_yes(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    code, out, _ = run(capsys, ["decide", "--input", job])
    assert code == 0
    assert json.loads(out)["decision"] == "yes"


def test_decide_half_rational(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", {"field": "Q", "matrix": [["1/2"]]})
    code, out, _ = run(capsys, ["decide", "--input", job])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "no"
    assert payload["diagnostics"]["failing_witness"]["kind"] == "invariant_factor"


def test_unsupported_case_exit_3(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", {
        "field": "Q",
        "matrix": [["1", "0"], ["0", "1"]],
        "params": {"a": "2", "b": "-1", "c": "0", "d": "0"},
    })
    code, out, err = run(capsys, ["decide", "--input", job])
    assert code == 3
    assert "unsupported_case II" in err


def test_not_split_exit_3(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", {
        "field": "Q",
        "matrix": [["1"]],
        "params": {"a": "0", "b": "2", "c": "1", "d": "0"},
    })
    code, _, err = run(capsys, ["decide", "--input", job])
    assert code == 3
    assert "not split" in err


def test_malformed_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["decide", "--input", str(bad)])
    assert code == 2
    job = write_job(tmp_path, "nonsquare.json",
                    {"field": "Q", "matrix": [["1", "2"]]})
    code, _, _ = run(capsys, ["decide", "--input", job])
    assert code == 2
    job = write_job(tmp_path, "badentry.json",
                    {"field": {"GF": 5}, "matrix": [["x"]]})
    code, _, _ = run(capsys, ["decide", "--input", job])
    assert code == 2


def test_modulus_above_primality_limit_exit_2(tmp_path, capsys):
    job = write_job(tmp_path, "huge.json",
                    {"field": {"GF": 2 ** 89 - 1}, "matrix": [["1"]]})
    code, out, err = run(capsys, ["decide", "--input", job])
    assert code == 2
    assert out == ""
    assert "modulus" in err


def test_classify(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    code, out, _ = run(capsys, ["classify", "--input", job])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "III" and payload["swapped"] is False


def test_construct_verify_round_trip(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    code, out, _ = run(capsys, ["construct", "--input", job, "--output", cert_path])
    assert code == 0
    cert = json.loads(out)
    assert cert["decision"] == "yes" and cert["case"] == "III"
    assert cert["A"]["entries"] == [["1", "0"], ["-1", "0"]]
    assert cert["B"]["entries"] == [["0", "0"], ["1", "0"]]
    code, out, _ = run(capsys, ["verify", "--input", job, "--cert", cert_path])
    assert code == 0
    assert out == ('{"pass": true, "sum_ok": true, "first_quadratic_ok": true, '
                   '"second_quadratic_ok": true}\n')


def test_verify_tampered_certificate(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["construct", "--input", job, "--output", cert_path])
    cert = json.loads(open(cert_path).read())
    cert["A"]["entries"][0][0] = "7"
    tampered = write_job(tmp_path, "tampered.json", cert)
    code, out, _ = run(capsys, ["verify", "--input", job, "--cert", tampered])
    assert code == 0  # the verification itself was rendered
    assert out == ('{"pass": false, "sum_ok": false, "first_quadratic_ok": false, '
                   '"second_quadratic_ok": true}\n')


def test_verify_refuses_a_certificate_for_other_params(tmp_path, capsys):
    """2I is no idempotent plus square-zero matrix, but A = B = I is a sum
    of an idempotent and a (1, 0)-quadratic: verify checks a certificate
    against the job's params, each left out read as its default, and refuses
    one for other params with exit 2, one stderr line and nothing on stdout."""
    params = {"a": "1", "b": "0", "c": "0", "d": "0"}
    job = write_job(tmp_path, "job.json",
                    {"field": "Q", "matrix": [["2", "0"], ["0", "2"]], "params": params})
    assert json.loads(run(capsys, ["decide", "--input", job])[1])["decision"] == "no"
    identity = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}
    cert = write_job(tmp_path, "cert.json", {"A": identity, "B": identity,
                                             "params": {**params, "c": "1"}})
    assert run(capsys, ["verify", "--input", job, "--cert", cert]) == (
        2, "", "malformed input: the certificate's params differ from the job's\n")
    own = write_job(tmp_path, "own.json", {"field": "Q", "matrix": [["2", "0"], ["0", "2"]],
                                           "params": {"c": "1"}})
    code, out, _ = run(capsys, ["verify", "--input", own, "--cert", cert])
    assert (code, json.loads(out)["pass"]) == (0, True)


def test_verify_certificate_of_the_wrong_shape_exit_2(tmp_path, capsys):
    """A 2x3 A against the 2x2 matrix is a dimension mismatch that names
    the certificate, not a failed product."""
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["construct", "--input", job, "--output", cert_path])
    cert = json.loads(open(cert_path).read())
    cert["A"] = {"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["-1", "0", "0"]]}
    wide = write_job(tmp_path, "wide.json", cert)
    code, out, err = run(capsys, ["verify", "--input", job, "--cert", wide])
    assert (code, out) == (2, "")
    assert "certificate dimensions do not match the matrix" in err


def test_construct_refuses_a_certificate_that_does_not_reload(tmp_path, capsys, monkeypatch):
    """The serialized certificate must reload to the one construct verified:
    one perturbed entry exits 4 with nothing on stdout, and the message
    names the stage and the matrix size, as every internal check does."""
    real = cli.serialize.certificate_from_json

    def perturbed(field, obj):
        cert = real(field, obj)
        a = cert.a_part
        bumped = a + Matrix(field, a.rows, a.cols, [1] + [0] * (a.rows * a.cols - 1))
        return Certificate(bumped, cert.b_part, cert.params)

    monkeypatch.setattr(cli.serialize, "certificate_from_json", perturbed)
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    code, out, err = run(capsys, ["construct", "--input", job])
    assert (code, out) == (4, "")
    assert err.startswith("internal check failed: construct: ")
    assert "serialized certificate of the 2x2 matrix" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An --output path in a missing directory is refused by every command
    with exit 2, one stderr line and nothing on stdout; the result is not
    printed first."""
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["construct", "--input", job, "--output", cert_path])
    bad = str(tmp_path / "missing" / "out.json")
    for argv in (["decide", "--input", job], ["construct", "--input", job],
                 ["verify", "--input", job, "--cert", cert_path], ["classify", "--input", job],
                 ["necessary", "--input", job, "--alpha", "1", "--beta", "2"],
                 ["oracle", "--field", "gf2", "--n", "1"]):
        code, out, err = run(capsys, argv + ["--output", bad])
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"malformed input: cannot write {bad}") and err.count("\n") == 1, err
    assert not os.path.exists(os.path.dirname(bad))


def test_construct_decision_no(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", J3_JOB)
    code, out, _ = run(capsys, ["construct", "--input", job])
    assert code == 0
    assert json.loads(out)["decision"] == "no"


def test_oracle_subcommand(tmp_path, capsys):
    code, out, _ = run(capsys, ["oracle", "--field", "gf2", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["total"] == 16


def test_oracle_reports_a_mismatch(capsys, monkeypatch):
    """A decide that answers no on the 2x2 zero matrix over GF(2), a member
    of the atlas, is reported as that one mismatch: the report fails, and
    the command still renders it and exits 0."""
    real = oracle.decide

    def flipped(m):
        decision = real(m)
        return dataclasses.replace(decision, yes=not decision.yes) if m.is_zero() else decision

    monkeypatch.setattr(oracle, "decide", flipped)
    report = oracle.exhaustive_compare(GF(2), 2)
    assert not report.ok
    assert report.mismatches == ((0, 0, 0, 0),)
    assert (report.total, report.atlas_size, report.decide_yes) == (16, 16, 15)
    code, out, err = run(capsys, ["oracle", "--field", "gf2", "--n", "2"])
    assert (code, err) == (0, "")
    assert '"mismatches": [[0, 0, 0, 0]], "pass": false' in out


def test_a_failed_internal_check_exits_4(tmp_path, capsys, monkeypatch):
    """With T F read off T's columns wrongly, the M T = T F check of every
    command that decomposes fails: exit 4, one stderr line naming the stage
    and the matrix size, nothing on stdout and no output file."""
    monkeypatch.setattr(canonical, "_times_companions",
                        lambda field, cols, factors: [col[::-1] for col in cols])
    job = write_job(tmp_path, "job.json", J3_JOB)
    out_path = tmp_path / "out.json"
    for argv in (["decide"], ["construct"], ["necessary", "--alpha", "1", "--beta", "2"]):
        code, out, err = run(capsys, argv + ["--input", job, "--output", str(out_path)])
        assert (code, out) == (4, ""), argv
        assert err.startswith("internal check failed: invariant factors: M T is not T F")
        assert "3x3 matrix" in err and err.count("\n") == 1, err
        assert not out_path.exists()


def test_oracle_budget_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["oracle", "--field", "gf5", "--n", "4"])
    assert code == 2 and "exceeds the budget of 131072" in err


def test_oracle_refuses_a_huge_scan_at_once(capsys):
    """The budget is compared on sizes first: p^(n^2) for n = 10^6 is never
    built.  The budget also refuses GF(2) at n = 5, whose 2^25
    matrices would take hours to scan.  The refusal is one short line: n^2
    of a 4000-digit n has more digits than ``str`` writes, so a large n is
    named by its bit length."""
    for field, n in (("gf101", "1000000"), ("gf2", "5"), ("gf2", "9" * 2000),
                     ("gf2", "9" * 4000)):
        start = time.perf_counter()
        code, out, err = run(capsys, ["oracle", "--field", field, "--n", n])
        assert (code, out) == (2, ""), field
        assert "exceeds the budget" in err
        assert err.count("\n") == 1 and len(err.encode()) <= 100
        assert time.perf_counter() - start < 1


def test_necessary_subcommand(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", {
        "field": {"GF": 3},
        "matrix": [["1", "0"], ["1", "1"]],
    })
    code, out, _ = run(capsys, ["necessary", "--input", job,
                                "--alpha", "1", "--beta", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "no"


def test_necessary_values_starting_with_minus(tmp_path, capsys):
    """A negative rational after --alpha is a value, not an option, and an
    argument error is returned as exit 2, not raised out of main."""
    job = write_job(tmp_path, "job.json", {"field": "Q", "matrix": [["-1/2", "0"], ["1", "2"]]})
    code, out, _ = run(capsys, ["necessary", "--input", job, "--alpha", "-1/2", "--beta", "2"])
    assert code == 0
    assert json.loads(out) == {"status": "inconclusive", "nullity_at_alpha": [1],
                               "nullity_at_beta": [1], "violation": None}
    code, out, err = run(capsys, ["necessary", "--input", job, "--alpha", "-:", "--beta", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("malformed input")
    code, out, err = run(capsys, ["necessary", "--input", job, "--alpha"])
    assert (code, out) == (2, "")
    assert "expected one argument" in err


def test_numbers_too_long_to_print_exit_2(tmp_path, capsys):
    """The invariant factors of diag(1e3000, 3e3000) and diag(1e-3000,
    3e-3000) have a 6001-digit number in a coefficient, past the
    interpreter's 4300-digit limit for printing an integer.  Their height
    bounds, 2 (9968 + 2) = 19940 bits and, from the denominators, 2 (9966 +
    2) = 19936 bits, are over the budget, so both commands refuse them with
    exit 2 before any Krylov run, never a traceback."""
    for a, b in (("1e3000", "3e3000"), ("1e-3000", "3e-3000")):
        job = write_job(tmp_path, "job.json", {"field": "Q", "matrix": [[a, "0"], ["0", b]]})
        for command in ("decide", "construct"):
            code, out, err = run(capsys, [command, "--input", job])
            assert (code, out) == (2, ""), (a, command)
            assert err.startswith("malformed input") and err.count("\n") == 1
            assert "exceeds the budget" in err


def test_a_result_too_long_to_print_exit_2(tmp_path, capsys):
    """A number of the result with more digits than Python prints is
    refused when it is written out: classify echoes a param of 4301 digits."""
    job = write_job(tmp_path, "job.json", dict(DIAG_JOB, params={"a": "1e4300"}))
    assert run(capsys, ["classify", "--input", job]) == (
        2, "", "malformed input: a number in the result has too many digits to print\n")


def wide_job(tmp_path, digits):
    """The 8x8 rational job of ``rand_wide_rational`` with seed 1, entries
    of about ``digits`` digits over pairwise-coprime denominators."""
    m = rand_wide_rational(8, random.Random(1), digits=digits)
    return write_job(tmp_path, f"wide{digits}.json",
                     {"field": "Q", "matrix": [[str(x) for x in row] for row in m.to_rows()]})


JOB_COMMANDS = (["decide"], ["construct"], ["necessary", "--alpha", "1", "--beta", "2"])


def test_a_job_of_huge_height_is_refused_at_once(tmp_path, capsys):
    """The 90-digit 8x8 job has the height bound 8 (2390 + 4) = 19152 bits,
    over the budget of a 4300-digit number: each command that runs Krylov
    chains refuses it before the first one, in one short line (it used to
    run for seconds, then fail to print its result)."""
    job = wide_job(tmp_path, 90)
    for command in JOB_COMMANDS:
        start = time.perf_counter()
        code, out, err = run(capsys, [command[0], "--input", job] + command[1:])
        assert time.perf_counter() - start < 1, command
        assert (code, out, err) == (2, "", "malformed input: rational matrix of height bound "
                                           "19152 bits exceeds the budget of 14285\n")


def test_a_job_under_the_height_budget_runs(tmp_path, capsys):
    """The 30-digit 8x8 job, height bound 6376 bits, still gets its result."""
    job = wide_job(tmp_path, 30)
    for command in JOB_COMMANDS:
        code, out, err = run(capsys, [command[0], "--input", job] + command[1:])
        assert (code, err) == (0, ""), command
        assert json.loads(out)


def test_a_job_over_the_size_budget_is_refused_at_once(tmp_path, capsys):
    """A job one row over the size budget, 257 x 257 over GF(p) and 49 x 49
    over Q (a conjugated J_n(0) decides in 0.65 s at 256 over GF(101) and in
    3.3 s at 48 over Q), is refused by each command that runs Krylov chains
    in one short line, within a second; C(t^256 - 2) over GF(101) and
    J_48(0) over Q, at the budgets, get their results.  ``verify`` and
    ``classify`` take no bound, on size as on height."""
    for field, n in (({"GF": 2}, 257), ({"GF": 101}, 257), ("Q", 49)):
        job = write_job(tmp_path, "big.json", {"field": field, "matrix": [["1"] * n] * n})
        for command in JOB_COMMANDS:
            start = time.perf_counter()
            code, out, err = run(capsys, [command[0], "--input", job] + command[1:])
            assert time.perf_counter() - start < 1, (n, command)
            name = "QQ" if field == "Q" else f"GF({field['GF']})"
            assert (code, out, err) == (2, "", f"malformed input: {n}x{n} matrix over {name} "
                                               f"exceeds the size budget of {n - 1}\n")
        assert run(capsys, ["classify", "--input", job])[0] == 0
    for field, n, corner in (({"GF": 101}, 256, "2"), ("Q", 48, "0")):
        job = write_job(tmp_path, "at.json", {"field": field, "matrix": [
            ["1" if i == j + 1 else corner if (i, j) == (0, n - 1) else "0" for j in range(n)]
            for i in range(n)]})
        code, out, _ = run(capsys, ["decide", "--input", job])
        assert code == 0 and json.loads(out)["decision"] == "no"


def test_byte_deterministic_output(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    _, out1, _ = run(capsys, ["decide", "--input", job])
    _, out2, _ = run(capsys, ["decide", "--input", job])
    assert out1 == out2


def test_decide_output_matches_golden(tmp_path, capsys):
    """The decision JSON holds only similarity invariants, so its bytes must
    not move when the bases chosen inside decide change.  The expected stdout
    of the first 14 jobs (Q, GF(2), GF(5); n 0 to 10; YES and both kinds of NO)
    was recorded before decide and construct were moved onto one Frobenius
    decomposition; that of the last 8 (GF(5) and GF(101) at n 16 and 24, one
    uniform and one derogatory matrix each) before GF(p) rows were packed
    into ints."""
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 22
    for k, case in enumerate(cases):
        job = write_job(tmp_path, f"{k}.json", case["job"])
        code, out, _ = run(capsys, ["decide", "--input", job])
        assert (code, out) == (case["exit"], case["stdout"]), k


def test_parser_is_built_once_and_survives_a_bad_command_line(tmp_path, capsys):
    """The parser is built once per process; a command line it refuses
    leaves nothing behind, so the next job still prints the golden bytes."""
    assert cli.build_parser() is cli.build_parser()
    with open(GOLDEN, encoding="utf-8") as fh:
        case = json.load(fh)[0]
    job = write_job(tmp_path, "job.json", case["job"])
    for bad in (["decide", "--input", job, "--bogus"], ["decide"], ["oracle", "--n", "x"]):
        code, out, err = run(capsys, bad)
        assert (code, out) == (2, "") and err.startswith("usage:"), bad
    code, out, _ = run(capsys, ["decide", "--input", job])
    assert (code, out) == (case["exit"], case["stdout"])


def test_construct_output_matches_golden(tmp_path, capsys):
    """The certificate bytes depend on every basis choice inside construct,
    so a change to the arithmetic must leave them exactly as they were.  The
    expected stdout of the first 13 jobs (Q, GF(2), GF(5); n 0 to 8; a factor
    away from {0, 1}, Jordan pairs whose sizes differ by 2, singletons,
    shifted and swapped params, one NO) was recorded before matrices and
    polynomials stored raw values; that of the last 4 (planted YES over
    GF(5) and GF(101) at n 16 and 24) before GF(p) rows were packed into
    ints."""
    with open(CONSTRUCT_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 17
    for k, case in enumerate(cases):
        job = write_job(tmp_path, f"{k}.json", case["job"])
        code, out, _ = run(capsys, ["construct", "--input", job])
        assert (code, out) == (case["exit"], case["stdout"]), k


BAD_SCALAR_JOBS = [
    {"field": "Q", "matrix": [["1/0"]]},
    {"field": "Q", "matrix": [["1"]], "params": {"a": "1/0"}},
    {"field": {"GF": 7}, "matrix": [["1"]], "params": {"a": 0.5}},
    {"field": {"GF": 5}, "matrix": [[0.5]]},
    {"field": {"GF": 5}, "matrix": [[True]]},
    {"field": "Q", "matrix": [[None]]},
    {"field": "Q", "matrix": [["1e999999999"]]},
    {"field": {"GF": 7.0}, "matrix": [["1"]]},
]


def test_bad_scalars_exit_2(tmp_path, capsys):
    """Scalars from outside go through one parse: strings and non-bool
    integers only, and a string the field cannot read is malformed input,
    never a traceback and never a silently truncated float."""
    for k, payload in enumerate(BAD_SCALAR_JOBS):
        job = write_job(tmp_path, f"{k}.json", payload)
        for command in ("decide", "construct", "classify"):
            code, out, err = run(capsys, [command, "--input", job])
            assert (code, out) == (2, ""), (k, command)
            assert err.startswith("malformed input") and err.count("\n") == 1
    job = write_job(tmp_path, "ok.json", {"field": "Q", "matrix": [["1"]]})
    for alpha in ("abc", "1/0", "0.5e99999"):
        code, out, err = run(capsys, ["necessary", "--input", job,
                                      "--alpha", alpha, "--beta", "3"])
        assert (code, out) == (2, ""), alpha
        assert err.startswith("malformed input")


#: Job files whose scalar or modulus strings Python's ``int`` and
#: ``Fraction`` read although they are not plain ASCII decimals, with the
#: entry that the message names: an Arabic-Indic seven and three as 7 and 3,
#: surrounding whitespace, and a digit separator ("1_0" as 10).
NOT_PLAIN_JOBS = {
    "modulus in other digits": ({"field": {"GF": "\u0667"}, "matrix": [["1"]]},
                                "bad field modulus: str"),
    "modulus with spaces": ({"field": {"GF": " 7 "}, "matrix": [["1"]]}, "bad field modulus: str"),
    "modulus with _": ({"field": {"GF": "1_1"}, "matrix": [["1"]]}, "bad field modulus: str"),
    "entry in other digits": ({"field": {"GF": 7}, "matrix": [["1", "\u0663"], ["0", "1"]]},
                              "bad element at row 0, column 1"),
    "entry with spaces": ({"field": "Q", "matrix": [[" -1/2 "]]}, "bad element at row 0, column 0"),
    "entry with a newline": ({"field": "Q", "matrix": [["1\n"]]}, "bad element at row 0, column 0"),
    "entry with _": ({"field": "Q", "matrix": [["1_0"]]},
                     "bad element at row 0, column 0"),
    "parameter with _": ({"field": "Q", "matrix": [["1"]], "params": {"b": "1_0"}},
                         "bad element at parameter b"),
}


@pytest.mark.parametrize("name", sorted(NOT_PLAIN_JOBS))
def test_scalar_strings_are_plain_ascii_decimals(name, tmp_path, capsys):
    """A scalar or modulus string that is not ASCII, has whitespace around it
    or holds ``_`` is malformed input (exit 2) naming the entry, for every
    command that reads a job."""
    payload, named = NOT_PLAIN_JOBS[name]
    job = write_job(tmp_path, "job.json", payload)
    for command in ("decide", "construct", "classify"):
        code, out, err = run(capsys, [command, "--input", job])
        assert (code, out) == (2, ""), command
        assert err.startswith("malformed input") and named in err, err


def test_bad_input_is_named_not_echoed(tmp_path, capsys):
    """A bad scalar is named by its place and type, and its text is cut
    short: an entry that is a list of 200000 ints, a 1.3 MB job, exits 2
    with under 1 KB on stderr, and so do a bad field and deep nesting."""
    deep = "1"
    for _ in range(900):
        deep = [deep]
    for k, (payload, named) in enumerate((
            ({"field": "Q", "matrix": [["1", "2"], ["3", list(range(200000))]]},
             "bad element at row 1, column 1: list [0, 1, 2"),
            ({"field": "Q", "matrix": [[deep]]}, "bad element at row 0, column 0: list [[["),
            ({"field": {"GF": list(range(200000))}, "matrix": [["1"]]},
             "bad field modulus: list [0, 1, 2"),
            ({"field": "x" * 200000, "matrix": [["1"]]}, "got str 'xxx"),
            ({"field": "Q", "matrix": [["1"]], "params": {"b": "y" * 200000}},
             "bad element at parameter b: str 'yyy"))):
        job = write_job(tmp_path, f"{k}.json", payload)
        for command in ("decide", "construct"):
            code, out, err = run(capsys, [command, "--input", job])
            assert (code, out) == (2, ""), (k, command)
            assert err.startswith("malformed input") and err.count("\n") == 1, err[:200]
            assert named in err and len(err.encode()) < 1024, (k, err[:200])


def test_unknown_job_keys_exit_2(tmp_path, capsys):
    """A misspelt key is refused, not replaced by the default it misses."""
    for k, payload in enumerate(({"field": "Q", "matrix": [["1"]], "params": {"A": "2"}},
                                 {"field": "Q", "matrix": [["1"]], "parms": {"a": "2"}})):
        job = write_job(tmp_path, f"{k}.json", payload)
        for command in ("decide", "construct", "classify"):
            code, out, err = run(capsys, [command, "--input", job])
            assert (code, out) == (2, ""), (k, command)
            assert err.startswith("malformed input")


def test_integers_and_strings_still_parse(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", {"field": {"GF": "5"},
                                           "matrix": [[6, "-1"], [0, "0"]],
                                           "params": {"a": 1, "b": "0"}})
    code, out, _ = run(capsys, ["classify", "--input", job])
    assert code == 0 and json.loads(out)["case"] == "III"
    job = write_job(tmp_path, "q.json", {"field": "Q", "matrix": [["1e2", "0.25"], ["-3/6", 0]]})
    assert run(capsys, ["decide", "--input", job])[0] == 0


def test_oracle_negative_n_exit_2(capsys):
    code, out, err = run(capsys, ["oracle", "--field", "gf2", "--n", "-1"])
    assert (code, out) == (2, "")
    assert err == "malformed input: matrix size must be a non-negative int, got -1\n"


_LONG = "1" * 4998
#: ``quadsum oracle`` arguments that are not ``--field gf<p>`` and ``--n``
#: in plain ASCII decimals, although Python's ``int`` reads the number in
#: them (an Arabic-Indic three and two, a space, a digit separator), with
#: the text that the message names; the long ones are 5000 characters.
BAD_ORACLE_ARGS = {
    "modulus in other digits": ("gf\u0663", "1", "str '\u0663'"),
    "bare modulus": ("2", "1", "str '2'"),
    "upper case": ("GF2", "1", "str 'GF2'"),
    "upper case with brackets": ("GF(2)", "1", "str 'GF(2)'"),
    "brackets": ("gf(2)", "1", "str '(2)'"),
    "long modulus": ("gf" + _LONG, "1", "str '111"),
    "long field": ("x" + _LONG + "x", "1", "str 'x111"),
    "n in other digits": ("gf2", "\u0662", "bad --n: str '\u0662'"),
    "n with _": ("gf2", "1_0", "bad --n: str '1_0'"),
    "n with a space": ("gf2", " 2", "bad --n: str ' 2'"),
    "long n": ("gf2", "11" + _LONG, "bad --n: str '111"),
}


@pytest.mark.parametrize("name", sorted(BAD_ORACLE_ARGS))
def test_oracle_arguments_are_plain_ascii_decimals(name, capsys):
    """``--field`` is ``gf`` and a modulus read as a job file's, and ``--n``
    an integer read the same way: anything else exits 2 with one short
    stderr line that names the value."""
    field, n, named = BAD_ORACLE_ARGS[name]
    code, out, err = run(capsys, ["oracle", "--field", field, "--n", n])
    assert (code, out) == (2, "")
    assert err.startswith("malformed input: ") and err.count("\n") == 1, err[:200]
    assert named in err and len(err.encode()) < 100, err[:200]


def test_refusals_of_the_readers(tmp_path, capsys):
    """An echo longer than ``_ECHO_CHARS`` is cut, a job matrix that is not
    a list of lists is refused, and so is a certificate matrix whose entries
    disagree with its stated shape: exit 2, one stderr line, nothing on
    stdout."""
    for k, (payload, message) in enumerate((
            ({"field": "Q", "matrix": [[["a" * 100, "b" * 100]]]},
             "bad element at row 0, column 0: list "
             "['aaaaaaaaaaaa...aaaaaaaaaaaaa', 'bbbbbbbbbbbb...bbbbbbbb... for QQ"),
            ({"field": "Q", "matrix": "x"}, "matrix must be a list of rows"),
            ({"field": "Q", "matrix": [1, 2]}, "matrix must be a list of rows"))):
        job = write_job(tmp_path, f"{k}.json", payload)
        assert run(capsys, ["decide", "--input", job]) == (2, "", f"malformed input: {message}\n")
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["construct", "--input", job, "--output", cert_path])
    with open(cert_path, encoding="utf-8") as fh:
        cert = json.load(fh)
    n = cert["A"]["rows"]
    for k, (shape, message) in enumerate((
            ({"rows": n + 1}, f'matrix "entries" are {n}x{n}'),
            ({"cols": n - 1}, f'matrix "entries" are {n}x{n}'),
            ({"rows": 0}, f'matrix "entries" are {n}x{n}'),
            ({"entries": []}, 'matrix "entries" are 0x0'),
            ({"rows": 1, "cols": 0, "entries": [[]] * 2}, 'matrix "entries" are 2x0'),
            ({"entries": [["1"]] + cert["A"]["entries"][1:]}, "ragged matrix rows"))):
        bad = write_job(tmp_path, f"cert{k}.json", {**cert, "A": {**cert["A"], **shape}})
        code, out, err = run(capsys, ["verify", "--input", job, "--cert", bad])
        assert (code, out) == (2, ""), k
        assert err.startswith(f"malformed input: {message}") and err.count("\n") == 1, (k, err)


_FUZZ_SCALARS = st.one_of(
    st.sampled_from(["1/0", "0", "1", "-1", "1/2", "2", "1e3", "abc", "", " 3 "]),
    st.text(max_size=6),
    st.integers(-10 ** 20, 10 ** 20),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["Q", {"GF": 2}, {"GF": 5}]),
       n=st.integers(0, 3),
       data=st.data())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, field, n, data):
    """Every command on arbitrary entries and params ends in a result (0),
    malformed input (2) or an unsupported case (3), never a traceback."""
    rows = [[data.draw(_FUZZ_SCALARS) for _ in range(n)] for _ in range(n)]
    job = {"field": field, "matrix": rows}
    if data.draw(st.booleans()):
        job["params"] = {key: data.draw(_FUZZ_SCALARS)
                         for key in data.draw(st.sets(st.sampled_from("abcd")))}
    path = tmp_path_factory.mktemp("fuzz") / "job.json"
    path.write_text(json.dumps(job))
    command = data.draw(st.sampled_from(["decide", "construct", "classify", "necessary"]))
    argv = [command, "--input", str(path)]
    if command == "necessary":
        argv += ["--alpha", data.draw(st.text(max_size=6)),
                 "--beta", data.draw(st.sampled_from(["2", "1/0", "x", "-1"]))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), (argv, job)


VALID_CERT = {"A": {"rows": 2, "cols": 2, "entries": [["1", "0"], ["-1", "0"]]},
              "B": {"rows": 2, "cols": 2, "entries": [["0", "0"], ["1", "0"]]},
              "params": {"a": "1", "b": "0", "c": "0", "d": "0"}}
_FUZZ_VALUES = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "2", 0, 1, 2, 3, -1]),
    st.recursive(_FUZZ_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rows", "cols", "entries", "A", "B", "params", "a"]),
                        inner, max_size=3)), max_leaves=6))


def _paths(obj, prefix=()):
    """Every position inside a JSON value, then the value itself."""
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(value, prefix + (key,))
    yield prefix


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["Q", {"GF": 2}, {"GF": 5}]), data=st.data())
def test_verify_cert_fuzz_exits_cleanly(tmp_path_factory, field, data):
    """quadsum verify --cert on a valid certificate of diag(1, 0) with one or
    two positions replaced or deleted renders a report (0) or refuses the
    input (2), never a traceback."""
    cert = json.loads(json.dumps(VALID_CERT))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(cert))))
        if not path:
            cert = data.draw(_FUZZ_VALUES)
            continue
        parent = cert
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_FUZZ_VALUES)
    tmp = tmp_path_factory.mktemp("fuzz")
    job, cert_path = tmp / "job.json", tmp / "cert.json"
    job.write_text(json.dumps({"field": field, "matrix": [["1", "0"], ["0", "0"]]}))
    cert_path.write_text(json.dumps(cert))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["verify", "--input", str(job), "--cert", str(cert_path)])
    assert code in (0, 2), cert
    assert "Traceback" not in err.getvalue()


def test_unreadable_json_exits_2(tmp_path, capsys):
    """A file that is not UTF-8, holds an integer past the interpreter's
    4300-digit limit or nests lists past the parser's recursion limit is
    malformed input for the job and for the certificate."""
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    for k, raw in enumerate((b"\xff\xfe{", b'{"A": ' + b"1" * 5000 + b"}",
                             b"[" * 100000 + b"]" * 100000)):
        bad = tmp_path / f"bad{k}.json"
        bad.write_bytes(raw)
        for argv in (["decide", "--input", str(bad)],
                     ["verify", "--input", job, "--cert", str(bad)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), (k, argv)
            assert err.startswith("malformed input")
