"""End-to-end CLI behavior: JSON in/out, exit codes, determinism."""

import contextlib
import io
import json
import os
import time

from hypothesis import given, settings, strategies as st

from quadsum import Certificate, Matrix, cli
from quadsum.cli import main

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
    one perturbed entry exits 4 with nothing on stdout."""
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
    assert "serialized certificate" in err


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


def test_oracle_budget_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["oracle", "--field", "gf5", "--n", "4",
                                "--budget", "1000"])
    assert code == 2


def test_oracle_refuses_a_huge_scan_at_once(capsys):
    """The budget is compared on sizes first: p^(n^2) for n = 10^6 is never
    built.  The default budget also refuses GF(2) at n = 5, whose 2^25
    matrices would take hours to scan."""
    for field, n in (("gf101", "1000000"), ("gf2", "5")):
        start = time.perf_counter()
        code, out, err = run(capsys, ["oracle", "--field", field, "--n", n])
        assert (code, out) == (2, ""), field
        assert "exceeds the budget" in err
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
    """The invariant factor of diag(1e3000, 3e3000) has a 6001-digit
    coefficient, past the interpreter's 4300-digit limit for printing an
    integer: both commands refuse it with exit 2, never a traceback."""
    job = write_job(tmp_path, "job.json", {"field": "Q",
                                           "matrix": [["1e3000", "0"], ["0", "3e3000"]]})
    for command in ("decide", "construct"):
        code, out, err = run(capsys, [command, "--input", job])
        assert (code, out) == (2, ""), command
        assert err.startswith("malformed input") and err.count("\n") == 1


def test_byte_deterministic_output(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    _, out1, _ = run(capsys, ["decide", "--input", job])
    _, out2, _ = run(capsys, ["decide", "--input", job])
    assert out1 == out2


def test_decide_output_matches_golden(tmp_path, capsys):
    """The decision JSON holds only similarity invariants, so its bytes must
    not move when the bases chosen inside decide change.  The expected stdout
    of these 14 jobs (Q, GF(2), GF(5); n 0 to 10; YES and both kinds of NO)
    was recorded before decide and construct were moved onto one Frobenius
    decomposition."""
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 14
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
    expected stdout of these 13 jobs (Q, GF(2), GF(5); n 0 to 8; a factor
    away from {0, 1}, Jordan pairs whose sizes differ by 2, singletons,
    shifted and swapped params, one NO) was recorded before matrices and
    polynomials stored raw values."""
    with open(CONSTRUCT_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 13
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
    assert err.startswith("malformed input")


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
    """A file that is not UTF-8, or holds an integer past the interpreter's
    4300-digit limit, is malformed input for the job and for the certificate."""
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    for k, raw in enumerate((b"\xff\xfe{", b'{"A": ' + b"1" * 5000 + b"}")):
        bad = tmp_path / f"bad{k}.json"
        bad.write_bytes(raw)
        for argv in (["decide", "--input", str(bad)],
                     ["verify", "--input", job, "--cert", str(bad)]):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, ""), (k, argv)
            assert err.startswith("malformed input")
