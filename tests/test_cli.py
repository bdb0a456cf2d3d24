"""End-to-end CLI behavior: JSON in/out, exit codes, determinism."""

import json

from quadsum.cli import main


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
    assert json.loads(out)["pass"] is True


def test_verify_tampered_certificate(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    cert_path = str(tmp_path / "cert.json")
    run(capsys, ["construct", "--input", job, "--output", cert_path])
    cert = json.loads(open(cert_path).read())
    cert["A"]["entries"][0][0] = "7"
    tampered = write_job(tmp_path, "tampered.json", cert)
    code, out, _ = run(capsys, ["verify", "--input", job, "--cert", tampered])
    assert code == 0  # the verification itself was rendered
    payload = json.loads(out)
    assert payload["pass"] is False and payload["sum_ok"] is False


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


def test_byte_deterministic_output(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", DIAG_JOB)
    _, out1, _ = run(capsys, ["decide", "--input", job])
    _, out2, _ = run(capsys, ["decide", "--input", job])
    assert out1 == out2
