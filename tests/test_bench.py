"""The BENCH collector ``tests/bench.py``, on a stored report and two stored
BENCH files; no test here runs the benchmark."""

import json
import os
import subprocess

import pytest

import bench

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def test_report_line_is_parsed_and_summarized():
    """The final JSON line of a report is its result; runs without one are
    left out of the summary, and each metric gets its median and quartiles."""
    result = bench.parse_report(_read("bench_report.txt"))
    assert result["correct"] and (result["attempted"], result["failed"]) == (125, 0)
    assert result["metrics"]["ops_per_s"] == {"value": 213.58422709099546, "unit": "1/s"}
    assert bench.parse_report("workload x seed 1\ncheck failed: wrong answer\n") is None
    faster = json.loads(json.dumps(result))
    faster["metrics"]["ops_per_s"]["value"] = 313.58422709099546
    faster["failed"] = 1
    runs = [{"workload": "qq-growth", "result": r} for r in (result, faster, None, result)]
    summary = bench.summarize(runs)["qq-growth"]
    assert (summary["attempted"], summary["failed"]) == (375, 1)
    ops = summary["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s" and ops["runs"] == 3
    assert ops["median"] == pytest.approx(213.584227) and ops["q1"] == pytest.approx(213.584227)
    assert ops["q3"] == pytest.approx(263.584227)
    assert bench.quartiles([5.0]) == {"median": 5.0, "q1": 5.0, "q3": 5.0, "runs": 1}


def test_label_writes_every_key(tmp_path, monkeypatch, capsys):
    """``--label`` runs the command of BENCHMARK.json for its run_seconds
    once per workload and entry of SEEDS (here a stand-in that prints the
    stored report) and writes the file with its provenance, each command and
    result, and the summary."""
    spec = bench.load_benchmark()
    spec["run_seconds"] = 3
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    report, calls = _read("bench_report.txt"), []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        out = report if "perfbench/run.py" in argv else ("ab12\n" if "rev-parse" in argv else "")
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--label", "t"]) == 0
    written = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert set(written) == {"label", "note", "sha", "dirty", "python", "platform", "cpu_count",
                            "seconds", "seeds", "runs", "summary"}
    assert (written["sha"], written["dirty"], written["seeds"]) == ("ab12", False, [1, 7, 1, 7])
    assert written["seconds"] == 3
    assert "shared 2-core machine" in written["note"]
    workloads = [w["name"] for w in spec["workloads"]]
    assert [(r["workload"], r["seed"]) for r in written["runs"]] == [
        (w, s) for w in workloads for s in (1, 7, 1, 7)]
    assert written["runs"][0]["command"] == spec["command"] + [
        "--workload", workloads[0], "--seed", "1", "--seconds", "3"]
    assert written["runs"][0]["result"] == bench.parse_report(report)
    assert set(written["summary"]) == set(workloads)
    assert sum("perfbench/run.py" in argv for argv in calls) == 4 * len(workloads)


def test_compare_flags_a_metric_outside_its_bound(capsys):
    """Two stored files: qq-growth's 20 % slower set-up is inside the 0.25
    bound, gfp-mid's 30 % lower ops_per_s is outside 0.24, so it exits 1."""
    code = bench.main(["--compare", os.path.join(DATA, "bench_old.json"),
                       os.path.join(DATA, "bench_new.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "setup_s      0.159324 -> 0.191189 s  +20.0%  inside the bound 0.25" in out
    assert "ops_per_s    216.025 -> 151.218 1/s  -30.0%  OUTSIDE the bound 0.24" in out
    assert out.count("failed share 0 -> 0") == 2
    old = bench.load_json(os.path.join(DATA, "bench_old.json"))
    assert bench.compare(old, old, bench.load_benchmark())[1]


def test_compare_flags_a_workload_missing_from_new():
    """A workload that printed no result on any run is missing from NEW's
    summary: compare names it and exits 1."""
    old = bench.load_json(os.path.join(DATA, "bench_old.json"))
    new = json.loads(json.dumps(old))
    del new["summary"]["gfp-mid"]
    lines, ok = bench.compare(old, new, bench.load_benchmark())
    assert not ok
    assert "gfp-mid: 0 runs with a result in NEW, 2 in OLD" in lines
    assert "gfp-mid:" not in lines and "qq-growth:" in lines


def test_compare_flags_a_workload_with_fewer_results(tmp_path, capsys):
    """One run of qq-growth printed no result line, so NEW's summary rests
    on 1 run where OLD's rests on 2: compare names it and exits 1."""
    old = bench.load_json(os.path.join(DATA, "bench_old.json"))
    new = json.loads(json.dumps(old))
    new["runs"][1]["result"] = None
    new["summary"] = bench.summarize(new["runs"])
    (tmp_path / "new.json").write_text(json.dumps(new), encoding="utf-8")
    code = bench.main(["--compare", os.path.join(DATA, "bench_old.json"),
                       str(tmp_path / "new.json")])
    assert code == 1
    assert "qq-growth: 1 runs with a result in NEW, 2 in OLD" in capsys.readouterr().out


def test_arguments_name_one_mode(tmp_path, capsys):
    """Either ``--label L`` or ``--compare OLD NEW``, and two files whose
    run length or seeds differ are refused."""
    old = bench.load_json(os.path.join(DATA, "bench_old.json"))
    for key, value in (("seconds", 20), ("seeds", [1])):
        (tmp_path / "other.json").write_text(json.dumps({**old, key: value}), encoding="utf-8")
        with pytest.raises(SystemExit):
            bench.main(["--compare", os.path.join(DATA, "bench_old.json"),
                        str(tmp_path / "other.json")])
        assert f"different {key}" in capsys.readouterr().err
    for argv in ([], ["--compare", "a.json"], ["--label", "x", "--compare", "a", "b"],
                 ["--label", "x", "--seeds", "1"]):
        with pytest.raises(SystemExit):
            bench.main(argv)
