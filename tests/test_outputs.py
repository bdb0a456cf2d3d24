"""Output bytes of ``decide`` and ``construct`` on a recorded slice of the
benchmark jobs (``tests/outputs.py`` checks all of them), and a recorded run
of every subcommand in the manifest."""

import json

import outputs
from quadsum import cli
from quadsum.serialize import field_from_json, matrix_from_rows


def test_recorded_slice_gives_the_same_output_bytes(tmp_path):
    """The slice covers every workload, field and size of the benchmark, and
    the hand-made jobs with their own params; its inputs are stored with the
    digests, so the slice does not depend on ``perfbench/gen.py``."""
    with open(outputs.SLICE, encoding="utf-8") as fh:
        recorded = json.load(fh)["jobs"]
    assert {(job["workload"], json.dumps(job["field"])) for job in recorded} == {
        ("roundtrip-small", '"Q"'), ("roundtrip-small", '{"GF": 2}'),
        ("roundtrip-small", '{"GF": 5}'), ("qq-growth", '"Q"'),
        ("gfp-mid", '{"GF": 5}'), ("gfp-mid", '{"GF": 101}'), ("hand-made", '"Q"'),
        ("hand-made", '{"GF": 5}')}
    differ = [(k, command) for k, job in enumerate(recorded)
              for command, got in outputs.job_outputs(job, str(tmp_path)).items()
              if got != job[command]]
    assert differ == []


def test_recorded_inputs_give_the_same_frobenius_and_certificate():
    """The slice's rational inputs with non-integer entries and its GF(2)
    and GF(3) inputs at a packed size: the digests of (F, T), and of A for
    the inputs that construct, are the recorded ones."""
    with open(outputs.SLICE, encoding="utf-8") as fh:
        recorded = json.load(fh)["inputs"]
    assert {(entry["section"], json.dumps(entry["field"])) for entry in recorded} == {
        ("rational", '"Q"'), ("packed", '{"GF": 2}'), ("packed", '{"GF": 3}')}
    differ = []
    for entry in recorded:
        m = matrix_from_rows(field_from_json(entry["field"]), entry["rows"])
        got = outputs.input_outputs(m, "A" in entry)
        if got != {what: entry[what] for what in got}:
            differ.append(entry["key"])
    assert differ == []


def test_differences_name_each_entry():
    recorded = {"jobs": {"a": {"decide": "1", "construct": "2"}, "b": {"decide": "3"}},
                "wide": {"w": {"A": "4"}}, "hand": {"h": {"classify": "5"}}}
    now = {"jobs": {"a": {"decide": "1", "construct": "9"}, "c": {"decide": "3"}},
           "wide": {"w": {"A": "4"}}, "hand": {"h": {"classify": "6"}}}
    assert outputs.differences(recorded, now) == [
        ("jobs", "a", "construct"), ("jobs", "b", "decide"), ("jobs", "c", "decide"),
        ("hand", "h", "classify")]


def recorded_commands(manifest):
    """Every command that the manifest holds a run of: the output names of
    the job sections, and the first word of each edge key."""
    return ({command for section in ("jobs", "hand") for outs in manifest[section].values()
             for command in outs} | {key.split()[0] for key in manifest["edges"]})


def test_every_subcommand_has_a_recorded_run():
    """A subcommand whose output bytes no manifest entry pins could change
    them unseen by ``outputs.py --check``."""
    with open(outputs.MANIFEST, encoding="utf-8") as fh:
        recorded = recorded_commands(json.load(fh))
    parser = cli.build_parser()
    commands = next(a.choices for a in parser._actions if a.choices)
    assert set(commands) - recorded == set()
