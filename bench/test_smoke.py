"""Smoke test of the benchmark itself, at reduced sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Runs every workload through fresh workers (traced and untraced), checks that
the exact counters repeat for the same seed, that corrupted responses are
counted as failures, and that the benchmark refuses to run without a source
tree.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from checks import Tally  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_checks_and_repeats(name):
    first = run.measure(name, 7, 0, True, "smoke", spans_dir=None)
    second = run.measure(name, 7, 0, True, "smoke", spans_dir=None)
    assert first["correct"] and first["failed"] == 0, first["problems"]
    assert first["attempted"] == 2 * len(workloads.build(name, 7, "smoke").jobs)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["counters"] == second["counters"]
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}

    untraced = run.measure(name, 7, 0, False, "smoke", spans_dir=None)
    assert untraced["correct"], untraced["problems"]
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in untraced["metrics"].values())


def _respond(job):
    from bgseq.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(job.argv)
    return code, out.getvalue(), err.getvalue()


def _first(name, kind, pick=lambda job: True):
    return next(j for j in workloads.build(name, 7, "smoke").jobs if j.kind == kind and pick(j))


def _edit_json(out, change):
    obj = json.loads(out)
    change(obj)
    return json.dumps(obj)


def _drop_edge(obj):
    obj["edges"].pop()


def _flip_verdict(obj):
    obj["verdict"] = "not-all-graphic" if obj["verdict"] == "all-graphic" else "all-graphic"


def _shift_failing_k(obj):
    obj["failing_k"] += 1


def _lower_last_entry(obj):
    obj["E"][-1] -= 1


CORRUPTIONS = [
    ("grid_verify", "class_verify", lambda j: j.expect["nonempty"], _flip_verdict),
    ("large_inputs", "realize", lambda j: True, _drop_edge),
    ("large_inputs", "pair", lambda j: not j.expect["graphic"], _shift_failing_k),
    ("large_inputs", "class", lambda j: True, _lower_last_entry),
]


@pytest.mark.parametrize("name,kind,pick,corrupt", CORRUPTIONS)
def test_corrupted_response_counts_as_failure(name, kind, pick, corrupt):
    job = _first(name, kind, pick)
    code, out, err = _respond(job)
    tally = Tally()
    assert tally.add(job, code, out, err), tally.messages
    assert not tally.add(job, code, _edit_json(out, corrupt), err)
    assert not tally.add(job, 3, out, "error: criterion disagrees with oracle")
    assert (tally.attempted, tally.failed) == (3, 2)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_response_that_changes_between_passes_counts_as_failure():
    jobs = workloads.build("grid_verify", 7, "smoke").jobs
    known = {0: ((0, b"a response from an earlier pass"), ([], ["all-graphic"]))}
    _, tally = run.run_pass(jobs, False, run.child_env(), None, known)
    assert (tally.attempted, tally.failed) == (len(jobs), 1)
    assert "differs from the first pass" in tally.messages[0]
