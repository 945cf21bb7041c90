"""`scripts/bench_pairs.py` keeps every finished pair when a run fails."""

import importlib.util
import json
import os
import subprocess
import types

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(REPO_ROOT, "scripts", "bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

GOOD = json.dumps({"correct": True, "metrics": {"utt_per_s": {"value": 100.0}}})


def _fake_runs(outcomes):
    """A `subprocess.run` stand-in giving each call the next outcome: an
    exception to raise, or the stdout to print."""
    calls = iter(outcomes)

    def run(cmd, **kwargs):
        outcome = next(calls)
        if isinstance(outcome, Exception):
            raise outcome
        return types.SimpleNamespace(stdout=outcome, stderr="trace tail\n")

    return run


def test_timed_out_run_is_incorrect_with_its_stderr(monkeypatch):
    timeout = subprocess.TimeoutExpired(["x"], 330.0, stderr=b"slow\n")
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_runs([timeout]))
    res = bench_pairs.run_once("tree", "train-small", 1, 3.0)
    assert res == {
        "correct": False, "metrics": {}, "error": "timed out after 330 s", "stderr": "slow\n"
    }


def test_non_json_result_line_is_incorrect(monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_runs(["Traceback ...\nboom"]))
    res = bench_pairs.run_once("tree", "train-small", 1, 3.0)
    assert res["correct"] is False and res["metrics"] == {}
    assert res["error"].startswith("unreadable result line") and res["error"].endswith("boom")
    assert res["stderr"] == "trace tail\n"


def test_failed_runs_keep_the_other_pairs(monkeypatch, tmp_path, capsys):
    timeout = subprocess.TimeoutExpired(["x"], 330.0)
    outcomes = [GOOD, timeout, "not json", GOOD, GOOD, GOOD]
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_runs(outcomes))
    monkeypatch.setattr(bench_pairs, "extract", lambda ref, directory: None)
    out = os.path.join(tmp_path, "runs.json")
    assert bench_pairs.main(["--workload", "train-small", "--pairs", "3", "--out", out]) == 1
    with open(out, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    # pairs alternate which side runs first: parent, change, change, parent, ...
    assert [r["correct"] for r in runs["parent"]] == [True, True, True]
    assert [r["correct"] for r in runs["change"]] == [False, False, True]
    assert "correct runs: parent 3/3, change 1/3" in capsys.readouterr().out
