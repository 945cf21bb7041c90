"""`scripts/bench_pairs.py` keeps every finished pair when a run fails, keeps
each run's record, and its summary shows differences that 6 significant
digits hide and a verdict per metric."""

import importlib.util
import json
import os
import subprocess
import types

import numpy as np
import pytest

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


def test_summary_counts_identical_pairs_and_largest_relative_difference():
    loss = 0.123456789
    ulp_up = float(np.nextafter(loss, 1.0))

    def side(losses, speeds):
        return [{"correct": True, "metrics": {"final_loss": value, "utt_per_s": speed}}
                for value, speed in zip(losses, speeds)]

    runs = {
        "parent": side([loss, loss, loss], [100.0, 100.0, 100.0]),
        "change": side([loss, ulp_up, loss], [100.0, 110.0, 125.0]),
    }
    lines = bench_pairs.summary(runs, {"final_loss": "lower", "utt_per_s": "higher"})
    assert lines[1].split()[-2:] == ["same", "max|rel|"]
    rows = {line.split()[0]: line.split() for line in lines[2:]}
    # 6 significant digits print both losses alike; the last two columns do not
    assert rows["final_loss"][1] == rows["final_loss"][4] == "0.123457"
    assert rows["final_loss"][-2] == "2/3"
    assert float(rows["final_loss"][-1]) == pytest.approx((ulp_up - loss) / ulp_up, rel=0.01)
    assert rows["utt_per_s"][-2:] == ["1/3", "2.00e-01"]


def test_run_keeps_its_record_line(monkeypatch):
    record = json.dumps({"record": {"predict_f1": 0.5, "spans_per_utt": 1.25}})
    outcomes = [f"{record}\n{GOOD}", GOOD]
    monkeypatch.setattr(bench_pairs.subprocess, "run", _fake_runs(outcomes))
    res = bench_pairs.run_once("tree", "predict-paper", 1, 3.0)
    assert res["record"] == {"predict_f1": 0.5, "spans_per_utt": 1.25}
    assert res["metrics"] == {"utt_per_s": 100.0}
    assert bench_pairs.run_once("tree", "predict-paper", 1, 3.0)["record"] == {}


def test_summary_counts_pairs_with_identical_record_keys():
    def side(f1s, spans):
        return [{"correct": True, "metrics": {"utt_per_s": 100.0},
                 "record": {"predict_f1": f1, "spans_per_utt": n}}
                for f1, n in zip(f1s, spans)]

    runs = {
        "parent": side([0.5, 0.25, 0.75], [1.0, 1.5, 2.0]),
        "change": side([0.5, 0.25, 0.7500000000000001], [1.0, 1.5, 2.0]),
    }
    runs["change"].append({"correct": False, "metrics": {}, "error": "boom"})
    runs["parent"].append({"correct": True, "metrics": {}, "record": {"predict_f1": 0.5}})
    lines = bench_pairs.summary(runs, {"utt_per_s": "higher"})
    assert lines[-2:] == [
        "record predict_f1: 2/3 pairs identical",
        "record spans_per_utt: 3/3 pairs identical",
    ]
    train = {side: [{"correct": True, "metrics": {"utt_per_s": 1.0}, "record": {}}]
             for side in ("parent", "change")}
    assert not any(line.startswith("record") for line in bench_pairs.summary(train, {}))


def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parents_iqr():
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]

    def judged(change, direction="higher", drop=0):
        runs = {side: [{"correct": True, "metrics": {"m": v}} for v in values]
                for side, values in (("parent", parent), ("change", change))}
        for run in runs["change"][:drop]:  # failed runs: no metric, no win
            run.update(correct=False, metrics={})
        row = bench_pairs.summary(runs, {"m": direction})[2].split()
        return row[-3]

    faster = [v + 10.0 for v in parent]  # the parent's IQR is 4.5
    assert judged(faster) == "gain"
    assert judged(faster, "lower") == "worse"
    assert judged(faster[:9] + [parent[9]]) == "gain"  # 9 wins and a tie
    assert judged(faster[:8] + parent[8:]) == "unresolved"  # 8 wins, 2 ties
    assert judged(faster, drop=2) == "unresolved"  # 8 wins of the 10 pairs run
    assert judged([v + 3.0 for v in parent]) == "unresolved"  # 10 wins, gap 3 < IQR
    assert judged([v - 10.0 for v in parent]) == "worse"
