"""Fast tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs in smoke mode (one epoch per train run, a one-epoch
fixture, a few predict batches) and must emit every metric BENCHMARK.json
names, with its unit.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def units_of(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload):
    res = workloads.run_workload(workload, ROOT, seed=3, seconds=0.5, trace=True, smoke=True)
    assert res["outcome"].failed == 0, res["outcome"].problems
    assert {k: u for k, (_, u) in res["metrics"].items()} == units_of("end_to_end")
    assert {k: u for k, (_, u) in res["per_layer"].items()} == units_of("per_layer")
    for value, _ in itertools.chain(res["metrics"].values(), res["per_layer"].values()):
        assert np.isfinite(value)
    assert res["info"]["trace"]["absent"] == []


def test_command_line_prints_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "train-small",
         "--seed", "2", "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units_of("end_to_end")


def test_incomplete_checkout_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_corrupted_crf_value_trips_the_check(monkeypatch):
    import pclc.autodiff as ad
    import pclc.trainer

    original = pclc.trainer.crf_nll

    def corrupted(emissions, gold_tags, crf):
        return ad.add(original(emissions, gold_tags, crf), ad.Tensor(1e-6))

    monkeypatch.setattr(pclc.trainer, "crf_nll", corrupted)
    res = workloads.run_workload("train-small", ROOT, seed=1, seconds=0.1, trace=False, smoke=True)
    assert res["outcome"].failed >= 1
    assert any(p.startswith("crf check") for p in res["outcome"].problems)


def test_crf_reference_matches_path_enumeration():
    rng = np.random.default_rng(0)
    emis, trans = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    start, end = rng.normal(size=3), rng.normal(size=3)

    def score(path):
        s = start[path[0]] + end[path[-1]] + sum(emis[t, y] for t, y in enumerate(path))
        return s + sum(trans[a, b] for a, b in zip(path, path[1:]))

    log_z = np.log(sum(np.exp(score(p)) for p in itertools.product(range(3), repeat=4)))
    gold = [1, 2, 0, 1]
    assert checks.crf_nll_reference(emis, gold, trans, start, end) == pytest.approx(
        log_z - score(gold), abs=1e-12
    )


def test_prediction_problems_catch_bad_spans():
    from pclc.data import Utterance
    from pclc.evaluate import SpanPrediction

    utt = Utterance(["a", "b", "c"], ["B", "I", "O"], ["x", "x", None], "d", "d:0")
    assert checks.prediction_problems(utt, [SpanPrediction(0, 1, "x")], ["x"]) == []
    overlap, unknown, outside = (0, 0, "x"), (2, 2, "y"), (3, 3, "x")
    for start, end, slot in (overlap, unknown, outside):
        spans = [SpanPrediction(0, 1, "x"), SpanPrediction(start, end, slot)]
        assert len(checks.prediction_problems(utt, spans, ["x"])) == 1


def test_missing_hook_target_is_reported_absent(monkeypatch):
    import pclc.trainer

    targets = tracer_mod.TRACE_TARGETS + [("pclc.trainer", "no_such_layer", "x.gone")]
    monkeypatch.setattr(tracer_mod, "TRACE_TARGETS", targets)
    original = pclc.trainer.crf_nll
    tr = tracer_mod.Tracer()
    with tr.installed():
        assert pclc.trainer.crf_nll is not original
    assert pclc.trainer.crf_nll is original
    assert tr.absent == {"pclc.trainer.no_such_layer"}


def test_traced_counts_repeat_exactly():
    def counts():
        res = workloads.run_workload("train-small", ROOT, seed=5, seconds=0.1, trace=True, smoke=True)
        return {
            k: v for k, (v, _) in res["per_layer"].items()
            if k.startswith(("tagger.crf_nll_calls", "autodiff.records"))
        }

    assert counts() == counts()
