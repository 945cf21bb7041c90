"""Every function the benchmark hooks still exists where it looks it up.

`perfbench` patches pclc functions by module and name, and records a target
it cannot find as absent instead of failing, so a rename would quietly turn
a layer's timings into zeros. This test fails on such a rename instead. The
benchmark's modules are loaded by path, as they are, with their plain-name
imports of each other.
"""

import importlib.util
import os
import sys

import pytest

from conftest import REPO_ROOT

PERFBENCH = os.path.join(REPO_ROOT, "perfbench")

# hooks on the B=1 CRF wrappers, gone since the CRF became one batched op;
# the benchmark reports them under `absent` until its hook table moves to
# the batched functions
STALE = {("pclc.trainer", "crf_nll"), ("pclc.model", "viterbi_decode")}


@pytest.fixture()
def perfbench(monkeypatch):
    modules = {}
    for name in ("tracer", "checks", "workloads"):  # workloads imports the other two
        spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules


class _Recorder:
    """A `Patcher` stand-in that records what it is asked to patch."""

    def __init__(self):
        self.targets = []

    def patch(self, owner, attr, make_wrapper):
        self.targets.append((owner, attr))
        return True


def test_every_benchmark_hook_target_resolves(perfbench):
    tracer = perfbench["tracer"]
    step_log = _Recorder()
    perfbench["workloads"].StepLog().install(step_log)
    assert step_log.targets == [("pclc.optim:Adam", "step"), ("pclc.trainer", "total_loss")]

    targets = [(owner, attr) for owner, attr, _ in tracer.TRACE_TARGETS] + step_log.targets
    missing = {
        (owner, attr) for owner, attr in targets
        if not callable(getattr(tracer.resolve_owner(owner), attr, None))
    }
    assert missing <= STALE, sorted(missing - STALE)

