"""Every function the benchmark hooks still exists where it looks it up.

`perfbench` patches pclc functions by module and name, and records a target
it cannot find as absent instead of failing, so a rename would quietly turn
a layer's timings into zeros. This test fails on such a rename instead. The
benchmark's modules are loaded by path, as they are, with their plain-name
imports of each other.
"""

import dataclasses
import importlib.util
import os
import sys

import pytest

import pclc.trainer
from conftest import DATA_DIR, REPO_ROOT, TOY_CONFIG
from pclc.data import build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.rng import make_rng

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



def test_every_trainer_hook_fires_in_a_training_run(perfbench, monkeypatch):
    # a hook resolves but times nothing once `train_run` stops looking its
    # target up in `pclc.trainer`, e.g. a moved function called through its
    # new module
    names = {
        attr for owner, attr, _ in perfbench["tracer"].TRACE_TARGETS
        if owner == "pclc.trainer" and (owner, attr) not in STALE
    } | {"total_loss"}
    calls = dict.fromkeys(names, 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(pclc.trainer, name, counting(name, getattr(pclc.trainer, name)))
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "overfit"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "kitchen", seed=3)
    config = dataclasses.replace(TOY_CONFIG, max_epochs=1, batch_size=16)
    matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(0))
    pclc.trainer.train_run(split, schema, vocab, matrix, config)
    assert len(calls) >= 5 and min(calls.values()) > 0, calls
