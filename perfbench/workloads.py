"""The three benchmark workloads: train-small, train-paper, predict-paper.

Each runs closed loop with one caller in this process, through pclc's
public API. `run_workload` returns the result object `run.py` prints.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy as np

from checks import checked_loss_call, loss_part_problems, prediction_problems
from tracer import Patcher, Tracer

TARGET = "bus"
BATCH = 64
SETUP_REPEATS = 5  # set-up runs at least this often and for at least
SETUP_SECONDS = 1.0  # this long, before the measured loop and again after it
VALIDATION_SIZE = 500  # the CLI default; the bus domain has 60 utterances, so 30
PROBLEMS_KEPT = 20
WARM_UP_BATCHES = 4  # predict batches run before timing starts

SMALL_DIMS = dict(
    word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
    entity_hidden=24, proto_dim=24, lr=0.01, dropout=0.1,
)
PAPER_DIMS: dict = {}  # TrainConfig defaults are the paper's setup

# Epochs per timed train_run. Early stopping is off (patience > epochs), so
# every train_run does the same steps.
TRAIN_EPOCHS = {"train-small": 4, "train-paper": 2}
# predict-paper's model: trained briefly at a rate where it emits spans.
FIXTURE_LR = 0.005
FIXTURE_EPOCHS = 4
FIXTURE_TIMEOUT_S = 120

# Highest percentile with at least ten samples beyond it at the default
# run length (see README.md for the sample counts).
TAIL_PERCENTILE = {"train-small": 95, "train-paper": 80, "predict-paper": 95}

RECORD_KINDS = (
    "add", "sub", "mul", "div", "matmul", "transpose", "concat", "reshape",
    "slice_cols", "take_rows", "sum", "tanh", "sigmoid", "relu", "exp", "log",
    "sqrt", "xlogx", "embedding_lookup", "dropout", "log_sum_exp", "log_softmax",
)


@dataclasses.dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def fail(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.problems.extend(problems[: max(0, PROBLEMS_KEPT - len(self.problems))])


def final_epoch_loss(log_lines: list[str], config) -> float:
    """Mean total loss of the last epoch, from `train_run`'s log line of
    per-term means (crf + pc + kl_weight * kl with both losses enabled)."""
    fields = dict(f.split("=", 1) for f in log_lines[-1].split("\t"))
    return float(fields["crf"]) + float(fields["pc"]) + config.kl_weight * float(fields["kl"])


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def repeat_setup(setup):
    """Run `setup` at least SETUP_REPEATS times and for at least SETUP_SECONDS.
    Returns the last repeat's result and every repeat's per-call seconds.

    Each workload calls this before its measured loop and again after it,
    so `setup_s` samples the host at two moments some 30 s apart: the
    host's speed drifts over seconds, and one window sees one moment of it.
    """
    times: list[dict] = []
    result = None
    stop = time.perf_counter() + SETUP_SECONDS
    while len(times) < SETUP_REPEATS or time.perf_counter() < stop:
        result = None  # release the previous repeat's result first
        result, t = setup()
        times.append(t)
    return result, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def step_metrics(step_ms: list[float], tail_q: float) -> tuple[dict, dict]:
    """p50 and tail of per-step (or per-batch) times, and the record of how
    the tail was taken."""
    tail = percentile(step_ms, tail_q)
    metrics = {"step_ms_p50": (percentile(step_ms, 50), "ms"), "step_ms_tail": (tail, "ms")}
    info = {
        "tail_percentile": tail_q,
        "step_samples": len(step_ms),
        "samples_beyond_tail": sum(1 for s in step_ms if s > tail),
    }
    return metrics, info


def setup_metrics(setup_times: list[dict]) -> tuple[tuple, dict]:
    """`setup_s` (median total over repeats) and the median seconds per call."""
    total = median(sum(t.values()) for t in setup_times)
    per_call = {k: median(t[k] for t in setup_times) for k in setup_times[0]}
    return (total, "s"), per_call


def run_workload(name: str, root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if name == "predict-paper":
        return run_predict(root, seed, seconds, trace, smoke)
    return run_train(name, root, seed, seconds, trace, smoke)


# ---------------------------------------------------------------------------
# training workloads


def train_setup(root: str, word_dim: int, seed: int):
    """What `pclc train` does before training: corpus, vocab, embeddings,
    leave-one-domain-out split. Returns (data, per-call seconds)."""
    from pclc.data import build_vocab, load_corpus, load_embeddings, split_leave_one_out

    (corpus, schema), t_corpus = timed(load_corpus, os.path.join(root, "data", "transfer"))
    vocab, t_vocab = timed(build_vocab, corpus, schema)
    table, t_emb = timed(load_embeddings, None, vocab, word_dim, seed)
    split, t_split = timed(
        split_leave_one_out, corpus, schema, TARGET, seed, validation_size=VALIDATION_SIZE
    )
    times = {
        "data.load_corpus": t_corpus,
        "data.build_vocab": t_vocab,
        "data.load_embeddings": t_emb,
        "data.split": t_split,
    }
    return (schema, vocab, table.matrix, split), times


class StepLog:
    """Always-on light hooks: a timestamp after each `Adam.step`, and a check
    that each `total_loss` call's terms are finite and >= 0. The first
    `total_loss` call also runs the CRF check against the numpy forward
    algorithm."""

    def __init__(self):
        self.ends: list[float] = []
        self.problems: list[str] = []
        self.check_pending = True

    def install(self, patcher: Patcher) -> None:
        def wrap_step(original):
            def step(adam):
                original(adam)
                self.ends.append(time.perf_counter())

            return step

        def wrap_loss(original):
            def loss(batch, model, config, rng):
                if self.check_pending:
                    self.check_pending = False
                    result, problems = checked_loss_call(
                        model, batch, config.crf_weight,
                        lambda: original(batch, model, config, rng),
                    )
                    self.problems.extend(problems)
                else:
                    result = original(batch, model, config, rng)
                self.problems.extend(loss_part_problems(result[1]))
                return result

            return loss

        for owner, attr, wrap in (
            ("pclc.optim:Adam", "step", wrap_step),
            ("pclc.trainer", "total_loss", wrap_loss),
        ):
            if not patcher.patch(owner, attr, wrap):
                raise RuntimeError(f"benchmark hook target {owner}.{attr} is missing")


def run_train(name: str, root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from pclc.trainer import TrainConfig, train_run

    epochs = 1 if smoke else TRAIN_EPOCHS[name]
    dims = SMALL_DIMS if name == "train-small" else PAPER_DIMS
    config = TrainConfig(
        **dims, batch_size=BATCH, max_epochs=epochs, patience=epochs + 1, seed=seed
    )
    setup = functools.partial(train_setup, root, config.word_dim, seed)
    (schema, vocab, matrix, split), setup_times = repeat_setup(setup)

    outcome = Outcome()
    log = StepLog()
    tracer = Tracer()
    units: list[dict] = []

    def unit(cfg, traced: bool) -> dict:
        first_step = len(log.ends)
        tracer.unit = len(units)
        t0 = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("trainer.train_run"):
                trained = train_run(split, schema, vocab, matrix, cfg)
        else:
            trained = train_run(split, schema, vocab, matrix, cfg)
        t1 = time.perf_counter()
        ends = log.ends[first_step:]
        bounds = [t0] + ends[:-1] + [t1]
        return {
            "traced": traced,
            "wall": t1 - t0,
            "steps": len(ends),
            "step_s": [b - a for a, b in zip(bounds, bounds[1:])],
            "final_loss": final_epoch_loss(trained.log_lines, cfg),
        }

    patcher = Patcher()
    try:
        log.install(patcher)
        # warm-up, untimed: one epoch; its first batch runs the CRF check
        unit(dataclasses.replace(config, max_epochs=1, patience=2), traced=False)
        deadline = time.perf_counter() + seconds
        while len(units) < (2 if trace else 1) or time.perf_counter() < deadline:
            units.append(unit(config, traced=trace and len(units) % 2 == 1))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome.attempted += 1
        outcome.fail([f"train_run raised: {traceback.format_exc(limit=1).strip()}"])
        units.clear()
    finally:
        patcher.restore()
    outcome.attempted += len(log.ends)
    outcome.fail(log.problems)
    if not units:
        return result(outcome, {}, {})
    losses = {u["final_loss"] for u in units}
    if len(losses) > 1:
        outcome.fail([f"train_run is not deterministic: final losses {sorted(losses)}"])

    rss = peak_rss_mb()
    setup_times += repeat_setup(setup)[1]
    n_utts = epochs * len(split.train)
    plain = [u for u in units if not u["traced"]]
    steps, info = step_metrics([1000 * s for u in plain for s in u["step_s"]], TAIL_PERCENTILE[name])
    setup_s, per_call = setup_metrics(setup_times)
    info.update(
        train_runs=len(plain), epochs_per_run=epochs, steps_per_run=units[0]["steps"],
        setup_repeats=len(setup_times),
    )
    metrics = {
        "setup_s": setup_s,
        "utt_per_s": (median(n_utts / u["wall"] for u in plain), "utt/s"),
        **steps,
        "final_loss": (units[0]["final_loss"], "nats"),
        "peak_rss_mb": (rss, "MB"),
    }
    layer = {}
    if trace:
        traced_units = [u for u in units if u["traced"]]
        layer = per_layer_metrics(
            tracer,
            n_units=sum(u["steps"] for u in traced_units),
            per_call=per_call,
            overhead=median(u["wall"] for u in traced_units) / median(u["wall"] for u in plain),
        )
        info["trace"] = tracer.dump()
    return result(outcome, metrics, layer, info)


# ---------------------------------------------------------------------------
# prediction workload


def train_fixture(root: str, seed: int, epochs: int, directory: str) -> None:
    """Train predict-paper's model and write it with `save_checkpoint`.

    Runs in a child process so the training tape does not count toward the
    prediction process's peak RSS.
    """
    from pclc.trainer import TrainConfig, save_checkpoint, train_run

    config = TrainConfig(
        **PAPER_DIMS, lr=FIXTURE_LR, batch_size=BATCH, max_epochs=epochs,
        patience=epochs + 1, seed=seed,
    )
    (schema, vocab, matrix, split), _ = train_setup(root, config.word_dim, seed)
    trained = train_run(split, schema, vocab, matrix, config)
    _, t_save = timed(save_checkpoint, trained.checkpoint, os.path.join(directory, "checkpoint"))
    with open(os.path.join(directory, "fixture.json"), "w", encoding="utf-8") as fh:
        json.dump({"save_checkpoint_s": t_save, "log": trained.log_lines}, fh)


def train_fixture_in_child(root: str, seed: int, epochs: int, directory: str) -> None:
    """Run `train_fixture` in a fresh interpreter and wait for it to end.

    `subprocess.run` kills and reaps the child if this process is
    interrupted, and starts no helper process that could outlive the run.
    """
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; from workloads import train_fixture; "
        "train_fixture(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6])"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    args = [here, os.path.join(root, "src"), root, str(seed), str(epochs), directory]
    subprocess.run(
        [sys.executable, "-c", code, *args], stdout=sys.stderr, check=True,
        timeout=FIXTURE_TIMEOUT_S,
    )


def predict_setup(root: str, checkpoint_dir: str):
    """What `pclc eval` does before predicting: corpus, vocab, checkpoint,
    model. Returns ((model, config), per-call seconds)."""
    from pclc.data import build_vocab, load_corpus
    from pclc.trainer import load_checkpoint, model_from_checkpoint

    (corpus, schema), t_corpus = timed(load_corpus, os.path.join(root, "data", "transfer"))
    vocab, t_vocab = timed(build_vocab, corpus, schema)
    ckpt, t_load = timed(load_checkpoint, checkpoint_dir)
    (model, config), t_model = timed(model_from_checkpoint, ckpt, schema, vocab)
    times = {
        "data.load_corpus": t_corpus,
        "data.build_vocab": t_vocab,
        "trainer.load_checkpoint": t_load,
        "trainer.model_from_checkpoint": t_model,
    }
    return (model, config), times


def predict_inputs(seed: int) -> list:
    """Utterances of all four domains from the corpus generator, shuffled."""
    from pclc.rng import make_rng
    from pclc.synthetic import transfer_utterances

    pool = transfer_utterances(seed)
    order = make_rng(seed).permutation(len(pool))
    return [pool[i] for i in order]


def run_predict(root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    work = os.path.join(root, ".bench_out", f"predict-paper-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return predict_in(work, root, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def predict_in(work: str, root: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """predict-paper with its fixture checkpoint kept under `work`."""
    from pclc.autodiff import Tape
    from pclc.evaluate import SpanPrediction, span_f1
    from pclc.rng import make_rng
    from pclc.tagger import gold_spans
    from pclc.trainer import total_loss

    train_fixture_in_child(root, seed, 1 if smoke else FIXTURE_EPOCHS, work)
    with open(os.path.join(work, "fixture.json"), encoding="utf-8") as fh:
        fixture = json.load(fh)
    setup = functools.partial(predict_setup, root, os.path.join(work, "checkpoint"))
    (model, config), setup_times = repeat_setup(setup)

    pool = predict_inputs(seed)
    n = len(pool)
    cycle = n // math.gcd(n, BATCH)  # batches before the sequence repeats
    protos = model.prototypes()
    candidates = {d: protos.candidate_rows(d)[1] for d in model.schema.domains}

    outcome = Outcome()
    tracer = Tracer()
    batches: list[dict] = []
    first_seen: dict[int, list] = {}
    deadline = math.inf
    while True:
        i = len(batches)
        warm = i < WARM_UP_BATCHES
        if i == WARM_UP_BATCHES:
            deadline = time.perf_counter() + seconds
        positions = [(i * BATCH + k) % n for k in range(BATCH)]
        chunk = [pool[p] for p in positions]
        traced = trace and not warm and i % 2 == 1
        tracer.unit = i
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.span("predict.batch"):
                    predicted = model.predict(chunk, batch_size=BATCH)
            else:
                predicted = model.predict(chunk, batch_size=BATCH)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome.attempted += len(chunk)
            outcome.fail([f"predict raised: {traceback.format_exc(limit=1).strip()}"])
            return result(outcome, {}, {})
        t1 = time.perf_counter()
        batches.append({"warm": warm, "traced": traced, "s": t1 - t0})
        outcome.attempted += len(chunk)
        if i < cycle:
            first_seen[i] = predicted
        elif predicted != first_seen[i % cycle]:
            outcome.fail([f"batch {i} differs from identical batch {i % cycle}"])
        for utt, spans in zip(chunk, predicted):
            outcome.fail(prediction_problems(utt, spans, candidates[utt.domain]))
        if i >= WARM_UP_BATCHES + 3 and t1 >= deadline:
            break
    # read before the second set-up window, which reloads the model while
    # this one is alive, and the CRF check, whose taped forward pass keeps
    # every intermediate alive: either would set the prediction's peak
    rss = peak_rss_mb()
    setup_times += repeat_setup(setup)[1]
    first_batch = pool[:BATCH]
    with Tape():
        _, problems = checked_loss_call(
            model, first_batch, config.crf_weight,
            lambda: total_loss(first_batch, model, config, make_rng(seed)),
        )
    outcome.fail(problems)

    predictions: dict[int, list] = {}
    for i in sorted(first_seen):
        for k, spans in enumerate(first_seen[i]):
            predictions.setdefault((i * BATCH + k) % n, spans)
    missing = [p for p in range(n) if p not in predictions]
    if missing:  # short runs: finish the pool untimed so F1 covers it all
        for p, spans in zip(missing, model.predict([pool[p] for p in missing], BATCH)):
            predictions[p] = spans
    gold = [{SpanPrediction(s, e, slot) for s, e, slot in gold_spans(u)} for u in pool]
    report, t_f1 = timed(span_f1, gold, [set(predictions[p]) for p in range(n)])

    plain_s = [b["s"] for b in batches if not (b["warm"] or b["traced"])]
    steps, info = step_metrics([1000 * s for s in plain_s], TAIL_PERCENTILE["predict-paper"])
    info.update(
        fixture_log=fixture["log"],
        predict_f1=report.f1,
        spans_per_utt=sum(len(s) for s in predictions.values()) / n,
        setup_repeats=len(setup_times),
    )
    setup_s, per_call = setup_metrics(setup_times)
    metrics = {
        "setup_s": setup_s,
        "utt_per_s": (BATCH * len(plain_s) / sum(plain_s), "utt/s"),
        **steps,
        "final_loss": (final_epoch_loss(fixture["log"], config), "nats"),
        "peak_rss_mb": (rss, "MB"),
    }
    layer = {}
    if trace:
        per_call["trainer.save_checkpoint"] = fixture["save_checkpoint_s"]
        per_call["evaluate.span_f1"] = t_f1
        traced_s = [b["s"] for b in batches if b["traced"]]
        layer = per_layer_metrics(
            tracer, n_units=len(traced_s), per_call=per_call,
            overhead=median(traced_s) / median(plain_s),
        )
        info["trace"] = tracer.dump()
    return result(outcome, metrics, layer, info)


# ---------------------------------------------------------------------------
# per-layer split and the result object


def per_layer_metrics(tracer: Tracer, n_units: int, per_call: dict, overhead: float) -> dict:
    """Per step (train) or per batch (predict) busy ms and counts from the
    traced units; setup-phase layers as ms per call."""
    busy, own = tracer.totals()
    counts = tracer.counts
    n = max(n_units, 1)

    def ms(span: str, table=busy) -> float:
        return 1000.0 * table[span] / n

    out = {
        "autodiff.backward_ms": (ms("autodiff.backward"), "ms"),
        "autodiff.records_per_step": (counts["autodiff.records"] / n, "count"),
    }
    for kind in RECORD_KINDS:
        out[f"autodiff.records.{kind}"] = (counts[f"autodiff.records.{kind}"] / n, "count")
    known = sum(counts[f"autodiff.records.{k}"] for k in RECORD_KINDS)
    out["autodiff.records.other"] = ((counts["autodiff.records"] - known) / n, "count")
    out["tagger.crf_nll_ms"] = (ms("tagger.crf_nll"), "ms")
    out["tagger.crf_nll_calls"] = (counts["tagger.crf_nll_calls"] / n, "count")
    out["tagger.encode_ms"] = (ms("tagger.encode"), "ms")
    for group in ("char", "word", "entity"):
        out[f"layers.run_lstm.{group}_ms"] = (ms(f"layers.run_lstm.{group}"), "ms")
    out["tagger.viterbi_ms"] = (ms("tagger.viterbi"), "ms")
    out["tagger.viterbi_calls"] = (counts["tagger.viterbi_calls"] / n, "count")
    out["classifier.predict_slot_type_ms"] = (ms("classifier.predict_slot_type"), "ms")
    out["classifier.predict_slot_type_calls"] = (
        counts["classifier.predict_slot_type_calls"] / n, "count"
    )
    utts = counts["tagger.utterances"]
    out["model.spans_per_utt"] = (counts["model.spans"] / utts if utts else 0.0, "count")
    for layer in ("emissions", "entity_representations", "prototypes"):
        out[f"model.{layer}_ms"] = (ms(f"model.{layer}"), "ms")
    out["trainer.loss_self_ms"] = (ms("trainer.total_loss", own), "ms")
    out["trainer.step_other_ms"] = (ms("trainer.train_run", own), "ms")
    out["trainer.validation_ms"] = (ms("trainer.validation"), "ms")
    out["trainer.snapshot_ms"] = (ms("trainer.snapshot"), "ms")
    out["optim.adam_ms"] = (ms("optim.adam"), "ms")
    out["optim.clip_ms"] = (ms("optim.clip"), "ms")
    padded = counts["tagger.padded_tokens"]
    out["tagger.live_token_ratio"] = (counts["tagger.live_tokens"] / padded if padded else 0.0, "ratio")
    for name in (
        "data.load_corpus", "data.build_vocab", "data.load_embeddings", "data.split",
        "trainer.save_checkpoint", "trainer.load_checkpoint", "evaluate.span_f1",
    ):
        if name in per_call:
            seconds = per_call[name]
        else:  # called inside the traced units, e.g. span_f1 in validation
            calls = counts[f"{name}_calls"]
            seconds = busy[name] / calls if calls else 0.0
        out[f"{name}_ms"] = (1000.0 * seconds, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def result(outcome: Outcome, metrics: dict, layer: dict, info: dict | None = None) -> dict:
    return {
        "outcome": outcome,
        "metrics": metrics,
        "per_layer": layer,
        "info": info or {},
    }
