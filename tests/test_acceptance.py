"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 5 and 6 train on
the bundled corpora under data/ and are the slow part (a few minutes total
on one CPU core).
"""

import dataclasses
import os
import time

import numpy as np

import oracles
from conftest import DATA_DIR, crf_nll_one, viterbi_one
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.classifier import (
    confusion_loss,
    confusion_targets,
    contrastive_loss,
    prototype_scores,
    smooth_distributions,
)
from pclc.checkpoint import model_from_checkpoint
from pclc.cli import main
from pclc.config import TrainConfig
from pclc.data import SlotSchema, Utterance, build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.evaluate import span_f1
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.tagger import CrfLayer
from pclc.trainer import evaluate_split, loss_components, train_run

from test_classifier import _protos_from_matrix
from test_evaluate import _random_prediction_sets


def _report(criterion: str) -> None:
    print(f"\n[ACCEPTANCE] {criterion}: PASS")


def test_criterion_1_crf_oracle_equivalence():
    start = time.time()
    rng = make_rng(101)
    for i in range(200):
        T = int(rng.integers(1, 7))
        emis = rng.uniform(-2.0, 2.0, (T, 3))
        crf = CrfLayer(make_rng(0))  # its own generator: the loop's draws stay as they were
        crf.transitions.values = rng.uniform(-1.5, 1.5, (3, 3))
        crf.start.values = rng.uniform(-1.5, 1.5, 3)
        crf.end.values = rng.uniform(-1.5, 1.5, 3)
        gold = [int(g) for g in rng.integers(0, 3, T)]

        nll = crf_nll_one(Tensor(emis), gold, crf).item()
        log_z = oracles.brute_force_log_partition(
            emis, crf.transitions.values, crf.start.values, crf.end.values
        )
        gold_score = oracles.crf_path_score(
            emis, crf.transitions.values, crf.start.values, crf.end.values, gold
        )
        assert abs(nll - (log_z - gold_score)) < 1e-9, f"instance {i}"

        best = viterbi_one(emis, crf)
        brute = oracles.brute_force_best_path(
            emis, crf.transitions.values, crf.start.values, crf.end.values
        )
        assert best == brute, f"instance {i}"
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report("criterion 1 (CRF forward/Viterbi vs exhaustive enumeration, 200 instances)")


def _toy_gradcheck_setup():
    """Tiny two-domain corpus: exactly 20 word types, 3 source + 2 target slots."""
    def utt(domain, i, tokens, tags):
        bio = ["O" if t is None else "B" for t in tags]
        return Utterance(tokens, bio, tags, domain, f"{domain}:{i}")

    alpha = [
        utt("alpha", 0, ["the", "red", "box"], [None, "color_tag", None]),
        utt("alpha", 1, ["a", "tall", "crate"], [None, "size_tag", None]),
        utt("alpha", 2, ["round", "tin", "on", "mat"], ["shape_tag", None, None, None]),
    ]
    beta = [utt("beta", 0, ["sweet", "hum"], ["taste_tag", "sound_tag"])]
    corpus = alpha + beta
    schema = SlotSchema.from_corpus(corpus)
    vocab = build_vocab(corpus, schema)
    assert vocab.n_words == 20, vocab.n_words
    config = TrainConfig(
        dropout=0.0, temperature=0.7, confusion_lambda=0.6, kl_weight=0.8,
        word_dim=5, char_dim=2, char_hidden=2, hidden=3, layers=1,
        entity_hidden=3, proto_dim=8,
    )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(11))
    model = PclcModel(schema, "beta", vocab, word_matrix, config, make_rng(12))
    protos = model.prototypes()
    assert len(protos.source_labels) == 3
    assert len(protos.target_labels) == 2
    return model, alpha, config


def test_criterion_2_gradient_correctness():
    start = time.time()
    model, batch, config = _toy_gradcheck_setup()
    params = model.named_parameters()
    names = list(params)
    arrays = [params[n].values for n in names]
    term_names = ["crf", "pc", "kl", "total"]

    def losses():
        with Tape():
            terms = loss_components(batch, model, config, rng=None)
            return tuple(terms[t].item() for t in term_names)

    # 5-point rule: plain central differences at eps=1e-4 carry ~1e-6
    # truncation error through the confusion chain's curvature
    fd = oracles.finite_difference_grads(losses, arrays, eps=1e-4, five_point=True)

    # backward consumes its tape, so each term gets its own forward; with
    # dropout off and no rng the forwards are identical
    analytic: dict[str, list[np.ndarray]] = {}
    for t in term_names:
        model.zero_grad()
        with Tape() as tape:
            ad.backward(loss_components(batch, model, config, rng=None)[t], tape)
            analytic[t] = [
                params[n].grad.copy() if params[n].grad is not None else np.zeros_like(params[n].values)
                for n in names
            ]

    worst = 0.0
    for k, t in enumerate(term_names):
        for j, name in enumerate(names):
            err = oracles.relative_error(analytic[t][j], fd[k][j])
            worst = max(worst, err)
            assert err < 1e-6, f"{t} gradient of {name}: rel err {err:.2e}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    n_params = sum(a.size for a in arrays)
    _report(
        f"criterion 2 (grad check of crf/pc/kl/total over {n_params} params, "
        f"worst rel err {worst:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_3_distribution_invariants():
    rng = make_rng(103)
    lambdas = [0.0, 0.3, 0.6, 1.0]
    for i in range(1000):
        n_src = int(rng.integers(1, 5))
        n_tgt = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 5))
        matrix = rng.uniform(-1.0, 1.0, (n_src + n_tgt, dim))
        # keep rows away from zero norm
        matrix += 0.1 * np.sign(matrix)
        protos = _protos_from_matrix(matrix, n_src, n_tgt)
        y = int(rng.integers(n_src))
        # the batched target and smoothing functions on a batch of one gold row
        d_tgt = confusion_targets(matrix[[y]], matrix[n_src:])
        lam = lambdas[i % 4]
        values = smooth_distributions([y], d_tgt, lam, n_src)
        assert (values >= -1e-15).all()
        assert abs(values.sum() - 1.0) < 1e-12
        r = rng.uniform(-1.0, 1.0, dim)
        scores = prototype_scores(Tensor(r[None]), protos)
        kl = confusion_loss(scores, [y], [0], protos, lam).item()
        assert kl >= -1e-12
        # constructed matching pair: scores are the log of the smoothed target
        matching = Tensor(np.log(np.maximum(values, 1e-300)))
        match = confusion_loss(matching, [y], [0], protos, lam).item()
        assert abs(match) < 1e-12
    _report("criterion 3 (smoothed distributions valid, KL nonneg / zero on match, 1000 configs)")


def test_criterion_4_loss_formula_oracles():
    rng = make_rng(104)
    for _ in range(100):
        C = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 6))
        matrix = rng.uniform(-1.5, 1.5, (C, dim))
        n_src = max(1, C - int(rng.integers(1, C)))
        protos = _protos_from_matrix(matrix, n_src, C - n_src)
        r = rng.uniform(-1.5, 1.5, dim)
        y = int(rng.integers(C))
        tau = float(rng.uniform(0.2, 2.0))
        # the training losses on a batch of one entity
        scores = prototype_scores(Tensor(r[None]), protos)
        got_pc = contrastive_loss(scores, [y], tau).item()
        want_pc = oracles.mp_proto_contrastive(r, matrix, y, tau)
        assert abs(got_pc - want_pc) < 1e-10

        y_src = int(rng.integers(n_src))
        lam = float(rng.uniform(0.0, 1.0))
        got_kl = confusion_loss(scores, [y_src], [0], protos, lam).item()
        target = oracles.mp_smooth_target(matrix, y_src, n_src, lam)
        want_kl = oracles.mp_kl_confusion(r, matrix, target)
        assert abs(got_kl - want_kl) < 1e-10
    _report("criterion 4 (contrastive and KL losses vs 50-digit oracle, 100 instances)")


OVERFIT_CONFIG = dict(
    lr=0.02, batch_size=64, dropout=0.0, patience=15, max_epochs=60, seed=5,
    word_dim=24, char_dim=8, char_hidden=8, hidden=16, layers=1,
    entity_hidden=16, proto_dim=16,
)


def test_criterion_5_overfit_smoke():
    start = time.time()
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "overfit"))
    assert len(corpus) == 50
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "kitchen", seed=3)
    seen, unseen = split.seen_slots, split.unseen_slots
    assert len(unseen) == 2
    # memorization harness: early-stop on the training set itself
    split = dataclasses.replace(split, validation=split.train)
    cfg = TrainConfig(**OVERFIT_CONFIG)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(split, schema, vocab, wm, cfg)
    elapsed = time.time() - start
    assert result.checkpoint.best_val_f1 == 1.0, (
        f"training F1 {result.checkpoint.best_val_f1:.3f} after {len(result.log_lines)} epochs"
    )
    assert len(result.log_lines) <= 60
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(
        f"criterion 5 (training-set F1 = 1.0 at epoch {result.checkpoint.epoch}, {elapsed:.1f}s)"
    )


TRANSFER_CONFIG = dict(
    lr=0.01, batch_size=64, dropout=0.1, patience=15, max_epochs=30,
    word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
    entity_hidden=24, proto_dim=24,
)
TRANSFER_SEEDS = [1, 2, 3, 4, 5]


def _transfer_unseen_f1(corpus, schema, vocab, seed, enable_pcl, enable_lc):
    split = split_leave_one_out(corpus, schema, "bus", seed=seed)
    cfg = TrainConfig(seed=seed, enable_pcl=enable_pcl, enable_lc=enable_lc, **TRANSFER_CONFIG)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(split, schema, vocab, wm, cfg)
    model, _ = model_from_checkpoint(result.checkpoint, schema, vocab)
    return evaluate_split(model, split, cfg.batch_size).unseen_f1


def test_criterion_6_directional_transfer():
    start = time.time()
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=1)
    assert len(split.unseen_slots) >= 2
    full, ablated = [], []
    for seed in TRANSFER_SEEDS:
        full.append(_transfer_unseen_f1(corpus, schema, vocab, seed, True, True))
        ablated.append(_transfer_unseen_f1(corpus, schema, vocab, seed, False, False))
    mean_full = float(np.mean(full))
    mean_ablated = float(np.mean(ablated))
    elapsed = time.time() - start
    assert mean_full - mean_ablated >= 0.0, (
        f"unseen F1 mean: full {mean_full:.3f} vs ablated {mean_ablated:.3f} "
        f"(per-seed full {full}, ablated {ablated})"
    )
    assert elapsed < 900.0, f"took {elapsed:.1f}s"
    _report(
        f"criterion 6 (unseen F1 over 5 seeds: full {mean_full:.3f} >= ablated "
        f"{mean_ablated:.3f}, {elapsed:.0f}s)"
    )


def test_criterion_7_evaluator_oracle():
    rng = make_rng(107)
    for _ in range(50):
        gold, pred = _random_prediction_sets(rng, n_utts=15)
        report = span_f1(gold, pred)
        (tp, fp, fn), per_type = oracles.reference_span_counts(gold, pred)
        got = (
            sum(c.tp for c in report.per_type.values()),
            sum(c.fp for c in report.per_type.values()),
            sum(c.fn for c in report.per_type.values()),
        )
        assert got == (tp, fp, fn)
        assert {k: (c.tp, c.fp, c.fn) for k, c in report.per_type.items()} == {
            k: tuple(v) for k, v in per_type.items()
        }
    _report("criterion 7 (span scorer equals reference CoNLL scorer, 50 prediction sets)")


def test_criterion_8_cmd_train_determinism(tmp_path):
    out = os.path.join(tmp_path, "det")
    args = [
        "train", "--data-dir", os.path.join(DATA_DIR, "overfit"),
        "--target", "kitchen", "--seed", "3", "--output-dir", out,
        "--word-dim", "8", "--char-dim", "2", "--char-hidden", "2",
        "--hidden", "6", "--layers", "1", "--entity-hidden", "6", "--proto-dim", "8",
        "--max-epochs", "3", "--batch-size", "16", "--dropout", "0.3", "--lr", "0.01",
    ]
    assert main(args) == 0
    files = ["train_log.txt", "checkpoint/manifest.txt", "checkpoint/params.bin"]
    first = {f: open(os.path.join(out, f), "rb").read() for f in files}
    assert main(args) == 0
    for f in files:
        assert open(os.path.join(out, f), "rb").read() == first[f], f"{f} differs"
    _report("criterion 8 (repeated cmd_train byte-identical logs and checkpoints)")


def test_criterion_9_full_scale_runs_documented():
    # full SNIPS numbers are reference targets, not desk-scale assertions;
    # the repo must ship the run scripts and document the targets
    script = os.path.join(os.path.dirname(DATA_DIR), "scripts", "run_full_snips.sh")
    assert os.path.exists(script)
    script_text = open(script).read()
    readme = open(os.path.join(os.path.dirname(DATA_DIR), "README.md")).read()
    for value in ("42.82", "78.62", "17.38", "51.68"):
        assert value in readme or value in script_text, f"reference target {value} undocumented"
    _report("criterion 9 (full-scale run scripts shipped, reference targets documented)")
