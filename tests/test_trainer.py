import dataclasses
import os

import numpy as np
import pytest

from conftest import TOY_DIMS, build_toy_model, damaged_manifest
from pclc import autodiff as ad
from pclc.autodiff import Tape
from pclc.data import build_vocab, random_embeddings
from pclc.errors import CheckpointError, ConfigError, TrainingDiverged
from pclc.rng import make_rng
from pclc.trainer import (
    TrainConfig,
    config_from_kv,
    config_to_kv,
    early_stop_check,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    total_loss,
    train_run,
)


def _toy_config(**overrides):
    base = dict(
        lr=0.01,
        batch_size=8,
        dropout=0.0,
        patience=50,
        max_epochs=3,
        seed=0,
        word_dim=TOY_DIMS.word_dim,
        char_dim=TOY_DIMS.char_dim,
        char_hidden=TOY_DIMS.char_hidden,
        hidden=TOY_DIMS.hidden,
        layers=TOY_DIMS.layers,
        entity_hidden=TOY_DIMS.entity_hidden,
        proto_dim=TOY_DIMS.proto_dim,
    )
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_kv_round_trip():
    cfg = _toy_config(confusion_lambda=0.4, enable_lc=False, max_epochs=None)
    pairs = dict(kv.split("=", 1) for kv in config_to_kv(cfg))
    again = config_from_kv(TrainConfig, pairs)
    assert again == cfg


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        config_from_kv(TrainConfig, {"learning_rate_typo": "0.1"})


def test_max_epochs_defaults_by_setting():
    assert TrainConfig().resolved_max_epochs() == 30
    assert TrainConfig(few_shot=50).resolved_max_epochs() == 60
    assert TrainConfig(few_shot=50, max_epochs=7).resolved_max_epochs() == 7


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_flag_semantics(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    batch = overfit_split.train[:6]
    rng = make_rng(0)
    with Tape():
        _, both = total_loss(batch, model, _toy_config(), rng)
    with Tape():
        _, baseline = total_loss(batch, model, _toy_config(enable_pcl=False, enable_lc=False), rng)
    assert baseline["kl"] == 0.0
    assert baseline["pc"] > 0.0  # cross-entropy term stands in
    assert baseline["total"] == pytest.approx(baseline["crf"] + baseline["pc"], abs=1e-12)
    with Tape():
        _, lc_only = total_loss(batch, model, _toy_config(enable_pcl=False), rng)
    assert lc_only["pc"] == 0.0
    assert lc_only["kl"] > 0.0
    assert both["kl"] > 0.0 and both["pc"] > 0.0


def test_total_loss_batch_without_entities(toy_model):
    model, vocab, corpus, schema = toy_model
    batch = [u for u in corpus if all(t == "O" for t in u.bio_tags)][:2]
    assert batch, "corpus must contain all-O utterances"
    with Tape():
        loss, parts = total_loss(batch, model, _toy_config(), make_rng(0))
    assert parts["pc"] == 0.0
    assert parts["kl"] == 0.0
    assert parts["total"] == pytest.approx(parts["crf"], abs=1e-15)


def test_total_loss_composes_from_terms(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    batch = overfit_split.train[:5]
    cfg = _toy_config(kl_weight=0.7, crf_weight=1.3)
    with Tape():
        _, parts = total_loss(batch, model, cfg, make_rng(0))
    assert parts["total"] == pytest.approx(
        parts["crf"] + parts["pc"] + 0.7 * parts["kl"], abs=1e-12
    )


def test_total_loss_kl_weight_scales_term(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    batch = overfit_split.train[:5]
    with Tape():
        _, p1 = total_loss(batch, model, _toy_config(kl_weight=1.0), make_rng(0))
    with Tape():
        _, p2 = total_loss(batch, model, _toy_config(kl_weight=2.0), make_rng(0))
    assert p1["kl"] == pytest.approx(p2["kl"], abs=1e-12)
    assert p2["total"] - p2["crf"] - p2["pc"] == pytest.approx(2.0 * p2["kl"], abs=1e-12)


def test_total_loss_empty_batch_errors(toy_model):
    model, vocab, corpus, schema = toy_model
    with pytest.raises(TrainingDiverged):
        with Tape():
            total_loss([], model, _toy_config(), make_rng(0))


def test_total_loss_nan_diagnostic_names_term(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    model.crf.transitions.values[:] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        with Tape():
            total_loss(overfit_split.train[:2], model, _toy_config(), make_rng(0))
    assert "crf" in str(err.value)


def test_reverse_kl_direction_runs(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    cfg = _toy_config(kl_direction="pred_to_smooth")
    with Tape() as tape:
        loss, parts = total_loss(overfit_split.train[:4], model, cfg, make_rng(0))
        ad.backward(loss, tape)
    assert np.isfinite(parts["kl"])


def test_source_only_contrast_block(toy_model, overfit_split):
    model, vocab, corpus, schema = toy_model
    cfg = _toy_config(contrast_block="source")
    with Tape() as tape:
        loss, parts = total_loss(overfit_split.train[:4], model, cfg, make_rng(0))
        ad.backward(loss, tape)
    assert parts["pc"] > 0.0


def _fewshot_batch(corpus, schema, overfit_split):
    from pclc.data import fewshot_select

    shot = fewshot_select(overfit_split, 4, seed=2)
    target_in_train = [u for u in shot.train if u.domain == "kitchen"]
    assert len(target_in_train) == 4
    # mix of source and few-shot target utterances with entities
    batch = overfit_split.train[:3] + target_in_train[:2]
    return shot, batch


def test_fewshot_target_entities_train_without_confusion_term(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    model, vocab = build_toy_model(corpus, schema, "kitchen", seed=2)
    _, batch = _fewshot_batch(corpus, schema, overfit_split)
    cfg = _toy_config(few_shot=4)
    with Tape() as tape:
        loss, parts = total_loss(batch, model, cfg, make_rng(0))
        ad.backward(loss, tape)
    assert parts["pc"] > 0.0
    assert np.isfinite(parts["total"])
    # target-only batch: the confusion term has no source entity to apply to
    target_only = [u for u in batch if u.domain == "kitchen"]
    model.zero_grad()
    with Tape() as tape:
        loss, parts = total_loss(target_only, model, cfg, make_rng(0))
        ad.backward(loss, tape)
    assert parts["kl"] == 0.0
    assert parts["pc"] > 0.0


def test_fewshot_with_source_contrast_keeps_target_gold_reachable(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    model, vocab = build_toy_model(corpus, schema, "kitchen", seed=2)
    _, batch = _fewshot_batch(corpus, schema, overfit_split)
    cfg = _toy_config(few_shot=4, contrast_block="source")
    with Tape() as tape:
        loss, parts = total_loss(batch, model, cfg, make_rng(0))
        ad.backward(loss, tape)
    assert np.isfinite(parts["pc"]) and parts["pc"] > 0.0


def test_fewshot_train_run_end_to_end(overfit_corpus, overfit_split):
    from pclc.data import build_vocab, fewshot_select, random_embeddings

    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    shot = fewshot_select(overfit_split, 4, seed=2)
    cfg = _toy_config(few_shot=4, max_epochs=2, batch_size=16)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(shot, schema, vocab, wm, cfg)
    assert len(result.log_lines) == 2


def test_parallel_evaluation_threads_match_serial(overfit_corpus, overfit_split):
    # read-shared inference: separate tapes per thread, no shared mutation
    import concurrent.futures

    corpus, schema = overfit_corpus
    model, vocab = build_toy_model(corpus, schema, "kitchen", seed=3)
    chunks = [overfit_split.test[:5], overfit_split.test[5:]]
    serial = [model.predict(c) for c in chunks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(model.predict, chunks))
    assert threaded == serial


# ---------------------------------------------------------------------------
# early stopping


def test_early_stop_worked_example():
    history = [0.5, 0.6, 0.6, 0.6]
    assert not early_stop_check(history[:2], 2)
    assert not early_stop_check(history[:3], 2)
    assert early_stop_check(history, 2)  # stop after the third 0.6


def test_early_stop_monotone_never_stops():
    history = [0.1, 0.2, 0.3, 0.4, 0.5]
    for i in range(1, len(history) + 1):
        assert not early_stop_check(history[:i], 1)


def test_early_stop_single_entry_continues():
    for patience in (0, 1, 15):
        assert not early_stop_check([0.7], patience)


def test_early_stop_patience_zero_stops_on_first_flat_epoch():
    assert early_stop_check([0.5, 0.5], 0)
    assert early_stop_check([0.5, 0.4], 0)
    assert not early_stop_check([0.5, 0.6], 0)


def test_early_stop_improvement_is_strict():
    assert early_stop_check([0.5, 0.5], 1)


# ---------------------------------------------------------------------------
# training loop


def test_train_run_is_deterministic(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    cfg = _toy_config(max_epochs=3, batch_size=16)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    r1 = train_run(overfit_split, schema, vocab, wm.copy(), cfg)
    r2 = train_run(overfit_split, schema, vocab, wm.copy(), cfg)
    assert r1.log_lines == r2.log_lines
    for name in r1.checkpoint.params:
        assert np.array_equal(r1.checkpoint.params[name], r2.checkpoint.params[name])


def test_train_run_keeps_best_checkpoint(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    cfg = _toy_config(max_epochs=4, batch_size=16)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(overfit_split, schema, vocab, wm, cfg)
    assert result.checkpoint.best_val_f1 == pytest.approx(max(result.val_history))
    assert len(result.log_lines) == len(result.val_history)


def test_every_parameter_receives_gradient(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    model, vocab = build_toy_model(corpus, schema, "kitchen", seed=1)
    params = model.named_parameters()
    touched = {name: np.zeros_like(p.values) for name, p in params.items()}
    cfg = _toy_config()
    for lo in range(0, len(overfit_split.train), 8):
        batch = overfit_split.train[lo : lo + 8]
        model.zero_grad()
        with Tape() as tape:
            loss, _ = total_loss(batch, model, cfg, make_rng(0))
            ad.backward(loss, tape)
        for name, p in params.items():
            if p.grad is not None:
                touched[name] += np.abs(p.grad)
    dead = [name for name, acc in touched.items() if not acc.any()]
    assert dead == []


def test_gradients_cleared_between_steps(overfit_corpus, overfit_split):
    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    cfg = _toy_config(max_epochs=1, batch_size=64)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(overfit_split, schema, vocab, wm, cfg)
    assert result.checkpoint.epoch >= 1


# ---------------------------------------------------------------------------
# checkpoints


def _trained_checkpoint(overfit_corpus, overfit_split, **cfg_overrides):
    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    cfg = _toy_config(max_epochs=2, batch_size=16, **cfg_overrides)
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    result = train_run(overfit_split, schema, vocab, wm, cfg)
    return result.checkpoint, schema, vocab


def test_checkpoint_save_load_bit_identical(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    again = load_checkpoint(directory)
    assert set(again.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(again.params[name], ckpt.params[name])
        assert np.array_equal(again.adam_m[name], ckpt.adam_m[name])
        assert np.array_equal(again.adam_v[name], ckpt.adam_v[name])
    assert again.epoch == ckpt.epoch
    assert again.best_val_f1 == ckpt.best_val_f1
    assert again.config_kv == ckpt.config_kv
    assert again.proto_rows == ckpt.proto_rows
    assert again.word_vocab == ckpt.word_vocab


def test_checkpoint_restored_model_predicts_identically(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    m1, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    m2, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    p1 = m1.predict(overfit_split.test[:5])
    p2 = m2.predict(overfit_split.test[:5])
    assert p1 == p2


def test_checkpoint_truncated_payload_reports_counts(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    payload = os.path.join(directory, "params.bin")
    data = open(payload, "rb").read()
    with open(payload, "wb") as fh:
        fh.write(data[: len(data) // 2])
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    assert "payload" in str(err.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0", "4 tab-separated fields, got 3"),
        ("param.w\t2,3\t0\t6", "param.w\t2,x\t0\t6", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0.5\t6", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0\tsix", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t-1\t6", "negative offset"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0\t5", "count 5 is not the size of shape"),
        ("adam_t=4", "adam_t=x", "adam_t='x' is not an integer"),
        ("epoch=2", "epoch=2.5", "epoch='2.5' is not an integer"),
        ("best_val_f1=0.5", "best_val_f1=high", "best_val_f1='high' is not a number"),
    ],
)
def test_checkpoint_malformed_manifest_names_line(tmp_path, old, new, message):
    directory = os.path.join(tmp_path, "ckpt")
    lineno = damaged_manifest(directory, old, new)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    assert f"{os.path.join(directory, 'manifest.txt')}:{lineno}: " in str(err.value)
    assert message in str(err.value)


def test_checkpoint_missing_directory_errors(tmp_path):
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(os.path.join(tmp_path, "nothing-here"))
    assert "not found" in str(err.value)


def test_checkpoint_wrong_proto_row_order_refused(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    swapped = dataclasses.replace(ckpt, proto_rows=list(reversed(ckpt.proto_rows)))
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(swapped, directory)
    with pytest.raises(CheckpointError) as err:
        model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    assert "row order" in str(err.value)


def test_checkpoint_vocab_mismatch_refused(tmp_path, overfit_corpus, overfit_split, transfer_corpus):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    other_corpus, other_schema = transfer_corpus
    other_vocab = build_vocab(other_corpus, other_schema)
    with pytest.raises(CheckpointError):
        model_from_checkpoint(load_checkpoint(directory), schema, other_vocab)
