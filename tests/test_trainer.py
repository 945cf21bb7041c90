import dataclasses
import os
import pathlib
import platform
import resource
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, TOY_CONFIG, build_toy_model, damaged_manifest, fail_payload_writes
from pclc import autodiff as ad
from pclc.autodiff import Tape
from pclc.data import build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.errors import CheckpointError, ConfigError, PclcError, TrainingDiverged
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from pclc.config import TrainConfig, config_from_kv, config_to_kv, read_kv
from pclc.trainer import (
    early_stop_check,
    evaluate_split,
    loss_components,
    total_loss,
    train_run,
    validation_f1,
)


def _toy_config(**overrides):
    base = dict(lr=0.01, batch_size=8, patience=50, max_epochs=3, seed=0)
    return dataclasses.replace(TOY_CONFIG, **{**base, **overrides})


# ---------------------------------------------------------------------------
# config


def test_config_kv_round_trip():
    cfg = _toy_config(confusion_lambda=0.4, enable_lc=False, max_epochs=None)
    lines = enumerate(config_to_kv(cfg), start=1)
    again = config_from_kv(read_kv(lines, "effective.cfg", "config"))
    assert again == cfg


def test_config_keys_keep_their_order():
    # effective.cfg files and checkpoint manifests list the keys in this
    # order, the run settings last, so older files stay byte-identical
    assert [kv.split("=", 1)[0] for kv in config_to_kv(TrainConfig())] == [
        "lr", "batch_size", "dropout", "patience", "max_epochs", "few_shot",
        "confusion_lambda", "temperature", "kl_weight", "seed", "enable_pcl", "enable_lc",
        "crf_weight", "grad_clip", "word_dim", "char_dim", "char_hidden",
        "hidden", "layers", "entity_hidden", "proto_dim",
        "data_dir", "embeddings", "target", "output_dir", "validation_size",
    ]


def test_removed_require_pretrained_reads_at_false_only():
    # effective.cfg files written while the key existed hold `false`
    assert config_from_kv({"require_pretrained": (26, "false")}, "effective.cfg") == TrainConfig()
    with pytest.raises(ConfigError) as err:
        config_from_kv({"require_pretrained": (26, "true")}, "effective.cfg")
    assert str(err.value).startswith(
        "effective.cfg:26: config key 'require_pretrained' was removed, got 'true'"
    )


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as err:
        config_from_kv({"learning_rate_typo": (3, "0.1")}, "run.cfg")
    assert str(err.value) == "run.cfg:3: unknown config key 'learning_rate_typo'"


def test_hyperparams_validation():
    TrainConfig()
    bad = [
        ("temperature", 0.0, "must be > 0, got 0.0"),
        ("confusion_lambda", 1.5, "must be in [0, 1], got 1.5"),
        ("kl_weight", -0.1, "must be >= 0, got -0.1"),
        ("lr", 0.0, "must be finite and > 0, got 0.0"),
        ("lr", float("nan"), "must be finite and > 0, got nan"),
        ("lr", float("inf"), "must be finite and > 0, got inf"),
        ("grad_clip", -1.0, "must be > 0, got -1.0"),
        ("grad_clip", 0.0, "must be > 0, got 0.0"),
        ("patience", -1, "must be >= 0, got -1"),
        ("few_shot", -2, "must be >= 0, got -2"),
        ("seed", -1, "must be >= 0, got -1"),
        ("crf_weight", float("nan"), "must be >= 0, got nan"),
        ("crf_weight", float("inf"), "must be finite, got inf"),
        ("kl_weight", float("inf"), "must be finite, got inf"),
        ("temperature", float("inf"), "must be finite, got inf"),
        ("grad_clip", float("inf"), "must be finite, got inf"),
        ("validation_size", 0, "must be >= 1, got 0"),
        ("max_epochs", -1, "must be none or >= 0, got -1"),
    ] + [
        (dim, 0, "must be >= 1, got 0")
        for dim in ("word_dim", "char_dim", "char_hidden", "hidden", "layers",
                    "entity_hidden", "proto_dim")
    ]
    for key, value, message in bad:
        with pytest.raises(ConfigError) as err:
            TrainConfig(**{key: value})
        assert str(err.value) == f"config key {key!r}: {message}"


def test_hyperparams_edge_values_are_valid():
    TrainConfig(max_epochs=0, patience=0, few_shot=0, kl_weight=0.0, dropout=0.0)
    TrainConfig(max_epochs=None, grad_clip=1e300, confusion_lambda=1.0, validation_size=1)


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


def test_training_tape_keeps_only_what_backward_reads():
    # one 64-utterance batch at the criterion-6 dims, dropout on: the tape
    # held 3.88 MB after the forward while it kept each LSTM direction's
    # packed input, tanh(c) of every step and float64 dropout masks; 3.01 MB
    # without them
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=1)
    cfg = TrainConfig(
        dropout=0.1, word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
        entity_hidden=24, proto_dim=24,
    )
    word_matrix = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(1))
    model = PclcModel(schema, "bus", vocab, word_matrix, cfg, make_rng(2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            loss_components(split.train[:64], model, cfg, make_rng(5))
            kept = tracemalloc.get_traced_memory()[0] - before
            assert tape.records
    finally:
        tracemalloc.stop()
    assert kept < 3.4e6, kept


def _fewshot_batch(corpus, schema, overfit_split):
    from pclc.data import fewshot_select

    shot = fewshot_select(overfit_split, 4, seed=2)
    target_in_train = [u for u in shot.train if u.domain == "kitchen"]
    assert len(target_in_train) == 4
    # mix of source and few-shot target utterances with entities
    batch = overfit_split.train[:3] + target_in_train[:2]
    return shot, batch


def test_fewshot_target_entities_train_without_confusion_loss(overfit_corpus, overfit_split):
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
    val_f1 = [float(line.split("\tval_f1=")[1]) for line in result.log_lines]
    assert result.checkpoint.best_val_f1 == max(val_f1)


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


def test_evaluate_split_labels_and_scores_the_test_set(overfit_corpus, overfit_split):
    from pclc.data import fewshot_select

    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    model, _ = model_from_checkpoint(ckpt, schema, vocab)
    shot = fewshot_select(overfit_split, 4, seed=2)
    for split, setting in ((overfit_split, "zero-shot"), (shot, "few-shot-4")):
        report = evaluate_split(model, split, 16)
        assert (report.domain, report.setting) == ("kitchen", setting)
        assert report.f1 == validation_f1(model, split.test, 16)
        seen, unseen = report.group_counts(split.seen_slots), report.group_counts(split.unseen_slots)
        assert sum(c.tp for c in report.per_type.values()) == seen.tp + unseen.tp
        assert report.seen_f1 is not None and report.unseen_f1 is not None


def test_checkpoint_save_load_bit_identical(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    again = load_checkpoint(directory)
    assert set(again.params) == set(ckpt.params)
    for name in ckpt.params:
        assert np.array_equal(again.params[name], ckpt.params[name])
    assert again.epoch == ckpt.epoch
    assert again.best_val_f1 == ckpt.best_val_f1
    assert again.config == ckpt.config
    assert again.proto_rows == ckpt.proto_rows
    assert again.word_vocab == ckpt.word_vocab


def test_checkpoint_payload_holds_only_the_parameters(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    model, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    n_params = sum(p.values.size for p in model.named_parameters().values())
    assert os.path.getsize(os.path.join(directory, "params.bin")) == 8 * n_params


def test_checkpoint_older_format_version_refused(tmp_path):
    directory = os.path.join(tmp_path, "ckpt")
    damaged_manifest(directory, "pclc-checkpoint 2", "pclc-checkpoint 1")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    message = str(err.value)
    assert os.path.join(directory, "manifest.txt") in message
    assert "format version 1 unsupported (expected 2)" in message


def test_checkpoint_restored_model_predicts_identically(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    m1, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    m2, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    p1 = m1.predict(overfit_split.test[:5])
    p2 = m2.predict(overfit_split.test[:5])
    assert p1 == p2


def test_loaded_model_parameters_are_views_of_one_payload(
    tmp_path, overfit_corpus, overfit_split
):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    model, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    params = model.named_parameters()
    payload = next(iter(params.values())).values.base
    assert payload.size == sum(p.values.size for p in params.values())
    for name, p in params.items():
        assert np.shares_memory(p.values, payload)
        assert np.array_equal(p.values, ckpt.params[name])


def test_model_from_checkpoint_draws_no_init(
    tmp_path, monkeypatch, overfit_corpus, overfit_split
):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)

    def no_rng(seed):
        raise AssertionError("model_from_checkpoint drew a random init")

    monkeypatch.setattr(np.random, "PCG64", no_rng)  # the generator behind every make_rng
    model, _ = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    assert set(model.named_parameters()) == set(ckpt.params)


def test_loaded_model_predicts_as_an_initialised_model_given_its_values(
    tmp_path, overfit_corpus, overfit_split
):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    loaded, config = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(0))
    reference = PclcModel(schema, ckpt.target_domain, vocab, word_matrix, config, make_rng(0))
    for name, p in reference.named_parameters().items():
        p.values = ckpt.params[name].copy()
    # the labels-only row order that loading checks is the computed one
    protos = reference.prototypes()
    assert ckpt.proto_rows == [("source", s) for s in protos.source_labels] + [
        ("target", s) for s in protos.target_labels
    ]
    assert loaded.predict(overfit_split.test) == reference.predict(overfit_split.test)


def test_checkpoint_without_run_keys_loads_with_their_defaults(
    tmp_path, overfit_corpus, overfit_split
):
    # a save leaves the run keys out; a manifest older than validation_size lacks it too
    run_keys = ("data_dir", "embeddings", "target", "output_dir")
    ckpt, schema, vocab = _trained_checkpoint(
        overfit_corpus, overfit_split, target="kitchen", validation_size=7
    )
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(ckpt, directory)
    manifest = pathlib.Path(directory, "manifest.txt")
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert not [line for line in lines if line.split("=", 1)[0] in run_keys]
    older = [line for line in lines if not line.startswith("validation_size=")]
    assert len(older) == len(lines) - 1
    manifest.write_text("\n".join(older) + "\n", encoding="utf-8")
    _, config = model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    assert config == _toy_config(max_epochs=2, batch_size=16)
    assert (config.target, config.validation_size) == ("", 500)


def test_load_checkpoint_keeps_freed_heap(tmp_path, monkeypatch):
    # a load's payload allocation must not depend on what the process
    # allocated before, so loading applies train_run's malloc policy
    calls = []
    monkeypatch.setattr("pclc.checkpoint._keep_freed_heap", lambda: calls.append(1))
    directory = os.path.join(tmp_path, "ckpt")
    damaged_manifest(directory, "epoch=2", "epoch=2")
    load_checkpoint(directory)
    assert calls == [1]


def test_checkpoint_unknown_target_domain_refused(tmp_path, overfit_corpus, overfit_split):
    ckpt, schema, vocab = _trained_checkpoint(overfit_corpus, overfit_split)
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(dataclasses.replace(ckpt, target_domain="garden"), directory)
    with pytest.raises(CheckpointError) as err:
        model_from_checkpoint(load_checkpoint(directory), schema, vocab)
    assert "target domain 'garden' not in the corpus" in str(err.value)


def test_save_checkpoint_streams_the_payload(tmp_path):
    # 1.2 M floats in C order, plus a transposed and a 0-d array
    params = {
        "big": np.arange(1_000_000.0).reshape(1000, 1000),
        "t": np.arange(6.0).reshape(2, 3).T,
        "s": np.array(2.5),
        "row": np.linspace(0.0, 1.0, 200_000),
    }
    ckpt = Checkpoint(
        params=params, epoch=1, best_val_f1=0.5, config=TrainConfig(),
        target_domain="kitchen", word_vocab=[], char_vocab=[], proto_rows=[],
    )
    directory = os.path.join(tmp_path, "ckpt")
    tracemalloc.start()
    try:
        save_checkpoint(ckpt, directory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(os.path.join(directory, "params.bin"), "rb") as fh:
        written = fh.read()
    assert written == b"".join(a.astype("<f8").tobytes() for a in params.values())
    assert peak < 0.1 * len(written)
    again = load_checkpoint(directory)
    for name, arr in params.items():
        assert np.array_equal(again.params[name], arr)


def _small_checkpoint(value, epoch):
    return Checkpoint(
        params={"w": np.full((2, 3), value), "v": np.full(2, value)}, epoch=epoch,
        best_val_f1=0.5, config=TrainConfig(), target_domain="kitchen",
        word_vocab=[], char_vocab=[], proto_rows=[("source", "city")],
    )


def _checkpoint_bytes(directory):
    return {n: pathlib.Path(directory, n).read_bytes() for n in ("manifest.txt", "params.bin")}


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "existing"])
def test_failed_checkpoint_save_leaves_the_earlier_one(tmp_path, monkeypatch, earlier):
    # the same names and shapes with other values: a new manifest beside the
    # earlier payload would load without complaint
    directory = os.path.join(tmp_path, "ckpt")
    if earlier:
        save_checkpoint(_small_checkpoint(1.0, 1), directory)
        before = _checkpoint_bytes(directory)

    fail_payload_writes(monkeypatch)
    with pytest.raises(CheckpointError) as err:
        save_checkpoint(_small_checkpoint(2.0, 2), directory)
    assert str(err.value) == f"cannot write checkpoint {directory}: [Errno 28] No space left on device"
    monkeypatch.undo()
    assert os.listdir(tmp_path) == (["ckpt"] if earlier else [])
    if earlier:
        assert _checkpoint_bytes(directory) == before
        again = load_checkpoint(directory)
        assert again.epoch == 1
        for name, arr in _small_checkpoint(1.0, 1).params.items():
            assert np.array_equal(again.params[name], arr)


def test_checkpoint_save_replaces_an_earlier_one(tmp_path):
    # a killed save's staging directory is reused; nothing is left beside the checkpoint
    directory = os.path.join(tmp_path, "ckpt")
    save_checkpoint(_small_checkpoint(1.0, 1), directory)
    os.makedirs(directory + ".saving")
    with open(os.path.join(directory + ".saving", "params.bin"), "wb") as fh:
        fh.write(b"partial")
    save_checkpoint(_small_checkpoint(2.0, 2), directory + os.sep)
    assert os.listdir(tmp_path) == ["ckpt"]
    again = load_checkpoint(directory)
    assert again.epoch == 2 and np.array_equal(again.params["w"], np.full((2, 3), 2.0))


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
    assert str(err.value).startswith(f"{payload}: truncated payload, need ")
    assert str(err.value).endswith(f" bytes, have {len(data) // 2}")


@pytest.mark.parametrize("extra", [1, 3, 7, 8])
def test_checkpoint_payload_with_trailing_bytes_reports_byte_counts(tmp_path, extra):
    # np.fromfile drops a partial last float, so only the file size shows 1-7 extra bytes
    directory = os.path.join(tmp_path, "ckpt")
    damaged_manifest(directory, "epoch=2", "epoch=2")  # 8 floats, 64 bytes
    payload = os.path.join(directory, "params.bin")
    with open(payload, "ab") as fh:
        fh.write(bytes(range(extra)))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    assert str(err.value) == f"{payload}: payload holds {64 + extra} bytes, manifest expects 64"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0", "4 tab-separated fields, got 3"),
        ("param.w\t2,3\t0\t6", "param.w\t2,x\t0\t6", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0.5\t6", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0\tsix", "must be integers"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t-1\t6", "negative offset"),
        ("param.v\t2\t6\t2", "param.v\t" + "1," * 70 + "2\t6\t2", "71 dimensions, at most 2 allowed"),
        ("param.w\t2,3\t0\t6", "param.w\t2,3\t0\t5", "count 5 is not the size of shape"),
        ("param.w\t2,3\t0\t6", "adam.m.w\t2,3\t0\t6", "unknown tensor entry 'adam.m.w'"),
        ("epoch=2", "epoch=2.5", "epoch='2.5' is not an integer"),
        ("best_val_f1=0.5", "best_val_f1=high", "best_val_f1='high' is not a number"),
        ("seed=1", "seed 1", "config entry needs key=value, got 'seed 1'"),
        ("seed=1", "seed=x", "config key 'seed': expected int, got 'x'"),
        ("seed=1", "seed=-1", "config key 'seed': must be >= 0, got -1"),
        ("seed=1", "sead=1", "unknown config key 'sead'"),
        ("epoch=2", "epoch 1", "meta entry needs key=value, got 'epoch 1'"),
        ("epoch=2", "epoc=2", "unknown meta key 'epoc'"),
        # an emptied line is the last of [meta], where the missing key is named
        ("target_domain=kitchen", "", "meta section lacks key 'target_domain'"),
        ("target_domain=kitchen", "target_domain=", "meta key 'target_domain' is empty"),
        ("source\tcity", "source city", "prototype row needs block<TAB>label, got 'source city'"),
        # ranges that end at the payload's end but do not tile it
        ("param.v\t2\t6\t2", "param.v\t4\t4\t4", "offset 4, previous one ends at 6"),
        ("param.v\t2\t6\t2", "param.v\t1\t7\t1", "offset 7, previous one ends at 6"),
    ],
)
def test_checkpoint_malformed_manifest_names_line(tmp_path, old, new, message):
    directory = os.path.join(tmp_path, "ckpt")
    lineno = damaged_manifest(directory, old, new)
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    assert f"{os.path.join(directory, 'manifest.txt')}:{lineno}: " in str(err.value)
    assert message in str(err.value)


@pytest.mark.parametrize("line, again, section", [
    ("epoch=2", "epoch=9", "meta"),
    ("seed=1", "seed=4", "config"),
])
def test_checkpoint_repeated_manifest_key_names_both_lines(tmp_path, line, again, section):
    directory = os.path.join(tmp_path, "ckpt")
    lineno = damaged_manifest(directory, line, f"{line}\n{again}")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    key = line.split("=")[0]
    path = os.path.join(directory, "manifest.txt")
    assert str(err.value) == f"{path}:{lineno + 1}: {section} key {key!r} repeats line {lineno}"


def test_checkpoint_non_utf8_manifest_names_its_offset(tmp_path):
    directory = os.path.join(tmp_path, "ckpt")
    damaged_manifest(directory, "target_domain=kitchen", "target_domain=kitch\u00ffn")
    path = os.path.join(directory, "manifest.txt")
    with open(path, "rb") as fh:
        raw = fh.read().replace("\u00ff".encode(), b"\xff")
    with open(path, "wb") as fh:
        fh.write(raw)
    offset = raw.index(b"\xff")
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(directory)
    assert str(err.value) == f"{path}: byte 0xff at offset {offset} is not UTF-8"


_MANIFEST_PIECES = [
    b"pclc-checkpoint 2\n", b"[meta]\n", b"[config]\n", b"[proto_rows]\n", b"[tensors]\n",
    b"[word_vocab]\n", b"param.w\t2,3\t0\t6\n", b"param.v\t2\t6\t2\n", b"param.", b"epoch=",
    b"best_val_f1=", b"target_domain=", b"seed=1\n", b"source\tcity\n", b"scalar", b"\t", b"\n",
    b",", b"=", b"0", b"1", b"-1", b"6", b"x", b"nan", b"\xff", b"\xc3", b"\r",
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from(_MANIFEST_PIECES), max_size=60).map(b"".join),
    )
)
def test_checkpoint_arbitrary_manifest_bytes_load_or_raise_pclc_error(raw):
    with tempfile.TemporaryDirectory() as directory:
        damaged_manifest(directory, "seed=1", "seed=1")
        with open(os.path.join(directory, "manifest.txt"), "wb") as fh:
            fh.write(raw)
        try:
            load_checkpoint(directory)
        except PclcError:
            pass


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc settings")
def test_train_run_keeps_freed_heap_resident(overfit_corpus, overfit_split):
    # after a train_run, memory freed by one round of large arrays is reused
    # by the next instead of going back to the OS and faulting in again
    _trained_checkpoint(overfit_corpus, overfit_split)
    n_arrays, nbytes = 32, 2 << 20
    pages = n_arrays * nbytes // resource.getpagesize()
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        arrays = [np.ones(nbytes // 8) for _ in range(n_arrays)]
        del arrays
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[1:]) < pages // 100, faults


def test_predict_does_not_depend_on_batching():
    # one trained small-dims model; target and source utterances share chunks
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=3)
    cfg = TrainConfig(
        lr=0.01, batch_size=64, dropout=0.1, max_epochs=10, seed=3, word_dim=24,
        char_dim=8, char_hidden=8, hidden=24, layers=1, entity_hidden=24, proto_dim=24,
    )
    wm = random_embeddings(vocab.n_words, cfg.word_dim, make_rng(cfg.seed))
    model, _ = model_from_checkpoint(train_run(split, schema, vocab, wm, cfg).checkpoint, schema, vocab)
    utterances = split.test + split.validation + split.train[:20]
    want = model.predict(utterances, batch_size=1)
    labels = {(u.domain == "bus", p.slot) for u, spans in zip(utterances, want) for p in spans}
    assert {is_target for is_target, _ in labels} == {True, False}
    assert len(labels) >= 4
    for batch_size in (3, 7, 16, 64, 200):
        assert model.predict(utterances, batch_size=batch_size) == want
    assert model.predict(utterances[::-1])[::-1] == want
