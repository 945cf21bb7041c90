import dataclasses
import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.classifier import (
    EntityEncoder,
    PrototypeMatrix,
    build_prototypes,
    confusion_loss,
    confusion_targets,
    contrastive_loss,
    predict_slot_type,
    prototype_scores,
    smooth_distributions,
)
from pclc.config import TrainConfig
from pclc.data import SlotSchema, build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.errors import ConfigError, ShapeError
from pclc.layers import Mlp
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.trainer import total_loss


def _protos_from_matrix(matrix, n_source, n_target, target_domain="tgt"):
    return PrototypeMatrix(
        matrix=Tensor(np.asarray(matrix, dtype=float)),
        source_labels=[f"s{i}" for i in range(n_source)],
        target_labels=[f"t{i}" for i in range(n_target)],
        target_domain=target_domain,
        slots_of={"src": [f"s{i}" for i in range(n_source)], target_domain: [f"t{i}" for i in range(n_target)]},
    )


def _scores(reps, protos):
    """(N, n_rows) dot products of entity rows `reps` with every prototype."""
    return prototype_scores(Tensor(np.atleast_2d(reps)), protos)


def _pc(reps, protos, rows, tau=1.0):
    return contrastive_loss(_scores(reps, protos), rows, tau)


# ---------------------------------------------------------------------------
# prototypes


def _toy_schema():
    return SlotSchema(
        domains=["src_a", "src_b", "tgt"],
        slots_of={
            "src_a": ["artist_name", "service_name"],
            "src_b": ["service_name", "playlist_name"],
            "tgt": ["service_name", "dish_name"],
        },
        description_tokens={
            "artist_name": ["artist", "name"],
            "service_name": ["service", "name"],
            "playlist_name": ["playlist", "name"],
            "dish_name": ["dish", "name"],
        },
    )


def _toy_vocab_and_table(schema, dim=6, seed=0):
    from pclc.data import Utterance

    utts = [Utterance(["hi"], ["O"], [None], d, f"{d}:0") for d in schema.domains]
    vocab = build_vocab(utts, schema)
    table = Tensor(random_embeddings(vocab.n_words, dim, make_rng(seed)), requires_grad=True)
    return vocab, table


def test_build_prototypes_block_layout():
    schema = _toy_schema()
    vocab, table = _toy_vocab_and_table(schema)
    mlp = Mlp(6, 4, 4, make_rng(1), "mlp")
    protos = build_prototypes(schema, ["src_a", "src_b"], "tgt", vocab, table, mlp)
    # source block: union of source slots in first-seen order, then target block
    assert protos.source_labels == ["artist_name", "service_name", "playlist_name"]
    assert protos.target_labels == ["service_name", "dish_name"]
    assert protos.block_boundary == 3
    assert protos.matrix.shape == (5, 4)


def test_build_prototypes_identical_descriptions_identical_rows():
    schema = _toy_schema()
    vocab, table = _toy_vocab_and_table(schema)
    mlp = Mlp(6, 4, 4, make_rng(1), "mlp")
    protos = build_prototypes(schema, ["src_a", "src_b"], "tgt", vocab, table, mlp)
    # service_name lives in both blocks; both rows are the same MLP image
    src_row = protos.matrix.values[protos.source_row("service_name")]
    tgt_row = protos.matrix.values[protos.target_row("service_name")]
    assert np.array_equal(src_row, tgt_row)


def test_build_prototypes_is_mean_of_description_embeddings():
    schema = _toy_schema()
    vocab, table = _toy_vocab_and_table(schema)
    mlp = Mlp(6, 4, 4, make_rng(1), "mlp")
    protos = build_prototypes(schema, ["src_a", "src_b"], "tgt", vocab, table, mlp)
    ids = [vocab.word_index["artist"], vocab.word_index["name"]]
    name_emb = table.values[ids].mean(axis=0, keepdims=True)
    hidden = np.tanh(name_emb @ mlp.hidden_layer.w.values + mlp.hidden_layer.b.values)
    expected = (hidden @ mlp.output_layer.w.values + mlp.output_layer.b.values)[0]
    assert np.allclose(protos.matrix.values[0], expected, atol=1e-12)


def test_candidate_rows_target_vs_source_domain():
    schema = _toy_schema()
    vocab, table = _toy_vocab_and_table(schema)
    mlp = Mlp(6, 4, 4, make_rng(1), "mlp")
    protos = build_prototypes(schema, ["src_a", "src_b"], "tgt", vocab, table, mlp)
    rows, labels = protos.candidate_rows("tgt")
    assert rows == [3, 4]
    assert labels == ["service_name", "dish_name"]
    rows, labels = protos.candidate_rows("src_b")
    assert labels == ["service_name", "playlist_name"]
    assert rows == [1, 2]


# ---------------------------------------------------------------------------
# entity encoding


def _padded_spans(spans):
    """`encode_steps` inputs for (length, in_dim) span arrays: end-padded
    step-major rows and the span lengths."""
    lengths = [len(span) for span in spans]
    steps = range(max(lengths))
    rows = [span[min(t, len(span) - 1)] for t in steps for span in spans]
    return Tensor(np.array(rows)), lengths


def test_encode_steps_single_token_span():
    encoder = EntityEncoder(in_dim=6, hidden=4, out_dim=5, rng=make_rng(0))
    r = encoder.encode_steps(*_padded_spans([make_rng(1).uniform(-1, 1, (1, 6))]))
    assert r.shape == (1, 5)


def test_encode_steps_deterministic():
    encoder = EntityEncoder(in_dim=6, hidden=4, out_dim=5, rng=make_rng(0))
    inputs = _padded_spans([make_rng(1).uniform(-1, 1, (3, 6))])
    assert np.array_equal(encoder.encode_steps(*inputs).values, encoder.encode_steps(*inputs).values)


def test_encode_steps_empty_span_errors():
    encoder = EntityEncoder(in_dim=6, hidden=4, out_dim=5, rng=make_rng(0))
    empty = Tensor(np.zeros((0, 6)))
    with pytest.raises(ShapeError):
        encoder.encode_steps(empty, [0])


def test_encode_steps_batch_rows_match_spans_alone():
    encoder = EntityEncoder(in_dim=6, hidden=4, out_dim=5, rng=make_rng(0))
    rng = make_rng(9)
    spans = [rng.uniform(-1, 1, (n, 6)) for n in (3, 1, 5, 2, 5, 1)]
    batch = encoder.encode_steps(*_padded_spans(spans)).values
    for row, span in zip(batch, spans):
        alone = encoder.encode_steps(*_padded_spans([span])).values[0]
        assert np.abs(row - alone).max() <= 1e-12 * np.abs(alone).max()


# ---------------------------------------------------------------------------
# contrastive loss


def test_contrastive_equal_scores_gives_ln2():
    protos = _protos_from_matrix(np.zeros((2, 3)), 1, 1)
    assert _pc(np.ones(3), protos, [0]).item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_contrastive_single_prototype_is_zero():
    protos = _protos_from_matrix([[0.4, -0.2]], 1, 0)
    assert _pc([1.0, 2.0], protos, [0]).item() == pytest.approx(0.0, abs=1e-15)


def test_contrastive_matches_extended_precision():
    rng = make_rng(2)
    for _ in range(10):
        matrix = rng.uniform(-1, 1, (5, 4))
        r = rng.uniform(-1, 1, 4)
        protos = _protos_from_matrix(matrix, 3, 2)
        y = int(rng.integers(5))
        got = _pc(r, protos, [y], 0.5).item()
        want = oracles.mp_proto_contrastive(r, matrix, y, 0.5)
        assert got == pytest.approx(want, abs=1e-10)


def test_contrastive_at_unit_temperature_is_softmax_posterior():
    rng = make_rng(8)
    for _ in range(10):
        matrix = rng.uniform(-1, 1, (4, 3))
        r = rng.uniform(-1, 1, 3)
        protos = _protos_from_matrix(matrix, 2, 2)
        y = int(rng.integers(4))
        loss = _pc(r, protos, [y]).item()
        logits = matrix @ r
        posterior = np.exp(logits[y]) / np.exp(logits).sum()
        assert loss == pytest.approx(-np.log(posterior), abs=1e-10)


def test_contrastive_rejects_nonpositive_temperature():
    # `contrastive_loss` takes tau from TrainConfig, which refuses these
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            TrainConfig(temperature=tau)


def test_contrastive_loss_nonnegative_property():
    rng = make_rng(3)
    for _ in range(50):
        matrix = rng.uniform(-2, 2, (4, 3))
        protos = _protos_from_matrix(matrix, 2, 2)
        loss = _pc(rng.uniform(-2, 2, 3), protos, [int(rng.integers(4))])
        assert loss.item() >= -1e-12


# ---------------------------------------------------------------------------
# confusion target / smoothing


def test_confusion_target_single_slot_is_one():
    out = confusion_targets(np.array([[1.0, 0.0]]), np.array([[0.3, 0.4]]))
    assert np.allclose(out, [[1.0]])


def test_confusion_target_l1_normalizes_positive_sims():
    # construct rows with known cosines 0.6 and 0.2 against z
    z = np.array([[1.0, 0.0]])
    rows = []
    for c in (0.6, 0.2):
        rows.append([c, math.sqrt(1 - c * c)])
    out = confusion_targets(z, np.array(rows))
    assert np.allclose(out, [[0.75, 0.25]], atol=1e-12)


def test_confusion_target_clamps_negatives():
    z = np.array([[1.0, 0.0]])
    rows = [[0.5, math.sqrt(0.75)], [-0.5, math.sqrt(0.75)]]
    out = confusion_targets(z, np.array(rows))
    assert np.allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_confusion_target_uniform_fallback_when_all_nonpositive():
    z = np.array([[1.0, 0.0]])
    rows = [[-0.5, math.sqrt(0.75)], [-0.9, math.sqrt(1 - 0.81)]]
    out = confusion_targets(z, np.array(rows))
    assert np.allclose(out, [[0.5, 0.5]])


def test_confusion_target_zero_norm_errors():
    # a zero row anywhere in either batch is refused
    with pytest.raises(ShapeError):
        confusion_targets(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        confusion_targets(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        confusion_targets(np.array([[1.0, 0.0]]), np.zeros((0, 2)))


def _oracle_targets(matrix, ys, n_source):
    """Rows of `oracles.mp_smooth_target` at lam = 0, target block only."""
    return np.array([oracles.mp_smooth_target(matrix, y, n_source, 0.0)[n_source:] for y in ys])


def test_confusion_targets_match_50_digit_oracle_on_random_batches():
    rng = make_rng(24)
    for _ in range(60):
        n_src, n_tgt, dim = (int(v) for v in rng.integers((1, 1, 2), (7, 6, 6)))
        matrix = rng.uniform(-1.5, 1.5, (n_src + n_tgt, dim))
        matrix += 0.1 * np.sign(matrix)
        ys = [int(y) for y in rng.integers(0, n_src, int(rng.integers(1, 7)))]
        got = confusion_targets(matrix[ys], matrix[n_src:])
        assert np.abs(got - _oracle_targets(matrix, ys, n_src)).max() <= 1e-12


def test_confusion_targets_fallback_row_mixed_in_batch_is_constant():
    # gold row 0 points away from every target row (uniform fallback); gold
    # rows 1 and 2 have positive cosines with some of them
    matrix = np.array([
        [-1.0, -1.0, 0.2], [1.0, 0.5, 0.0], [0.3, 1.0, -0.4],
        [1.0, 0.2, 0.1], [0.4, 1.0, 0.0], [0.5, 0.5, -0.3],
    ])
    out = confusion_targets(matrix[:3], matrix[3:])
    assert np.array_equal(out[0], np.full(3, 1.0 / 3.0))
    assert np.abs(out - _oracle_targets(matrix, [0, 1, 2], 3)).max() <= 1e-12
    # the fused loss: the fallback gold row gets exactly zero gradient, the
    # others do not; `scores` is a leaf of its own, not a product of `matrix`
    protos = _protos_from_matrix(matrix, 3, 3)
    protos.matrix.requires_grad = True
    scores = Tensor(make_rng(12).uniform(-1, 1, (5, 6)), requires_grad=True)
    with Tape() as tape:
        ad.backward(confusion_loss(scores, [0, 1, 2, 0, 1], [0, 1, 2, 3, 4], protos, 0.4), tape)
    grad = protos.matrix.grad
    assert np.array_equal(grad[0], np.zeros(3))
    assert (np.abs(grad[1:]).max(axis=1) > 0.0).all()
    assert np.isfinite(grad).all() and np.isfinite(scores.grad).all()


def test_smooth_distribution_worked_example():
    # 2 source slots, gold index 1, lambda 0.6, target soft dist [0.75, 0.25]
    out = smooth_distributions([1], np.array([[0.75, 0.25]]), 0.6, n_source=2)
    assert np.allclose(out, [[0.0, 0.6, 0.3, 0.1]], atol=1e-12)


def test_smooth_distribution_lambda_one_is_extended_one_hot():
    out = smooth_distributions([0, 1], np.array([[0.5, 0.5], [0.2, 0.8]]), 1.0, n_source=2)
    assert np.allclose(out, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def test_smooth_distribution_lambda_zero_keeps_only_target():
    out = smooth_distributions([0], np.array([[0.5, 0.5]]), 0.0, n_source=2)
    assert np.allclose(out, [[0.0, 0.0, 0.5, 0.5]])


def test_smooth_distribution_index_out_of_range():
    # every row's index is checked, not only the first
    with pytest.raises(ShapeError):
        smooth_distributions([0, 2], np.array([[1.0], [1.0]]), 0.5, n_source=2)
    with pytest.raises(ShapeError):
        smooth_distributions([-1], np.array([[1.0]]), 0.5, n_source=2)
    with pytest.raises(ShapeError):
        smooth_distributions([0], np.array([[1.0]]), 1.5, n_source=2)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 1.0),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
)
def test_smooth_distribution_is_distribution(lam, ys, raw):
    d_tgt = np.array(raw) / np.sum(raw)
    d_rows = np.array([np.roll(d_tgt, k) for k in range(len(ys))])
    out = smooth_distributions(ys, d_rows, lam, n_source=4)
    assert out.shape == (len(ys), 4 + len(raw))
    assert (out >= -1e-15).all()
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# KL


def test_kl_zero_when_prediction_matches_target():
    # scores are the log of the smoothed target of gold row 1
    matrix = np.array([[0.4, -0.2], [1.0, 0.3], [0.9, 0.5], [-0.2, 1.0]])
    protos = _protos_from_matrix(matrix, 2, 2)
    target = smooth_distributions([1], confusion_targets(matrix[[1]], matrix[2:]), 0.6, 2)
    scores = Tensor(np.log(np.maximum(target, 1e-300)))
    assert confusion_loss(scores, [1], [0], protos, 0.6).item() == pytest.approx(0.0, abs=1e-15)


def test_kl_zero_support_entries_contribute_nothing():
    # at lam = 1 the target is the gold one-hot, so the KL is the
    # cross-entropy: 0 * log(0) adds nothing, whatever the other scores are
    rng = make_rng(14)
    for _ in range(10):
        protos, reps, rows, from_target = _random_batch(rng, 6)
        source = [k for k, tgt in enumerate(from_target) if not tgt]
        scores = _scores(reps[source], protos)
        got = confusion_loss(scores, [rows[k] for k in source], list(range(len(source))), protos, 1.0)
        want = contrastive_loss(scores, [rows[k] for k in source], 1.0)
        assert got.item() == pytest.approx(want.item(), abs=1e-12)


# ---------------------------------------------------------------------------
# the batched losses against per-entity 50-digit oracles


def _random_batch(rng, n_max):
    """Prototypes away from zero norm, 1..n_max entity rows, and each
    entity's gold row; the first entity is from a source domain."""
    n_src, n_tgt, dim = (int(v) for v in rng.integers((1, 1, 2), (5, 5, 6)))
    matrix = rng.uniform(-1.5, 1.5, (n_src + n_tgt, dim))
    matrix += 0.1 * np.sign(matrix)
    n = int(rng.integers(1, n_max + 1))
    reps = rng.uniform(-1.5, 1.5, (n, dim))
    from_target = [i > 0 and bool(rng.random() < 0.3) for i in range(n)]
    rows = [
        int(rng.integers(n_src, n_src + n_tgt)) if tgt else int(rng.integers(n_src))
        for tgt in from_target
    ]
    return _protos_from_matrix(matrix, n_src, n_tgt), reps, rows, from_target


@pytest.mark.parametrize("n_max", [1, 6])
def test_contrastive_loss_is_mean_of_per_entity_oracles(n_max):
    rng = make_rng(21)
    for _ in range(30):
        protos, reps, rows, _ = _random_batch(rng, n_max)
        tau = float(rng.uniform(0.2, 2.0))
        matrix = protos.matrix.values
        got = _pc(reps, protos, rows, tau).item()
        per_entity = [oracles.mp_proto_contrastive(r, matrix, y, tau) for r, y in zip(reps, rows)]
        assert got == pytest.approx(float(np.mean(per_entity)), abs=1e-10)


@pytest.mark.parametrize("n_max", [1, 6])
def test_confusion_loss_is_mean_of_per_entity_oracles(n_max):
    rng = make_rng(22)
    for i in range(40):
        protos, reps, rows, from_target = _random_batch(rng, n_max)
        lam = [0.0, 0.3, 0.6, 1.0][i % 4]
        source = [k for k, tgt in enumerate(from_target) if not tgt]
        scores = _scores(reps, protos)
        got = confusion_loss(scores, rows, source, protos, lam).item()
        matrix = protos.matrix.values
        per_entity = [
            oracles.mp_kl_confusion(
                reps[k], matrix, oracles.mp_smooth_target(matrix, rows[k], protos.block_boundary, lam)
            )
            for k in source
        ]
        assert got == pytest.approx(float(np.mean(per_entity)), abs=1e-10)
        assert got >= -1e-12


def test_default_batch_step_records_20_ops():
    # 64-utterance batches at the criterion-6 dims with default losses: the
    # label space costs the same number of ops however many distinct gold
    # slots a batch holds, and each model-level op is one record
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=1)
    config = TrainConfig(
        word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
        entity_hidden=24, proto_dim=24, dropout=0.1,
    )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    want = {
        "concat": 1, "confusion": 1, "contrastive": 1, "crf_nll": 1, "dropout": 1,
        "final_states": 2, "linear": 2, "lstm": 3, "prototypes": 1, "scores": 1,
        "take_rows": 4, "weighted_sum": 2,
    }
    distinct_slots = set()
    for layers, n_records in ((1, 20), (2, 22)):
        # a second word BiLSTM layer adds its lstm record and the dropout before it
        config = dataclasses.replace(config, layers=layers)
        model = PclcModel(schema, "bus", vocab, word_matrix, config, make_rng(2))
        for lo in (0, 64, 128):
            batch = split.train[lo : lo + 64]
            distinct_slots.add(len({s for u in batch for s in u.slot_types if s}))
            with Tape() as tape:
                total_loss(batch, model, config, make_rng(3))
            kinds = Counter(rec.kind for rec in tape.records)
            assert sum(kinds.values()) == n_records
            assert kinds == want | {"lstm": 2 + layers, "dropout": layers}
    assert len(distinct_slots) > 1


def test_prototype_scores_equal_the_product_with_a_copied_transpose():
    # the product with the transposed view can round differently; training
    # multiplies by the contiguous copy, bit for bit, as one record
    rng = make_rng(9)
    for n, n_rows, dim in [(1, 5, 8), (7, 12, 16), (40, 9, 24), (64, 30, 200)]:
        reps = Tensor(rng.uniform(-1, 1, (n, dim)), requires_grad=True)
        protos = _protos_from_matrix(rng.uniform(-1, 1, (n_rows, dim)), n_rows - 2, 2)
        with Tape() as tape:
            got = prototype_scores(reps, protos).values
        assert [rec.kind for rec in tape.records] == ["scores"]
        assert np.array_equal(got, reps.values @ protos.matrix.values.T.copy())


# ---------------------------------------------------------------------------
# prediction


def test_predict_axis_aligned_prototypes():
    matrix = np.zeros((4, 3))
    matrix[2] = [0.0, 1.0, 0.0]  # first target row
    matrix[3] = [0.0, 0.0, 1.0]
    protos = _protos_from_matrix(matrix, 2, 2)
    reps = Tensor([[0.1, 0.9, 0.2], [0.1, 0.2, 0.9]])
    assert predict_slot_type(reps, protos, ["tgt", "tgt"]) == ["t0", "t1"]


def test_predict_tie_breaks_to_first_target_slot():
    protos = _protos_from_matrix(np.zeros((4, 3)), 2, 2)
    labels = predict_slot_type(Tensor(np.ones((3, 3))), protos, ["tgt", "src", "tgt"])
    assert labels == ["t0", "s0", "t0"]


def test_predict_agrees_with_direct_scan():
    # one batch mixing target- and source-domain spans
    rng = make_rng(5)
    matrix = rng.uniform(-1, 1, (6, 4))
    protos = _protos_from_matrix(matrix, 3, 3)
    reps = rng.uniform(-1, 1, (30, 4))
    domains = ["tgt" if rng.random() < 0.6 else "src" for _ in range(30)]
    labels = predict_slot_type(Tensor(reps), protos, domains)
    for r, domain, label in zip(reps, domains, labels):
        first = 3 if domain == "tgt" else 0
        scores = [float(matrix[first + i] @ r) for i in range(3)]
        best = max(range(3), key=lambda i: (scores[i], -i))
        assert label == f"{domain[0]}{best}"


def test_predict_scale_invariance():
    rng = make_rng(6)
    matrix = rng.uniform(-1, 1, (5, 4))
    reps = rng.uniform(-1, 1, (4, 4))
    protos = _protos_from_matrix(matrix, 2, 3)
    base = predict_slot_type(Tensor(reps), protos, ["tgt"] * 4)
    for scale in (0.1, 3.0, 1000.0):
        scaled = _protos_from_matrix(matrix * scale, 2, 3)
        assert predict_slot_type(Tensor(reps * scale), scaled, ["tgt"] * 4) == base


def test_predict_empty_target_block_errors():
    # a span of a domain without candidates fails the whole batch
    protos = _protos_from_matrix(np.zeros((2, 3)), 2, 0)
    with pytest.raises(ShapeError):
        predict_slot_type(Tensor(np.ones((2, 3))), protos, ["src", "tgt"])


# ---------------------------------------------------------------------------
# gradients through the full stage-2 objective


def test_stage2_losses_gradient_vs_finite_differences():
    schema = _toy_schema()
    vocab, _ = _toy_vocab_and_table(schema)
    dim = 4
    rng = make_rng(7)
    table_arr = random_embeddings(vocab.n_words, 6, rng)
    w1 = rng.uniform(-0.5, 0.5, (6, dim))
    b1 = rng.uniform(-0.5, 0.5, dim)
    w2 = rng.uniform(-0.5, 0.5, (dim, dim))
    b2 = rng.uniform(-0.5, 0.5, dim)
    r_arr = rng.uniform(-0.5, 0.5, (3, dim))
    arrays = [table_arr, w1, b1, w2, b2, r_arr]

    def build(protos_needed=True):
        table = Tensor(table_arr, requires_grad=True)
        mlp = Mlp(6, dim, dim, make_rng(0), "mlp")
        mlp.hidden_layer.w = Tensor(w1, requires_grad=True)
        mlp.hidden_layer.b = Tensor(b1, requires_grad=True)
        mlp.output_layer.w = Tensor(w2, requires_grad=True)
        mlp.output_layer.b = Tensor(b2, requires_grad=True)
        protos = build_prototypes(schema, ["src_a", "src_b"], "tgt", vocab, table, mlp)
        r = Tensor(r_arr, requires_grad=True)
        return table, mlp, protos, r

    def terms(protos, r):
        # two source entities of gold row 1 and a target entity of gold row 4
        scores = prototype_scores(r, protos)
        pc = contrastive_loss(scores, [1, 4, 1], 0.7)
        kl = confusion_loss(scores, [1, 4, 1], [0, 2], protos, 0.6)
        return pc, kl, ad.weighted_sum([pc, kl], [1.0, 0.8])

    def losses():
        with Tape():
            _, _, protos, r = build()
            return tuple(t.item() for t in terms(protos, r))

    fd = oracles.finite_difference_grads(losses, arrays)

    with Tape() as tape:
        table, mlp, protos, r = build()
        ad.backward(terms(protos, r)[2], tape)

    tensors = [table, mlp.hidden_layer.w, mlp.hidden_layer.b, mlp.output_layer.w, mlp.output_layer.b, r]
    for tensor, numeric in zip(tensors, fd[2]):
        assert oracles.relative_error(tensor.grad, numeric) < 1e-6
