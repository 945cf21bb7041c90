import math
import os

import numpy as np
import pytest

import oracles
from conftest import DATA_DIR, crf_nll_one, dot_all, viterbi_one
from pclc import autodiff as ad
from pclc import tagger
from pclc.autodiff import Tape, Tensor
from pclc.config import TrainConfig
from pclc.data import (
    UNK_INDEX,
    Utterance,
    build_vocab,
    load_corpus,
    random_embeddings,
    split_leave_one_out,
)
from pclc.errors import ShapeError
from pclc.layers import run_lstm
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.tagger import (
    CrfLayer,
    Encoder,
    crf_nll_batch,
    extract_spans,
    gold_spans,
    viterbi_decode_batch,
)
from pclc.trainer import total_loss


def _zero_crf():
    crf = CrfLayer(make_rng(0))
    for p in (crf.transitions, crf.start, crf.end):
        p.values = np.zeros(p.shape)
    return crf


def _random_crf(rng):
    crf = CrfLayer(make_rng(0))  # its own generator: `rng`'s draws stay as they were
    crf.transitions.values = rng.uniform(-1, 1, (3, 3))
    crf.start.values = rng.uniform(-1, 1, 3)
    crf.end.values = rng.uniform(-1, 1, 3)
    return crf


def test_crf_nll_single_step_analytic():
    rng = make_rng(0)
    emis = rng.uniform(-1, 1, (1, 3))
    crf = _zero_crf()
    for gold in range(3):
        nll = crf_nll_one(Tensor(emis), [gold], crf).item()
        expected = oracles.mp_log_sum_exp(emis[0]) - emis[0][gold]
        assert nll == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("T", [1, 2, 3, 5])
def test_crf_nll_all_zero_scores_is_t_ln3(T):
    crf = _zero_crf()
    nll = crf_nll_one(Tensor(np.zeros((T, 3))), [0] * T, crf).item()
    assert nll == pytest.approx(T * math.log(3.0), abs=1e-12)


def test_crf_nll_matches_exhaustive_enumeration():
    rng = make_rng(1)
    for _ in range(20):
        T = int(rng.integers(1, 6))
        emis = rng.uniform(-2, 2, (T, 3))
        crf = _random_crf(rng)
        gold = [int(g) for g in rng.integers(0, 3, T)]
        nll = crf_nll_one(Tensor(emis), gold, crf).item()
        log_z = oracles.brute_force_log_partition(
            emis, crf.transitions.values, crf.start.values, crf.end.values
        )
        gold_score = oracles.crf_path_score(
            emis, crf.transitions.values, crf.start.values, crf.end.values, gold
        )
        assert nll == pytest.approx(log_z - gold_score, abs=1e-9)


def test_crf_gold_probability_in_unit_interval():
    rng = make_rng(2)
    for _ in range(30):
        T = int(rng.integers(1, 7))
        emis = rng.uniform(-3, 3, (T, 3))
        crf = _random_crf(rng)
        gold = [int(g) for g in rng.integers(0, 3, T)]
        nll = crf_nll_one(Tensor(emis), gold, crf).item()
        assert nll >= -1e-12
        assert 0.0 < math.exp(-nll) <= 1.0


def test_crf_nll_shape_mismatch_errors():
    crf = _zero_crf()
    with pytest.raises(ShapeError):
        crf_nll_one(Tensor(np.zeros((2, 3))), [0], crf)
    with pytest.raises(ShapeError):
        crf_nll_one(Tensor(np.zeros((2, 2))), [0, 0], crf)


def test_crf_gradients_match_finite_differences():
    rng = make_rng(3)
    T = 4
    emis = rng.uniform(-1, 1, (T, 3))
    trans = rng.uniform(-1, 1, (3, 3))
    start = rng.uniform(-1, 1, 3)
    end = rng.uniform(-1, 1, 3)
    gold = [1, 2, 0, 1]
    arrays = [emis, trans, start, end]

    def loss_value():
        crf = CrfLayer(make_rng(0))
        crf.transitions = Tensor(trans, requires_grad=True)
        crf.start = Tensor(start, requires_grad=True)
        crf.end = Tensor(end, requires_grad=True)
        with Tape():
            return (crf_nll_one(Tensor(emis), gold, crf).item(),)

    fd = oracles.finite_difference_grads(loss_value, arrays)[0]

    crf = CrfLayer(make_rng(0))
    crf.transitions = Tensor(trans, requires_grad=True)
    crf.start = Tensor(start, requires_grad=True)
    crf.end = Tensor(end, requires_grad=True)
    emis_t = Tensor(emis, requires_grad=True)
    with Tape() as tape:
        loss = crf_nll_one(emis_t, gold, crf)
        ad.backward(loss, tape)
    analytics = [emis_t.grad, crf.transitions.grad, crf.start.grad, crf.end.grad]
    for analytic, numeric in zip(analytics, fd):
        assert oracles.relative_error(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# batched CRF


def _ragged_batch(rng, low=-2.0, high=2.0):
    """Per-utterance (T_b, 3) emissions, B in 1..5 and T_b in 1..6 (unequal
    when B > 1, so padding is present), packed into the ((t_max*B), 3) row
    layout (row t*B + b) with random values in the padding."""
    while True:
        batch = int(rng.integers(1, 6))
        lengths = [int(n) for n in rng.integers(1, 7, batch)]
        if min(lengths) < max(lengths) or batch == 1:
            break
    t_max = max(lengths)
    packed = rng.uniform(low, high, (t_max * batch, 3))
    per_utt = [packed[b::batch][:n].copy() for b, n in enumerate(lengths)]
    return packed, lengths, per_utt


def _crf_arrays(crf):
    return crf.transitions.values, crf.start.values, crf.end.values


def test_crf_nll_batch_matches_exhaustive_enumeration():
    rng = make_rng(7)
    for _ in range(30):
        packed, lengths, per_utt = _ragged_batch(rng)
        crf = _random_crf(rng)
        gold = [[int(g) for g in rng.integers(0, 3, n)] for n in lengths]
        nll = crf_nll_batch(Tensor(packed), lengths, gold, crf).item()
        expected = sum(
            oracles.brute_force_log_partition(emis, *_crf_arrays(crf))
            - oracles.crf_path_score(emis, *_crf_arrays(crf), tags)
            for emis, tags in zip(per_utt, gold)
        )
        assert nll == pytest.approx(expected, abs=1e-9)


def test_crf_nll_batch_gradients_match_finite_differences():
    rng = make_rng(8)
    for _ in range(3):
        packed, lengths, _ = _ragged_batch(rng, -1.0, 1.0)
        crf = _random_crf(rng)
        gold = [[int(g) for g in rng.integers(0, 3, n)] for n in lengths]
        arrays = [packed, *_crf_arrays(crf)]

        def loss_value():
            return (crf_nll_batch(Tensor(packed), lengths, gold, crf).item(),)

        fd = oracles.finite_difference_grads(loss_value, arrays)[0]
        emis = Tensor(packed, requires_grad=True)
        with Tape() as tape:
            ad.backward(crf_nll_batch(emis, lengths, gold, crf), tape)
        analytics = [emis.grad, crf.transitions.grad, crf.start.grad, crf.end.grad]
        for analytic, numeric in zip(analytics, fd):
            assert oracles.relative_error(analytic, numeric) < 1e-6


def test_crf_nll_batch_padding_gets_exactly_zero_gradient():
    rng = make_rng(9)
    packed, lengths, _ = _ragged_batch(rng, -50.0, 50.0)
    batch = len(lengths)
    crf = _random_crf(rng)
    gold = [[int(g) for g in rng.integers(0, 3, n)] for n in lengths]
    emis = Tensor(packed, requires_grad=True)
    with Tape() as tape:
        ad.backward(crf_nll_batch(emis, lengths, gold, crf), tape)
    padded = [t * batch + b for b, n in enumerate(lengths) for t in range(n, max(lengths))]
    assert padded
    assert np.all(emis.grad[padded] == 0.0)
    assert np.all(np.isfinite(emis.grad))


def test_crf_nll_batch_rejects_inconsistent_inputs():
    crf = _zero_crf()
    emis = Tensor(np.zeros((6, 3)))  # t_max 3, batch 2
    with pytest.raises(ShapeError):
        crf_nll_batch(emis, [3, 2], [[0, 0, 0]], crf)
    with pytest.raises(ShapeError):
        crf_nll_batch(emis, [3, 2], [[0, 0, 0], [0, 0, 0]], crf)
    with pytest.raises(ShapeError):
        crf_nll_batch(emis, [3, 3, 3], [[0] * 3] * 3, crf)
    with pytest.raises(ShapeError):
        crf_nll_batch(emis, [3, 0], [[0, 0, 0], []], crf)


def test_viterbi_decode_batch_matches_brute_force_with_ties():
    rng = make_rng(10)
    for trial in range(30):
        packed, lengths, per_utt = _ragged_batch(rng)
        crf = _random_crf(rng)
        if trial % 2:  # small integers make equal-scoring paths common
            packed = np.round(packed)
            per_utt = [np.round(e) for e in per_utt]
            for p in (crf.transitions, crf.start, crf.end):
                p.values = np.round(p.values)
        got = viterbi_decode_batch(packed, lengths, crf)
        want = [oracles.brute_force_best_path(e, *_crf_arrays(crf)) for e in per_utt]
        assert got == want


def test_batch_loss_tape_records_at_most_1200():
    # one 64-utterance batch at the criterion-6 dims records one crf op,
    # not a per-utterance chain; the count is deterministic
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=1)
    config = TrainConfig(
        word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
        entity_hidden=24, proto_dim=24, dropout=0.1,
    )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    model = PclcModel(schema, "bus", vocab, word_matrix, config, make_rng(2))
    with Tape() as tape:
        total_loss(split.train[:64], model, config, make_rng(3))
    kinds = [rec.kind for rec in tape.records]
    assert kinds.count("crf_nll") == 1
    assert len(kinds) <= 1200


# ---------------------------------------------------------------------------
# viterbi


def test_viterbi_decoupled_tokens_take_per_token_argmax():
    rng = make_rng(4)
    emis = rng.uniform(-1, 1, (6, 3))
    crf = _zero_crf()
    assert viterbi_one(emis, crf) == list(emis.argmax(axis=1))


def test_viterbi_matches_brute_force():
    rng = make_rng(5)
    for _ in range(25):
        T = int(rng.integers(1, 7))
        emis = rng.uniform(-2, 2, (T, 3))
        crf = _random_crf(rng)
        got = viterbi_one(emis, crf)
        want = oracles.brute_force_best_path(
            emis, crf.transitions.values, crf.start.values, crf.end.values
        )
        assert got == want


def test_viterbi_all_zero_scores_gives_all_o():
    crf = _zero_crf()
    assert viterbi_one(np.zeros((4, 3)), crf) == [0, 0, 0, 0]


def test_viterbi_score_at_least_gold_score():
    rng = make_rng(6)
    for _ in range(20):
        T = int(rng.integers(1, 7))
        emis = rng.uniform(-2, 2, (T, 3))
        crf = _random_crf(rng)
        gold = [int(g) for g in rng.integers(0, 3, T)]
        best = viterbi_one(emis, crf)
        args = (emis, crf.transitions.values, crf.start.values, crf.end.values)
        assert oracles.crf_path_score(*args, best) >= oracles.crf_path_score(*args, gold) - 1e-12


# ---------------------------------------------------------------------------
# spans


def test_extract_spans_basic():
    spans = extract_spans(["B", "I", "O", "B"])
    assert [(s.start, s.end) for s in spans] == [(0, 1), (3, 3)]


def test_extract_spans_repairs_leading_i():
    spans = extract_spans(["I", "I"])
    assert [(s.start, s.end) for s in spans] == [(0, 1)]


def test_extract_spans_all_o_is_empty():
    assert extract_spans(["O", "O", "O"]) == []


def test_extract_spans_i_after_o_opens_new_span():
    spans = extract_spans(["O", "I", "I", "O"])
    assert [(s.start, s.end) for s in spans] == [(1, 2)]


def test_extract_spans_accepts_indices():
    spans = extract_spans([1, 2, 0, 1])
    assert [(s.start, s.end) for s in spans] == [(0, 1), (3, 3)]


def test_extract_spans_adjacent_b_tags():
    spans = extract_spans(["B", "B", "I"])
    assert [(s.start, s.end) for s in spans] == [(0, 0), (1, 2)]


def test_gold_spans_carry_slot_types():
    utt = Utterance(
        ["set", "lasagna", "timer"],
        ["O", "B", "O"],
        [None, "dish_name", None],
        "kitchen",
        "kitchen:0",
    )
    assert gold_spans(utt) == [(1, 1, "dish_name")]


# ---------------------------------------------------------------------------
# encoder


def _encoder_inputs(overfit_corpus, config):
    corpus, schema = overfit_corpus
    vocab = build_vocab(corpus, schema)
    rng = make_rng(0)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, rng)
    encoder = Encoder(vocab, word_matrix, config, make_rng(1))
    return corpus, vocab, encoder


def _encode_one(encoder, utt, vocab, training=False):
    """One utterance's (T, 2*hidden) states: with B=1 every row is live."""
    return encoder.encode_batch([utt], vocab, training).hidden


def test_encode_utterance_default_dims_give_400(overfit_corpus):
    config = TrainConfig()  # stock defaults: hidden 200 per direction
    corpus, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    utt = next(u for u in corpus if len(u.tokens) == 5)
    hidden = _encode_one(encoder, utt, vocab)
    assert hidden.shape == (5, 400)


def test_encode_utterance_eval_mode_deterministic(overfit_corpus):
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=2, dropout=0.5)
    corpus, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    utt = corpus[0]
    h1 = _encode_one(encoder, utt, vocab, training=False)
    h2 = _encode_one(encoder, utt, vocab, training=False)
    assert np.array_equal(h1.values, h2.values)


def test_encode_single_token_utterance(overfit_corpus):
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=1)
    corpus, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    utt = Utterance(["play"], ["O"], [None], "music", "music:x")
    hidden = _encode_one(encoder, utt, vocab)
    assert hidden.shape == (1, 12)
    assert np.isfinite(hidden.values).all()


def test_encode_batch_matches_single_utterance_eval(overfit_corpus):
    # padding and masking must not change per-utterance results
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=2, dropout=0.0)
    corpus, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    batch = [corpus[0], corpus[7], corpus[31]]
    assert len({len(u.tokens) for u in batch}) > 1
    enc = encoder.encode_batch(batch, vocab, training=False)
    for b, utt in enumerate(batch):
        single = _encode_one(encoder, utt, vocab)
        rows = [enc.flat(b, t) for t in range(enc.lengths[b])]
        assert np.allclose(enc.hidden.values[rows], single.values, atol=1e-12)


def _per_position_hidden(encoder, batch, vocab):
    """The word BiLSTM states built from one input row per position: each
    position's word vector and char states, with padded positions reading
    row 0 of both."""
    lengths, n = [len(u.tokens) for u in batch], len(batch)
    tokens = list(dict.fromkeys(t for u in batch for t in u.tokens))
    word_ids = np.zeros((max(lengths), n), dtype=np.intp)
    char_rows = np.zeros((max(lengths), n), dtype=np.intp)
    for b, utt in enumerate(batch):
        for t, token in enumerate(utt.tokens):
            word_ids[t, b], char_rows[t, b] = vocab.word_id(token), tokens.index(token)
    char_mat = encoder._char_features(tokens, vocab)
    x = ad.concat([
        ad.take_rows(encoder.word_table, word_ids.reshape(-1)),
        ad.take_rows(char_mat, char_rows.reshape(-1)),
    ])
    for lstm in encoder.layers:
        x = run_lstm(lstm, x, lengths)
    return x


@pytest.mark.parametrize("dims", ["criterion-6", "paper"])
def test_eval_encoding_from_distinct_tokens_matches_the_per_position_build(dims):
    # at inference the first word layer projects each distinct token once;
    # that changes the projection's row count, so the states agree to a
    # tolerance, not to the bit
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    config = TrainConfig()
    if dims == "criterion-6":
        config = TrainConfig(word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    encoder = Encoder(vocab, word_matrix, config, make_rng(2))
    lo = 0
    for size in (1, 3, 7, 64):
        batch = corpus[lo : lo + size]
        lo += size
        got = encoder.encode_batch(batch, vocab, training=False).hidden.values
        want = _per_position_hidden(encoder, batch, vocab).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("dims", ["criterion-6", "paper"])
def test_permuting_an_eval_batch_permutes_its_states_and_emissions_bit_for_bit(dims):
    # a standing guard for every change that packs, shares or reorders rows
    # across a batch: no utterance's result may depend on its neighbours'
    # order. Batch, permutation and seeds were fixed before the first run
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    config = TrainConfig()
    if dims == "criterion-6":
        config = TrainConfig(
            word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
            entity_hidden=24, proto_dim=24,
        )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    model = PclcModel(schema, "bus", vocab, word_matrix, config, make_rng(2))
    batch = corpus[2::9][:32]
    perm = make_rng(11).permutation(len(batch))
    assert len({u.domain for u in batch}) == 4 and len({len(u.tokens) for u in batch}) > 1
    grids = []
    for utterances in (batch, [batch[i] for i in perm]):
        enc = model.encode(utterances, training=False)
        shape = (enc.t_max, enc.batch_size, -1)
        emissions, _ = model.emissions(enc)
        grids.append((enc.hidden.values.reshape(shape), emissions.values.reshape(shape)))
    (states, emissions), (permuted_states, permuted_emissions) = grids
    assert np.array_equal(states[:, perm], permuted_states)
    assert np.array_equal(emissions[:, perm], permuted_emissions)


def test_training_encoding_gradients_equal_the_per_position_build():
    # training builds the first layer's input once per distinct token and
    # gathers it per position; while distinct tokens have distinct word ids,
    # every gradient sums the same terms in the same order as a per-position build
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    config = TrainConfig(
        word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=2, dropout=0.0
    )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    encoder = Encoder(vocab, word_matrix, config, make_rng(2))
    params = dict(encoder.parameters())
    for batch in (corpus[:7], corpus[7:71]):
        tokens = {t for u in batch for t in u.tokens}
        assert len({vocab.word_id(t) for t in tokens}) == len(tokens)
        rows = max(len(u.tokens) for u in batch) * len(batch)
        weights = make_rng(3).uniform(-1, 1, (rows, 2 * config.hidden))
        grads = []
        for build in (
            lambda: encoder.encode_batch(batch, vocab, training=True, rng=make_rng(4)).hidden,
            lambda: _per_position_hidden(encoder, batch, vocab),
        ):
            for p in params.values():
                p.grad = None
            with Tape() as tape:
                ad.backward(dot_all(build(), weights), tape)
            grads.append({name: p.grad for name, p in params.items()})
        for name, want in grads[1].items():
            assert np.array_equal(grads[0][name].view(np.int64), want.view(np.int64)), name


def _char_grads(encoder, features, weights):
    """Gradients of sum(weights * features()) on the encoder's char parameters."""
    char_params = [(n, p) for n, p in encoder.parameters() if n.startswith("char_")]
    for _, p in char_params:
        p.grad = None
    with Tape() as tape:
        ad.backward(dot_all(features(), weights), tape)
    return {n: p.grad.copy() for n, p in char_params}


def test_char_features_run_once_per_distinct_token(overfit_corpus, monkeypatch):
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=1)
    corpus, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    assert vocab.char_id("\u0436") == UNK_INDEX
    batch = [
        corpus[0],
        Utterance(["play"] * 4, ["O"] * 4, [None] * 4, "music", "music:r"),
        corpus[1],
        Utterance(["play", "\u0436azz"], ["O", "B"], [None, "genre"], "music", "music:o"),
        corpus[0],
    ]
    occurrences = [token for utt in batch for token in utt.tokens]
    distinct = list(dict.fromkeys(occurrences))
    c_max = max(len(token) for token in occurrences)
    assert len(distinct) < len(occurrences)

    lstm_rows = []

    def spy(cell, x, lengths):
        lstm_rows.append((cell, x.shape[0]))
        return run_lstm(cell, x, lengths)

    monkeypatch.setattr(tagger, "run_lstm", spy)
    tokens, rows = tagger._token_rows(batch)
    assert tokens == distinct
    with Tape() as tape:
        char_mat = encoder._char_features(tokens, vocab)
    assert [rec.kind for rec in tape.records].count("lstm") == 1
    assert lstm_rows == [(encoder.char_lstm, len(distinct) * c_max)]
    assert char_mat.shape == (len(distinct), 2 * config.char_hidden)
    live = [t * len(batch) + b for b, u in enumerate(batch) for t in range(len(u.tokens))]
    flat_rows = rows[live].tolist()
    assert [distinct[r] for r in flat_rows] == occurrences
    assert np.all(np.delete(rows, live) == 0)  # padded positions read row 0

    reference = oracles.per_occurrence_char_features(encoder, batch, vocab)
    got = char_mat.values[flat_rows]
    assert np.abs(got - reference.values).max() <= 1e-12

    weights = make_rng(6).uniform(-1, 1, got.shape)

    def deduplicated():
        return ad.take_rows(encoder._char_features(tokens, vocab), flat_rows)

    got_grads = _char_grads(encoder, deduplicated, weights)
    want_grads = _char_grads(
        encoder, lambda: oracles.per_occurrence_char_features(encoder, batch, vocab), weights
    )
    assert set(got_grads) == {"char_table", "char_fwd.w", "char_fwd.b", "char_bwd.w", "char_bwd.b"}
    for name, want in want_grads.items():
        assert np.abs(got_grads[name] - want).max() <= 1e-12 * np.abs(want).max(), name


def test_encode_empty_batch_errors(overfit_corpus):
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=1)
    _, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    with pytest.raises(ShapeError):
        encoder.encode_batch([], vocab, training=False)


def test_encode_empty_utterance_errors(overfit_corpus):
    config = TrainConfig(word_dim=8, char_dim=3, char_hidden=3, hidden=6, layers=1)
    _, vocab, encoder = _encoder_inputs(overfit_corpus, config)
    empty = Utterance([], [], [], "music", "music:e")
    with pytest.raises(ShapeError):
        encoder.encode_batch([empty], vocab, training=False)


def test_training_batch_crf_loss_and_gradients_are_the_sums_over_its_utterances():
    # a batch's utterances must not see each other: a fixed 16-utterance
    # data/transfer batch at the criterion-6 dims, dropout 0, against each
    # utterance run as a batch of one. Products round differently with
    # their row count (about 1e-14 relative), so the gate is 1e-10 of each
    # gradient's largest entry; one utterance leaking into another moves
    # whole entries.
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    batch = corpus[3::19][:16]
    config = TrainConfig(
        dropout=0.0, word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
        entity_hidden=24, proto_dim=24,
    )
    vocab = build_vocab(corpus, schema)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(31))
    model = PclcModel(schema, "bus", vocab, word_matrix, config, make_rng(32))
    params = {  # the encoder's, the emission layer's and the CRF's
        name: p for name, p in model.named_parameters().items()
        if not name.startswith(("entity_", "proto_mlp."))
    }

    def nll_and_grads(utterances):
        model.zero_grad()
        with Tape() as tape:
            enc = model.encode(utterances, training=True, rng=make_rng(0))
            gold = [[tagger.TAG_NAMES.index(t) for t in u.bio_tags] for u in utterances]
            nll = crf_nll_batch(model.emissions(enc)[0], enc.lengths, gold, model.crf)
            ad.backward(nll, tape)
        return nll.item(), {name: p.grad.copy() for name, p in params.items()}

    assert len({u.domain for u in batch}) == 4 and len({len(u.tokens) for u in batch}) == 4
    value, grads = nll_and_grads(batch)
    singles = [nll_and_grads([u]) for u in batch]
    assert abs(value - sum(v for v, _ in singles)) <= 1e-10 * abs(value)
    assert {"word_table", "char_table", "lstm0_fwd.w", "emission.w", "crf.transitions"} <= set(grads)
    for name, got in grads.items():
        want = sum(g[name] for _, g in singles)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(got).max(), name
