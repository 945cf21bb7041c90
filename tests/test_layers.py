import os
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import DATA_DIR, dot_all, sum_all
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.config import TrainConfig
from pclc.data import build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.errors import ShapeError
from pclc.layers import BiLstm, _sigmoid_, final_states, run_lstm
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.trainer import total_loss


KINDS = ("ragged", "equal", "one_long")


def _ragged_lstm(rng, kind, in_dim=3, hidden=2):
    """A BiLSTM with random weights and a padded ((t_max*B), in_dim) batch of
    B in 1..9 sequences with random values in the padded rows. Lengths are
    random in 1..6 with ties ("ragged"), all equal so nothing is padded
    ("equal"), or all 1 but one of 2..6 ("one_long")."""
    batch = int(rng.integers(1, 10))
    if kind == "ragged":
        lengths = [int(n) for n in rng.integers(1, 7, batch)]
    elif kind == "equal":
        lengths = [int(rng.integers(1, 7))] * batch
    else:
        lengths = [1] * batch
        lengths[int(rng.integers(batch))] = int(rng.integers(2, 7))
    cell = BiLstm(in_dim, hidden, rng, "test")
    for b in cell.b:
        b.values = rng.uniform(-1, 1, b.shape)
    x = rng.uniform(-2, 2, (max(lengths) * batch, in_dim))
    return cell, x, lengths


def _padded_rows(lengths):
    batch = len(lengths)
    return [t * batch + b for b, n in enumerate(lengths) for t in range(n, max(lengths))]


def _reversed_rows(lengths):
    """Row index taking (b, t) to (b, L_b-1-t) on live rows, padded rows fixed."""
    batch = len(lengths)
    rows = list(range(max(lengths) * batch))
    for b, n in enumerate(lengths):
        for t in range(n):
            rows[t * batch + b] = (n - 1 - t) * batch + b
    return rows


def _params(cell):
    return [cell.w[0], cell.b[0], cell.w[1], cell.b[1]]


def test_run_lstm_matches_step_by_step_reference():
    # forward half: the reference over x; backward half: the reference over
    # each sequence reversed in place, then un-reversed; padded rows are 0
    rng = make_rng(20)
    for kind in KINDS * 10:
        cell, x, lengths = _ragged_lstm(rng, kind)
        hid = cell.hidden
        out = run_lstm(cell, Tensor(x), lengths).values
        assert out.shape == (x.shape[0], 2 * hid)
        rev = _reversed_rows(lengths)
        want_fwd = oracles.lstm_reference(x, lengths, cell.w[0].values, cell.b[0].values)
        want_bwd = oracles.lstm_reference(x[rev], lengths, cell.w[1].values, cell.b[1].values)
        padded = _padded_rows(lengths)
        live = np.setdiff1d(np.arange(x.shape[0]), padded)
        assert np.abs(out[live, :hid] - want_fwd[live]).max() < 1e-12
        assert np.abs(out[live, hid:] - want_bwd[rev][live]).max() < 1e-12
        assert np.all(out[padded] == 0.0)


def test_run_lstm_gradients_match_finite_differences():
    # the loss also reads final_states, so its gather's vjp is checked too
    rng = make_rng(21)
    for kind in KINDS:
        cell, x, lengths = _ragged_lstm(rng, kind)
        weights = rng.uniform(-1, 1, (x.shape[0], 2 * cell.hidden))
        final_weights = rng.uniform(-1, 1, (len(lengths), 2 * cell.hidden))
        params = _params(cell)

        def loss_value():
            out = run_lstm(cell, Tensor(x), lengths)
            finals = final_states(out, lengths).values
            return (float((out.values * weights).sum() + (finals * final_weights).sum()),)

        fd = oracles.finite_difference_grads(loss_value, [x] + [p.values for p in params])[0]
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = run_lstm(cell, xt, lengths)
            loss = ad.weighted_sum(
                [dot_all(out, weights), dot_all(final_states(out, lengths), final_weights)], [1.0, 1.0]
            )
            ad.backward(loss, tape)
        for analytic, numeric in zip([xt.grad] + [p.grad for p in params], fd):
            assert oracles.relative_error(analytic, numeric) < 1e-6


def test_run_lstm_with_a_repeating_index_matches_finite_differences():
    # inference feeds the first word layer one row per distinct token and a
    # per-position index into them; rows repeat, so the gradient of a shared
    # row sums every position that reads it
    rng = make_rng(28)
    repeats = 0
    for kind in KINDS * 2:
        cell, x, lengths = _ragged_lstm(rng, kind)
        shared = rng.uniform(-2, 2, (4, cell.in_dim))
        index = rng.integers(0, len(shared), x.shape[0])
        live = np.setdiff1d(np.arange(x.shape[0]), _padded_rows(lengths))
        repeats += len(live) - len(set(index[live].tolist()))
        weights = rng.uniform(-1, 1, (x.shape[0], 2 * cell.hidden))
        final_weights = rng.uniform(-1, 1, (len(lengths), 2 * cell.hidden))
        params = _params(cell)

        def loss_value():
            out = run_lstm(cell, Tensor(shared), lengths, index)
            finals = final_states(out, lengths).values
            return (float((out.values * weights).sum() + (finals * final_weights).sum()),)

        fd = oracles.finite_difference_grads(loss_value, [shared] + [p.values for p in params])[0]
        st = Tensor(shared, requires_grad=True)
        with Tape() as tape:
            out = run_lstm(cell, st, lengths, index)
            loss = ad.weighted_sum(
                [dot_all(out, weights), dot_all(final_states(out, lengths), final_weights)], [1.0, 1.0]
            )
            ad.backward(loss, tape)
        for analytic, numeric in zip([st.grad] + [p.grad for p in params], fd):
            assert oracles.relative_error(analytic, numeric) < 1e-6
        per_position = run_lstm(cell, Tensor(shared[index]), lengths).values
        assert np.abs(out.values - per_position).max() < 1e-12
    assert repeats > 0


def test_run_lstm_padding_gets_exactly_zero_gradient():
    rng = make_rng(22)
    for kind in ("ragged", "one_long"):
        cell, x, lengths = _ragged_lstm(rng, kind)
        while min(lengths) == max(lengths):
            cell, x, lengths = _ragged_lstm(rng, kind)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            ad.backward(sum_all(run_lstm(cell, xt, lengths)), tape)
        padded = _padded_rows(lengths)
        assert padded
        assert np.all(xt.grad[padded] == 0.0)
        live = np.setdiff1d(np.arange(x.shape[0]), padded)
        assert np.all(np.abs(xt.grad[live]).sum(axis=1) > 0.0)


def test_run_lstm_gradient_on_padded_rows_reaches_nothing():
    # nothing reads a padded output row, so upstream gradient put only there
    # gives every input and parameter exactly zero gradient
    rng = make_rng(29)
    for kind in ("ragged", "one_long"):
        cell, x, lengths = _ragged_lstm(rng, kind)
        while min(lengths) == max(lengths):
            cell, x, lengths = _ragged_lstm(rng, kind)
        padded = _padded_rows(lengths)
        weights = np.zeros((x.shape[0], 2 * cell.hidden))
        weights[padded] = rng.uniform(-1, 1, (len(padded), 2 * cell.hidden))
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            ad.backward(dot_all(run_lstm(cell, xt, lengths), weights), tape)
        for grad in [xt.grad] + [p.grad for p in _params(cell)]:
            assert np.all(grad == 0.0)


def test_final_states_pick_each_directions_last_step():
    # lengths 1 and t_max are the edge cases: a length-1 sequence's forward
    # and backward finals are the same step, and at t_max no row is padded
    rng = make_rng(26)
    cell = BiLstm(3, 2, rng, "test")
    lengths = [1, 5, 3, 1, 5]
    batch = len(lengths)
    with Tape() as tape:
        out = run_lstm(cell, Tensor(rng.uniform(-2, 2, (5 * batch, 3))), lengths)
        finals = final_states(out, lengths).values
    assert [rec.kind for rec in tape.records] == ["lstm", "final_states"]
    assert finals.shape == (batch, 4)
    for b, n in enumerate(lengths):
        assert np.array_equal(finals[b, :2], out.values[(n - 1) * batch + b, :2])
        assert np.array_equal(finals[b, 2:], out.values[b, 2:])
    assert not np.array_equal(finals[1, 2:], out.values[4 * batch + 1, 2:])


def test_run_lstm_saturated_gates_stay_finite_and_silent():
    # pre-activations far below -709 overflow exp inside the sigmoid; the
    # gate is then exactly 0, with no RuntimeWarning (an error in this suite)
    rng = make_rng(24)
    for kind in KINDS:
        cell, x, lengths = _ragged_lstm(rng, kind)
        x = 1e4 * np.sign(x)
        for w in cell.w:
            assert (x @ w.values[: cell.in_dim]).min() < -709
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = run_lstm(cell, xt, lengths)
            ad.backward(sum_all(out), tape)
        assert np.all(np.abs(out.values) <= 1.0)
        for grad in [xt.grad] + [p.grad for p in _params(cell)]:
            assert np.all(np.isfinite(grad))


def test_untaped_run_lstm_holds_one_direction_at_a_time():
    # inference keeps no vjp, so a direction's packed input, gates and
    # state buffers must be gone before the other direction allocates its own
    rng = make_rng(27)
    in_dim, hid, batch, t_max = 50, 40, 30, 12
    cell = BiLstm(in_dim, hid, rng, "test")
    x = Tensor(rng.uniform(-1, 1, (t_max * batch, in_dim)))
    lengths = [t_max] * batch
    one_direction = t_max * batch * (in_dim + 7 * hid) * 8  # x_packed, gates, hs, cs, tanh(c)
    run_lstm(cell, x, lengths)  # warm any one-off allocations
    tracemalloc.start()
    try:
        run_lstm(cell, x, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert one_direction < peak < 2 * one_direction


def test_taped_run_lstm_keeps_gates_and_c_and_its_backward_works_in_them():
    # bounds in bytes from array shapes: a block is `rows x width` float64s
    rng = make_rng(30)
    in_dim, hid = 128, 64
    utterances = load_corpus(os.path.join(DATA_DIR, "transfer"))[0][:64]
    lengths = [len(u.tokens) for u in utterances]
    live, n_rows, batch = sum(lengths), max(lengths) * len(lengths), len(lengths)
    cell = BiLstm(in_dim, hid, rng, "test")
    x = Tensor(rng.uniform(-1, 1, (n_rows, in_dim)), requires_grad=True)
    weights = rng.uniform(-1, 1, (n_rows, 2 * hid))
    small = 64 * 1024  # tape record, closures, index arrays of a few ints per sequence

    def block(rows, width):
        return 8 * rows * width

    run_lstm(cell, x, lengths)  # warm any one-off allocations
    tracemalloc.start()
    try:
        with Tape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            loss = dot_all(run_lstm(cell, x, lengths), weights)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (a) per direction the post-activation gates and c, plus the output; the
    # packed row lists hold a live-rows int each; no packed h
    kept = 2 * (block(live, 4 * hid) + block(live, hid) + block(live, 1)) + block(n_rows, 2 * hid)
    assert start - before <= kept + small
    # (b) the upstream gradient and what backward returns, plus the input
    # projection's gather and product, four (live x hidden) buffers (the
    # packed upstream gradient and three gate-slope copies or scratch) and
    # one step's [dc, dc, dc, dh] block with four (batch x hidden) others
    returned = block(n_rows, in_dim) + 2 * (block(in_dim + hid, 4 * hid) + block(1, 4 * hid))
    scratch = 2 * block(live, in_dim) + 4 * block(live, hid) + 8 * block(batch, hid)
    assert peak - start <= block(n_rows, 2 * hid) + returned + scratch + small


def test_gate_sigmoid_on_a_gathered_block_equals_it_on_strided_slices():
    # run_lstm gathers the i, f and o columns of its gate rows into one
    # contiguous block before the sigmoid; that keeps every loss and
    # prediction bit-identical only while both layouts give the same bits
    rng = make_rng(25)
    for hid in (2, 25, 200):
        for n in (1, 7, 64):
            z = rng.normal(scale=8.0, size=(n, 4 * hid))
            z[0, :2] = (800.0, -800.0)
            strided = z.copy()
            _sigmoid_(strided[:, : 2 * hid])
            _sigmoid_(strided[:, 3 * hid :])
            block = np.concatenate([z[:, : 2 * hid], z[:, 3 * hid :]], axis=1)
            _sigmoid_(block)
            want = np.concatenate([strided[:, : 2 * hid], strided[:, 3 * hid :]], axis=1)
            assert np.array_equal(block.view(np.int64), want.view(np.int64))


def test_run_lstm_permuting_sequences_permutes_output_and_gradient():
    # the packed order depends on the length sort; the result must not
    rng = make_rng(23)
    for kind in KINDS * 3:
        cell, x, lengths = _ragged_lstm(rng, kind)
        batch = len(lengths)
        weights = rng.uniform(-1, 1, (x.shape[0], 2 * cell.hidden))
        perm = rng.permutation(batch)
        rows = (np.arange(max(lengths))[:, None] * batch + perm).reshape(-1)
        shuffled = (x[rows], weights[rows], [lengths[b] for b in perm])
        results = []
        for xs, ws, ls in ((x, weights, lengths), shuffled):
            xt = Tensor(xs, requires_grad=True)
            with Tape() as tape:
                out = run_lstm(cell, xt, ls)
                ad.backward(dot_all(out, ws), tape)
            results.append((out.values, xt.grad))
            for p in _params(cell):
                p.grad = None
        (out, dx), (out_p, dx_p) = results
        assert np.abs(out_p - out[rows]).max() < 1e-12
        assert np.abs(dx_p - dx[rows]).max() < 1e-12


def test_run_lstm_rejects_inconsistent_inputs():
    cell = BiLstm(3, 2, make_rng(0), "test")
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((5, 3))), [3, 2])  # needs 6 rows
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((6, 4))), [3, 2])  # wrong input width
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((6, 3))), [3, 0])
    for index in ([0, 1, 2, 0, 1], [0, 1, 2, 0, 1, 4], [0, 1, 2, 0, 1, -1]):
        with pytest.raises(ShapeError):  # 5 entries, then a row past the 4, then a negative one
            run_lstm(cell, Tensor(np.zeros((4, 3))), [3, 2], index)


def test_batch_loss_records_one_lstm_op_per_bilstm():
    # one 64-utterance batch at the criterion-6 dims: the char, word and
    # entity BiLSTMs are one record each, not a per-direction or
    # per-timestep chain
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
    assert kinds.count("lstm") == 3
    assert len(kinds) <= 250


def test_bilstm_draws_forward_then_backward_weights():
    # checkpoints and seeded runs rely on the draw order of the weights the
    # two directions had as separate cells: forward w, then backward w
    cell = BiLstm(3, 2, make_rng(7), "x")
    rng = make_rng(7)
    scale = 1.0 / np.sqrt(2)
    for w, b in zip(cell.w, cell.b):
        assert np.array_equal(w.values, rng.uniform(-scale, scale, (5, 8)))
        assert np.array_equal(b.values, [0, 0, 1, 1, 0, 0, 0, 0])  # forget-gate bias 1
    assert [name for name, _ in cell.parameters()] == ["x_fwd.w", "x_fwd.b", "x_bwd.w", "x_bwd.b"]


def test_two_layer_model_parameter_names_and_order():
    # checkpoints store tensors by these names; their order is the
    # optimizer's and the rng's, so seeded runs depend on it too
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    config = TrainConfig(word_dim=6, char_dim=3, char_hidden=3, hidden=4, layers=2,
                         entity_hidden=4, proto_dim=5)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    model = PclcModel(schema, "bus", vocab, word_matrix, config, make_rng(2))
    lstm = [f"{name}_{d}.{p}" for name in ("char", "lstm0", "lstm1")
            for d in ("fwd", "bwd") for p in ("w", "b")]
    entity = [f"entity_{d}.{p}" for d in ("fwd", "bwd") for p in ("w", "b")]
    assert list(model.named_parameters()) == [
        "word_table", "char_table", *lstm,
        "emission.w", "emission.b", "crf.transitions", "crf.start", "crf.end",
        *entity, "entity_proj.w", "entity_proj.b",
        "proto_mlp.hidden.w", "proto_mlp.hidden.b", "proto_mlp.out.w", "proto_mlp.out.b",
    ]
