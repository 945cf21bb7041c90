import os

import numpy as np
import pytest

import oracles
from conftest import DATA_DIR
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.data import build_vocab, load_corpus, random_embeddings, split_leave_one_out
from pclc.errors import ShapeError
from pclc.layers import LstmCell, _sigmoid_, run_lstm
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.trainer import TrainConfig, total_loss


KINDS = ("ragged", "equal", "one_long")


def _ragged_lstm(rng, kind, in_dim=3, hidden=2):
    """A cell with random weights and a padded ((t_max*B), in_dim) batch of
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
    cell = LstmCell(in_dim, hidden, rng, "test")
    cell.b.values = rng.uniform(-1, 1, cell.b.shape)
    x = rng.uniform(-2, 2, (max(lengths) * batch, in_dim))
    return cell, x, lengths


def _padded_rows(lengths):
    batch = len(lengths)
    return [t * batch + b for b, n in enumerate(lengths) for t in range(n, max(lengths))]


def test_run_lstm_matches_step_by_step_reference():
    rng = make_rng(20)
    for kind in KINDS * 10:
        cell, x, lengths = _ragged_lstm(rng, kind)
        out = run_lstm(cell, Tensor(x), lengths).values
        want = oracles.lstm_reference(x, lengths, cell.w.values, cell.b.values)
        assert np.abs(out - want).max() < 1e-12
        batch = len(lengths)
        for b, n in enumerate(lengths):  # padded rows repeat the last live state
            for t in range(n, max(lengths)):
                assert np.array_equal(out[t * batch + b], out[(n - 1) * batch + b])


def test_run_lstm_gradients_match_finite_differences():
    rng = make_rng(21)
    for kind in KINDS:
        cell, x, lengths = _ragged_lstm(rng, kind)
        weights = rng.uniform(-1, 1, (x.shape[0], cell.hidden))
        arrays = [x, cell.w.values, cell.b.values]

        def loss_value():
            return (float((run_lstm(cell, Tensor(x), lengths).values * weights).sum()),)

        fd = oracles.finite_difference_grads(loss_value, arrays)[0]
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = run_lstm(cell, xt, lengths)
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(weights))), tape)
        for analytic, numeric in zip([xt.grad, cell.w.grad, cell.b.grad], fd):
            assert oracles.relative_error(analytic, numeric) < 1e-6


def test_run_lstm_padding_gets_exactly_zero_gradient():
    rng = make_rng(22)
    for kind in ("ragged", "one_long"):
        cell, x, lengths = _ragged_lstm(rng, kind)
        while min(lengths) == max(lengths):
            cell, x, lengths = _ragged_lstm(rng, kind)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            ad.backward(ad.tensor_sum(run_lstm(cell, xt, lengths)), tape)
        padded = _padded_rows(lengths)
        assert padded
        assert np.all(xt.grad[padded] == 0.0)
        live = np.setdiff1d(np.arange(x.shape[0]), padded)
        assert np.all(np.abs(xt.grad[live]).sum(axis=1) > 0.0)


def test_run_lstm_saturated_gates_stay_finite_and_silent():
    # pre-activations far below -709 overflow exp inside the sigmoid; the
    # gate is then exactly 0, with no RuntimeWarning (an error in this suite)
    rng = make_rng(24)
    for kind in KINDS:
        cell, x, lengths = _ragged_lstm(rng, kind)
        x = 1e4 * np.sign(x)
        assert (x @ cell.w.values[: cell.in_dim]).min() < -709
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = run_lstm(cell, xt, lengths)
            ad.backward(ad.tensor_sum(out), tape)
        assert np.all(np.abs(out.values) <= 1.0)
        for grad in (xt.grad, cell.w.grad, cell.b.grad):
            assert np.all(np.isfinite(grad))


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
        weights = rng.uniform(-1, 1, (x.shape[0], cell.hidden))
        perm = rng.permutation(batch)
        rows = (np.arange(max(lengths))[:, None] * batch + perm).reshape(-1)
        shuffled = (x[rows], weights[rows], [lengths[b] for b in perm])
        results = []
        for xs, ws, ls in ((x, weights, lengths), shuffled):
            xt = Tensor(xs, requires_grad=True)
            with Tape() as tape:
                out = run_lstm(cell, xt, ls)
                ad.backward(ad.tensor_sum(ad.mul(out, Tensor(ws))), tape)
            results.append((out.values, xt.grad))
            cell.w.grad = cell.b.grad = None
        (out, dx), (out_p, dx_p) = results
        assert np.abs(out_p - out[rows]).max() < 1e-12
        assert np.abs(dx_p - dx[rows]).max() < 1e-12


def test_run_lstm_rejects_inconsistent_inputs():
    cell = LstmCell(3, 2, make_rng(0), "test")
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((5, 3))), [3, 2])  # needs 6 rows
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((6, 4))), [3, 2])  # wrong input width
    with pytest.raises(ShapeError):
        run_lstm(cell, Tensor(np.zeros((6, 3))), [3, 0])


def test_batch_loss_records_one_lstm_op_per_direction():
    # one 64-utterance batch at the criterion-6 dims: char, word and entity
    # BiLSTMs are one record per direction each, not a per-timestep chain
    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    vocab = build_vocab(corpus, schema)
    split = split_leave_one_out(corpus, schema, "bus", seed=1)
    config = TrainConfig(
        word_dim=24, char_dim=8, char_hidden=8, hidden=24, layers=1,
        entity_hidden=24, proto_dim=24, dropout=0.1,
    )
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, make_rng(1))
    model = PclcModel(schema, "bus", vocab, word_matrix, config.model_dims(), make_rng(2))
    with Tape() as tape:
        total_loss(split.train[:64], model, config, make_rng(3))
    kinds = [rec.kind for rec in tape.records]
    assert kinds.count("lstm") == 6
    assert len(kinds) <= 250
