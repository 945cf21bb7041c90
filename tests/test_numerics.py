"""The fused primitives on inputs up to magnitude 1e4: values and gradients
stay finite, with no RuntimeWarning (an error in this suite)."""

import numpy as np
import pytest

import oracles
from conftest import dot_all
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.classifier import confusion_loss, contrastive_loss
from pclc.layers import BiLstm, final_states, run_lstm
from pclc.rng import make_rng
from pclc.tagger import CrfLayer, crf_nll_batch, viterbi_decode_batch
from test_classifier import _protos_from_matrix

SCALES = (1.0, 1e2, 1e4)
LENGTHS = [3, 1, 4, 2, 4]


def _grads_of(loss_fn, tensors):
    with Tape() as tape:
        out = loss_fn()
        ad.backward(out, tape)
    return out, [t.grad for t in tensors]


def _crf(rng, scale):
    crf = CrfLayer(rng)
    for p in (crf.transitions, crf.start, crf.end):
        p.values = rng.uniform(-scale, scale, p.shape)
    return crf


@pytest.mark.parametrize("scale", SCALES)
def test_run_lstm_both_directions_stay_finite(scale):
    rng = make_rng(40)
    cell = BiLstm(4, 3, rng, "test")
    for w, b in zip(cell.w, cell.b):
        w.values *= scale
        b.values = rng.uniform(-scale, scale, b.shape)
    x = Tensor(rng.uniform(-scale, scale, (4 * len(LENGTHS), 4)), requires_grad=True)
    params = [cell.w[0], cell.b[0], cell.w[1], cell.b[1]]
    weights = rng.uniform(-scale, scale, (4 * len(LENGTHS), 6))
    final_weights = rng.uniform(-scale, scale, (len(LENGTHS), 6))

    def loss():
        out = run_lstm(cell, x, LENGTHS)
        finals = final_states(out, LENGTHS)
        return ad.weighted_sum([dot_all(out, weights), dot_all(finals, final_weights)], [1.0, 1.0])

    out, grads = _grads_of(loss, [x] + params)
    assert np.isfinite(out.item())
    for grad in grads:
        assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("scale", SCALES)
def test_crf_nll_batch_stays_finite(scale):
    rng = make_rng(41)
    crf = _crf(rng, scale)
    emissions = Tensor(rng.uniform(-scale, scale, (4 * len(LENGTHS), 3)), requires_grad=True)
    gold = [[int(y) for y in rng.integers(0, 3, n)] for n in LENGTHS]
    params = [emissions, crf.transitions, crf.start, crf.end]
    nll, grads = _grads_of(lambda: crf_nll_batch(emissions, LENGTHS, gold, crf), params)
    assert np.isfinite(nll.item())
    # a gold path scores at most the best path, so the NLL is >= 0 up to rounding
    assert nll.item() >= -1e-12 * scale * max(LENGTHS)
    for grad in grads:
        assert np.all(np.isfinite(grad))
    # unary marginals minus one-hots: every live position's row sums to 0
    rows = grads[0].reshape(max(LENGTHS), len(LENGTHS), 3).sum(axis=2)
    assert np.abs(rows).max() <= 1e-9


@pytest.mark.parametrize("scale", SCALES)
def test_viterbi_decode_batch_finds_the_best_path(scale):
    rng = make_rng(42)
    crf = _crf(rng, scale)
    emissions = rng.uniform(-scale, scale, (4 * len(LENGTHS), 3))
    paths = viterbi_decode_batch(emissions, LENGTHS, crf)
    grid = emissions.reshape(max(LENGTHS), len(LENGTHS), 3)
    args = (crf.transitions.values, crf.start.values, crf.end.values)
    for b, (n, path) in enumerate(zip(LENGTHS, paths)):
        emis = grid[:n, b]
        best = oracles.brute_force_best_path(emis, *args)
        got, want = (oracles.crf_path_score(emis, *args, p) for p in (path, best))
        assert abs(got - want) <= 1e-12 * scale * n


@pytest.mark.parametrize("scale", SCALES)
def test_contrastive_loss_stays_finite(scale):
    rng = make_rng(43)
    a = Tensor(rng.uniform(-scale, scale, (4, 6)), requires_grad=True)
    a.values[0, :2] = (scale, -scale)  # exp(-2 * scale) underflows to 0 at 1e4
    rows = [1, 0, 5, 3]  # row 0's gold score is the one that underflows
    out, (grad,) = _grads_of(lambda: contrastive_loss(a, rows, 0.7), [a])
    assert np.isfinite(out.item())
    assert np.all(np.isfinite(grad))
    # softmax minus one-hot: every row of the scores gradient sums to 0
    assert np.abs(grad.sum(axis=1)).max() <= 1e-12 * scale * 6


@pytest.mark.parametrize("scale", SCALES)
def test_take_rows_scatter_stays_finite(scale):
    rng = make_rng(44)
    a = Tensor(rng.uniform(-scale, scale, (5, 3)), requires_grad=True)
    idx = [4, 0, 4, 2, 4, 0]
    weights = rng.uniform(-scale, scale, (len(idx), 3))
    _, (grad,) = _grads_of(
        lambda: dot_all(ad.take_rows(a, idx), weights), [a]
    )
    want = np.zeros((5, 3))
    np.add.at(want, idx, weights)
    assert np.array_equal(grad, want)


@pytest.mark.parametrize("scale", SCALES)
def test_confusion_loss_stays_finite(scale):
    rng = make_rng(45)
    protos = _protos_from_matrix(rng.uniform(-scale, scale, (7, 5)), 4, 3)
    protos.matrix.requires_grad = True
    scores = Tensor(rng.uniform(-scale, scale, (6, 7)), requires_grad=True)
    scores.values[0, :2] = (scale, -scale)  # exp(-2 * scale) underflows to 0 at 1e4
    rows = [int(y) for y in rng.integers(0, 4, 6)]
    kl, grads = _grads_of(
        lambda: confusion_loss(scores, rows, list(range(6)), protos, 0.6), [scores, protos.matrix]
    )
    assert np.isfinite(kl.item())
    assert kl.item() >= -1e-12 * scale
    for grad in grads:
        assert np.all(np.isfinite(grad))
    # softmax minus target, scaled: each scores row's gradient sums to 0
    assert np.abs(grads[0].sum(axis=1)).max() <= 1e-12 * scale
