import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import add, dot_all, mul, sum_all
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.classifier import (
    PrototypeMatrix,
    _log_softmax,
    build_prototypes,
    contrastive_loss,
    prototype_scores,
)
from pclc.errors import AutodiffError, ShapeError
from pclc.layers import Mlp, final_states
from pclc.rng import make_rng
from pclc.tagger import _log_sum_exp
from test_classifier import _toy_schema, _toy_vocab_and_table

SCHEMA = _toy_schema()
VOCAB = _toy_vocab_and_table(SCHEMA)[0]


def _prototypes(table, w1, b1, w2, b2):
    """The toy schema's (5, 4) prototype matrix from a (n_words, 6) word table
    and the given MLP parameters."""
    mlp = Mlp(6, 4, 4, make_rng(0), "mlp")
    mlp.hidden_layer.w, mlp.hidden_layer.b, mlp.output_layer.w, mlp.output_layer.b = w1, b1, w2, b2
    return build_prototypes(SCHEMA, ["src_a", "src_b"], "tgt", VOCAB, table, mlp).matrix


def test_matmul_identity():
    # the product inside `linear`, with zero bias
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    out = ad.linear(Tensor(a), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.array_equal(out.values, a)


def test_tanh_at_origin():
    # the prototype MLP's tanh: with zero embeddings and hidden bias,
    # tanh(0) = 0, so every prototype row is the output bias
    b2 = np.arange(4.0)
    zeros = [Tensor(np.zeros(s)) for s in [(VOCAB.n_words, 6), (6, 4), 4, (4, 4)]]
    matrix = _prototypes(*zeros, Tensor(b2))
    assert np.array_equal(matrix.values, np.tile(b2, (5, 1)))


def test_dropout_eval_is_identity():
    x = Tensor([[1.0, -2.0, 3.0]])
    out = ad.dropout(x, 0.3, training=False)
    assert out is x


def test_dropout_train_scales_by_keep_probability():
    rng = make_rng(0)
    x = Tensor(np.ones((200, 50)))
    out = ad.dropout(x, 0.3, rng=rng, training=True)
    kept = out.values[out.values != 0.0]
    assert np.allclose(kept, 1.0 / 0.7)
    assert 0.6 < (out.values != 0).mean() < 0.8


def test_dropout_rejects_bad_rate():
    with pytest.raises(ShapeError):
        ad.dropout(Tensor([1.0]), 1.0, training=False)


def test_linear_shape_error_names_op_and_shapes():
    b = Tensor(np.zeros(3))
    with pytest.raises(ShapeError) as err:
        ad.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), b)
    assert str(err.value) == "linear: inner dims disagree, (2, 3) @ (2, 3)"
    with pytest.raises(ShapeError) as err:
        ad.linear(Tensor(np.ones(2)), Tensor(np.ones((2, 3))), b)
    assert str(err.value) == "linear: expects 2-d operands, got (2,) @ (2, 3)"


# ---------------------------------------------------------------------------
# log_sum_exp (the CRF's numpy helper) / log_softmax (the losses' numpy helper)


def test_log_sum_exp_two_zeros():
    out = _log_sum_exp(np.array([0.0, 0.0]), axis=0)
    assert float(out) == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_sum_exp_no_overflow_at_1e3():
    out = _log_sum_exp(np.array([1000.0, 1000.0]), axis=0)
    assert float(out) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)


def test_log_sum_exp_matches_extended_precision():
    rng = make_rng(1)
    for _ in range(20):
        x = rng.uniform(-5, 5, size=5)
        got = float(_log_sum_exp(x, axis=0))
        assert got == pytest.approx(oracles.mp_log_sum_exp(x), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
def test_log_sum_exp_bounds(xs):
    out = float(_log_sum_exp(np.array(xs), axis=0))
    assert out >= max(xs) - 1e-12
    assert out <= max(xs) + math.log(len(xs)) + 1e-12


def test_log_softmax_uniform():
    out = _log_softmax(np.array([[1.0, 1.0, 1.0]]))
    assert np.allclose(out, -math.log(3.0), atol=1e-15)


def test_log_softmax_single_element():
    out = _log_softmax(np.array([[4.2]]))
    assert out[0, 0] == 0.0


def test_log_softmax_frozen_oracle_values():
    # mpmath (50 digits) on [0.6, 0.2, 0.2]
    expected = [-0.8504244355835798, -1.2504244355835799, -1.2504244355835799]
    out = _log_softmax(np.array([[0.6, 0.2, 0.2]]))
    assert np.allclose(out[0], expected, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
def test_log_softmax_exponentials_sum_to_one(xs):
    out = _log_softmax(np.array([xs]))
    assert np.exp(out).sum() == pytest.approx(1.0, abs=1e-12)
    assert (out <= 1e-15).all()


# ---------------------------------------------------------------------------
# backward


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
        ad.backward(loss, tape)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_tanh_derivative_at_zero():
    # the prototype MLP's tanh at 0 has slope 1: with zero embeddings and
    # hidden bias, d sum(matrix) / d b1 is one w2 row sum per prototype row
    rng = make_rng(8)
    w2 = rng.uniform(0.5, 1.0, (4, 4))
    b1 = Tensor(np.zeros(4), requires_grad=True)
    zeros = [Tensor(np.zeros(s)) for s in [(VOCAB.n_words, 6), (6, 4)]]
    with Tape() as tape:
        loss = sum_all(_prototypes(*zeros, b1, Tensor(w2), Tensor(np.zeros(4))))
        ad.backward(loss, tape)
    assert np.allclose(b1.grad, 5.0 * w2.sum(axis=1), rtol=1e-14, atol=0.0)


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(AutodiffError):
            ad.backward(y, tape)


def test_backward_refuses_a_loss_no_record_produced():
    # a leaf used on the tape, and a loss recorded on another tape
    p = Tensor([[2.0]], requires_grad=True)
    with Tape() as other:
        elsewhere = ad.take_rows(p, [0])
    with Tape() as tape:
        ad.take_rows(p, [0, 0])
        for loss in (p, elsewhere):
            with pytest.raises(AutodiffError) as err:
                ad.backward(loss, tape)
            assert str(err.value) == "backward: loss is not connected to this tape"
    assert p.grad is None and other.records


def test_backward_rejects_empty_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        with pytest.raises(AutodiffError):
            ad.backward(x, tape)


def test_backward_consumes_the_tape():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(ad.take_rows(mul(x, x), [0, 0, 0]))
        assert [rec.kind for rec in tape.records] == ["mul", "take_rows", "sum_all"]
        ad.backward(loss, tape)
        assert tape.records == []
        with pytest.raises(AutodiffError) as err:
            ad.backward(loss, tape)
    assert str(err.value) == "backward: tape is empty"
    assert np.array_equal(x.grad, [[6.0, 12.0]])


def test_backward_accumulates_into_existing_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            loss = sum_all(mul(x, x))
            ad.backward(loss, tape)
    assert np.allclose(x.grad, [4.0, 8.0])


def test_backward_shared_input_fanout():
    # f(x) = sum(x * x) + sum(x): both consumers must accumulate
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.weighted_sum([sum_all(mul(x, x)), sum_all(x)], [1.0, 1.0])
        ad.backward(loss, tape)
    assert x.grad[0] == pytest.approx(7.0)


def test_row_gather_gradient_equals_add_at_reference():
    # heavy duplicates: 400 indices over 5 of 50 rows, in random order
    rng = np.random.default_rng(3)
    table = Tensor(rng.normal(size=(50, 7)), requires_grad=True)
    idx = rng.integers(10, 15, size=400)
    weights = rng.normal(size=(400, 7)) * 10.0 ** rng.integers(-8, 8, size=(400, 1))
    with Tape() as tape:
        loss = dot_all(ad.take_rows(table, idx), weights)
        ad.backward(loss, tape)
    want = np.zeros((50, 7))
    np.add.at(want, idx, weights)
    assert np.array_equal(table.grad, want)


def test_row_gather_refuses_out_of_range_indices():
    # numpy would wrap -1 round to the last row; a gather never does
    table = Tensor(np.arange(6.0).reshape(3, 2))
    for idx in ([0, 3], [-1], np.array([[1], [5]])):
        with pytest.raises(ShapeError) as err:
            ad.take_rows(table, idx)
        assert str(err.value) == "take_rows: index out of range for 3 rows"
    assert ad.take_rows(table, []).shape == (0, 2)


def _assert_own_buffers(grads):
    # mutating any one gradient leaves every other one unchanged
    for i, gi in enumerate(grads):
        before = [g.copy() for g in grads]
        gi += 1.0
        for j, gj in enumerate(grads):
            if j != i:
                assert np.array_equal(gj, before[j])


def test_backward_leaves_joined_by_add_own_their_gradients():
    # add hands the same gradient object to both of its inputs
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    w = np.arange(6.0).reshape(2, 3)
    with Tape() as tape:
        loss = dot_all(add(a, b), w)
        ad.backward(loss, tape)
    assert np.array_equal(a.grad, w) and np.array_equal(b.grad, w)
    _assert_own_buffers([a.grad, b.grad])


def _flat(t):
    """`t` as one row; the vjp hands back a view of the output gradient."""
    return ad.emit("flat", [t], t.values.reshape(-1), lambda g: (g.reshape(t.shape),))


def test_backward_reshaped_leaf_owns_its_gradient():
    # c takes the gradient of the outer add; the flattening's vjp hands a
    # view of that same array down to a and b
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    c = Tensor(np.ones(6), requires_grad=True)
    w = np.arange(6.0)
    with Tape() as tape:
        loss = dot_all(add(_flat(add(a, b)), c), w)
        ad.backward(loss, tape)
    assert np.array_equal(c.grad, w)
    assert np.array_equal(a.grad, w.reshape(2, 3)) and np.array_equal(b.grad, w.reshape(2, 3))
    _assert_own_buffers([a.grad, b.grad, c.grad])


def test_full_composite_loss_gradient_vs_finite_differences():
    # 10-parameter toy: 2x2 entity map, 2 prototypes of dim 2, temperature mix,
    # exercising linear / scores / contrastive / weighted_sum and a product
    rng = make_rng(7)
    w = rng.uniform(-1, 1, (2, 2))
    protos = rng.uniform(-1, 1, (2, 2))
    bias = rng.uniform(-1, 1, 2)
    arrays = [w, protos, bias]

    def build():
        wt = Tensor(w, requires_grad=True)
        pt = Tensor(protos, requires_grad=True)
        bt = Tensor(bias, requires_grad=True)
        r = ad.linear(Tensor([[0.3, -0.7]]), wt, bt)
        scores = _scores(mul(r, r), pt)
        pick = contrastive_loss(scores, [0], 1.0)
        sharp = contrastive_loss(ad.linear(scores, Tensor([[2.0, 0.0], [0.0, 2.0]]), bt), [1], 1.0)
        reg = sum_all(mul(pt, pt))
        return ad.weighted_sum([pick, sharp, reg], [1.0, 1.0, 0.1]), [wt, pt, bt]

    def loss_value() -> tuple[float]:
        with Tape():
            return (build()[0].item(),)

    fd = oracles.finite_difference_grads(loss_value, arrays)[0]

    with Tape() as tape:
        loss, tensors = build()
        ad.backward(loss, tape)

    for tensor, numeric in zip(tensors, fd):
        assert oracles.relative_error(tensor.grad, numeric) < 1e-6


def _weights(*shape):
    """A fixed array of distinct weights, so a vjp that moves an entry shows."""
    return np.linspace(-1.0, 2.0, int(np.prod(shape))).reshape(shape)


PROTOTYPE_SHAPES = [(VOCAB.n_words, 6), (6, 4), (4,), (4, 4), (4,)]

def _scores(reps, matrix):
    return prototype_scores(reps, PrototypeMatrix(matrix, [], [], "", {}))


# (id, loss of the input tensors, input shapes)
PRIMITIVE_CASES = [
    ("linear", lambda t: dot_all(ad.linear(*t), _weights(3, 4)), [(3, 2), (2, 4), (4,)]),
    (
        "weighted_sum",
        lambda t: ad.weighted_sum([sum_all(mul(t[0], t[0])), dot_all(t[1], _weights(3, 2))], [0.7, -1.3]),
        [(3, 2)] * 2,
    ),
    (
        "concat",
        lambda t: sum_all(mul(ad.concat([t[0], t[1]]), ad.concat([t[1], t[0]]))),
        [(3, 2)] * 2,
    ),
    ("take_rows", lambda t: dot_all(ad.take_rows(t[0], [0, 2, 2]), _weights(3, 2)), [(3, 2)]),
    ("final_states", lambda t: dot_all(final_states(t[0], [2, 3, 1]), _weights(3, 4)), [(9, 4)]),
    ("scores", lambda t: dot_all(_scores(*t), _weights(3, 4)), [(3, 2), (4, 2)]),
    ("prototypes", lambda t: dot_all(_prototypes(*t), _weights(5, 4)), PROTOTYPE_SHAPES),
    ("contrastive", lambda t: contrastive_loss(t[0], [1, 0, 1], 0.7), [(3, 2)]),
]


@pytest.mark.parametrize("name,fn,shapes", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients_match_finite_differences(name, fn, shapes):
    rng = make_rng(zlib.crc32(name.encode()))  # str hashes are salted per process
    arrays = [rng.uniform(-1, 1, shape) for shape in shapes]

    def run():
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            loss = fn(tensors)
            ad.backward(loss, tape)
        return loss, tensors

    def loss_value():
        tensors = [Tensor(a) for a in arrays]
        with Tape():
            return (fn(tensors).item(),)

    fd = oracles.finite_difference_grads(loss_value, arrays)[0]
    _, tensors = run()
    for tensor, numeric in zip(tensors, fd):
        assert oracles.relative_error(tensor.grad, numeric) < 1e-6, name


def test_dropout_gradient_with_fixed_mask():
    x_arr = make_rng(3).uniform(-1, 1, (4, 5))

    def loss_value():
        x = Tensor(x_arr, requires_grad=True)
        with Tape():
            out = ad.dropout(x, 0.4, rng=make_rng(11), training=True)
            return (sum_all(mul(out, out)).item(),)

    fd = oracles.finite_difference_grads(loss_value, [x_arr])[0][0]
    x = Tensor(x_arr, requires_grad=True)
    with Tape() as tape:
        out = ad.dropout(x, 0.4, rng=make_rng(11), training=True)
        loss = sum_all(mul(out, out))
        ad.backward(loss, tape)
    assert oracles.relative_error(x.grad, fd) < 1e-6


def test_tape_replay_is_bit_identical():
    def run():
        rng = make_rng(5)
        x = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        with Tape() as tape:
            h = ad.dropout(ad.linear(x, w, Tensor(np.zeros(3))), 0.2, rng=rng, training=True)
            loss = sum_all(mul(h, h))
            ad.backward(loss, tape)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    assert np.array_equal(gx1, gx2)
    assert np.array_equal(gw1, gw2)
