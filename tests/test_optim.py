import numpy as np
import pytest

import oracles
from conftest import add, mul, sum_all
from pclc import autodiff as ad
from pclc.autodiff import Tape, Tensor
from pclc.errors import OptimError, TrainingDiverged
from pclc.optim import BLOCK, Adam, clip_grad_norm


def test_first_step_moves_against_gradient_sign_by_lr():
    p = Tensor([2.0, -3.0], requires_grad=True)
    p.grad = np.array([10.0, -0.5])
    adam = Adam({"p": p}, lr=0.01)
    adam.step()
    # bias-corrected first step is -lr * sign(g) up to the eps term
    assert p.values[0] == pytest.approx(2.0 - 0.01, rel=1e-6)
    assert p.values[1] == pytest.approx(-3.0 + 0.01, rel=1e-6)


def test_zero_gradient_leaves_parameter_unchanged():
    p = Tensor([1.5], requires_grad=True)
    p.grad = np.zeros(1)
    adam = Adam({"p": p}, lr=0.1)
    adam.step()
    assert p.values[0] == 1.5


def test_missing_grad_raises():
    p = Tensor([1.0], requires_grad=True)
    adam = Adam({"p": p})
    with pytest.raises(OptimError) as err:
        adam.step()
    assert "p" in str(err.value)


def test_non_contiguous_parameter_raises():
    # the step updates flat views of the values in place
    p = Tensor(np.zeros((3, 2)).T, requires_grad=True)
    p.grad = np.ones((2, 3))
    with pytest.raises(OptimError) as err:
        Adam({"p": p}).step()
    assert "C-contiguous" in str(err.value)


def test_step_clears_gradients_and_increments_counter():
    p = Tensor([1.0], requires_grad=True)
    p.grad = np.ones(1)
    adam = Adam({"p": p})
    adam.step()
    assert p.grad is None
    assert adam.t == 1


def test_hundred_steps_on_quadratic_approaches_minimum():
    p = Tensor([0.0], requires_grad=True)
    adam = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        with Tape() as tape:
            diff = add(p, Tensor([-3.0]))
            loss = sum_all(mul(diff, diff))
            ad.backward(loss, tape)
        adam.step()
    assert abs(p.values[0] - 3.0) < 0.5

    # and the trajectory matches an independent scalar Adam exactly
    expected = oracles.reference_adam_run(lambda w: 2 * (w - 3.0), 0.0, 0.1, 100)
    assert p.values[0] == pytest.approx(expected, abs=1e-12)


def test_step_is_bit_equal_to_textbook_expression():
    # mixed shapes, the largest parameter not first, so scratch views of
    # every size are used; "e" spans two whole blocks and a partial third;
    # parameters start at 0 so that a last-bit change in the update is not
    # absorbed by the subtraction
    rng = np.random.default_rng(5)
    shapes = {"a": (3,), "b": (4, 5), "e": (3, BLOCK // 2 + 5), "c": (), "d": (2, 3, 2)}
    params = {k: Tensor(np.zeros(s), requires_grad=True) for k, s in shapes.items()}
    want = {k: p.values.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8  # Adam's textbook defaults
    adam = Adam(params, lr=lr)
    for t in range(1, 8):
        for k, s in shapes.items():
            g = np.array(rng.normal(size=s) * 10.0 ** rng.integers(-3, 3))
            params[k].grad = g
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        adam.step()
        for k in shapes:
            assert np.array_equal(params[k].values, want[k])
            assert np.array_equal(adam.m[k], m[k])
            assert np.array_equal(adam.v[k], v[k])


def test_clip_grad_norm_scales_to_bound():
    a = Tensor(np.zeros(3), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    a.grad = np.full(3, 4.0)
    b.grad = np.full(4, 3.0)
    params = {"a": a, "b": b}
    norm = clip_grad_norm(params, 5.0)
    assert norm == pytest.approx(np.sqrt(3 * 16 + 4 * 9))
    clipped = np.sqrt((a.grad**2).sum() + (b.grad**2).sum())
    assert clipped == pytest.approx(5.0)


def test_clip_grad_norm_leaves_small_gradients_alone():
    a = Tensor(np.zeros(2), requires_grad=True)
    a.grad = np.array([0.1, 0.2])
    clip_grad_norm({"a": a}, 5.0)
    assert np.allclose(a.grad, [0.1, 0.2])


@pytest.mark.parametrize("big, norm", [(1e200, "inf"), (np.nan, "nan"), (np.inf, "inf")])
def test_clip_grad_norm_refuses_a_norm_that_is_not_finite(big, norm):
    # 1e200 is finite, but its square overflows; scaling by 5/inf would zero every gradient
    params = {name: Tensor(np.zeros(2), requires_grad=True) for name in ("a", "b", "c")}
    params["a"].grad = np.array([1e150, 2.0])
    params["b"].grad = np.array([3.0, big])
    params["c"].grad = np.array([-1e100, 0.5])
    with pytest.raises(TrainingDiverged) as err:
        clip_grad_norm(params, 5.0)
    assert str(err.value) == f"gradient norm is {norm}, largest gradient in 'b'"
    assert params["b"].grad[0] == 3.0
