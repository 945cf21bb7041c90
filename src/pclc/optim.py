"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor
from .errors import OptimError, TrainingDiverged

# elements per block of `Adam.step`: g, m, v, the parameter and the scratch
# block together take 1.25 MiB of float64
BLOCK = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator offset


class Adam:
    """Standard Adam over a named, ordered parameter collection.

    Moment buffers match parameter shapes; the step counter strictly
    increases. `step` consumes and clears the gradients, using each
    gradient buffer as working memory, and updates the parameter values in
    place, so they must be C-contiguous (as every model parameter is).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 0.0005):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros(p.values.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.values.shape) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimError(f"adam: parameter {name!r} has no gradient")
            if not p.values.flags.c_contiguous:
                raise OptimError(f"adam: parameter {name!r} values are not C-contiguous")
        self.t += 1
        b1, b2 = BETA1, BETA2
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        # one block-sized buffer for the whole step; each block's g, m, v and
        # parameter values stay in cache through the whole sequence below
        size = max((p.values.size for p in self.params.values()), default=0)
        scratch = np.empty(min(size, BLOCK))
        for name, p in self.params.items():
            # flat views; a gradient that is not C-contiguous is flattened
            # into a copy, which is fine because it is only working memory
            flat = [a.reshape(-1) for a in (p.grad, self.m[name], self.v[name], p.values)]
            for lo in range(0, flat[0].size, BLOCK):
                g, m, v, x = (a[lo : lo + BLOCK] for a in flat)
                s = scratch[: g.size]
                m *= b1
                np.multiply(1.0 - b1, g, out=s)
                m += s
                v *= b2
                np.multiply(1.0 - b2, g, out=s)
                s *= g
                v += s
                # x -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order,
                # the numerator in the consumed gradient and the denominator in s
                np.divide(m, bc1, out=g)
                g *= self.lr
                np.divide(v, bc2, out=s)
                np.sqrt(s, out=s)
                s += EPS
                g /= s
                x -= g
            p.grad = None


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm; a
    norm that is not finite is TrainingDiverged, naming the largest gradient."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is reported below, as a norm of inf
        for p in params.values():
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if not math.isfinite(norm):
        peak = {n: np.abs(p.grad).max(initial=0.0) for n, p in params.items() if p.grad is not None}
        worst = max(peak, key=lambda n: math.inf if math.isnan(peak[n]) else peak[n])
        raise TrainingDiverged(f"gradient norm is {norm}, largest gradient in {worst!r}")
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
