"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import OptimError


class Adam:
    """Standard Adam over a named, ordered parameter collection.

    Moment buffers match parameter shapes; the step counter strictly
    increases. `step` consumes and clears the gradients, using each
    gradient buffer as working memory.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 0.0005,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.values) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.values) for name, p in self.params.items()}

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise OptimError(f"adam: parameter {name!r} has no gradient")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        # one buffer for the whole step, freed before the next backward pass
        scratch = np.empty(max((p.values.size for p in self.params.values()), default=0))
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            s = scratch[: g.size].reshape(g.shape)
            m *= b1
            np.multiply(1.0 - b1, g, out=s)
            m += s
            v *= b2
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            v += s
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) in that order, the
            # numerator in the consumed gradient and the denominator in s
            np.divide(m, bc1, out=g)
            g *= self.lr
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            s += self.eps
            g /= s
            p.values -= g
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Moment buffers keyed by stable names, for checkpointing."""
        out = {}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name]
            out[f"adam.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        for name in self.params:
            self.m[name] = np.array(arrays[f"adam.m.{name}"], dtype=np.float64)
            self.v[name] = np.array(arrays[f"adam.v.{name}"], dtype=np.float64)
        self.t = t


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = total**0.5
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm
