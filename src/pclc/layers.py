"""Parameterized layers built on the autodiff primitives.

A batch of sequences is one ((t_max * B), dim) matrix with row t*B + b
holding step t of sequence b (the `EncodedBatch` row layout) plus the
per-sequence lengths. `run_lstm` is a fused primitive: the input projection
for every step is one matmul, only the hidden-state product stays in the
recurrence, and its vjp is masked backpropagation through time.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng, name: str):
        scale = 1.0 / np.sqrt(in_dim)
        self.w = Tensor(rng.uniform(-scale, scale, (in_dim, out_dim)), requires_grad=True)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True)
        self.name = name

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.w), self.b)

    def parameters(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class LstmCell:
    """LSTM weights: `w` is ((in_dim + hidden), 4*hidden), input rows first,
    then hidden rows; gate columns are ordered input, forget, cell, output."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.in_dim = in_dim
        self.hidden = hidden
        scale = 1.0 / np.sqrt(hidden)
        self.w = Tensor(
            rng.uniform(-scale, scale, (in_dim + hidden, 4 * hidden)),
            requires_grad=True,
        )
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        self.b = Tensor(b, requires_grad=True)
        self.name = name

    def parameters(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


def _sigmoid_(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)) in place, rounding as `autodiff.sigmoid` does."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def run_lstm(cell: LstmCell, x: Tensor, lengths: list[int]) -> Tensor:
    """Run `cell` over a padded batch of sequences as one tape record.

    `x` is ((t_max * B), in_dim) with row t*B + b holding step t of sequence
    b, and t_max = max(lengths). Returns the ((t_max * B), hidden) states in
    the same layout. Past its length a row carries its last state forward,
    so the final B rows are each sequence's final state, and padded input
    rows get exactly zero gradient.
    """
    if not lengths or min(lengths) < 1:
        raise ShapeError(f"run_lstm: every length must be >= 1, got {lengths}")
    t_max, batch, n_in, hid = max(lengths), len(lengths), cell.in_dim, cell.hidden
    if x.shape != (t_max * batch, n_in):
        raise ShapeError(f"run_lstm: input {x.shape} does not fit lengths {lengths} x {n_in}")
    w_x, w_h = cell.w.values[:n_in], cell.w.values[n_in:]
    dead = [np.flatnonzero(np.asarray(lengths) <= t) for t in range(t_max)]
    gates = (x.values @ w_x + cell.b.values).reshape(t_max, batch, 4 * hid)
    i, f, g, o = (gates[:, :, k * hid : (k + 1) * hid] for k in range(4))
    hs = np.zeros((t_max + 1, batch, hid))  # hs[t + 1]: carried state after step t
    cs = np.zeros((t_max + 1, batch, hid))
    tanh_c = np.empty((t_max, batch, hid))
    for t in range(t_max):
        gates[t] += hs[t] @ w_h
        _sigmoid_(gates[t, :, : 2 * hid])  # i and f
        np.tanh(g[t], out=g[t])
        _sigmoid_(o[t])
        c, h = cs[t + 1], hs[t + 1]
        np.multiply(f[t], cs[t], out=c)
        c += i[t] * g[t]
        np.tanh(c, out=tanh_c[t])
        np.multiply(o[t], tanh_c[t], out=h)
        c[dead[t]], h[dead[t]] = cs[t][dead[t]], hs[t][dead[t]]

    def vjp(d_out):
        # dL/d(pre-activation) = upstream * partner * activation slope:
        # i <- dc * g, f <- dc * c_prev, g <- dc * i, o <- dh * tanh(c)
        fac = 1.0 - gates
        fac *= gates
        fac_g = fac[:, :, 2 * hid : 3 * hid]
        np.multiply(g, g, out=fac_g)
        np.subtract(1.0, fac_g, out=fac_g)
        for k, partner in enumerate((g, cs[:-1], i, tanh_c)):
            fac[:, :, k * hid : (k + 1) * hid] *= partner
        dc_from_h = 1.0 - tanh_c * tanh_c
        dc_from_h *= o
        d_out = d_out.reshape(t_max, batch, hid)
        dz = np.empty_like(gates)
        dh_next = np.zeros((batch, hid))
        dc_next = np.zeros((batch, hid))
        for t in range(t_max - 1, -1, -1):
            dh = d_out[t] + dh_next
            dc = dh * dc_from_h[t]
            dc += dc_next
            d = dz[t]
            d.reshape(batch, 4, hid)[:, :3] = dc[:, None]
            d[:, 3 * hid :] = dh
            d *= fac[t]
            d[dead[t]] = 0.0
            dh_prev = d @ w_h.T
            dc_prev = dc * f[t]
            dh_prev[dead[t]], dc_prev[dead[t]] = dh[dead[t]], dc_next[dead[t]]
            dh_next, dc_next = dh_prev, dc_prev
        dz = dz.reshape(t_max * batch, 4 * hid)
        dw = np.empty_like(cell.w.values)
        np.matmul(x.values.T, dz, out=dw[:n_in])
        np.matmul(hs[:-1].reshape(t_max * batch, hid).T, dz, out=dw[n_in:])
        return dz @ w_x.T, dw, dz.sum(axis=0)

    return ad.emit("lstm", [x, cell.w, cell.b], hs[1:].reshape(t_max * batch, hid), vjp)


def final_states(states: Tensor, batch: int) -> Tensor:
    """The last `batch` rows of `run_lstm` output: each sequence's final state."""
    n = states.shape[0]
    return ad.take_rows(states, np.arange(n - batch, n))


class Mlp:
    """One tanh hidden layer followed by a linear map."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng, name: str):
        self.hidden_layer = Linear(in_dim, hidden, rng, f"{name}.hidden")
        self.output_layer = Linear(hidden, out_dim, rng, f"{name}.out")

    def __call__(self, x: Tensor) -> Tensor:
        return self.output_layer(ad.tanh(self.hidden_layer(x)))

    def parameters(self):
        return self.hidden_layer.parameters() + self.output_layer.parameters()
