"""Parameterized layers built on the autodiff primitives.

A batch of sequences is one ((t_max * B), dim) matrix with row t*B + b
holding step t of sequence b (the `EncodedBatch` row layout) plus the
per-sequence lengths. `run_lstm` is a fused primitive that computes live
rows only: it sorts the sequences by length and packs their live rows
step-major (as `pack_padded_sequence` does), so the input projection is one
matmul over sum(lengths) rows, each step of the recurrence is one
contiguous block, and its vjp is backpropagation through time over the
same packed rows.
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
    the same layout. Past its length a row repeats its last state, so the
    final B rows are each sequence's final state, and padded input rows get
    exactly zero gradient.

    Only live rows are computed. Sequences are sorted by length (descending,
    stable) and their live rows packed step-major: step t owns rows
    starts[t]:starts[t+1], one per sequence longer than t, and its previous
    state is the first rows of step t-1's block.
    """
    if not lengths or min(lengths) < 1:
        raise ShapeError(f"run_lstm: every length must be >= 1, got {lengths}")
    t_max, batch, n_in, hid = max(lengths), len(lengths), cell.in_dim, cell.hidden
    if x.shape != (t_max * batch, n_in):
        raise ShapeError(f"run_lstm: input {x.shape} does not fit lengths {lengths} x {n_in}")
    w_x, w_h = cell.w.values[:n_in], cell.w.values[n_in:]
    lens, steps = np.asarray(lengths), np.arange(t_max)[:, None]
    order = np.argsort(-lens, kind="stable")
    live = lens[order] > steps  # live[t, j]: the j-th longest sequence has step t
    starts = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
    src = (steps * batch + order)[live]  # padded row of each packed row
    x_packed = x.values[src]
    gates = x_packed @ w_x
    gates += cell.b.values
    i, f, g, o = (gates[:, k * hid : (k + 1) * hid] for k in range(4))
    hs = np.empty((src.size, hid))
    cs = np.empty((src.size, hid))
    tanh_c = np.empty((src.size, hid))
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    for t, (lo, hi) in enumerate(bounds):
        z, c = gates[lo:hi], cs[lo:hi]
        if t:  # the previous state: the first hi - lo rows of step t-1
            prev = slice(bounds[t - 1][0], bounds[t - 1][0] + hi - lo)
            z += hs[prev] @ w_h
        _sigmoid_(z[:, : 2 * hid])  # i and f
        np.tanh(g[lo:hi], out=g[lo:hi])
        _sigmoid_(o[lo:hi])
        np.multiply(i[lo:hi], g[lo:hi], out=c)
        if t:
            c += f[lo:hi] * cs[prev]
        np.tanh(c, out=tanh_c[lo:hi])
        np.multiply(o[lo:hi], tanh_c[lo:hi], out=hs[lo:hi])
    rank = np.argsort(order)  # sequence b is the rank[b]-th longest
    out_rows = (starts[np.minimum(steps, lens - 1)] + rank).reshape(-1)

    def vjp(d_out):
        # packed row of step t-1 that feeds each row of steps 1..t_max-1
        prev_rows = (starts[:-1, None] + np.arange(batch))[:-1][live[1:]]
        n0 = bounds[0][1]
        # dL/d(pre-activation) = upstream * partner * activation slope:
        # i <- dc * g, f <- dc * c_prev, g <- dc * i, o <- dh * tanh(c)
        fac = 1.0 - gates
        fac *= gates
        fac_g = fac[:, 2 * hid : 3 * hid]
        np.multiply(g, g, out=fac_g)
        np.subtract(1.0, fac_g, out=fac_g)
        fac[:, :hid] *= g
        fac[:n0, hid : 2 * hid] = 0.0
        fac[n0:, hid : 2 * hid] *= cs[prev_rows]
        fac[:, 2 * hid : 3 * hid] *= i
        fac[:, 3 * hid :] *= tanh_c
        dc_from_h = 1.0 - tanh_c * tanh_c
        dc_from_h *= o
        # d_sorted[t, j]: gradient of padded row (t, j-th longest sequence);
        # padded rows repeat the last live state, so their gradient is
        # summed into `tail` and added at that sequence's last live step
        d_sorted = d_out.reshape(t_max, batch, hid)[:, order]
        tail = np.zeros((batch, hid))
        dz = np.empty_like(gates)
        dh_next = dc_next = np.zeros((0, hid))
        for t in range(t_max - 1, -1, -1):
            lo, hi = bounds[t]
            n, n_next = hi - lo, len(dh_next)
            tail[n:] += d_sorted[t, n:]
            dh = d_sorted[t, :n].copy()
            dh[:n_next] += dh_next
            dh[n_next:] += tail[n_next:n]
            dc = dh * dc_from_h[lo:hi]
            dc[:n_next] += dc_next
            d = dz[lo:hi]
            d.reshape(n, 4, hid)[:, :3] = dc[:, None]
            d[:, 3 * hid :] = dh
            d *= fac[lo:hi]
            if t:
                dh_next = d @ w_h.T
                dc_next = dc * f[lo:hi]
        dw = np.empty_like(cell.w.values)
        np.matmul(x_packed.T, dz, out=dw[:n_in])
        np.matmul(hs[prev_rows].T, dz[n0:], out=dw[n_in:])
        dx = np.zeros_like(x.values)
        dx[src] = dz @ w_x.T
        return dx, dw, dz.sum(axis=0)

    return ad.emit("lstm", [x, cell.w, cell.b], hs[out_rows], vjp)


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
