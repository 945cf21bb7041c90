"""Parameterized layers built on the autodiff primitives.

A batch of sequences is one ((t_max * B), dim) matrix with row t*B + b
holding step t of sequence b (the `EncodedBatch` row layout) plus the
per-sequence lengths. `run_lstm` runs a whole BiLSTM as one fused
primitive that reads and writes live rows only (padded output rows are
zero): it sorts the sequences by length and packs their live rows
step-major (as `pack_padded_sequence` does), so each direction's input
projection is one matmul over sum(lengths) rows, each step of the
recurrence is one contiguous block, and its vjp is backpropagation through
time over the same packed rows. The backward direction reads each sequence
reversed through a row index, so no caller reverses anything. Given a row
index into an input that many positions share, the projection runs over
the shared rows instead. Taped, each direction keeps its post-activation
gates and cell states c and reads its hidden states back from the output;
its vjp works in those buffers, so it runs once (as `backward` runs it).
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
        return ad.linear(x, self.w, self.b)

    def parameters(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class BiLstm:
    """Bidirectional LSTM weights: `w[k]` and `b[k]` for direction k, forward
    then backward. Each `w[k]` is ((in_dim + hidden), 4*hidden), input rows
    first, then hidden rows; gate columns are ordered input, forget, cell,
    output."""

    def __init__(self, in_dim: int, hidden: int, rng, name: str):
        self.in_dim, self.hidden, self.name = in_dim, hidden, name
        scale = 1.0 / np.sqrt(hidden)
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget-gate bias
        shape = (in_dim + hidden, 4 * hidden)
        self.w = [Tensor(rng.uniform(-scale, scale, shape), requires_grad=True) for _ in range(2)]
        self.b = [Tensor(b.copy(), requires_grad=True) for _ in range(2)]

    def parameters(self):
        tensors = [self.w[0], self.b[0], self.w[1], self.b[1]]
        names = [f"{self.name}_{d}.{p}" for d in ("fwd", "bwd") for p in ("w", "b")]
        return list(zip(names, tensors))


def _sigmoid_(z: np.ndarray) -> None:
    """z <- 1 / (1 + exp(-z)) in place. Below about -709 the exp overflows to
    inf and the result is 0, off by less than 1e-307, so the overflow
    warning is silenced."""
    np.negative(z, out=z)
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)


def _gates_to_dz_(gates, cs, d_h, prev_rows, bounds, w_h) -> None:
    """Backpropagate one `run_lstm` direction through time in its forward's
    buffers: the packed post-activation `gates` become dL/d(pre-activation)
    given `d_h`, the packed states' gradient; `cs` (c) and `d_h` are
    overwritten too. Each gate block first becomes its activation slope
    times its partner (i <- g, f <- c_prev, g <- i, o <- tanh(c)), formed in
    a contiguous copy (numpy runs ~2x slower on a strided block); each
    step's dz is then its factors times [dc, dc, dc, dh]."""
    hid, n0 = cs.shape[1], bounds[0][1]
    gi, gf, gg, go = (gates[:, j * hid : (j + 1) * hid] for j in range(4))
    i, g = gi.copy(), gg.copy()
    s = np.subtract(1.0, i)
    s *= i
    s *= g
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= i
    gi[:], gg[:] = s, g
    del i, g
    f = gf.copy()  # dc of step t-1 reads the forget gate
    np.subtract(1.0, f, out=s)
    s *= f
    s[:n0] = 0.0
    s[n0:] *= cs[prev_rows]
    gf[:] = s
    np.tanh(cs, out=cs)  # recomputed: the tape keeps c only
    o = go.copy()
    np.subtract(1.0, o, out=s)
    s *= o
    s *= cs
    np.multiply(cs, cs, out=cs)  # cs <- dc/dh = (1 - tanh(c)^2) * o
    np.subtract(1.0, cs, out=cs)
    cs *= o
    go[:] = s
    del s, o
    upstream = np.empty((n0, 4 * hid))  # [dc, dc, dc, dh] of one step
    dh_next = dc_next = np.zeros((0, hid))
    for t in range(len(bounds) - 1, -1, -1):
        lo, hi = bounds[t]
        n, n_next = hi - lo, len(dh_next)
        dh = d_h[lo:hi]
        dh[:n_next] += dh_next
        dc = dh * cs[lo:hi]
        dc[:n_next] += dc_next
        u = upstream[:n]
        u.reshape(n, 4, hid)[:, :3] = dc[:, None]
        u[:, 3 * hid :] = dh
        d = gates[lo:hi]
        d *= u
        if t:
            dh_next = d @ w_h.T
            dc_next = dc * f[lo:hi]


def run_lstm(
    cell: BiLstm, x: Tensor, lengths: list[int], index: np.ndarray | None = None
) -> Tensor:
    """Run the BiLSTM `cell` over a padded batch of sequences as one tape record.

    `x` is ((t_max * B), in_dim) with row t*B + b holding step t of sequence
    b, and t_max = max(lengths). Returns the ((t_max * B), 2*hidden) states
    in the same layout: live row (b, t) is [forward after steps 0..t |
    backward after steps L_b-1..t]. Padded rows are never read: their
    output is zero, and their input gets exactly zero gradient.

    Only live rows are computed. Sequences are sorted by length (descending,
    stable) and their live rows packed step-major: step t owns rows
    starts[t]:starts[t+1], one per sequence longer than t, and its previous
    state is the first rows of step t-1's block. Each direction reads and
    writes the packed rows through its own row list: the forward one takes
    step t of each sequence, the backward one step L_b-1-t. Untaped, one
    direction's buffers are freed before the other's are made. Taped, a
    direction keeps its post-activation gates and c (its h are the output's
    rows); the vjp overwrites both, so it runs once.

    With `index`, a ((t_max * B),) integer array, the input of row r is
    `x[index[r]]`: `x` holds rows that many positions share (one per
    distinct token), each direction projects them once and gathers the
    gate rows, and the vjp scatter-adds into the repeated rows.
    """
    if not lengths or min(lengths) < 1:
        raise ShapeError(f"run_lstm: every length must be >= 1, got {lengths}")
    t_max, batch, n_in, hid = max(lengths), len(lengths), cell.in_dim, cell.hidden
    n_rows = t_max * batch if index is None else x.shape[0]
    if x.shape != (n_rows, n_in):
        raise ShapeError(f"run_lstm: input {x.shape} does not fit lengths {lengths} x {n_in}")
    if index is not None:
        index = np.asarray(index, dtype=np.intp)
        if index.shape != (t_max * batch,) or index.min() < 0 or index.max() >= n_rows:
            raise ShapeError(f"run_lstm: index does not fit lengths {lengths} and {n_rows} rows")
    order = np.argsort(-np.asarray(lengths), kind="stable")
    lens, steps = np.asarray(lengths)[order], np.arange(t_max)[:, None]
    live = lens > steps  # live[t, j]: the j-th longest sequence has step t
    starts = np.concatenate(([0], np.cumsum(live.sum(axis=1))))
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    params = [t for _, t in cell.parameters()]
    track = ad.active_tape() is not None and any(t.requires_grad for t in [x, *params])
    out = np.zeros((t_max * batch, 2 * hid))

    def direction(k: int, rows: np.ndarray):
        """Run direction k with packed row p at row `rows[p]` of `x` and of
        column block k of `out`; its vjp if taped."""
        w_x, w_h = cell.w[k].values[:n_in], cell.w[k].values[n_in:]
        x_rows = rows if index is None else index[rows]
        if index is None:
            gates = x.values[x_rows] @ w_x
        else:
            gates = (x.values @ w_x)[x_rows]
        gates += cell.b[k].values
        i, f, g, o = (gates[:, j * hid : (j + 1) * hid] for j in range(4))
        hs = np.empty((rows.size, hid))
        cs = np.empty((rows.size, hid))
        # step-sized scratch: i, f, o in contiguous rows (sigmoid runs ~1.5x faster), tanh(c)
        ifo_rows = np.empty((bounds[0][1], 3 * hid))
        tanh_c = np.empty((bounds[0][1], hid))
        for t, (lo, hi) in enumerate(bounds):
            z, c, ifo, tc = gates[lo:hi], cs[lo:hi], ifo_rows[: hi - lo], tanh_c[: hi - lo]
            if t:  # the previous state: the first hi - lo rows of step t-1
                prev = slice(bounds[t - 1][0], bounds[t - 1][0] + hi - lo)
                z += hs[prev] @ w_h
            np.concatenate((z[:, : 2 * hid], o[lo:hi]), axis=1, out=ifo)
            _sigmoid_(ifo)
            z[:, : 2 * hid], o[lo:hi] = ifo[:, : 2 * hid], ifo[:, 2 * hid :]
            np.tanh(g[lo:hi], out=g[lo:hi])
            np.multiply(i[lo:hi], g[lo:hi], out=c)
            if t:
                c += f[lo:hi] * cs[prev]
            np.tanh(c, out=tc)
            np.multiply(o[lo:hi], tc, out=hs[lo:hi])
        cols = slice(k * hid, (k + 1) * hid)
        out[rows, cols] = hs
        if not track:
            return None

        def vjp(d_out, dx):
            """Add this direction's input gradient into `dx`; return (dw, db)."""
            # packed row of step t-1 that feeds each row of steps 1..t_max-1
            prev_rows = (starts[:-1, None] + np.arange(batch))[:-1][live[1:]]
            _gates_to_dz_(gates, cs, d_out[rows, cols], prev_rows, bounds, w_h)
            dz = gates
            if index is None:
                dx[x_rows] += dz @ w_x.T  # x_rows holds no row twice
            else:
                dx += ad.scatter_rows(x.shape, x_rows, dz @ w_x.T)
            dw = np.empty_like(cell.w[k].values)
            np.matmul(x.values[x_rows].T, dz, out=dw[:n_in])
            np.matmul(out[rows[prev_rows], cols].T, dz[bounds[0][1] :], out=dw[n_in:])
            return dw, dz.sum(axis=0)

        return vjp

    vjps = [direction(0, (steps * batch + order)[live]),
            direction(1, ((lens - 1 - steps) * batch + order)[live])]

    def vjp(d_out):
        dx = np.zeros_like(x.values)
        return (dx, *[g for v in vjps for g in v(d_out, dx)])

    return ad.emit("lstm", [x, *params], out, vjp)


def final_states(states: Tensor, lengths: list[int]) -> Tensor:
    """Each sequence's [forward after step L_b-1 | backward after step 0] in
    `run_lstm` output, (B, 2*hidden), as one record: a row gather over the
    (2 * rows, hidden) view, whose row 2r is row r's forward half, 2r + 1 its backward."""
    (n_rows, width), batch, seq = states.shape, len(lengths), np.arange(len(lengths))
    idx = np.stack([2 * ((np.asarray(lengths) - 1) * batch + seq), 2 * seq + 1], axis=1).ravel()
    halves = (2 * n_rows, width // 2)
    out = states.values.reshape(halves)[idx].reshape(batch, width)

    def vjp(g):
        return (ad.scatter_rows(halves, idx, g).reshape(n_rows, width),)

    return ad.emit("final_states", [states], out, vjp)


class Mlp:
    """One tanh hidden layer followed by a linear map, applied by `build_prototypes`."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng, name: str):
        self.hidden_layer = Linear(in_dim, hidden, rng, f"{name}.hidden")
        self.output_layer = Linear(hidden, out_dim, rng, f"{name}.out")

    def parameters(self):
        return self.hidden_layer.parameters() + self.output_layer.parameters()
