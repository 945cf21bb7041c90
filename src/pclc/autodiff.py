"""Dense float64 tensors with tape-based reverse-mode differentiation.

Values are numpy arrays; every differentiable operation computes its forward
result eagerly and, when a tape is active and some input requires grad,
records a closure that maps the output gradient to input gradients. The tape
is rebuilt per forward pass; `backward` consumes it once, in reverse.

Within one tape everything is single-threaded. Separate tapes (one per model
replica) may live on separate threads; the active-tape stack is thread-local.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import AutodiffError, ShapeError

_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


def active_tape():
    """The innermost open Tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class TapeRecord:
    """One recorded primitive application; it holds its input and output
    tensors, so every tensor on a tape lives as long as the tape."""

    __slots__ = ("kind", "inputs", "output", "vjp")

    def __init__(self, kind, inputs, output, vjp):
        self.kind = kind
        self.inputs = inputs
        self.output = output
        self.vjp = vjp  # out_grad -> tuple of per-input grads (or None)


class Tape:
    """Ordered record of primitive applications for one forward pass.

    A record's inputs exist before its output does, so one reverse sweep has
    a tensor's whole gradient by the time it reaches its producer. `backward`
    is that sweep; it pops and frees each record as it passes it, once a tape.
    """

    def __init__(self):
        self.records: list[TapeRecord] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise AutodiffError("tape stack corrupted: exiting a tape that is not innermost")
        stack.pop()

    def record(self, kind, inputs, output, vjp) -> None:
        self.records.append(TapeRecord(kind, inputs, output, vjp))


class Tensor:
    """Dense float64 array with optional gradient tracking.

    `values` is row-major float64; `grad`, once populated by `backward`,
    has the same shape.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def emit(kind, inputs, out_values, vjp_builder) -> Tensor:
    """Create the output tensor and record the op if anything needs grad.
    Also the entry point for fused primitives defined in other modules."""
    tape = active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=track)
    if track:
        tape.record(kind, inputs, out, vjp_builder)
    return out


# ---------------------------------------------------------------------------
# primitives


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one record, the form of every `Linear` layer."""
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeError(f"linear: expects 2-d operands, got {x.shape} @ {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: inner dims disagree, {x.shape} @ {w.shape}")
    xv, wv = x.values, w.values
    return emit(
        "linear", [x, w, b], xv @ wv + b.values, lambda g: (g @ wv.T, xv.T @ g, g.sum(axis=0))
    )


def weighted_sum(terms: list[Tensor], weights: list[float]) -> Tensor:
    """The sum of scalar `terms`, each times its weight, added left to right."""
    value = terms[0].values * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        value = value + t.values * w
    return emit("weighted_sum", list(terms), value, lambda g: tuple(g * w for w in weights))


def concat(tensors: list[Tensor]) -> Tensor:
    """2-d tensors joined side by side, their columns in list order."""
    if not tensors:
        raise ShapeError("concat: empty input list")
    try:
        out = np.concatenate([t.values for t in tensors], axis=1)
    except ValueError as e:
        raise ShapeError(f"concat: {e}")
    bounds = np.cumsum([0] + [t.shape[1] for t in tensors])

    def vjp(g):
        return tuple(g[:, lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    return emit("concat", list(tensors), out, vjp)


def scatter_rows(shape, idx, g) -> np.ndarray:
    """Zeros of `shape` (rows, cols) with each row `g[i]` added into row
    `idx[i]`, in index order. `np.add.at` runs on the flattened array with
    one element index per added value, which takes numpy's fast 1-d path;
    every destination element receives its additions in the same order as a
    row-wise `np.add.at`, so the result is bit-identical to it."""
    cols = shape[1]
    flat = np.zeros(shape[0] * cols)
    elems = idx.reshape(-1, 1) * cols + np.arange(cols)
    np.add.at(flat, elems.reshape(-1), g.reshape(-1))
    return flat.reshape(shape)


def take_rows(a: Tensor, indices) -> Tensor:
    """Row gather by integer index, an embedding lookup included; the
    gradient scatter-adds back into the source rows."""
    if a.values.ndim != 2:
        raise ShapeError(f"take_rows: expects 2-d operand, got {a.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {a.shape[0]} rows")
    return emit("take_rows", [a], a.values[idx], lambda g: (scatter_rows(a.shape, idx, g),))


def dropout(a: Tensor, rate: float, rng=None, training: bool = False) -> Tensor:
    """Inverted dropout: kept activations are scaled by 1/keep.

    Evaluation mode is the exact identity (the input tensor is returned
    unchanged). In training mode `rng` must be supplied.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    if rng is None:
        raise AutodiffError("dropout: training mode requires an explicit rng")
    keep = 1.0 - rate
    kept = rng.random(a.shape) >= rate  # kept / keep: 1/keep or 0, an 8x smaller mask
    return emit("dropout", [a], a.values * (kept / keep), lambda g: (g * (kept / keep),))


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Populate `.grad` on every requires-grad leaf reachable from `loss`.

    Gradients accumulate into `.grad` (`zero_grad` or the optimizer clears it).
    Consumes the tape: each record is popped, and freed, once its vjp has run.
    """
    if tape is None:
        tape = active_tape()
    if tape is None:
        raise AutodiffError("backward: no active tape")
    if not tape.records:
        raise AutodiffError("backward: tape is empty")
    if loss.values.size != 1:
        raise AutodiffError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad or not any(rec.output is loss for rec in reversed(tape.records)):
        raise AutodiffError("backward: loss is not connected to this tape")

    # keyed by tensor identity; only requires-grad inputs are entered, and each
    # output is popped when the sweep reaches it, so the leaves are what is left
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.values)}
    while tape.records:
        rec = tape.records.pop()
        g = grads.pop(rec.output, None)
        if g is None:
            continue
        for t, gi in zip(rec.inputs, rec.vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            acc = grads.get(t)
            # non-inplace accumulation: vjps may hand back aliased arrays
            grads[t] = gi if acc is None else acc + gi
    held: set[int] = set()  # ids of arrays a leaf took as its own .grad
    for t, g in grads.items():
        if t.grad is not None:
            t.grad += g
        elif g.base is None and g.flags.c_contiguous and id(g) not in held:
            # an array that owns its memory and no other leaf holds; the
            # optimizer uses each gradient as working memory, so leaves
            # never share a buffer
            t.grad = g
            held.add(id(g))
        else:
            t.grad = g.copy()
