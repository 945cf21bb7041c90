"""Patch-based instrumentation of pclc from outside the package.

`Patcher` swaps a function for a wrapper at the place where callers look it
up (a module global or a class attribute) and puts the original back on
`restore`. A target that no longer exists is recorded as absent instead of
raising, so the benchmark keeps running after a refactor removes or renames
a layer; the layer then reports zero work and is listed under `absent`.

`Tracer` uses it to record spans (name, start, end, parent, unit id) in
memory. A unit is one `train_run` or one predict batch; the workload opens
a root span per unit with `Tracer.span`.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

# (owner, attribute, span name); owner is "module" or "module:Class"
TRACE_TARGETS = [
    ("pclc.trainer", "total_loss", "trainer.total_loss"),
    ("pclc.trainer", "crf_nll", "tagger.crf_nll"),
    ("pclc.trainer", "clip_grad_norm", "optim.clip"),
    ("pclc.trainer", "validation_f1", "trainer.validation"),
    ("pclc.trainer", "span_f1", "evaluate.span_f1"),
    ("pclc.trainer", "_snapshot", "trainer.snapshot"),
    ("pclc.autodiff", "backward", "autodiff.backward"),
    ("pclc.optim:Adam", "step", "optim.adam"),
    ("pclc.model", "viterbi_decode", "tagger.viterbi"),
    ("pclc.model", "predict_slot_type", "classifier.predict_slot_type"),
    ("pclc.tagger:Encoder", "encode_batch", "tagger.encode"),
    ("pclc.tagger", "run_lstm", "layers.run_lstm"),
    ("pclc.classifier", "run_lstm", "layers.run_lstm"),
    ("pclc.model:PclcModel", "emissions", "model.emissions"),
    ("pclc.model:PclcModel", "entity_representations", "model.entity_representations"),
    ("pclc.model:PclcModel", "prototypes", "model.prototypes"),
    ("pclc.model:PclcModel", "predict", "model.predict"),
]


def resolve_owner(owner: str):
    """The module or class named `module` or `module:Class`, or None."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Patcher:
    """Replaces attributes with wrappers; `restore` undoes them in reverse."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, owner: str, attr: str, make_wrapper) -> bool:
        obj = resolve_owner(owner)
        original = getattr(obj, attr, None) if obj is not None else None
        if original is None or not callable(original):
            self.absent.append(f"{owner}.{attr}")
            return False
        self._saved.append((obj, attr, original))
        setattr(obj, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)


def lstm_group(cell) -> str:
    """Which sequence a `run_lstm` call encodes, from the cell's name:
    char_fwd/char_bwd, lstm<i>_fwd/bwd (word BiLSTM), entity_fwd/bwd."""
    name = getattr(cell, "name", "")
    if name.startswith("char"):
        return "char"
    if name.startswith("entity"):
        return "entity"
    return "word"


class Tracer:
    """In-memory span recorder plus the counters the per-layer split needs."""

    def __init__(self):
        # [name, start, end, parent index or -1, unit id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self.unit = -1
        self._patcher: Patcher | None = None

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, name: str):
        def make(original):
            def traced(*args, **kwargs):
                span_name = name
                if name == "layers.run_lstm":
                    span_name = f"{name}.{lstm_group(args[0])}"
                elif name == "autodiff.backward":
                    self._count_records(args, kwargs)
                elif name == "model.entity_representations" and len(args) > 2:
                    self.counts["model.spans"] += len(args[2])
                self.counts[f"{span_name}_calls"] += 1
                idx = self._open(span_name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(idx)
                if name == "tagger.encode":
                    self._count_tokens(result)
                return result

            return traced

        return make

    def _count_records(self, args, kwargs) -> None:
        tape = args[1] if len(args) > 1 else kwargs.get("tape")
        if tape is None:
            from pclc.autodiff import active_tape

            tape = active_tape()
        records = getattr(tape, "records", None)
        if records is None:
            return
        self.counts["autodiff.records"] += len(records)
        for rec in records:
            self.counts[f"autodiff.records.{rec.kind}"] += 1

    def _count_tokens(self, enc) -> None:
        lengths = getattr(enc, "lengths", None)
        if lengths is None:
            return
        self.counts["tagger.utterances"] += len(lengths)
        self.counts["tagger.live_tokens"] += sum(lengths)
        self.counts["tagger.padded_tokens"] += enc.t_max * enc.batch_size

    def install(self) -> None:
        self._patcher = Patcher()
        for owner, attr, name in TRACE_TARGETS:
            self._patcher.patch(owner, attr, self._wrapper(name))
        self.absent.update(self._patcher.absent)

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def totals(self) -> tuple[Counter, Counter]:
        """Inclusive busy seconds and self seconds per span name."""
        busy: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[idx]
        return busy, own

    def dump(self) -> dict:
        return {
            "columns": ["name", "start", "end", "parent", "unit"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }
