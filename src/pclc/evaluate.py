"""Exact-match span F1 with per-type counts and seen/unseen breakdowns."""

from __future__ import annotations

from dataclasses import dataclass

from .data import output_file
from .errors import PclcError, ShapeError


@dataclass(frozen=True)
class SpanPrediction:
    start: int  # inclusive
    end: int  # inclusive
    slot: str


@dataclass
class TypeCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    per_type: dict[str, TypeCounts]
    domain: str = ""
    setting: str = "zero-shot"
    seen_f1: float | None = None
    unseen_f1: float | None = None

    def group_counts(self, slots) -> TypeCounts:
        agg = TypeCounts()
        for slot in slots:
            c = self.per_type.get(slot)
            if c is None:
                continue
            agg.tp += c.tp
            agg.fp += c.fp
            agg.fn += c.fn
        return agg

    def to_kv_lines(self) -> list[str]:
        lines = [
            f"domain={self.domain}",
            f"setting={self.setting}",
            f"precision={self.precision!r}",
            f"recall={self.recall!r}",
            f"f1={self.f1!r}",
        ]
        if self.seen_f1 is not None:
            lines.append(f"seen_f1={self.seen_f1!r}")
        if self.unseen_f1 is not None:
            lines.append(f"unseen_f1={self.unseen_f1!r}")
        for slot in sorted(self.per_type):
            c = self.per_type[slot]
            lines.append(f"type.{slot}.tp={c.tp}")
            lines.append(f"type.{slot}.fp={c.fp}")
            lines.append(f"type.{slot}.fn={c.fn}")
        return lines

    def to_text(self) -> str:
        lines = [
            f"domain: {self.domain} ({self.setting})",
            f"precision {self.precision:.4f}  recall {self.recall:.4f}  f1 {self.f1:.4f}",
        ]
        if self.seen_f1 is not None and self.unseen_f1 is not None:
            lines.append(f"seen f1 {self.seen_f1:.4f}  unseen f1 {self.unseen_f1:.4f}")
        lines.append("per-type counts (tp/fp/fn):")
        for slot in sorted(self.per_type):
            c = self.per_type[slot]
            lines.append(f"  {slot}: {c.tp}/{c.fp}/{c.fn}")
        return "\n".join(lines)


def _check_disjoint(spans, what: str) -> None:
    taken: set[int] = set()
    for s in spans:
        positions = set(range(s.start, s.end + 1))
        if taken & positions:
            raise ShapeError(f"overlapping {what} spans within one utterance: {spans}")
        taken |= positions


def span_f1(
    gold: list[list[SpanPrediction]] | list[set[SpanPrediction]],
    predicted: list[list[SpanPrediction]] | list[set[SpanPrediction]],
    domain: str = "",
    setting: str = "zero-shot",
) -> EvalReport:
    """Micro-averaged exact-match scoring: a prediction is a true positive
    iff start, end, and slot type all match a gold span."""
    if len(gold) != len(predicted):
        raise ShapeError(f"span_f1: {len(gold)} gold vs {len(predicted)} predicted utterances")
    per_type: dict[str, TypeCounts] = {}

    def counts(slot: str) -> TypeCounts:
        if slot not in per_type:
            per_type[slot] = TypeCounts()
        return per_type[slot]

    for gold_spans, pred_spans in zip(gold, predicted):
        _check_disjoint(gold_spans, "gold")
        _check_disjoint(pred_spans, "predicted")
        gold_set = set(gold_spans)
        pred_set = set(pred_spans)
        for s in pred_set & gold_set:
            counts(s.slot).tp += 1
        for s in pred_set - gold_set:
            counts(s.slot).fp += 1
        for s in gold_set - pred_set:
            counts(s.slot).fn += 1
    tp = sum(c.tp for c in per_type.values())
    fp = sum(c.fp for c in per_type.values())
    fn = sum(c.fn for c in per_type.values())
    precision, recall, f1 = _prf(tp, fp, fn)
    return EvalReport(precision, recall, f1, per_type, domain=domain, setting=setting)


def seen_unseen_report(
    report: EvalReport, seen_slots, unseen_slots
) -> EvalReport:
    """Attach group scores. A false positive counts against the group of its
    predicted type, so group counts sum exactly to the overall counts."""
    seen = set(seen_slots)
    unseen = set(unseen_slots)
    for slot in report.per_type:
        if slot not in seen and slot not in unseen:
            raise PclcError(f"slot type {slot!r} outside both seen and unseen groups")
    seen_counts = report.group_counts(seen)
    unseen_counts = report.group_counts(unseen)
    report.seen_f1 = _prf(seen_counts.tp, seen_counts.fp, seen_counts.fn)[2]
    report.unseen_f1 = _prf(unseen_counts.tp, unseen_counts.fp, unseen_counts.fn)[2]
    return report


# ---------------------------------------------------------------------------
# prototype export


def export_prototypes(protos, path: str) -> None:
    """Tab-separated rows: slot label, block, then the prototype coordinates
    (shortest round-trip float formatting)."""
    boundary = protos.block_boundary
    with output_file(path) as fh:
        for i, label in enumerate(protos.labels):
            block = "source" if i < boundary else "target"
            row = protos.matrix.values[i]
            cells = [label, block] + [repr(float(v)) for v in row]
            fh.write("\t".join(cells) + "\n")
