"""Correctness checks that need no stored answer, so they hold for any seed.

Each check returns a list of problems (empty when the output is right); the
workload counts every problem as one failed operation.
"""

from __future__ import annotations

import math

import numpy as np

CRF_TOLERANCE = 1e-9
TAGS = ("O", "B", "I")


def _logsumexp(x: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(x, axis=axis, keepdims=True)
    out = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


def crf_nll_reference(emissions: np.ndarray, tags: list[int], transitions, start, end) -> float:
    """log Z - score(gold) by the log-space forward algorithm, in plain numpy."""
    alpha = start + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha = _logsumexp(alpha[:, None] + transitions, axis=0) + emissions[t]
    log_z = float(_logsumexp(alpha + end))
    gold = start[tags[0]] + end[tags[-1]]
    gold += sum(emissions[t, y] for t, y in enumerate(tags))
    gold += sum(transitions[a, b] for a, b in zip(tags, tags[1:]))
    return log_z - float(gold)


def checked_loss_call(model, batch, crf_weight: float, call):
    """Run `call()` (a `total_loss` evaluation on `batch`) while capturing the
    per-utterance emissions `model.emissions` hands to the CRF, and compare
    the loss's crf term with the numpy forward algorithm on those emissions
    and the current `model.crf` parameters.

    Returns (call's result, list of problems).
    """
    captured = []
    bound = model.emissions

    def capture(enc):
        out = bound(enc)
        captured.append([e.values.copy() for e in out[1]])
        return out

    model.emissions = capture
    try:
        result = call()
    finally:
        del model.emissions
    parts = result[1]
    if not captured:
        return result, ["crf check: model.emissions was not called"]
    crf = model.crf
    trans, start, end = crf.transitions.values, crf.start.values, crf.end.values
    nll = [
        crf_nll_reference(emis, [TAGS.index(t) for t in utt.bio_tags], trans, start, end)
        for emis, utt in zip(captured[0], batch)
    ]
    expected = crf_weight * sum(nll) / len(batch)
    if not abs(parts["crf"] - expected) <= CRF_TOLERANCE:
        return result, [f"crf check: taped crf term {parts['crf']!r} != reference {expected!r}"]
    return result, []


def loss_part_problems(parts: dict[str, float]) -> list[str]:
    """Every loss term must be finite and non-negative."""
    return [
        f"loss term {name}={value!r} is not finite and >= 0"
        for name, value in parts.items()
        if not (math.isfinite(value) and value >= 0.0)
    ]


def prediction_problems(utterance, spans, candidate_labels: list[str]) -> list[str]:
    """Spans lie inside the utterance, do not overlap, and carry a label among
    the utterance domain's candidate prototype rows."""
    problems = []
    n = len(utterance.tokens)
    taken: set[int] = set()
    for span in spans:
        if not 0 <= span.start <= span.end < n:
            problems.append(f"{utterance.uid}: span {span} outside length {n}")
            continue
        cover = set(range(span.start, span.end + 1))
        if cover & taken:
            problems.append(f"{utterance.uid}: span {span} overlaps another")
        taken |= cover
        if span.slot not in candidate_labels:
            problems.append(f"{utterance.uid}: label {span.slot!r} not a candidate")
    return problems
