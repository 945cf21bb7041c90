"""Independent oracles the tests check the implementation against.

Everything here except `per_occurrence_char_features` is deliberately
written without touching the package's computation paths:
extended-precision arithmetic via mpmath, exhaustive enumeration for the
CRF, a step-by-step LSTM, a counter-based span scorer, plain central
finite differences, and a reader for the prototype export.
`per_occurrence_char_features` pins the char encoder's
one-row-per-distinct-token shortcut, so it is built from the same taped
LSTM (which `lstm_reference` checks) to compare gradients too.
"""

from __future__ import annotations

import itertools
from collections import Counter

import mpmath as mp
import numpy as np

mp.mp.dps = 50


def mp_log_sum_exp(values) -> float:
    return float(mp.log(mp.fsum(mp.e**mp.mpf(float(v)) for v in values)))


def mp_log_softmax(values) -> list[float]:
    lse = mp.log(mp.fsum(mp.e**mp.mpf(float(v)) for v in values))
    return [float(mp.mpf(float(v)) - lse) for v in values]


def mp_proto_contrastive(r, protos, gold: int, tau: float) -> float:
    """Direct softmax form of the contrastive loss, 50-digit arithmetic."""
    scores = [
        mp.fsum(mp.mpf(float(a)) * mp.mpf(float(b)) for a, b in zip(r, row)) / mp.mpf(tau)
        for row in protos
    ]
    denom = mp.fsum(mp.e**s for s in scores)
    return float(-mp.log(mp.e ** scores[gold] / denom))


def mp_kl_confusion(r, protos, target_dist) -> float:
    """KL(target || softmax(protos @ r)) with 0*log(0) treated as 0."""
    scores = [
        mp.fsum(mp.mpf(float(a)) * mp.mpf(float(b)) for a, b in zip(r, row))
        for row in protos
    ]
    lse = mp.log(mp.fsum(mp.e**s for s in scores))
    log_pred = [s - lse for s in scores]
    total = mp.mpf(0)
    for d, lp in zip(target_dist, log_pred):
        d = mp.mpf(float(d))
        if d > 0:
            total += d * (mp.log(d) - lp)
    return float(total)


def mp_smooth_target(protos, gold: int, n_source: int, lam: float) -> list[float]:
    """Label-confusion target of source row `gold`: `lam` on its one-hot over
    the source block, then (1 - lam) times the zero-clamped cosine
    similarities of the target rows to row `gold`, L1-normalised (uniform
    when none is positive)."""
    rows = [[mp.mpf(float(v)) for v in row] for row in protos]

    def dot(a, b):
        return mp.fsum(x * y for x, y in zip(a, b))

    z = rows[gold]
    sims = [max(dot(t, z) / mp.sqrt(dot(t, t) * dot(z, z)), mp.mpf(0)) for t in rows[n_source:]]
    total = mp.fsum(sims)
    d_tgt = [s / total for s in sims] if total > 0 else [mp.mpf(1) / len(sims)] * len(sims)
    source = [mp.mpf(lam) if i == gold else mp.mpf(0) for i in range(n_source)]
    return [float(v) for v in source + [(1 - mp.mpf(lam)) * d for d in d_tgt]]


def read_prototype_export(path: str) -> tuple[list[str], list[str], np.ndarray]:
    """Inverse of `evaluate.export_prototypes`: (labels, blocks, matrix)."""
    labels, blocks, rows = [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            cells = line.rstrip("\n").split("\t")
            labels.append(cells[0])
            blocks.append(cells[1])
            rows.append([float(v) for v in cells[2:]])
    return labels, blocks, np.array(rows)


# ---------------------------------------------------------------------------
# CRF enumeration


def crf_path_score(emissions, transitions, start, end, path) -> float:
    score = start[path[0]] + emissions[0][path[0]]
    for t in range(1, len(path)):
        score += transitions[path[t - 1]][path[t]] + emissions[t][path[t]]
    return score + end[path[-1]]


def brute_force_log_partition(emissions, transitions, start, end) -> float:
    T = len(emissions)
    scores = [
        crf_path_score(emissions, transitions, start, end, path)
        for path in itertools.product(range(3), repeat=T)
    ]
    return float(np.logaddexp.reduce(np.array(scores)))


def brute_force_best_path(emissions, transitions, start, end) -> list[int]:
    """Lexicographically-first argmax over all 3^T paths."""
    T = len(emissions)
    best_path, best_score = None, -np.inf
    for path in itertools.product(range(3), repeat=T):
        s = crf_path_score(emissions, transitions, start, end, path)
        if s > best_score:
            best_score, best_path = s, path
    return list(best_path)


# ---------------------------------------------------------------------------
# LSTM


def lstm_reference(x, lengths, w, b) -> np.ndarray:
    """Step-by-step LSTM over the ((t_max*B), in) row layout (row t*B + b).

    Gates come from [x_t, h] @ w + b in the order input, forget, cell,
    output; a row past its length keeps its previous h and c through 0/1
    masks. Returns every step's h in the same row layout.
    """
    t_max, batch = max(lengths), len(lengths)
    hid = w.shape[1] // 4
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    out = []
    for t in range(t_max):
        z = np.concatenate([x[t * batch : (t + 1) * batch], h], axis=1) @ w + b
        i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * hid : (k + 1) * hid])) for k in (0, 1, 3))
        g = np.tanh(z[:, 2 * hid : 3 * hid])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        m = np.array([[1.0] if t < n else [0.0] for n in lengths])
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
        out.append(h)
    return np.concatenate(out, axis=0)


def per_occurrence_char_features(encoder, utterances, vocab):
    """Char-BiLSTM final states of every token occurrence, as a Tensor.

    Rows are utterance-major, one per occurrence: repeated tokens are run
    through the char BiLSTM again, one column of char ids each.
    """
    from pclc import autodiff as ad
    from pclc.data import PAD_INDEX
    from pclc.layers import final_states, run_lstm

    tokens = [token for utt in utterances for token in utt.tokens]
    lengths = [len(token) for token in tokens]
    ids = np.full((max(lengths), len(tokens)), PAD_INDEX, dtype=np.intp)
    for j, token in enumerate(tokens):
        ids[: len(token), j] = [vocab.char_id(c) for c in token]
    x = ad.take_rows(encoder.char_table, ids.reshape(-1))
    return final_states(run_lstm(encoder.char_lstm, x, lengths), lengths)


# ---------------------------------------------------------------------------
# span scoring


def reference_span_counts(gold_sets, pred_sets):
    """CoNLL exact-match counts via multiset intersection; returns
    (overall (tp, fp, fn), per-type dict)."""
    gold_items = Counter()
    pred_items = Counter()
    for i, spans in enumerate(gold_sets):
        for s in spans:
            gold_items[(i, s.start, s.end, s.slot)] += 1
    for i, spans in enumerate(pred_sets):
        for s in spans:
            pred_items[(i, s.start, s.end, s.slot)] += 1
    per_type: dict[str, list[int]] = {}

    def slot_counts(slot):
        return per_type.setdefault(slot, [0, 0, 0])

    tp = fp = fn = 0
    for key, n_pred in pred_items.items():
        n_gold = gold_items.get(key, 0)
        matched = min(n_pred, n_gold)
        tp += matched
        fp += n_pred - matched
        slot_counts(key[3])[0] += matched
        slot_counts(key[3])[1] += n_pred - matched
    for key, n_gold in gold_items.items():
        n_pred = pred_items.get(key, 0)
        missed = n_gold - min(n_pred, n_gold)
        fn += missed
        slot_counts(key[3])[2] += missed
    return (tp, fp, fn), per_type


# ---------------------------------------------------------------------------
# finite differences


def finite_difference_grads(loss_fn, arrays, eps: float = 1e-4, five_point: bool = False):
    """Central differences of a multi-output scalar function.

    `loss_fn()` returns a tuple of floats recomputed from the current
    contents of `arrays` (mutated in place entry by entry). The result is
    one gradient array per output per input array:
    grads[k][j] = d output_k / d arrays[j].

    `five_point` switches to the Richardson-extrapolated central rule with
    base step `eps` (evaluations at +-eps and +-eps/2), cancelling the eps^2
    truncation term; needed when the objective's third derivatives are large
    relative to the target tolerance.
    """
    n_out = len(loss_fn())
    grads = [[np.zeros_like(a) for a in arrays] for _ in range(n_out)]

    def central(flat, i, orig, step):
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        return [(u - d) / (2 * step) for u, d in zip(up, down)]

    for j, arr in enumerate(arrays):
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            coarse = central(flat, i, orig, eps)
            if five_point:
                fine = central(flat, i, orig, eps / 2)
                estimate = [(4 * f - c) / 3 for f, c in zip(fine, coarse)]
            else:
                estimate = coarse
            for k in range(n_out):
                grads[k][j].reshape(-1)[i] = estimate[k]
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |a|, |n|) (unit-floored relative)."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


# ---------------------------------------------------------------------------
# reference Adam (scalar)


def reference_adam_run(grad_fn, w0: float, lr: float, steps: int) -> float:
    """Textbook Adam on one scalar, independent of the package optimizer."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    w, m, v = w0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w -= lr * m_hat / (v_hat**0.5 + eps)
    return w
