"""Fine-grained slot typing against a refined prototype space.

Slot prototypes are MLP images of slot-name embeddings (mean of the
description-token word vectors), rebuilt on every forward pass so the label
space keeps moving with training. The prototype matrix has a source block
followed by a target block; a slot living in both domains gets one row in
each block.

The label space is handled as whole matrices, so the number of taped ops
does not grow with the number of slots, gold labels or spans.
`build_prototypes` (one constant membership matmul averages every label's
description tokens, then the MLP), `prototype_scores`, `contrastive_loss`
and `confusion_loss` are one tape record each with a hand-derived vjp (the
last builds the label-confusion targets of all distinct gold slots from one
cosine matrix), and `predict_slot_type` scores a chunk of spans with one
product against the prototype matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import SlotSchema, Vocab
from .errors import ShapeError
from .layers import BiLstm, Linear, Mlp, final_states, run_lstm


@dataclass
class PrototypeMatrix:
    matrix: Tensor  # (n_source + n_target, dim)
    source_labels: list[str]
    target_labels: list[str]
    target_domain: str
    slots_of: dict[str, list[str]]  # for candidate-row lookup per domain

    @property
    def block_boundary(self) -> int:
        return len(self.source_labels)

    @property
    def n_rows(self) -> int:
        return len(self.source_labels) + len(self.target_labels)

    @property
    def labels(self) -> list[str]:
        return self.source_labels + self.target_labels

    def source_row(self, label: str) -> int:
        return self.source_labels.index(label)

    def target_row(self, label: str) -> int:
        return self.block_boundary + self.target_labels.index(label)

    def candidate_rows(self, domain: str) -> tuple[list[int], list[str]]:
        """Rows eligible at inference time for an utterance of `domain`:
        the target block for the target domain, otherwise the domain's
        slots within the source block."""
        if domain == self.target_domain:
            rows = list(range(self.block_boundary, self.n_rows))
            return rows, list(self.target_labels)
        labels = self.slots_of[domain]
        return [self.source_row(s) for s in labels], list(labels)


def source_block_order(schema: SlotSchema, source_domains: list[str]) -> list[str]:
    order: list[str] = []
    for d in source_domains:
        for s in schema.slots_of[d]:
            if s not in order:
                order.append(s)
    return order


def build_prototypes(
    schema: SlotSchema,
    source_domains: list[str],
    target_domain: str,
    vocab: Vocab,
    word_table: Tensor,
    mlp: Mlp,
) -> PrototypeMatrix:
    """Prototype rows = MLP(mean of description-token word embeddings), as
    one record over `word_table` and the MLP's parameters; a constant 0/1
    membership matmul sums every label's tokens at once."""
    source_labels = source_block_order(schema, source_domains)
    target_labels = list(schema.slots_of[target_domain])
    ids: list[int] = []
    counts: list[int] = []
    for label in source_labels + target_labels:
        tokens = schema.description_tokens[label]
        if not tokens:
            raise ShapeError(f"slot {label!r} has an empty description")
        for t in tokens:
            if t not in vocab.word_index:
                raise ShapeError(f"description token {t!r} of slot {label!r} not in vocab")
            ids.append(vocab.word_index[t])
        counts.append(len(tokens))
    membership = np.zeros((len(counts), len(ids)))
    membership[np.repeat(np.arange(len(counts)), counts), np.arange(len(ids))] = 1.0
    idx = np.asarray(ids, dtype=np.intp)
    inv_counts = 1.0 / np.asarray(counts, dtype=np.float64)[:, None]
    inputs = [word_table] + [t for _, t in mlp.parameters()]
    w1, b1, w2, b2 = (t.values for t in inputs[1:])
    means = membership @ word_table.values[idx] * inv_counts
    h = np.tanh(means @ w1 + b1)

    def vjp(g):
        d_pre = g @ w2.T * (1.0 - h * h)
        d_table = membership.T @ (d_pre @ w1.T * inv_counts)
        d_table = ad.scatter_rows(word_table.shape, idx, d_table)
        return d_table, means.T @ d_pre, d_pre.sum(axis=0), h.T @ g, g.sum(axis=0)

    matrix = ad.emit("prototypes", inputs, h @ w2 + b2, vjp)
    return PrototypeMatrix(
        matrix=matrix,
        source_labels=source_labels,
        target_labels=target_labels,
        target_domain=target_domain,
        slots_of={d: list(schema.slots_of[d]) for d in schema.domains},
    )


class EntityEncoder:
    """BiLSTM over a span's encoder states, projected to the prototype dim."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng):
        self.lstm = BiLstm(in_dim, hidden, rng, "entity")
        self.proj = Linear(2 * hidden, out_dim, rng, "entity_proj")

    def parameters(self):
        return self.lstm.parameters() + self.proj.parameters()

    def encode_steps(self, x: Tensor, lengths: list[int]) -> Tensor:
        """Representations of a padded batch of spans, shape (N, out_dim);
        `x` is ((s_max * N), in_dim) in `run_lstm` row layout."""
        return self.proj(final_states(run_lstm(self.lstm, x, lengths), lengths))


def prototype_scores(reps: Tensor, protos: PrototypeMatrix) -> Tensor:
    """The (N, n_rows) dot products of entity rows `reps` with every
    prototype row, as one record. It multiplies by a contiguous copy of the
    transposed matrix: BLAS rounds some shapes differently on the view."""
    matrix, rv = protos.matrix, reps.values
    pt = matrix.values.T.copy()
    return ad.emit("scores", [reps, matrix], rv @ pt, lambda g: (g @ pt.T, (rv.T @ g).T))


# ---------------------------------------------------------------------------
# losses; `scores` is the (N, n_rows) matrix of N entity representations
# dotted with every prototype row


def _clamped_cosines(z: np.ndarray, t: np.ndarray):
    """The (K, T) cosines of the rows of `z` (K, dim) with those of `t`
    (T, dim), the norms of both, and the cosines clamped at zero, where a
    row with nothing positive becomes all ones (the uniform fallback)."""
    if t.shape[0] == 0:
        raise ShapeError("confusion_targets: empty target block")
    z_norms_sq = (z * z).sum(axis=1, keepdims=True)
    if float(z_norms_sq.min()) == 0.0:
        raise ShapeError("confusion_targets: zero-norm gold prototype row")
    t_norms_sq = (t * t).sum(axis=1)
    if float(t_norms_sq.min()) == 0.0:
        raise ShapeError("confusion_targets: zero-norm target prototype row")
    z_norms, t_norms = np.sqrt(z_norms_sq), np.sqrt(t_norms_sq)
    cos = z @ t.T.copy() / (t_norms * z_norms)
    clamped = np.maximum(cos, 0.0)
    return cos, z_norms, t_norms, clamped + (clamped.sum(axis=1, keepdims=True) == 0.0)


def confusion_targets(z: np.ndarray, target_block: np.ndarray) -> np.ndarray:
    """Soft distributions over target slots, one row per gold prototype row
    of `z` (K, dim): the cosines to every target prototype, clamped at zero
    and L1-normalised, or uniform where no cosine is positive."""
    weights = _clamped_cosines(z, target_block)[3]
    return weights / weights.sum(axis=1, keepdims=True)


def smooth_distributions(ys: list[int], d_tgt: np.ndarray, lam: float, n_source: int) -> np.ndarray:
    """Row k is lam * one_hot(ys[k]) over the source block followed by
    (1 - lam) * d_tgt[k] over the target block."""
    if not 0.0 <= lam <= 1.0:
        raise ShapeError(f"confusion factor must be in [0, 1], got {lam}")
    for y in ys:
        if not 0 <= y < n_source:
            raise ShapeError(f"source label index {y} out of range for {n_source} slots")
    src = np.zeros((len(ys), n_source))
    src[np.arange(len(ys)), ys] = lam
    return np.concatenate([src, d_tgt * (1.0 - lam)], axis=1)


def _log_softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by each row's max."""
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def contrastive_loss(scores: Tensor, rows: list[int], tau: float) -> Tensor:
    """Mean over entities of -log softmax(score/tau)[gold row], each entity
    contrasted with every prototype row of both blocks, as one tape record
    over `scores`; its vjp is (softmax - one_hot) / (tau * n)."""
    n = scores.shape[0]
    inv_tau, scale = 1.0 / tau, 1.0 / n
    log_p = _log_softmax(scores.values * inv_tau)
    pick = np.zeros(scores.shape)
    pick[np.arange(n), rows] = 1.0

    def vjp(g):
        g_log_p = g * scale * -1.0 * pick
        return ((g_log_p - np.exp(log_p) * g_log_p.sum(axis=1, keepdims=True)) * inv_tau,)

    return ad.emit("contrastive", [scores], (log_p * pick).sum() * -1.0 * scale, vjp)


def confusion_loss(
    scores: Tensor,
    rows: list[int],
    source_entities: list[int],
    protos: PrototypeMatrix,
    lam: float,
) -> Tensor:
    """Mean KL(smoothed || softmax(scores)) over source-domain entities, as
    one tape record over `scores` and `protos.matrix` (confusion maps a
    source gold label onto the target block, so target-domain entities carry
    no such term). The targets of all distinct gold slots are built in one
    batch. The vjp runs back through the log-softmax, the KL (0*log(0) :=
    0), the smoothing, the L1 normalisation, the clamp and the cosine."""
    n_source = protos.block_boundary
    matrix = protos.matrix.values
    distinct = sorted({rows[i] for i in source_entities})
    z, t = matrix[distinct], matrix[n_source:]
    d_tgt = confusion_targets(z, t)
    smooth = smooth_distributions(distinct, d_tgt, lam, n_source)
    index_of = {y: i for i, y in enumerate(distinct)}
    gather = [index_of[rows[i]] for i in source_entities]
    targets = smooth[gather]
    pred_log = _log_softmax(scores.values[source_entities])
    support = targets > 0.0
    log_targets = np.log(np.where(support, targets, 1.0))
    entropy = np.where(support, targets * log_targets, 0.0).sum()
    scale = 1.0 / len(source_entities)

    def vjp(g):
        g = g * scale
        g_scores = np.zeros(scores.shape)
        # -sum(targets * log_softmax) gives softmax - targets: each target row sums to 1
        np.add.at(g_scores, source_entities, g * (np.exp(pred_log) - targets))
        g_targets = g * (np.where(support, log_targets + 1.0, 0.0) - pred_log)
        g_d = np.zeros(d_tgt.shape)
        np.add.at(g_d, gather, g_targets[:, n_source:] * (1.0 - lam))
        # through d_tgt = weights / sum(weights), then the clamp
        cos, z_norms, t_norms, weights = _clamped_cosines(z, t)
        g_w = (g_d - (g_d * d_tgt).sum(axis=1, keepdims=True)) / weights.sum(axis=1, keepdims=True)
        g_cos = np.where(cos > 0.0, g_w, 0.0)  # exactly 0 on a uniform-fallback row
        # cos = z.t / (|z| |t|). A row of d_tgt is unchanged when all its
        # cosines scale together, as they do with 1/|z|, so the |z| term of
        # d cos/dz sums to zero and is left out.
        g_dots = g_cos / (t_norms * z_norms)
        g_matrix = np.zeros(matrix.shape)
        g_matrix[distinct] = g_dots @ t
        g_matrix[n_source:] = g_dots.T @ z - ((g_cos * cos).sum(axis=0) / t_norms**2)[:, None] * t
        return g_scores, g_matrix

    value = (entropy - (targets * pred_log).sum()) * scale
    return ad.emit("confusion", [scores, protos.matrix], value, vjp)


def predict_slot_type(reps: Tensor, protos: PrototypeMatrix, domains: list[str]) -> list[str]:
    """Slot label of each row of `reps` (N, dim): the argmax of its
    prototype dot products over the candidate rows of its domain, in
    `candidate_rows` order, so ties go to the first candidate. The products
    are training's `prototype_scores`, recorded on no tape at inference."""
    scores = prototype_scores(reps, protos).values
    labels: list[str] = [""] * len(domains)
    for domain in dict.fromkeys(domains):
        rows, names = protos.candidate_rows(domain)
        if not rows:
            raise ShapeError(f"no candidate prototypes for domain {domain!r}")
        spans = [i for i, d in enumerate(domains) if d == domain]
        best = np.argmax(scores[np.ix_(spans, rows)], axis=1)
        for i, j in zip(spans, best):
            labels[i] = names[j]
    return labels
