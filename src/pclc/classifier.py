"""Fine-grained slot typing against a refined prototype space.

Slot prototypes are MLP images of slot-name embeddings (mean of the
description-token word vectors), rebuilt on every forward pass so the label
space keeps moving with training. The prototype matrix has a source block
followed by a target block; a slot living in both domains gets one row in
each block.

The label space is handled as whole matrices, so the number of taped ops
does not grow with the number of slots, gold labels or spans:
`build_prototypes` averages every label's description tokens with one
constant membership matmul, `confusion_targets` builds the label-confusion
targets of all distinct gold slots from one cosine matrix, and
`predict_slot_type` scores a chunk of spans with one product against the
prototype matrix.
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

    def target_block(self) -> Tensor:
        return ad.take_rows(self.matrix, list(range(self.block_boundary, self.n_rows)))


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
    """Prototype rows = MLP(mean of description-token word embeddings); a
    constant 0/1 membership matmul sums every label's tokens at once."""
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
    looked = ad.take_rows(word_table, ids)
    sums = ad.matmul(Tensor(membership), looked)
    means = ad.mul(sums, Tensor(1.0 / np.asarray(counts, dtype=np.float64)[:, None]))
    matrix = mlp(means)
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


# ---------------------------------------------------------------------------
# losses; `scores` is the (N, n_rows) matrix of N entity representations
# dotted with every prototype row


def confusion_targets(z: Tensor, target_block: Tensor) -> Tensor:
    """Soft distributions over target slots, one row per gold prototype row
    of `z` (K, dim), by cosine similarity to every target prototype.

    Cosines are clamped at zero before L1 normalization so each row is a
    valid distribution. A row with nothing positive falls back to uniform:
    its zeros become ones, so it is never divided by a zero sum, and its
    cosines are all <= 0, so relu passes it exactly zero gradient.
    """
    if target_block.shape[0] == 0:
        raise ShapeError("confusion_targets: empty target block")
    z_norms_sq = ad.tensor_sum(ad.mul(z, z), axis=1, keepdims=True)
    if float(z_norms_sq.values.min()) == 0.0:
        raise ShapeError("confusion_targets: zero-norm gold prototype row")
    t_norms_sq = ad.tensor_sum(ad.mul(target_block, target_block), axis=1)
    if float(t_norms_sq.values.min()) == 0.0:
        raise ShapeError("confusion_targets: zero-norm target prototype row")
    dots = ad.matmul(z, ad.transpose(target_block))
    sims = ad.div(dots, ad.mul(ad.sqrt(t_norms_sq), ad.sqrt(z_norms_sq)))
    clamped = ad.relu(sims)
    fallback = (clamped.values.sum(axis=1, keepdims=True) == 0.0).astype(np.float64)
    weights = ad.add(clamped, Tensor(fallback))
    return ad.div(weights, ad.tensor_sum(weights, axis=1, keepdims=True))


def smooth_distributions(ys: list[int], d_tgt: Tensor, lam: float, n_source: int) -> Tensor:
    """Row k is lam * one_hot(ys[k]) over the source block followed by
    (1 - lam) * d_tgt[k] over the target block."""
    if not 0.0 <= lam <= 1.0:
        raise ShapeError(f"confusion factor must be in [0, 1], got {lam}")
    for y in ys:
        if not 0 <= y < n_source:
            raise ShapeError(f"source label index {y} out of range for {n_source} slots")
    src = np.zeros((len(ys), n_source))
    src[np.arange(len(ys)), ys] = lam
    return ad.concat([Tensor(src), ad.mul(d_tgt, Tensor(1.0 - lam))], axis=1)


def kl_divergence_from_log(pred_log: Tensor, target: Tensor) -> Tensor:
    """KL(target || exp(pred_log)) with the 0*log(0) := 0 convention."""
    if pred_log.shape != target.shape:
        raise ShapeError(f"kl: shapes {pred_log.shape} vs {target.shape} disagree")
    entropy_part = ad.tensor_sum(ad.xlogx(target))
    cross_part = ad.tensor_sum(ad.mul(target, pred_log))
    return ad.sub(entropy_part, cross_part)


def contrastive_loss(scores: Tensor, rows: list[int], tau: float) -> Tensor:
    """Mean over entities of -log softmax(score/tau)[gold row], each entity
    contrasted with every prototype row of both blocks."""
    n = scores.shape[0]
    lp = ad.log_softmax(ad.mul(scores, Tensor(1.0 / tau)), axis=1)
    pick = np.zeros(scores.shape)
    pick[np.arange(n), rows] = 1.0
    total = ad.mul(ad.tensor_sum(ad.mul(lp, Tensor(pick))), Tensor(-1.0))
    return ad.mul(total, Tensor(1.0 / n))


def confusion_loss(
    scores: Tensor,
    rows: list[int],
    source_entities: list[int],
    protos: PrototypeMatrix,
    lam: float,
) -> Tensor:
    """Mean KL(smoothed || predicted) between smoothed label targets and
    prototype predictions, over source-domain entities (confusion maps a
    source gold label onto the target block, so target-domain entities
    carry no such term). The targets of all distinct gold slots are built
    in one batch."""
    distinct = sorted({rows[i] for i in source_entities})
    d_tgt = confusion_targets(ad.take_rows(protos.matrix, distinct), protos.target_block())
    smooth = smooth_distributions(distinct, d_tgt, lam, protos.block_boundary)
    index_of = {y: i for i, y in enumerate(distinct)}
    targets = ad.take_rows(smooth, [index_of[rows[i]] for i in source_entities])
    pred_log = ad.log_softmax(ad.take_rows(scores, source_entities), axis=1)
    kl_sum = kl_divergence_from_log(pred_log, targets)
    return ad.mul(kl_sum, Tensor(1.0 / len(source_entities)))


def predict_slot_type(reps: Tensor, protos: PrototypeMatrix, domains: list[str]) -> list[str]:
    """Slot label of each row of `reps` (N, dim): the argmax of its
    prototype dot products over the candidate rows of its domain, in
    `candidate_rows` order, so ties go to the first candidate."""
    scores = reps.values @ protos.matrix.values.T
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
