"""Fine-grained slot typing against a refined prototype space.

Slot prototypes are MLP images of slot-name embeddings (mean of the
description-token word vectors), rebuilt on every forward pass so the label
space keeps moving with training. The prototype matrix has a source block
followed by a target block; a slot living in both domains gets one row in
each block.
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
    """Prototype rows = MLP(mean of description-token word embeddings)."""
    source_labels = source_block_order(schema, source_domains)
    target_labels = list(schema.slots_of[target_domain])
    name_rows = []
    for label in source_labels + target_labels:
        tokens = schema.description_tokens[label]
        if not tokens:
            raise ShapeError(f"slot {label!r} has an empty description")
        ids = []
        for t in tokens:
            if t not in vocab.word_index:
                raise ShapeError(f"description token {t!r} of slot {label!r} not in vocab")
            ids.append(vocab.word_index[t])
        looked = ad.embedding_lookup(word_table, np.asarray(ids, dtype=np.intp))
        mean = ad.mul(ad.tensor_sum(looked, axis=0, keepdims=True), Tensor(1.0 / len(ids)))
        name_rows.append(mean)
    name_matrix = ad.concat(name_rows, axis=0)
    matrix = mlp(name_matrix)
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


def confusion_target(z_y: Tensor, target_block: Tensor) -> Tensor:
    """Soft distribution over target slots by similarity to the gold prototype.

    Cosine similarities are clamped at zero before L1 normalization so the
    result is a valid distribution; if nothing is positive the distribution
    falls back to uniform.
    """
    n_target = target_block.shape[0]
    if n_target == 0:
        raise ShapeError("confusion_target: empty target block")
    z = z_y if z_y.values.ndim == 1 else ad.reshape(z_y, (z_y.size,))
    if float(np.linalg.norm(z.values)) == 0.0:
        raise ShapeError("confusion_target: zero-norm gold prototype")
    norms_sq = ad.tensor_sum(ad.mul(target_block, target_block), axis=1)
    if float(norms_sq.values.min()) == 0.0:
        raise ShapeError("confusion_target: zero-norm target prototype row")
    dots = ad.reshape(ad.matmul(target_block, ad.reshape(z, (z.size, 1))), (n_target,))
    z_norm = ad.sqrt(ad.tensor_sum(ad.mul(z, z)))
    sims = ad.div(dots, ad.mul(ad.sqrt(norms_sq), z_norm))
    clamped = ad.relu(sims)
    total = float(clamped.values.sum())
    if total == 0.0:
        return Tensor(np.full(n_target, 1.0 / n_target))
    return ad.div(clamped, ad.tensor_sum(clamped))


def smooth_distribution(y: int, d_tgt: Tensor, lam: float, n_source: int) -> Tensor:
    """Concatenate lam * one_hot(y) over the source block with
    (1 - lam) * d_tgt over the target block."""
    if not 0.0 <= lam <= 1.0:
        raise ShapeError(f"confusion factor must be in [0, 1], got {lam}")
    if not 0 <= y < n_source:
        raise ShapeError(f"source label index {y} out of range for {n_source} slots")
    src = np.zeros(n_source)
    src[y] = lam
    scaled_tgt = ad.mul(d_tgt, Tensor(1.0 - lam))
    return ad.concat([Tensor(src), scaled_tgt], axis=0)


def kl_divergence_from_log(pred_log: Tensor, target: Tensor) -> Tensor:
    """KL(target || exp(pred_log)) with the 0*log(0) := 0 convention."""
    if pred_log.shape != target.shape:
        raise ShapeError(f"kl: shapes {pred_log.shape} vs {target.shape} disagree")
    entropy_part = ad.tensor_sum(ad.xlogx(target))
    cross_part = ad.tensor_sum(ad.mul(target, pred_log))
    return ad.sub(entropy_part, cross_part)


def kl_divergence_reverse(pred_log: Tensor, target: Tensor) -> Tensor:
    """KL(exp(pred_log) || target) over the target's support only (a full
    reverse KL is infinite off it). With s the predicted mass on the support,
    this is s * (KL(p/s || target) + log s), not a divergence: its minimum,
    -1/e at s = 1/e, rewards moving predicted mass off the target's support."""
    support = (target.values > 0.0).astype(np.float64)
    safe_target = ad.add(ad.mul(target, Tensor(support)), Tensor(1.0 - support))
    pred = ad.exp(pred_log)
    log_ratio = ad.sub(pred_log, ad.log(safe_target))
    return ad.tensor_sum(ad.mul(ad.mul(pred, log_ratio), Tensor(support)))


def contrastive_loss(
    scores: Tensor,
    rows: list[int],
    from_target: list[bool],
    protos: PrototypeMatrix,
    tau: float,
    contrast_block: str,
) -> Tensor:
    """Mean over entities of -log softmax(score/tau)[gold row].

    With `contrast_block == "source"`, source-domain entities contrast only
    against the source block; target-domain (few-shot) entities always use
    every row so their gold stays in the candidate set.
    """
    n, n_rows = scores.shape
    groups: list[tuple[list[int], list[int]]] = []  # (entity idx, candidate cols)
    if contrast_block == "source":
        src_cols = list(range(protos.block_boundary))
        all_cols = list(range(n_rows))
        src_entities = [i for i in range(n) if not from_target[i]]
        tgt_entities = [i for i in range(n) if from_target[i]]
        if src_entities:
            groups.append((src_entities, src_cols))
        if tgt_entities:
            groups.append((tgt_entities, all_cols))
    else:
        groups.append((list(range(n)), list(range(n_rows))))

    acc = None
    for entities, cols in groups:
        # both lists are ascending without repeats: a full-length one is the identity
        sub = scores
        if len(cols) < n_rows:
            sub = ad.transpose(ad.take_rows(ad.transpose(sub), cols))
        if len(entities) < n:
            sub = ad.take_rows(sub, entities)
        lp = ad.log_softmax(ad.mul(sub, Tensor(1.0 / tau)), axis=1)
        pick = np.zeros((len(entities), len(cols)))
        col_of = {c: j for j, c in enumerate(cols)}
        for out_i, i in enumerate(entities):
            pick[out_i, col_of[rows[i]]] = 1.0
        part = ad.mul(ad.tensor_sum(ad.mul(lp, Tensor(pick))), Tensor(-1.0))
        acc = part if acc is None else ad.add(acc, part)
    return ad.mul(acc, Tensor(1.0 / n))


def confusion_loss(
    scores: Tensor,
    rows: list[int],
    source_entities: list[int],
    protos: PrototypeMatrix,
    lam: float,
    kl_direction: str,
) -> Tensor:
    """Mean KL between smoothed label targets and prototype predictions,
    over source-domain entities (confusion maps a source gold label onto
    the target block, so target-domain entities carry no such term).

    `kl_direction` is "smooth_to_pred" (KL(smoothed || predicted)) or
    "pred_to_smooth" (`kl_divergence_reverse`)."""
    target_block = protos.target_block()
    n_source = protos.block_boundary
    distinct = sorted({rows[i] for i in source_entities})
    smooth_rows = []
    for y in distinct:
        z_y = ad.reshape(ad.take_rows(protos.matrix, [y]), (protos.matrix.shape[1],))
        d_tgt = confusion_target(z_y, target_block)
        d_smooth = smooth_distribution(y, d_tgt, lam, n_source)
        smooth_rows.append(ad.reshape(d_smooth, (1, protos.n_rows)))
    smooth_matrix = ad.concat(smooth_rows, axis=0)
    index_of = {y: i for i, y in enumerate(distinct)}
    targets = ad.take_rows(smooth_matrix, [index_of[rows[i]] for i in source_entities])
    pred_log = ad.log_softmax(ad.take_rows(scores, source_entities), axis=1)
    if kl_direction == "smooth_to_pred":
        kl_sum = kl_divergence_from_log(pred_log, targets)
    else:
        kl_sum = kl_divergence_reverse(pred_log, targets)
    return ad.mul(kl_sum, Tensor(1.0 / len(source_entities)))


def predict_slot_type(r: Tensor, protos: PrototypeMatrix, domain: str) -> str:
    """Argmax of prototype dot products over the domain's candidate rows;
    ties go to the lower row index."""
    rows, labels = protos.candidate_rows(domain)
    if not rows:
        raise ShapeError(f"no candidate prototypes for domain {domain!r}")
    vec = r.values.reshape(-1)
    scores = protos.matrix.values[rows] @ vec
    return labels[int(np.argmax(scores))]
