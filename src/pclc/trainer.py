"""Joint training of both stages with Adam, early stopping and evaluation.

The total loss is the CRF negative log-likelihood plus, per the ablation
flags, the prototypical contrastive term and the weighted label-confusion
KL term, each averaged over the batch. With both flags off the classifier
trains with plain cross-entropy over prototype dot products (reported in
the `pc` column of the log).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .checkpoint import Checkpoint, _keep_freed_heap, _snapshot
from .classifier import confusion_loss, contrastive_loss, prototype_scores
from .config import TrainConfig
from .data import ExperimentSplit, SlotSchema, Utterance, Vocab
from .errors import ConfigError, TrainingDiverged
from .evaluate import EvalReport, SpanPrediction, seen_unseen_report, span_f1
from .model import PclcModel
from .optim import Adam, clip_grad_norm
from .rng import make_rng
from .tagger import TAG_NAMES, crf_nll_batch, gold_spans

# only for perfbench/, which imports them from here; only a benchmark change may edit it
from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint


def _tag_indices(utterance: Utterance) -> list[int]:
    return [TAG_NAMES.index(t) for t in utterance.bio_tags]


def loss_components(
    batch: list[Utterance], model: PclcModel, config: TrainConfig, rng
) -> dict[str, Tensor]:
    """The batch loss terms as live graph nodes: crf, pc, kl, total.

    Terms a flag turns off come back as constant zeros so the dict shape is
    stable across configurations.
    """
    if not batch:
        raise TrainingDiverged("total_loss: empty batch")
    enc = model.encode(batch, training=True, rng=rng)
    all_scores, _ = model.emissions(enc)
    gold_tags = [_tag_indices(u) for u in batch]
    crf_sum = crf_nll_batch(all_scores, enc.lengths, gold_tags, model.crf)
    l_crf = ad.weighted_sum([crf_sum], [config.crf_weight / len(batch)])

    spans: list[tuple[int, int, int]] = []
    gold_slot: list[str] = []
    from_target: list[bool] = []
    for b, utt in enumerate(batch):
        for start, end, slot in gold_spans(utt):
            spans.append((b, start, end))
            gold_slot.append(slot)
            from_target.append(utt.domain == model.target_domain)

    zero = Tensor(0.0)
    if not spans:
        return {"crf": l_crf, "pc": zero, "kl": zero, "total": l_crf}

    protos = model.prototypes()
    reps = model.entity_representations(enc, spans)  # (N, d)
    rows = [
        protos.target_row(slot) if is_tgt else protos.source_row(slot)
        for slot, is_tgt in zip(gold_slot, from_target)
    ]
    scores = prototype_scores(reps, protos)  # (N, C)

    classification_needed = config.enable_pcl or not config.enable_lc
    l_pc = zero
    if classification_needed:
        tau = config.temperature if config.enable_pcl else 1.0
        l_pc = contrastive_loss(scores, rows, tau)

    l_kl = zero
    if config.enable_lc:
        source_entities = [i for i, is_tgt in enumerate(from_target) if not is_tgt]
        if source_entities:
            l_kl = confusion_loss(scores, rows, source_entities, protos, config.confusion_lambda)

    # a term its flag turns off is the constant zero, so adding it changes nothing
    total = ad.weighted_sum([l_crf, l_pc, l_kl], [1.0, 1.0, config.kl_weight])
    return {"crf": l_crf, "pc": l_pc, "kl": l_kl, "total": total}


def total_loss(
    batch: list[Utterance], model: PclcModel, config: TrainConfig, rng
) -> tuple[Tensor, dict[str, float]]:
    """Batch loss and the float values of its terms (crf, pc, kl, total)."""
    terms = loss_components(batch, model, config, rng)
    parts = {name: t.item() for name, t in terms.items()}
    _check_finite(parts)
    return terms["total"], parts


def _check_finite(parts: dict[str, float]) -> None:
    for name, value in parts.items():
        if not np.isfinite(value):
            raise TrainingDiverged(f"non-finite loss term {name!r}: {value}")


def early_stop_check(history: list[float], patience: int) -> bool:
    """True means stop: the (first) best value is `patience` or more epochs
    behind the current one. A freshly improved epoch never stops."""
    if not history:
        raise ConfigError("early_stop_check: empty history")
    best_idx = int(np.argmax(history))
    since = len(history) - 1 - best_idx
    return since > 0 and since >= patience


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_lines: list[str]


def _score(model: PclcModel, utterances: list[Utterance], batch_size: int, **labels) -> EvalReport:
    """The one place where predictions and gold spans meet `span_f1`."""
    predicted = [set(p) for p in model.predict(utterances, batch_size=batch_size)]
    gold = [{SpanPrediction(s, e, slot) for s, e, slot in gold_spans(u)} for u in utterances]
    return span_f1(gold, predicted, **labels)


def validation_f1(model: PclcModel, utterances: list[Utterance], batch_size: int) -> float:
    if not utterances:
        return 0.0
    return _score(model, utterances, batch_size).f1


def evaluate_split(model: PclcModel, split: ExperimentSplit, batch_size: int) -> EvalReport:
    """Span F1 on `split.test`, overall and over its seen and unseen slots."""
    setting = f"few-shot-{split.few_shot}" if split.few_shot else "zero-shot"
    report = _score(model, split.test, batch_size, domain=split.target_domain, setting=setting)
    return seen_unseen_report(report, split.seen_slots, split.unseen_slots)


def _ensure_grads(params: dict[str, Tensor]) -> None:
    # terms can vanish (e.g. a batch with no entities); Adam demands grads
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.values)


def train_run(
    split: ExperimentSplit,
    schema: SlotSchema,
    vocab: Vocab,
    word_matrix: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train on the split's source utterances with seeded shuffling; keep the
    checkpoint with the best validation span F1; stop early on `patience`."""
    _keep_freed_heap()
    rng = make_rng(config.seed)
    model = PclcModel(schema, split.target_domain, vocab, word_matrix, config, rng)
    params = model.named_parameters()
    adam = Adam(params, lr=config.lr)
    log_lines: list[str] = []
    history: list[float] = []
    best_ckpt: Checkpoint | None = None
    best_f1 = -1.0
    train_set = list(split.train)
    for epoch in range(1, config.resolved_max_epochs() + 1):
        order = rng.permutation(len(train_set))
        sums = {"crf": 0.0, "pc": 0.0, "kl": 0.0}
        n_batches = 0
        for lo in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[lo : lo + config.batch_size]]
            model.zero_grad()
            with Tape() as tape:
                loss, parts = total_loss(batch, model, config, rng)
                ad.backward(loss, tape)
            _ensure_grads(params)
            clip_grad_norm(params, config.grad_clip)
            adam.step()
            for key in sums:
                sums[key] += parts[key]
            n_batches += 1
        val = validation_f1(model, split.validation, config.batch_size)
        history.append(val)
        means = {k: sums[k] / max(n_batches, 1) for k in sums}
        log_lines.append(
            f"epoch={epoch}\tcrf={means['crf']!r}\tpc={means['pc']!r}"
            f"\tkl={means['kl']!r}\tval_f1={val!r}"
        )
        if val > best_f1:
            best_f1 = val
            best_ckpt = _snapshot(model, epoch, best_f1, config)
        if early_stop_check(history, config.patience):
            break
    if best_ckpt is None:
        best_ckpt = _snapshot(model, 0, 0.0, config)
    return TrainResult(best_ckpt, log_lines)
