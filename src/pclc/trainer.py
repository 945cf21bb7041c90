"""Joint training of both stages with Adam, early stopping, checkpoints.

The total loss is the CRF negative log-likelihood plus, per the ablation
flags, the prototypical contrastive term and the weighted label-confusion
KL term, each averaged over the batch. With both flags off the classifier
trains with plain cross-entropy over prototype dot products (reported in
the `pc` column of the log).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .classifier import (
    PclcHyperparams,
    confusion_target,
    kl_divergence_reverse,
    smooth_distribution,
)
from .data import ExperimentSplit, SlotSchema, Utterance, Vocab
from .errors import CheckpointError, ConfigError, TrainingDiverged
from .evaluate import SpanPrediction, span_f1
from .model import ModelDims, PclcModel
from .optim import Adam, clip_grad_norm
from .rng import make_rng
from .tagger import TAG_NAMES, crf_nll_batch, gold_spans


@dataclass
class TrainConfig:
    lr: float = 0.0005
    batch_size: int = 64
    dropout: float = 0.3
    patience: int = 15
    max_epochs: int | None = None  # default 30 zero-shot, 60 few-shot
    few_shot: int = 0
    confusion_lambda: float = 0.6
    temperature: float = 1.0
    kl_weight: float = 1.0
    seed: int = 1
    enable_pcl: bool = True
    enable_lc: bool = True
    kl_direction: str = "smooth_to_pred"  # or "pred_to_smooth"
    contrast_block: str = "both"  # candidate prototypes during training; or "source"
    crf_weight: float = 1.0
    grad_clip: float = 5.0
    word_dim: int = 300
    char_dim: int = 25
    char_hidden: int = 25
    hidden: int = 200
    layers: int = 2
    entity_hidden: int = 200
    proto_dim: int = 200

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"config key 'batch_size': must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"config key 'dropout': must be in [0, 1), got {self.dropout}")

    def resolved_max_epochs(self) -> int:
        if self.max_epochs is not None:
            return self.max_epochs
        return 60 if self.few_shot > 0 else 30

    def model_dims(self) -> ModelDims:
        return ModelDims(
            word_dim=self.word_dim,
            char_dim=self.char_dim,
            char_hidden=self.char_hidden,
            hidden=self.hidden,
            layers=self.layers,
            dropout=self.dropout,
            entity_hidden=self.entity_hidden,
            proto_dim=self.proto_dim,
        )


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _coerce(name: str, annotation: str, raw: str):
    raw = raw.strip()
    try:
        if annotation in ("int | None", "typing.Optional[int]"):
            return None if raw == "none" else int(raw)
        if annotation == "int":
            return int(raw)
        if annotation == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"config key {name!r}: expected {annotation}, got {raw!r}") from None
    if annotation == "bool":
        if raw not in ("true", "false"):
            raise ConfigError(f"config key {name!r}: expected true/false, got {raw!r}")
        return raw == "true"
    return raw


def config_to_kv(cfg) -> list[str]:
    return [
        f"{f.name}={_format_value(getattr(cfg, f.name))}"
        for f in dataclasses.fields(cfg)
    ]


def config_from_kv(cls, pairs: dict[str, str]):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in pairs.items():
        if key not in fields:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = _coerce(key, str(fields[key].type), raw)
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# loss


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
    PclcHyperparams(config.temperature, config.confusion_lambda, config.kl_weight)
    enc = model.encode(batch, training=True, rng=rng)
    all_scores, _ = model.emissions(enc)
    gold_tags = [_tag_indices(u) for u in batch]
    crf_sum = crf_nll_batch(all_scores, enc.lengths, gold_tags, model.crf)
    l_crf = ad.mul(crf_sum, Tensor(config.crf_weight / len(batch)))

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
    scores = ad.matmul(reps, ad.transpose(protos.matrix))  # (N, C)

    classification_needed = config.enable_pcl or not config.enable_lc
    l_pc = zero
    if classification_needed:
        tau = config.temperature if config.enable_pcl else 1.0
        l_pc = _contrastive_term(scores, rows, from_target, protos, tau, config.contrast_block)

    l_kl = zero
    if config.enable_lc:
        source_entities = [i for i, is_tgt in enumerate(from_target) if not is_tgt]
        if source_entities:
            l_kl = _confusion_term(scores, rows, source_entities, protos, config)

    total = l_crf
    if classification_needed:
        total = ad.add(total, l_pc)
    if config.enable_lc:
        total = ad.add(total, ad.mul(l_kl, Tensor(config.kl_weight)))
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


def _contrastive_term(
    scores: Tensor,
    rows: list[int],
    from_target: list[bool],
    protos,
    tau: float,
    contrast_block: str,
) -> Tensor:
    """Mean over entities of -log softmax(score/tau)[gold row].

    With `contrast_block == "source"`, source-domain entities contrast only
    against the source block; target-domain (few-shot) entities always use
    every row so their gold stays in the candidate set.
    """
    n, n_rows = scores.shape
    restrict = contrast_block == "source"
    groups: list[tuple[list[int], list[int]]] = []  # (entity idx, candidate cols)
    if restrict:
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
        sub = ad.take_rows(ad.transpose(ad.take_rows(ad.transpose(scores), cols)), entities)
        lp = ad.log_softmax(ad.mul(sub, Tensor(1.0 / tau)), axis=1)
        pick = np.zeros((len(entities), len(cols)))
        col_of = {c: j for j, c in enumerate(cols)}
        for out_i, i in enumerate(entities):
            pick[out_i, col_of[rows[i]]] = 1.0
        part = ad.mul(ad.tensor_sum(ad.mul(lp, Tensor(pick))), Tensor(-1.0))
        acc = part if acc is None else ad.add(acc, part)
    return ad.reshape(ad.mul(acc, Tensor(1.0 / n)), ())


def _confusion_term(
    scores: Tensor,
    rows: list[int],
    source_entities: list[int],
    protos,
    config: TrainConfig,
) -> Tensor:
    """Mean KL between smoothed label targets and prototype predictions,
    over source-domain entities (confusion maps a source gold label onto
    the target block, so target-domain entities carry no such term)."""
    target_block = protos.target_block()
    n_source = protos.block_boundary
    distinct = sorted({rows[i] for i in source_entities})
    smooth_rows = []
    for y in distinct:
        z_y = ad.reshape(ad.take_rows(protos.matrix, [y]), (protos.matrix.shape[1],))
        d_tgt = confusion_target(z_y, target_block)
        d_smooth = smooth_distribution(y, d_tgt, config.confusion_lambda, n_source)
        smooth_rows.append(ad.reshape(d_smooth, (1, protos.n_rows)))
    smooth_matrix = ad.concat(smooth_rows, axis=0)
    index_of = {y: i for i, y in enumerate(distinct)}
    targets = ad.take_rows(smooth_matrix, [index_of[rows[i]] for i in source_entities])
    pred_scores = ad.take_rows(scores, source_entities)
    pred_log = ad.log_softmax(pred_scores, axis=1)
    if config.kl_direction == "smooth_to_pred":
        kl_sum = ad.sub(
            ad.tensor_sum(ad.xlogx(targets)),
            ad.tensor_sum(ad.mul(targets, pred_log)),
        )
    elif config.kl_direction == "pred_to_smooth":
        kl_sum = kl_divergence_reverse(pred_log, targets)
    else:
        raise ConfigError(f"unknown kl_direction {config.kl_direction!r}")
    return ad.reshape(ad.mul(kl_sum, Tensor(1.0 / len(source_entities))), ())


# ---------------------------------------------------------------------------
# training loop


def early_stop_check(history: list[float], patience: int) -> bool:
    """True means stop: the (first) best value is `patience` or more epochs
    behind the current one. A freshly improved epoch never stops."""
    if not history:
        raise ConfigError("early_stop_check: empty history")
    best_idx = int(np.argmax(history))
    since = len(history) - 1 - best_idx
    return since > 0 and since >= patience


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int
    epoch: int
    best_val_f1: float
    config_kv: list[str]
    target_domain: str
    word_vocab: list[str]
    char_vocab: list[str]
    proto_rows: list[tuple[str, str]]  # (block, slot label)


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log_lines: list[str]
    val_history: list[float]


def _gold_prediction_sets(utterances: list[Utterance]) -> list[set[SpanPrediction]]:
    return [
        {SpanPrediction(start, end, slot) for start, end, slot in gold_spans(u)}
        for u in utterances
    ]


def validation_f1(model: PclcModel, utterances: list[Utterance], batch_size: int) -> float:
    if not utterances:
        return 0.0
    predicted = [set(p) for p in model.predict(utterances, batch_size=batch_size)]
    return span_f1(_gold_prediction_sets(utterances), predicted).f1


def _ensure_grads(params: dict[str, Tensor]) -> None:
    # terms can vanish (e.g. a batch with no entities); Adam demands grads
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.values)


def _snapshot(model: PclcModel, adam: Adam, epoch: int, best_f1: float, config: TrainConfig) -> Checkpoint:
    protos = model.prototypes()
    proto_rows = [("source", s) for s in protos.source_labels] + [
        ("target", s) for s in protos.target_labels
    ]
    return Checkpoint(
        params={k: p.values.copy() for k, p in model.named_parameters().items()},
        adam_m={k: v.copy() for k, v in adam.m.items()},
        adam_v={k: v.copy() for k, v in adam.v.items()},
        adam_t=adam.t,
        epoch=epoch,
        best_val_f1=best_f1,
        config_kv=config_to_kv(config),
        target_domain=model.target_domain,
        word_vocab=_vocab_list(model.vocab.word_index),
        char_vocab=_vocab_list(model.vocab.char_index),
        proto_rows=proto_rows,
    )


def _vocab_list(index: dict[str, int]) -> list[str]:
    return [tok for tok, _ in sorted(index.items(), key=lambda kv: kv[1])]


def train_run(
    split: ExperimentSplit,
    schema: SlotSchema,
    vocab: Vocab,
    word_matrix: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train on the split's source utterances with seeded shuffling; keep the
    checkpoint with the best validation span F1; stop early on `patience`."""
    rng = make_rng(config.seed)
    model = PclcModel(
        schema, split.target_domain, vocab, word_matrix, config.model_dims(), rng
    )
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
            best_ckpt = _snapshot(model, adam, epoch, best_f1, config)
        if early_stop_check(history, config.patience):
            break
    if best_ckpt is None:
        best_ckpt = _snapshot(model, adam, 0, 0.0, config)
    return TrainResult(best_ckpt, log_lines, history)


# ---------------------------------------------------------------------------
# checkpoint container: text manifest plus raw little-endian float64 payload

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    arrays: list[tuple[str, np.ndarray]] = []
    arrays += [(f"param.{k}", v) for k, v in ckpt.params.items()]
    arrays += [(f"adam.m.{k}", v) for k, v in ckpt.adam_m.items()]
    arrays += [(f"adam.v.{k}", v) for k, v in ckpt.adam_v.items()]
    lines = [f"pclc-checkpoint {FORMAT_VERSION}"]
    lines.append("[meta]")
    lines.append(f"epoch={ckpt.epoch}")
    lines.append(f"best_val_f1={ckpt.best_val_f1!r}")
    lines.append(f"adam_t={ckpt.adam_t}")
    lines.append(f"target_domain={ckpt.target_domain}")
    lines.append("[config]")
    lines.extend(ckpt.config_kv)
    lines.append("[word_vocab]")
    lines.extend(ckpt.word_vocab)
    lines.append("[char_vocab]")
    lines.extend(ckpt.char_vocab)
    lines.append("[proto_rows]")
    lines.extend(f"{block}\t{label}" for block, label in ckpt.proto_rows)
    lines.append("[tensors]")
    offset = 0
    payload = bytearray()
    for name, arr in arrays:
        flat = np.ascontiguousarray(arr, dtype="<f8")
        count = flat.size
        shape = ",".join(str(s) for s in arr.shape) or "scalar"
        lines.append(f"{name}\t{shape}\t{offset}\t{count}")
        payload.extend(flat.tobytes())
        offset += count
    with open(os.path.join(directory, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, PAYLOAD_NAME), "wb") as fh:
        fh.write(bytes(payload))


def load_checkpoint(directory: str) -> Checkpoint:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(payload_path):
        raise CheckpointError(f"checkpoint not found at {directory}")
    with open(manifest_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("pclc-checkpoint "):
        raise CheckpointError(f"{manifest_path}: not a checkpoint manifest")
    version = lines[0].split()[-1]
    if version != str(FORMAT_VERSION):
        raise CheckpointError(
            f"{manifest_path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    sections: dict[str, list[tuple[int, str]]] = {}  # (1-based line number, text)
    current: list[tuple[int, str]] | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif current is not None:
            current.append((lineno, line))

    def text(section: str) -> list[str]:
        return [line for _, line in sections.get(section, [])]

    def bad(lineno: int, message: str) -> CheckpointError:
        return CheckpointError(f"{manifest_path}:{lineno}: {message}")

    meta: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, line in sections.get("meta", []):
        if "=" in line:
            key, value = line.split("=", 1)
            meta[key] = (lineno, value)

    def meta_number(key: str, kind):
        lineno, value = meta.get(key, (0, "0"))
        try:
            return kind(value)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise bad(lineno, f"{key}={value!r} is not {wanted}") from None

    proto_rows = [tuple(line.split("\t", 1)) for line in text("proto_rows")]
    payload = np.fromfile(payload_path, dtype="<f8")
    params: dict[str, np.ndarray] = {}
    adam_m: dict[str, np.ndarray] = {}
    adam_v: dict[str, np.ndarray] = {}
    expected = 0
    for lineno, line in sections.get("tensors", []):
        fields = line.split("\t")
        if len(fields) != 4:
            raise bad(lineno, f"tensor entry needs 4 tab-separated fields, got {len(fields)}")
        name, shape_s, offset_s, count_s = fields
        try:
            shape = () if shape_s == "scalar" else tuple(int(s) for s in shape_s.split(","))
            offset, count = int(offset_s), int(count_s)
        except ValueError:
            raise bad(
                lineno, f"tensor {name!r}: shape {shape_s!r}, offset {offset_s!r} and "
                f"count {count_s!r} must be integers"
            ) from None
        if offset < 0 or any(n < 0 for n in shape):
            raise bad(lineno, f"tensor {name!r}: negative offset or dimension")
        if count != math.prod(shape):
            raise bad(lineno, f"tensor {name!r}: count {count} is not the size of shape {shape_s}")
        expected = max(expected, offset + count)
        if offset + count > payload.size:
            raise CheckpointError(
                f"{payload_path}: truncated payload, need {offset + count} floats, "
                f"have {payload.size}"
            )
        arr = payload[offset : offset + count].reshape(shape).copy()
        if name.startswith("param."):
            params[name[len("param.") :]] = arr
        elif name.startswith("adam.m."):
            adam_m[name[len("adam.m.") :]] = arr
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v.") :]] = arr
        else:
            raise bad(lineno, f"unknown tensor entry {name!r}")
    if payload.size != expected:
        raise CheckpointError(
            f"{payload_path}: payload holds {payload.size} floats, manifest expects {expected}"
        )
    return Checkpoint(
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=meta_number("adam_t", int),
        epoch=meta_number("epoch", int),
        best_val_f1=meta_number("best_val_f1", float),
        config_kv=text("config"),
        target_domain=meta.get("target_domain", (0, ""))[1],
        word_vocab=text("word_vocab"),
        char_vocab=text("char_vocab"),
        proto_rows=[(b, l) for b, l in proto_rows],
    )


def model_from_checkpoint(
    ckpt: Checkpoint, schema: SlotSchema, vocab: Vocab
) -> tuple[PclcModel, TrainConfig]:
    """Rebuild the model for a checkpoint; refuses on any vocabulary or
    prototype-row-order mismatch with the current experiment."""
    pairs = dict(kv.split("=", 1) for kv in ckpt.config_kv)
    # snapshots may come from an extended config (CLI run settings); only
    # the training fields matter for rebuilding the model
    names = {f.name for f in dataclasses.fields(TrainConfig)}
    config = config_from_kv(TrainConfig, {k: v for k, v in pairs.items() if k in names})
    if _vocab_list(vocab.word_index) != ckpt.word_vocab:
        raise CheckpointError("checkpoint word vocabulary does not match the corpus")
    if _vocab_list(vocab.char_index) != ckpt.char_vocab:
        raise CheckpointError("checkpoint char vocabulary does not match the corpus")
    model = PclcModel(
        schema,
        ckpt.target_domain,
        vocab,
        np.zeros((vocab.n_words, config.word_dim)),
        config.model_dims(),
        make_rng(0),
    )
    protos = model.prototypes()
    rows = [("source", s) for s in protos.source_labels] + [
        ("target", s) for s in protos.target_labels
    ]
    if rows != ckpt.proto_rows:
        raise CheckpointError(
            "checkpoint prototype row order does not match this experiment"
        )
    params = model.named_parameters()
    if set(params) != set(ckpt.params):
        raise CheckpointError("checkpoint parameter names do not match the model")
    for name, tensor in params.items():
        arr = ckpt.params[name]
        if arr.shape != tensor.values.shape:
            raise CheckpointError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, "
                f"model expects {tensor.values.shape}"
            )
        tensor.values = arr.copy()
    return model, config
