"""Joint training of both stages with Adam, early stopping, checkpoints.

The total loss is the CRF negative log-likelihood plus, per the ablation
flags, the prototypical contrastive term and the weighted label-confusion
KL term, each averaged over the batch. With both flags off the classifier
trains with plain cross-entropy over prototype dot products (reported in
the `pc` column of the log).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .classifier import confusion_loss, contrastive_loss, prototype_scores, source_block_order
from .data import ExperimentSplit, SlotSchema, Utterance, Vocab, text_lines
from .errors import CheckpointError, ConfigError, TrainingDiverged
from .evaluate import EvalReport, SpanPrediction, seen_unseen_report, span_f1
from .model import PclcModel
from .optim import Adam, clip_grad_norm
from .rng import make_rng
from .tagger import TAG_NAMES, crf_nll_batch, gold_spans


# (config keys, valid(value), the rule as the error states it)
_RULES = (
    (
        ("batch_size", "word_dim", "char_dim", "char_hidden", "hidden", "layers",
         "entity_hidden", "proto_dim", "validation_size"),
        lambda v: v >= 1, "must be >= 1",
    ),
    (
        ("seed", "patience", "few_shot", "kl_weight", "crf_weight"),
        lambda v: v >= 0, "must be >= 0",
    ),
    (("max_epochs",), lambda v: v is None or v >= 0, "must be none or >= 0"),
    (("lr",), lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0"),
    (("temperature", "grad_clip"), lambda v: v > 0.0, "must be > 0"),
    (("dropout",), lambda v: 0.0 <= v < 1.0, "must be in [0, 1)"),
    (("confusion_lambda",), lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]"),
    # last, so a value out of range is named by its range first
    (("temperature", "kl_weight", "crf_weight", "grad_clip"), math.isfinite, "must be finite"),
)


@dataclass
class TrainConfig:
    """Every setting of a run: training, model dims, then the CLI's run
    settings. `config_to_kv` writes the fields in this order."""

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
    crf_weight: float = 1.0
    grad_clip: float = 5.0
    word_dim: int = 300
    char_dim: int = 25
    char_hidden: int = 25  # per direction
    hidden: int = 200  # per direction
    layers: int = 2
    entity_hidden: int = 200
    proto_dim: int = 200
    data_dir: str = ""
    embeddings: str = ""  # GloVe-style text file; empty = random init
    target: str = ""
    output_dir: str = ""
    require_pretrained: bool = False
    validation_size: int = 500

    def __post_init__(self):
        for keys, valid, rule in _RULES:
            for key in keys:
                value = getattr(self, key)
                if not valid(value):
                    raise ConfigError(f"config key {key!r}: {rule}, got {value!r}")

    def resolved_max_epochs(self) -> int:
        if self.max_epochs is not None:
            return self.max_epochs
        return 60 if self.few_shot > 0 else 30


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


def parse_kv(lines: list[str]) -> dict[str, str]:
    """`key=value` lines, as `config_to_kv` writes them, as a dict."""
    return dict(kv.split("=", 1) for kv in lines)


# removed config keys: (the value every run still computes, why the others
# went). Older checkpoints and effective.cfg files name the kept value.
_REMOVED = {
    "kl_direction": (
        "smooth_to_pred",
        "the label-confusion term is always KL(smoothed || predicted); pred_to_smooth rewarded "
        "predicted mass off the smoothed target's support",
    ),
    "contrast_block": (
        "both",
        "the contrastive term always contrasts each entity with every prototype row; source "
        "contrasted source-domain entities with the source block alone, an ablation no run "
        "selected",
    ),
}


def config_from_kv(cls, pairs: dict[str, str]):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in pairs.items():
        if key in _REMOVED:
            kept, why = _REMOVED[key]
            if raw.strip() == kept:
                continue
            raise ConfigError(f"config key {key!r} was removed, got {raw.strip()!r}: {why}")
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


def _proto_rows(model: PclcModel) -> list[tuple[str, str]]:
    """(block, slot label) of each prototype row, in `build_prototypes`' order."""
    sources = source_block_order(model.schema, model.source_domains)
    targets = model.schema.slots_of[model.target_domain]
    return [("source", s) for s in sources] + [("target", s) for s in targets]


def _snapshot(model: PclcModel, epoch: int, best_f1: float, config: TrainConfig) -> Checkpoint:
    return Checkpoint(
        params={k: p.values.copy() for k, p in model.named_parameters().items()},
        epoch=epoch,
        best_val_f1=best_f1,
        config_kv=config_to_kv(config),
        target_domain=model.target_domain,
        word_vocab=_vocab_list(model.vocab.word_index),
        char_vocab=_vocab_list(model.vocab.char_index),
        proto_rows=_proto_rows(model),
    )


def _vocab_list(index: dict[str, int]) -> list[str]:
    return [tok for tok, _ in sorted(index.items(), key=lambda kv: kv[1])]


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Make glibc's malloc keep freed memory in the process for reuse.

    A paper-dims training step allocates and frees about 115 MB of tape and
    gradients. By default glibc hands that memory back to the OS when the
    step frees it, and the next step faults it back in page by page: a
    2-epoch paper-dims `train_run` of 8 steps took 84k-230k minor page
    faults and 0.2-0.6 s of system time in its 2.1-3.3 s. With the trim
    threshold at 1 GiB and the mmap threshold at glibc's 32 MiB maximum it
    takes under 100 once the heap has grown. `load_checkpoint` applies it
    too: otherwise whether the 23 MiB paper-dims payload is served from
    reused heap or faulted in afresh depends on what the process allocated
    before, and a predict set-up took either about 22k or about 105k minor
    faults. Settings are per process, so one call is enough; a no-op where
    libc exports no `mallopt` (macOS, Windows), and musl's is a stub.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


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
    return TrainResult(best_ckpt, log_lines, history)


# ---------------------------------------------------------------------------
# checkpoint container: text manifest plus raw little-endian float64 payload.
# It holds what inference reads: parameters, vocabularies, prototype rows and
# config.

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"


def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    """Write `ckpt` as `directory`, whole or not at all: both files go into a
    sibling staging directory, renamed into place once written. A checkpoint
    already there is moved aside first and removed last."""
    lines = [f"pclc-checkpoint {FORMAT_VERSION}"]
    lines.append("[meta]")
    lines.append(f"epoch={ckpt.epoch}")
    lines.append(f"best_val_f1={ckpt.best_val_f1!r}")
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
    for name, arr in ckpt.params.items():
        shape = ",".join(str(s) for s in arr.shape) or "scalar"
        lines.append(f"param.{name}\t{shape}\t{offset}\t{arr.size}")
        offset += arr.size
    target = os.path.abspath(directory)  # no trailing separator
    staging, aside = f"{target}.saving", f"{target}.old"
    try:
        os.makedirs(staging, exist_ok=True)  # a killed save's files are overwritten
        with open(os.path.join(staging, MANIFEST_NAME), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(os.path.join(staging, PAYLOAD_NAME), "wb") as fh:
            for arr in ckpt.params.values():
                # a float64 array already in C order is written as it is, uncopied
                fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        if os.path.lexists(target):
            shutil.rmtree(aside, ignore_errors=True)
            os.rename(target, aside)
        os.rename(staging, target)
    except OSError as err:
        raise CheckpointError(f"cannot write checkpoint {directory}: {err}") from None
    finally:
        shutil.rmtree(staging, ignore_errors=True)  # gone already once renamed
    shutil.rmtree(aside, ignore_errors=True)


def load_checkpoint(directory: str) -> Checkpoint:
    """Read a checkpoint; each parameter is a view into one read of `params.bin`."""
    _keep_freed_heap()
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    payload_path = os.path.join(directory, PAYLOAD_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(payload_path):
        raise CheckpointError(f"checkpoint not found at {directory}")
    lines = "".join(text_lines(manifest_path, CheckpointError)).splitlines()
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
            if key in meta:
                raise bad(lineno, f"meta key {key!r} repeats line {meta[key][0]}")
            meta[key] = (lineno, value)

    def meta_number(key: str, kind):
        lineno, value = meta.get(key, (0, "0"))
        try:
            return kind(value)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise bad(lineno, f"{key}={value!r} is not {wanted}") from None

    config_line: dict[str, int] = {}  # key -> line number
    for lineno, line in sections.get("config", []):
        if "=" not in line:
            raise bad(lineno, f"config entry needs key=value, got {line!r}")
        key = line.split("=", 1)[0]
        if key in config_line:
            raise bad(lineno, f"config key {key!r} repeats line {config_line[key]}")
        config_line[key] = lineno
    proto_rows: list[tuple[str, str]] = []
    for lineno, line in sections.get("proto_rows", []):
        if "\t" not in line:
            raise bad(lineno, f"prototype row needs block<TAB>label, got {line!r}")
        block, label = line.split("\t", 1)
        proto_rows.append((block, label))
    payload = np.fromfile(payload_path, dtype="<f8")
    params: dict[str, np.ndarray] = {}
    expected = 0
    for lineno, line in sections.get("tensors", []):
        fields = line.split("\t")
        if len(fields) != 4:
            raise bad(lineno, f"tensor entry needs 4 tab-separated fields, got {len(fields)}")
        name, shape_s, offset_s, count_s = fields
        if not name.startswith("param."):
            raise bad(lineno, f"unknown tensor entry {name!r}")
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
        if len(shape) > 2:
            raise bad(lineno, f"tensor {name!r}: {len(shape)} dimensions, at most 2 allowed")
        if count != math.prod(shape):
            raise bad(lineno, f"tensor {name!r}: count {count} is not the size of shape {shape_s}")
        if offset != expected:  # tensors tile the payload, so no two views overlap
            raise bad(lineno, f"tensor {name!r}: offset {offset}, previous one ends at {expected}")
        expected = offset + count
        if expected > payload.size:
            raise CheckpointError(
                f"{payload_path}: truncated payload, need {expected} floats, "
                f"have {payload.size}"
            )
        params[name[len("param.") :]] = payload[offset:expected].reshape(shape)
    if payload.size != expected:
        raise CheckpointError(
            f"{payload_path}: payload holds {payload.size} floats, manifest expects {expected}"
        )
    return Checkpoint(
        params=params,
        epoch=meta_number("epoch", int),
        best_val_f1=meta_number("best_val_f1", float),
        config_kv=text("config"),
        target_domain=meta.get("target_domain", (0, ""))[1],
        word_vocab=text("word_vocab"),
        char_vocab=text("char_vocab"),
        proto_rows=proto_rows,
    )


class _NoInit:
    """The init rng's stand-in: layers only call `uniform`; loading overwrites it all."""

    def uniform(self, low, high, size):
        return np.empty(size)


def model_from_checkpoint(
    ckpt: Checkpoint, schema: SlotSchema, vocab: Vocab
) -> tuple[PclcModel, TrainConfig]:
    """Rebuild the model for a checkpoint; refuses on any vocabulary or
    prototype-row-order mismatch with the current experiment. The model takes
    `ckpt.params`' arrays as its own, uncopied: writing to one writes to both."""
    config = config_from_kv(TrainConfig, parse_kv(ckpt.config_kv))
    if _vocab_list(vocab.word_index) != ckpt.word_vocab:
        raise CheckpointError("checkpoint word vocabulary does not match the corpus")
    if _vocab_list(vocab.char_index) != ckpt.char_vocab:
        raise CheckpointError("checkpoint char vocabulary does not match the corpus")
    if ckpt.target_domain not in schema.slots_of:
        raise CheckpointError(f"checkpoint target domain {ckpt.target_domain!r} not in the corpus")
    word_matrix = np.empty((vocab.n_words, config.word_dim))
    model = PclcModel(schema, ckpt.target_domain, vocab, word_matrix, config, _NoInit())
    if _proto_rows(model) != ckpt.proto_rows:
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
        tensor.values = arr
    return model, config
