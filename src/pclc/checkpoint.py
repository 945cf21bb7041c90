"""The checkpoint container: a text manifest plus a raw little-endian float64
payload, holding what inference reads (parameters, vocabularies, prototype
rows, config), and the heap policy that training and loading share."""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from .classifier import source_block_order
from .config import TrainConfig, config_from_kv, config_to_kv, read_kv
from .data import SlotSchema, Vocab, text_lines
from .errors import CheckpointError
from .model import PclcModel

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "params.bin"
META_KEYS = ("epoch", "best_val_f1", "target_domain")  # exactly these, in [meta]
# config keys that say where a run read and wrote, left out of [config] so a
# checkpoint's bytes do not depend on them; `target` is [meta]'s target_domain
RUN_KEYS = ("data_dir", "embeddings", "target", "output_dir")


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    epoch: int
    best_val_f1: float
    config: TrainConfig
    target_domain: str
    word_vocab: list[str]
    char_vocab: list[str]
    proto_rows: list[tuple[str, str]]  # (block, slot label)


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
        config=config,
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



def save_checkpoint(ckpt: Checkpoint, directory: str) -> None:
    """Write `ckpt` as `directory`, whole or not at all: both files go into a
    sibling staging directory, renamed into place once written. A checkpoint
    already there is moved aside first and removed last."""
    lines = [
        f"pclc-checkpoint {FORMAT_VERSION}",
        "[meta]", f"epoch={ckpt.epoch}", f"best_val_f1={ckpt.best_val_f1!r}",
        f"target_domain={ckpt.target_domain}",
        "[config]", *(kv for kv in config_to_kv(ckpt.config) if kv.split("=")[0] not in RUN_KEYS),
        "[word_vocab]", *ckpt.word_vocab,
        "[char_vocab]", *ckpt.char_vocab,
        "[proto_rows]", *(f"{block}\t{label}" for block, label in ckpt.proto_rows),
        "[tensors]",
    ]
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

    meta_lines = sections.get("meta", [])
    meta = read_kv(meta_lines, manifest_path, "meta", CheckpointError)
    for key, (lineno, value) in meta.items():
        if key not in META_KEYS:
            raise bad(lineno, f"unknown meta key {key!r}")
        if not value:
            raise bad(lineno, f"meta key {key!r} is empty")
    for key in META_KEYS:
        if key not in meta:  # named at the last line of the section
            where = f"{manifest_path}:{meta_lines[-1][0]}" if meta_lines else manifest_path
            raise CheckpointError(f"{where}: meta section lacks key {key!r}")

    def meta_number(key: str, kind):
        lineno, value = meta[key]
        try:
            return kind(value)
        except ValueError:
            wanted = "an integer" if kind is int else "a number"
            raise bad(lineno, f"{key}={value!r} is not {wanted}") from None

    config = config_from_kv(
        read_kv(sections.get("config", []), manifest_path, "config", CheckpointError),
        manifest_path, CheckpointError,
    )
    proto_rows: list[tuple[str, str]] = []
    for lineno, line in sections.get("proto_rows", []):
        if "\t" not in line:
            raise bad(lineno, f"prototype row needs block<TAB>label, got {line!r}")
        block, label = line.split("\t", 1)
        proto_rows.append((block, label))
    payload = np.fromfile(payload_path, dtype="<f8")  # drops a partial last float
    payload_bytes = os.path.getsize(payload_path)
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
        if 8 * expected > payload_bytes:
            raise CheckpointError(
                f"{payload_path}: truncated payload, need {8 * expected} bytes, "
                f"have {payload_bytes}"
            )
        params[name[len("param.") :]] = payload[offset:expected].reshape(shape)
    if payload_bytes != 8 * expected:
        raise CheckpointError(
            f"{payload_path}: payload holds {payload_bytes} bytes, manifest expects {8 * expected}"
        )
    return Checkpoint(
        params=params,
        epoch=meta_number("epoch", int),
        best_val_f1=meta_number("best_val_f1", float),
        config=config,
        target_domain=meta["target_domain"][1],
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
    if _vocab_list(vocab.word_index) != ckpt.word_vocab:
        raise CheckpointError("checkpoint word vocabulary does not match the corpus")
    if _vocab_list(vocab.char_index) != ckpt.char_vocab:
        raise CheckpointError("checkpoint char vocabulary does not match the corpus")
    if ckpt.target_domain not in schema.slots_of:
        raise CheckpointError(f"checkpoint target domain {ckpt.target_domain!r} not in the corpus")
    word_matrix = np.empty((vocab.n_words, ckpt.config.word_dim))
    model = PclcModel(schema, ckpt.target_domain, vocab, word_matrix, ckpt.config, _NoInit())
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
    return model, ckpt.config
