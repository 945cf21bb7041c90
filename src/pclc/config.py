"""`TrainConfig`, the one record of a run's settings, and its `key=value` format.

`--config` files, `effective.cfg` and a manifest's `[meta]` and `[config]`
share it: an entry per line, blank lines and `#` comments skipped, spaces
around key and value dropped, an alias (`lambda`, `tau`, `alpha`) read as
the key it names. `read_kv` is its one reader."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError

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


def _check(key: str, value) -> None:
    for keys, valid, rule in _RULES:
        if key in keys and not valid(value):
            raise ConfigError(f"config key {key!r}: {rule}, got {value!r}")


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
    validation_size: int = 500

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _check(field.name, getattr(self, field.name))

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
    try:
        if annotation == "int | None":
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


def config_to_kv(cfg: TrainConfig) -> list[str]:
    return [
        f"{f.name}={_format_value(getattr(cfg, f.name))}"
        for f in dataclasses.fields(cfg)
    ]


_ALIASES = {"lambda": "confusion_lambda", "tau": "temperature", "alpha": "kl_weight"}


def read_kv(
    lines: Iterable[tuple[int, str]], path: str, section: str, error_type=ConfigError
) -> dict[str, tuple[int, str]]:
    """Each key of numbered `key=value` lines with (its line number, its
    value). A line without `=`, or a key given twice, is `error_type` naming
    `path:line`; `section` names the entries in the message."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error_type(f"{path}:{lineno}: {section} entry needs key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key in entries:
            first = entries[key][0]
            raise error_type(f"{path}:{lineno}: {section} key {key!r} repeats line {first}")
        entries[key] = (lineno, value)
    return entries


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
    "require_pretrained": (
        "false",
        "a run without --embeddings uses random vectors, and a named --embeddings file that is "
        "missing or holds no vectors is refused",
    ),
}


def config_from_kv(
    entries: dict[str, tuple[int, str]], path: str = "", error_type=ConfigError
) -> TrainConfig:
    """The config that `read_kv`'s entries set, the others at their defaults.
    A bad entry is `error_type` naming `path:line`; an entry on line 0 (a
    command-line flag) has no line to name."""
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    kwargs = {}
    for key, (lineno, raw) in entries.items():
        raw = raw.strip()
        try:
            if key in _REMOVED:
                kept, why = _REMOVED[key]
                if raw != kept:
                    raise ConfigError(f"config key {key!r} was removed, got {raw!r}: {why}")
                continue
            if key not in types:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, types[key], raw)
            _check(key, kwargs[key])
        except ConfigError as err:
            raise error_type(f"{path}:{lineno}: {err}" if lineno else str(err)) from None
    return TrainConfig(**kwargs)
