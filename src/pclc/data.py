"""Corpus parsing, vocabularies, embeddings, and experiment splits.

Corpora are directories of `<domain>.conll` files, one token per line as
"token<TAB>tag" with blank lines between utterances; tags are O / B-slot /
I-slot. An optional leading "# domain: NAME" header overrides the filename.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataFormatError
from .rng import make_rng

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


@dataclass
class Utterance:
    tokens: list[str]
    bio_tags: list[str]  # over {"O", "B", "I"}
    slot_types: list[str | None]  # slot label where bio != O, else None
    domain: str
    uid: str

    def __post_init__(self):
        n = len(self.tokens)
        if not (len(self.bio_tags) == len(self.slot_types) == n):
            raise DataFormatError(f"utterance {self.uid}: field lengths disagree")


@dataclass
class SlotSchema:
    """Domain inventory: ordered slot lists plus slot-description tokens."""

    domains: list[str]
    slots_of: dict[str, list[str]]
    description_tokens: dict[str, list[str]]

    @staticmethod
    def from_corpus(utterances: list[Utterance]) -> "SlotSchema":
        domains: list[str] = []
        slots: dict[str, set[str]] = {}
        for utt in utterances:
            if utt.domain not in slots:
                domains.append(utt.domain)
                slots[utt.domain] = set()
            for s in utt.slot_types:
                if s is not None:
                    slots[utt.domain].add(s)
        slots_of = {d: sorted(slots[d]) for d in domains}
        descriptions = {}
        for d in domains:
            for s in slots_of[d]:
                descriptions.setdefault(s, slot_description_tokens(s))
        return SlotSchema(domains=domains, slots_of=slots_of, description_tokens=descriptions)


def slot_description_tokens(slot_label: str) -> list[str]:
    """Split a slot label on underscores into lowercase description words."""
    tokens = [t for t in slot_label.lower().split("_") if t]
    if not tokens:
        raise DataFormatError(f"slot label {slot_label!r} has an empty description")
    return tokens


# ---------------------------------------------------------------------------
# CoNLL parsing


def _normalize_bio(raw: list[tuple[str, str | None]]) -> tuple[list[str], list[str | None]]:
    """Repair invalid I tags: a leading I, an I after O, or an I whose slot
    differs from the running span all open a fresh B span."""
    bio: list[str] = []
    types: list[str | None] = []
    for i, (tag, slot) in enumerate(raw):
        if tag == "I":
            if i == 0 or bio[-1] == "O" or types[-1] != slot:
                tag = "B"
        bio.append(tag)
        types.append(slot)
    return bio, types


def parse_conll(path: str, domain: str | None = None) -> list[Utterance]:
    """Parse one CoNLL file into utterances; errors carry line numbers."""
    if not os.path.exists(path):
        raise DataFormatError(f"corpus file not found: {path}")
    if domain is None:
        domain = os.path.splitext(os.path.basename(path))[0]
    utterances: list[Utterance] = []
    current: list[tuple[str, str, str | None]] = []

    def flush():
        if not current:
            return
        tokens = [t for t, _, _ in current]
        bio, types = _normalize_bio([(tag, slot) for _, tag, slot in current])
        uid = f"{domain}:{len(utterances)}"
        utterances.append(Utterance(tokens, bio, types, domain, uid))
        current.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if lineno == 1 and line.startswith("# domain:"):
                domain = line[len("# domain:") :].strip()
                continue
            if not line.strip():
                flush()
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise DataFormatError(f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}")
            token, tag = parts
            if tag == "O":
                current.append((token, "O", None))
            elif tag.startswith("B-") and len(tag) > 2:
                current.append((token, "B", tag[2:]))
            elif tag.startswith("I-") and len(tag) > 2:
                current.append((token, "I", tag[2:]))
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown tag prefix in {tag!r}")
    flush()
    return utterances


def format_conll(utterances: list[Utterance]) -> str:
    lines = []
    for utt in utterances:
        for token, bio, slot in zip(utt.tokens, utt.bio_tags, utt.slot_types):
            tag = "O" if bio == "O" else f"{bio}-{slot}"
            lines.append(f"{token}\t{tag}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def write_conll(utterances: list[Utterance], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_conll(utterances))


def load_corpus(directory: str) -> tuple[list[Utterance], SlotSchema]:
    """Load every `<domain>.conll` file (sorted by name) under a directory."""
    if not os.path.isdir(directory):
        raise DataFormatError(f"corpus directory not found: {directory}")
    files = sorted(f for f in os.listdir(directory) if f.endswith(".conll"))
    if not files:
        raise DataFormatError(f"no .conll files in {directory}")
    utterances: list[Utterance] = []
    for f in files:
        utterances.extend(parse_conll(os.path.join(directory, f)))
    return utterances, SlotSchema.from_corpus(utterances)


# ---------------------------------------------------------------------------
# vocabulary and embeddings


@dataclass
class Vocab:
    word_index: dict[str, int]
    char_index: dict[str, int]

    def word_id(self, token: str) -> int:
        return self.word_index.get(token, UNK_INDEX)

    def char_id(self, ch: str) -> int:
        return self.char_index.get(ch, UNK_INDEX)

    @property
    def n_words(self) -> int:
        return len(self.word_index)

    @property
    def n_chars(self) -> int:
        return len(self.char_index)


def build_vocab(utterances: list[Utterance], schema: SlotSchema) -> Vocab:
    """Sorted-insertion vocab over corpus tokens, their characters, and every
    slot-description token (prototypes need embeddings for target slot names
    even when no target utterance is available)."""
    words: set[str] = set()
    chars: set[str] = set()
    for utt in utterances:
        for token in utt.tokens:
            words.add(token)
            chars.update(token)
    for tokens in schema.description_tokens.values():
        for t in tokens:
            words.add(t)
            chars.update(t)
    word_index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for w in sorted(words):
        word_index.setdefault(w, len(word_index))
    char_index = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for c in sorted(chars):
        char_index.setdefault(c, len(char_index))
    return Vocab(word_index, char_index)


@dataclass
class EmbeddingTable:
    matrix: np.ndarray  # |vocab| x dim
    dim: int


def random_embeddings(vocab_size: int, dim: int, rng) -> np.ndarray:
    matrix = rng.uniform(-0.1, 0.1, size=(vocab_size, dim))
    matrix[PAD_INDEX] = 0.0
    return matrix


def load_embeddings(
    path: str | None,
    vocab: Vocab,
    dim: int,
    seed: int,
    require_pretrained: bool = False,
) -> EmbeddingTable:
    """Read GloVe-style text vectors for in-vocab words.

    Missing words draw uniform [-0.1, 0.1] rows from the seeded generator;
    the padding row is all zeros. With no file (and require_pretrained off)
    the whole table is random.
    """
    rng = make_rng(seed)
    matrix = random_embeddings(vocab.n_words, dim, rng)
    if path is None or not os.path.exists(path):
        if require_pretrained:
            raise DataFormatError(f"pretrained embeddings required but not found: {path}")
        return EmbeddingTable(matrix, dim)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}"
                )
            idx = vocab.word_index.get(word)
            if idx is not None and idx != PAD_INDEX:
                matrix[idx] = [float(v) for v in values]
    matrix[PAD_INDEX] = 0.0
    return EmbeddingTable(matrix, dim)


# ---------------------------------------------------------------------------
# experiment splits


@dataclass
class ExperimentSplit:
    target_domain: str
    train: list[Utterance]
    validation: list[Utterance]
    test: list[Utterance]
    seen_slots: tuple[str, ...]
    unseen_slots: tuple[str, ...]
    few_shot: int = 0


def classify_seen_unseen(schema: SlotSchema, target_domain: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition the target slots by whether any source domain also has them."""
    if target_domain not in schema.slots_of:
        raise DataFormatError(f"unknown domain {target_domain!r}")
    source_slots: set[str] = set()
    for d in schema.domains:
        if d != target_domain:
            source_slots.update(schema.slots_of[d])
    seen = tuple(s for s in schema.slots_of[target_domain] if s in source_slots)
    unseen = tuple(s for s in schema.slots_of[target_domain] if s not in source_slots)
    return seen, unseen


def split_leave_one_out(
    corpus: list[Utterance],
    schema: SlotSchema,
    target_domain: str,
    seed: int,
    validation_size: int = 500,
) -> ExperimentSplit:
    """Hold one domain out: its utterances become validation + test, the
    rest become train. Validation is a seeded uniform draw of
    `validation_size` utterances (half the domain, when smaller)."""
    if target_domain not in schema.slots_of:
        raise DataFormatError(f"unknown domain {target_domain!r}")
    train = [u for u in corpus if u.domain != target_domain]
    pool = [u for u in corpus if u.domain == target_domain]
    n = len(pool)
    n_val = validation_size if n > validation_size else min(validation_size, n // 2)
    rng = make_rng(seed)
    val_positions = set(rng.choice(n, size=n_val, replace=False).tolist())
    validation = [u for i, u in enumerate(pool) if i in val_positions]
    test = [u for i, u in enumerate(pool) if i not in val_positions]
    seen, unseen = classify_seen_unseen(schema, target_domain)
    return ExperimentSplit(target_domain, train, validation, test, seen, unseen)


def fewshot_select(split: ExperimentSplit, k: int, seed: int) -> ExperimentSplit:
    """Move k uniformly drawn target utterances from the test pool to train."""
    if k < 0:
        raise DataFormatError(f"few-shot sample count must be >= 0, got {k}")
    if k == 0:
        return split
    if k > len(split.test):
        raise DataFormatError(
            f"few-shot count {k} exceeds test pool of {len(split.test)}"
        )
    rng = make_rng(seed)
    chosen = set(rng.choice(len(split.test), size=k, replace=False).tolist())
    moved = [u for i, u in enumerate(split.test) if i in chosen]
    rest = [u for i, u in enumerate(split.test) if i not in chosen]
    return replace(split, train=split.train + moved, test=rest, few_shot=k)


# ---------------------------------------------------------------------------
# split manifest (line-oriented, for exact reproducibility)


def write_split_manifest(split: ExperimentSplit, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"target\t{split.target_domain}\n")
        fh.write(f"few_shot\t{split.few_shot}\n")
        for name, part in (
            ("train", split.train),
            ("validation", split.validation),
            ("test", split.test),
        ):
            for utt in part:
                fh.write(f"{name}\t{utt.uid}\n")


def read_split_manifest(
    corpus: list[Utterance], schema: SlotSchema, path: str
) -> ExperimentSplit:
    by_uid = {u.uid: u for u in corpus}
    parts: dict[str, list[Utterance]] = {"train": [], "validation": [], "test": []}
    target = None
    few_shot = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise DataFormatError(f"{path}:{lineno}: malformed manifest line")
            key, value = fields
            if key == "target":
                target = value
            elif key == "few_shot":
                few_shot = int(value)
            elif key in parts:
                if value not in by_uid:
                    raise DataFormatError(f"{path}:{lineno}: unknown utterance id {value!r}")
                parts[key].append(by_uid[value])
            else:
                raise DataFormatError(f"{path}:{lineno}: unknown partition {key!r}")
    if target is None:
        raise DataFormatError(f"{path}: manifest lacks a target line")
    seen, unseen = classify_seen_unseen(schema, target)
    return ExperimentSplit(
        target, parts["train"], parts["validation"], parts["test"], seen, unseen, few_shot
    )
