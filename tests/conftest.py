import errno
import os

import numpy as np
import pytest

from pclc import autodiff as ad
from pclc.data import SlotSchema, build_vocab, random_embeddings, split_leave_one_out
from pclc.model import PclcModel
from pclc.rng import make_rng
from pclc.synthetic import overfit_utterances, transfer_utterances
from pclc.tagger import crf_nll_batch, viterbi_decode_batch
from pclc.checkpoint import Checkpoint, save_checkpoint
from pclc.config import TrainConfig

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DATA_DIR = os.path.join(REPO_ROOT, "data")

TOY_CONFIG = TrainConfig(
    word_dim=5,
    char_dim=2,
    char_hidden=2,
    hidden=4,
    layers=1,
    dropout=0.0,
    entity_hidden=4,
    proto_dim=8,
)


def sum_all(t):
    """The sum of every element of `t`, as one test-side record."""
    return ad.emit("sum_all", [t], t.values.sum(), lambda g: (np.full(t.shape, g),))


def dot_all(t, weights):
    """The sum of every element of `t` times the same element of the constant
    array `weights`, as one test-side record."""
    weights = np.asarray(weights, dtype=np.float64)
    return ad.emit("dot_all", [t], (t.values * weights).sum(), lambda g: (g * weights,))


def add(a, b):
    """a + b of two same-shaped tensors, as one test-side record whose vjp
    hands the same gradient array to both inputs."""
    return ad.emit("add", [a, b], a.values + b.values, lambda g: (g, g))


def mul(a, b):
    """a * b of two same-shaped tensors, elementwise, as one test-side record."""
    return ad.emit("mul", [a, b], a.values * b.values, lambda g: (g * b.values, g * a.values))


def crf_nll_one(emissions, gold_tags, crf):
    """`crf_nll_batch` for one utterance's (T, 3) emissions: a batch of one."""
    return crf_nll_batch(emissions, [emissions.shape[0]], [gold_tags], crf)


def viterbi_one(emissions, crf):
    """`viterbi_decode_batch` for one utterance's (T, 3) emissions."""
    return viterbi_decode_batch(emissions, [emissions.shape[0]], crf)[0]


@pytest.fixture(scope="session")
def overfit_corpus():
    corpus = overfit_utterances()
    schema = SlotSchema.from_corpus(corpus)
    return corpus, schema


@pytest.fixture(scope="session")
def transfer_corpus():
    corpus = transfer_utterances()
    schema = SlotSchema.from_corpus(corpus)
    return corpus, schema


def build_toy_model(corpus, schema, target: str, seed: int = 0, config: TrainConfig = TOY_CONFIG):
    vocab = build_vocab(corpus, schema)
    rng = make_rng(seed)
    word_matrix = random_embeddings(vocab.n_words, config.word_dim, rng)
    model = PclcModel(schema, target, vocab, word_matrix, config, make_rng(seed + 1))
    return model, vocab


@pytest.fixture()
def toy_model(overfit_corpus):
    corpus, schema = overfit_corpus
    model, vocab = build_toy_model(corpus, schema, "kitchen")
    return model, vocab, corpus, schema


@pytest.fixture(scope="session")
def overfit_split(overfit_corpus):
    corpus, schema = overfit_corpus
    return split_leave_one_out(corpus, schema, "kitchen", seed=3)


class _FullDisk:
    """A file whose first write stores 8 bytes and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(memoryview(data).cast("B")[:8])
        raise OSError(errno.ENOSPC, "No space left on device")


def fail_payload_writes(monkeypatch):
    """Make every write of a checkpoint's params.bin fail part-way."""

    def failing_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return _FullDisk(fh) if os.path.basename(path) == "params.bin" else fh

    monkeypatch.setattr("pclc.checkpoint.open", failing_open, raising=False)


def damaged_manifest(directory, old, new):
    """Save a two-tensor checkpoint (manifest lines "param.w\t2,3\t0\t6" and
    "param.v\t2\t6\t2"), replace manifest line `old` with `new` and return
    the 1-based number of that line."""
    ckpt = Checkpoint(
        params={"w": np.arange(6.0).reshape(2, 3), "v": np.array([6.0, 7.0])},
        epoch=2, best_val_f1=0.5, config=TrainConfig(), target_domain="kitchen",
        word_vocab=[], char_vocab=[], proto_rows=[("source", "city")],
    )
    save_checkpoint(ckpt, directory)
    path = os.path.join(directory, "manifest.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = lines.index(old)
    lines[lineno] = new
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return lineno + 1
