import os

import numpy as np
import pytest

from pclc.data import SlotSchema, build_vocab, random_embeddings, split_leave_one_out
from pclc.model import ModelDims, PclcModel
from pclc.rng import make_rng
from pclc.synthetic import overfit_utterances, transfer_utterances
from pclc.trainer import Checkpoint, save_checkpoint

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DATA_DIR = os.path.join(REPO_ROOT, "data")

TOY_DIMS = ModelDims(
    word_dim=5,
    char_dim=2,
    char_hidden=2,
    hidden=4,
    layers=1,
    dropout=0.0,
    entity_hidden=4,
    proto_dim=8,
)


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


def build_toy_model(corpus, schema, target: str, seed: int = 0, dims: ModelDims = TOY_DIMS):
    vocab = build_vocab(corpus, schema)
    rng = make_rng(seed)
    word_matrix = random_embeddings(vocab.n_words, dims.word_dim, rng)
    model = PclcModel(schema, target, vocab, word_matrix, dims, make_rng(seed + 1))
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


def damaged_manifest(directory, old, new):
    """Save a one-tensor checkpoint, replace manifest line `old` with `new`
    and return the 1-based number of that line."""
    ckpt = Checkpoint(
        params={"w": np.arange(6.0).reshape(2, 3)}, adam_m={}, adam_v={}, adam_t=4,
        epoch=2, best_val_f1=0.5, config_kv=[], target_domain="kitchen",
        word_vocab=[], char_vocab=[], proto_rows=[],
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
