"""Coarse BIO entity tagging: word+char BiLSTM encoder and a 3-tag CRF.

Tag indices are fixed: O=0, B=1, I=2. The encoder runs over a padded batch
given by its lengths and reads its sizes and dropout from the run's
`TrainConfig`; `EncodedBatch.hidden` stacks all per-position states into
one matrix so downstream consumers gather rows by (utterance, position)
flat index. The CRF loss and Viterbi decoder take whole padded batches; one
utterance is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .data import PAD_INDEX, Utterance, Vocab
from .errors import ShapeError
from .layers import BiLstm, final_states, run_lstm

N_TAGS = 3
O_IDX, B_IDX, I_IDX = 0, 1, 2
TAG_NAMES = ("O", "B", "I")


@dataclass
class TaggedSpan:
    start: int  # inclusive
    end: int  # inclusive


@dataclass
class EncodedBatch:
    hidden: Tensor  # ((t_max * batch), 2*hidden); row t*batch + b = (b, t)
    lengths: list[int]
    batch_size: int
    t_max: int

    def flat(self, b: int, t: int) -> int:
        return t * self.batch_size + b


def _token_rows(utterances: list[Utterance]) -> tuple[list[str], np.ndarray]:
    """The batch's distinct tokens in order of first occurrence, and each
    position's index into them, ((t_max * B),) in `EncodedBatch` row layout;
    padded positions hold 0, as no layer reads a padded row."""
    index: dict[str, int] = {}
    row_of = [[index.setdefault(t, len(index)) for t in utt.tokens] for utt in utterances]
    rows = np.zeros((max(map(len, row_of)), len(row_of)), dtype=np.intp)
    for b, r in enumerate(row_of):
        rows[: len(r), b] = r
    return list(index), rows.reshape(-1)


class Encoder:
    """Concatenated word + char-BiLSTM embeddings fed to a stacked BiLSTM."""

    def __init__(self, vocab: Vocab, word_matrix: np.ndarray, config: TrainConfig, rng):
        if word_matrix.shape != (vocab.n_words, config.word_dim):
            raise ShapeError(
                f"word embedding matrix {word_matrix.shape} does not match "
                f"vocab {vocab.n_words} x dim {config.word_dim}"
            )
        self.config = config
        self.word_table = Tensor(np.array(word_matrix, dtype=np.float64), requires_grad=True)
        char_matrix = rng.uniform(-0.1, 0.1, size=(vocab.n_chars, config.char_dim))
        char_matrix[PAD_INDEX] = 0.0
        self.char_table = Tensor(char_matrix, requires_grad=True)
        self.char_lstm = BiLstm(config.char_dim, config.char_hidden, rng, "char")
        self.layers: list[BiLstm] = []
        in_dim = config.word_dim + 2 * config.char_hidden
        for layer in range(config.layers):
            self.layers.append(BiLstm(in_dim, config.hidden, rng, f"lstm{layer}"))
            in_dim = 2 * config.hidden

    def parameters(self):
        params = [("word_table", self.word_table), ("char_table", self.char_table)]
        for lstm in [self.char_lstm, *self.layers]:
            params += lstm.parameters()
        return params

    def _char_features(self, tokens: list[str], vocab) -> Tensor:
        """Char-BiLSTM final states, one row per distinct token of the batch.

        A token's states depend only on its spelling, so each is computed
        once. Returns the (len(tokens), 2*char_hidden) matrix, rows in the
        order of `tokens`.
        """
        char_lengths = [len(t) for t in tokens]
        char_ids = np.full((max(char_lengths), len(tokens)), PAD_INDEX, dtype=np.intp)
        for j, token in enumerate(tokens):
            char_ids[: len(token), j] = [vocab.char_id(c) for c in token]
        x = ad.take_rows(self.char_table, char_ids.reshape(-1))
        return final_states(run_lstm(self.char_lstm, x, char_lengths), char_lengths)

    def encode_batch(
        self, utterances: list[Utterance], vocab: Vocab, training: bool, rng=None
    ) -> EncodedBatch:
        if not utterances or any(len(u.tokens) == 0 for u in utterances):
            raise ShapeError("encode_batch: empty utterance")
        cfg = self.config
        batch = len(utterances)
        lengths = [len(u.tokens) for u in utterances]
        t_max = max(lengths)

        # the first layer's input has one row per distinct token; `rows` maps
        # each position to its row, and run_lstm gathers through it
        tokens, rows = _token_rows(utterances)
        char_x = self._char_features(tokens, vocab)
        token_words = np.array([vocab.word_id(t) for t in tokens], dtype=np.intp)
        x = ad.concat([ad.take_rows(self.word_table, token_words), char_x])
        index = rows
        if training:  # dropout draws its mask per position: gather one row each first
            x, index = ad.take_rows(x, rows), None
        x = ad.dropout(x, cfg.dropout, rng=rng, training=training)

        for layer_idx, lstm in enumerate(self.layers):
            x = run_lstm(lstm, x, lengths, index if layer_idx == 0 else None)
            if layer_idx + 1 < len(self.layers):
                x = ad.dropout(x, cfg.dropout, rng=rng, training=training)

        return EncodedBatch(x, lengths, batch, t_max)


# ---------------------------------------------------------------------------
# CRF


class CrfLayer:
    """Linear-chain CRF over {O, B, I} with explicit start/end scores."""

    def __init__(self, rng):
        def init(shape):
            return Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)

        self.transitions = init((N_TAGS, N_TAGS))
        self.start = init(N_TAGS)
        self.end = init(N_TAGS)

    def parameters(self):
        return [
            ("crf.transitions", self.transitions),
            ("crf.start", self.start),
            ("crf.end", self.end),
        ]


def _log_sum_exp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _padded(emissions: np.ndarray, lengths: list[int], who: str):
    """The (t_max, B, 3) view of row-layout emissions and the (t_max, B) live mask."""
    if not lengths or min(lengths) < 1:
        raise ShapeError(f"{who}: every length must be >= 1, got {lengths}")
    t_max, batch = max(lengths), len(lengths)
    if emissions.shape != (t_max * batch, N_TAGS):
        raise ShapeError(f"{who}: emissions {emissions.shape} do not fit lengths {lengths}")
    live = np.arange(t_max)[:, None] < np.asarray(lengths)
    return emissions.reshape(t_max, batch, N_TAGS), live


def crf_nll_batch(
    emissions: Tensor, lengths: list[int], gold_tags: list[list[int]], crf: CrfLayer
) -> Tensor:
    """Summed negative log-likelihood, sum_b log Z_b - score_b(gold), as one tape record.

    `emissions` is ((t_max * B), 3) in `EncodedBatch` row layout: row t*B + b
    is utterance b at position t, and rows with t >= lengths[b] are padding.
    The value comes from the masked log-space forward algorithm, the vjp
    from forward-backward marginals: unary marginals minus gold one-hots
    (exactly 0 on padding), summed pairwise marginals minus gold transition
    counts, and the first and last unary terms for `start` and `end`.
    """
    emis, live = _padded(emissions.values, lengths, "crf_nll")
    t_max, batch = live.shape
    if len(gold_tags) != batch or any(len(y) != n for y, n in zip(gold_tags, lengths)):
        raise ShapeError(f"crf_nll: gold tag lists do not match lengths {lengths}")
    if any(not 0 <= y < N_TAGS for tags in gold_tags for y in tags):
        raise ShapeError(f"crf_nll: gold tags out of range: {gold_tags}")
    gold = np.zeros((t_max, batch, N_TAGS))
    for b, tags in enumerate(gold_tags):
        gold[np.arange(len(tags)), b, tags] = 1.0
    trans_count = np.einsum("tbi,tbj->ij", gold[:-1], gold[1:])
    last = (np.asarray(lengths) - 1, np.arange(batch))
    trans, start, end = crf.transitions.values, crf.start.values, crf.end.values

    alpha = np.empty((t_max, batch, N_TAGS))
    alpha[0] = start + emis[0]
    for t in range(1, t_max):
        step = _log_sum_exp(alpha[t - 1][:, :, None] + trans + emis[t][:, None, :], axis=1)
        alpha[t] = np.where(live[t][:, None], step, alpha[t - 1])
    log_z = _log_sum_exp(alpha[-1] + end, axis=1)
    gold_score = (emis * gold).sum() + (trans * trans_count).sum()
    gold_score += start @ gold[0].sum(axis=0) + end @ gold[last].sum(axis=0)

    def vjp(g):
        beta = np.empty_like(alpha)
        beta[-1] = end
        for t in range(t_max - 2, -1, -1):
            step = _log_sum_exp(trans + (emis[t + 1] + beta[t + 1])[:, None, :], axis=2)
            beta[t] = np.where(live[t + 1][:, None], step, end)
        # exponent -inf on padding makes its marginals exactly 0
        unary = np.exp(np.where(live[:, :, None], alpha + beta - log_z[:, None], -np.inf))
        pair = alpha[:-1, :, :, None] + trans + (emis[1:] + beta[1:])[:, :, None, :]
        pair = np.exp(np.where(live[1:, :, None, None], pair - log_z[:, None, None], -np.inf))
        d_unary = unary - gold
        return (
            g * d_unary.reshape(emissions.shape),
            g * (pair.sum(axis=(0, 1)) - trans_count),
            g * d_unary[0].sum(axis=0),
            g * d_unary[last].sum(axis=0),
        )

    inputs = [emissions, crf.transitions, crf.start, crf.end]
    return ad.emit("crf_nll", inputs, np.asarray(log_z.sum() - gold_score), vjp)


def viterbi_decode_batch(
    emissions: np.ndarray, lengths: list[int], crf: CrfLayer
) -> list[list[int]]:
    """Highest-scoring tag sequence per utterance of a padded batch.

    `emissions` has the row layout of `crf_nll_batch`.
    A backward max-product pass scores the best rest of each utterance per
    position and tag; tags are then picked forwards, so ties resolve to the
    lowest tag index at the earliest position (the lexicographically first
    best path).
    """
    emis, live = _padded(emissions, lengths, "viterbi_decode")
    trans, end = crf.transitions.values, crf.end.values
    suffix = np.empty_like(emis)  # [t, b, y]: best score of t..L_b-1 with tag y at t
    suffix[-1] = emis[-1] + end
    for t in range(len(emis) - 2, -1, -1):
        rest = (trans + suffix[t + 1][:, None, :]).max(axis=2)
        suffix[t] = emis[t] + np.where(live[t + 1][:, None], rest, end)
    tags = np.empty(live.shape, dtype=np.intp)
    tags[0] = (crf.start.values + suffix[0]).argmax(axis=1)  # argmax: lowest index on ties
    for t in range(1, len(emis)):
        tags[t] = (trans[tags[t - 1]] + suffix[t]).argmax(axis=1)
    return [tags[:n, b].tolist() for b, n in enumerate(lengths)]


def extract_spans(bio_sequence) -> list[TaggedSpan]:
    """Maximal B(I)* runs as spans; a leading I or an I after O opens a new B."""
    tags = [TAG_NAMES[t] if isinstance(t, (int, np.integer)) else t for t in bio_sequence]
    if any(t not in TAG_NAMES for t in tags):
        raise ShapeError(f"extract_spans: tags must be in {TAG_NAMES}")
    spans: list[TaggedSpan] = []
    start = None
    for i, tag in enumerate(tags):
        if tag == "O":
            if start is not None:
                spans.append(TaggedSpan(start, i - 1))
                start = None
        elif tag == "B":
            if start is not None:
                spans.append(TaggedSpan(start, i - 1))
            start = i
        else:  # I continues a span, or repairs into a new B
            if start is None:
                start = i
    if start is not None:
        spans.append(TaggedSpan(start, len(tags) - 1))
    return spans


def gold_spans(utterance: Utterance) -> list[tuple[int, int, str]]:
    """(start, end, slot) triples from gold BIO tags and slot types."""
    out = []
    for span in extract_spans(utterance.bio_tags):
        slot = utterance.slot_types[span.start]
        out.append((span.start, span.end, slot))
    return out
