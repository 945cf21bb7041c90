"""Two-stage slot filling model: BIO tagging, then prototype classification.

Holds every trainable tensor under a stable name so the optimizer and the
checkpoint format can address parameters consistently. Its sizes and
dropout come from the run's `TrainConfig`, the one config record.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .classifier import EntityEncoder, PrototypeMatrix, build_prototypes, predict_slot_type
from .config import TrainConfig
from .data import SlotSchema, Utterance, Vocab
from .errors import ShapeError
from .evaluate import SpanPrediction
from .layers import Linear, Mlp
from .tagger import CrfLayer, EncodedBatch, Encoder, N_TAGS, extract_spans, viterbi_decode_batch


class PclcModel:
    def __init__(
        self,
        schema: SlotSchema,
        target_domain: str,
        vocab: Vocab,
        word_matrix: np.ndarray,
        config: TrainConfig,
        rng,
    ):
        self.schema = schema
        self.target_domain = target_domain
        self.source_domains = [d for d in schema.domains if d != target_domain]
        self.vocab = vocab
        self.encoder = Encoder(vocab, word_matrix, config, rng)
        self.emission = Linear(2 * config.hidden, N_TAGS, rng, "emission")
        self.crf = CrfLayer(rng)
        self.entity_encoder = EntityEncoder(
            2 * config.hidden, config.entity_hidden, config.proto_dim, rng
        )
        self.proto_mlp = Mlp(config.word_dim, config.proto_dim, config.proto_dim, rng, "proto_mlp")
        params = (
            self.encoder.parameters()
            + self.emission.parameters()
            + self.crf.parameters()
            + self.entity_encoder.parameters()
            + self.proto_mlp.parameters()
        )
        self._params = dict(params)
        if len(self._params) != len(params):
            raise ShapeError("duplicate parameter names in model registry")

    def named_parameters(self) -> dict[str, Tensor]:
        return self._params

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def prototypes(self) -> PrototypeMatrix:
        return build_prototypes(
            self.schema,
            self.source_domains,
            self.target_domain,
            self.vocab,
            self.encoder.word_table,
            self.proto_mlp,
        )

    def encode(self, utterances: list[Utterance], training: bool, rng=None) -> EncodedBatch:
        return self.encoder.encode_batch(utterances, self.vocab, training, rng)

    def emissions(self, enc: EncodedBatch) -> tuple[Tensor, list[Tensor]]:
        """All-position emission scores, in the row layout of `enc.hidden`,
        and each utterance's (T_b, 3) rows as untracked views."""
        all_scores = self.emission(enc.hidden)
        grid = all_scores.values.reshape(enc.t_max, enc.batch_size, N_TAGS)
        per_utt = [Tensor(grid[:n, b]) for b, n in enumerate(enc.lengths)]
        return all_scores, per_utt

    def entity_representations(
        self, enc: EncodedBatch, spans: list[tuple[int, int, int]]
    ) -> Tensor:
        """Representations for (batch_row, start, end) spans, shape (N, proto_dim).

        Spans are batched with end padding; padded steps repeat an in-span
        row, which the LSTM ignores past each span's length.
        """
        if not spans:
            raise ShapeError("entity_representations: no spans")
        for b, start, end in spans:
            if not 0 <= start <= end < enc.lengths[b]:
                raise ShapeError(f"span ({start}, {end}) outside utterance of length {enc.lengths[b]}")
        lengths = [end - start + 1 for _, start, end in spans]
        steps = range(max(lengths))
        rows = [enc.flat(b, min(start + s, end)) for s in steps for b, start, end in spans]
        return self.entity_encoder.encode_steps(ad.take_rows(enc.hidden, rows), lengths)

    def predict(
        self, utterances: list[Utterance], batch_size: int = 64
    ) -> list[list[SpanPrediction]]:
        """Full two-stage inference: Viterbi spans, then prototype argmax."""
        out: list[list[SpanPrediction]] = []
        protos = self.prototypes()
        for lo in range(0, len(utterances), batch_size):
            chunk = utterances[lo : lo + batch_size]
            enc = self.encode(chunk, training=False)
            all_scores, _ = self.emissions(enc)
            chunk_spans: list[tuple[int, int, int]] = []
            predictions: list[list[SpanPrediction]] = [[] for _ in chunk]
            paths = viterbi_decode_batch(all_scores.values, enc.lengths, self.crf)
            for b, tags in enumerate(paths):
                for span in extract_spans(tags):
                    chunk_spans.append((b, span.start, span.end))
            if chunk_spans:
                reps = self.entity_representations(enc, chunk_spans)
                labels = predict_slot_type(reps, protos, [chunk[b].domain for b, _, _ in chunk_spans])
                for (b, start, end), label in zip(chunk_spans, labels):
                    predictions[b].append(SpanPrediction(start, end, label))
            out.extend(predictions)
        return out
