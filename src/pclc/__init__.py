"""Zero-shot cross-domain slot filling via prototypical contrastive learning
with dynamic label confusion, on a self-contained float64 autodiff core."""

from .autodiff import Tape, Tensor, backward
from .checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from .classifier import (
    PrototypeMatrix,
    build_prototypes,
    confusion_loss,
    confusion_targets,
    contrastive_loss,
    predict_slot_type,
    smooth_distributions,
)
from .config import TrainConfig
from .data import (
    ExperimentSplit,
    SlotSchema,
    Utterance,
    Vocab,
    build_vocab,
    classify_seen_unseen,
    fewshot_select,
    load_corpus,
    load_embeddings,
    parse_conll,
    split_leave_one_out,
)
from .evaluate import EvalReport, SpanPrediction, export_prototypes, seen_unseen_report, span_f1
from .model import PclcModel
from .optim import Adam
from .tagger import CrfLayer, crf_nll_batch, extract_spans, viterbi_decode_batch
from .trainer import early_stop_check, evaluate_split, total_loss, train_run

__version__ = "0.1.0"
