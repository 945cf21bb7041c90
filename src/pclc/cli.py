"""Command-line entry point: train / eval / predict / sweep-lambda / export-protos.

Hyperparameters come from a key=value config file plus command-line
overrides (override wins); unknown keys are rejected. `train` and
`sweep-lambda` take every config flag; `eval`, `predict` and
`export-protos` take only the flags they read. Every run directory
receives the effective config, the split manifest, and the training log, so
a run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .checkpoint import load_checkpoint, model_from_checkpoint, save_checkpoint
from .config import _ALIASES, TrainConfig, config_from_kv, config_to_kv, read_kv
from .data import (
    DataFormatError,
    Utterance,
    build_vocab,
    fewshot_select,
    load_corpus,
    load_embeddings,
    output_file,
    split_leave_one_out,
    text_lines,
    write_split_manifest,
)
from .errors import CheckpointError, ConfigError, PclcError
from .evaluate import EvalReport, export_prototypes
from .trainer import evaluate_split, train_run

OUTPUT_ROOT_ENV = "PCLC_OUTPUT_ROOT"


def _add_override_flags(parser: argparse.ArgumentParser, names: tuple[str, ...] = ()) -> None:
    """A flag for each config field in `names`; with none named, a flag for
    every field and alias, and `--config`."""
    if not names:
        parser.add_argument("--config", help="key=value config file")
        names = tuple(field.name for field in dataclasses.fields(TrainConfig))
        for alias, name in _ALIASES.items():
            parser.add_argument(f"--{alias}", dest=f"cfg_{name}", metavar="V")
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=f"cfg_{name}", metavar="V")


def _build_config(args: argparse.Namespace) -> TrainConfig:
    """The config file's entries, then each flag given as an entry on line 0."""
    path = getattr(args, "config", None) or ""
    entries: dict[str, tuple[int, str]] = {}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        entries = read_kv(enumerate(text_lines(path, ConfigError), start=1), path, "config")
    for field in dataclasses.fields(TrainConfig):
        value = getattr(args, f"cfg_{field.name}", None)
        if value is not None:
            entries[field.name] = (0, value)
    return config_from_kv(entries, path)


def _resolve_output_dir(cfg: TrainConfig) -> str:
    out = cfg.output_dir
    if not out:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if not root:
            raise ConfigError(
                f"no output directory: pass --output-dir or set {OUTPUT_ROOT_ENV}"
            )
        out = os.path.join(root, cfg.target or "run")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {out}: {err.strerror}") from None
    return out


def _write_lines(path: str, lines: list[str]) -> None:
    with output_file(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _corpus_and_vocab(cfg: TrainConfig):
    if not cfg.data_dir:
        raise ConfigError("data_dir is required")
    corpus, schema = load_corpus(cfg.data_dir)
    return corpus, schema, build_vocab(corpus, schema)


def _split(corpus, schema, cfg: TrainConfig):
    """The run's leave-one-out split of `cfg.target`, after its few-shot draw."""
    if not cfg.target:
        raise ConfigError("target domain is required")
    split = split_leave_one_out(corpus, schema, cfg.target, cfg.seed, cfg.validation_size)
    return fewshot_select(split, cfg.few_shot, cfg.seed)


def _train_and_write(cfg: TrainConfig):
    """Train one run and write its directory; returns the result with the
    split, schema and vocab it was trained on."""
    out_dir = _resolve_output_dir(cfg)
    checkpoint_dir = os.path.join(out_dir, "checkpoint")
    if os.path.exists(checkpoint_dir) and not os.path.isdir(checkpoint_dir):
        raise ConfigError(f"cannot write checkpoint {checkpoint_dir}: a file has that name")
    corpus, schema, vocab = _corpus_and_vocab(cfg)
    split = _split(corpus, schema, cfg)
    table = load_embeddings(cfg.embeddings or None, vocab, cfg.word_dim, cfg.seed)
    result = train_run(split, schema, vocab, table.matrix, cfg)
    # the checkpoint first: a rerun that fails before it leaves the earlier run's files
    save_checkpoint(result.checkpoint, checkpoint_dir)
    _write_lines(os.path.join(out_dir, "effective.cfg"), config_to_kv(cfg))
    write_split_manifest(split, os.path.join(out_dir, "split_manifest.txt"))
    _write_lines(os.path.join(out_dir, "train_log.txt"), result.log_lines)
    print(
        f"trained target={cfg.target} epochs={result.checkpoint.epoch} "
        f"best_val_f1={result.checkpoint.best_val_f1:.4f} -> {out_dir}"
    )
    return result, split, schema, vocab


def cmd_train(cfg: TrainConfig) -> int:
    _train_and_write(cfg)
    return 0


def _load_model_for(cfg: TrainConfig, checkpoint_path: str):
    if not os.path.isdir(checkpoint_path):
        raise CheckpointError(f"checkpoint not found: {checkpoint_path}")
    corpus, schema, vocab = _corpus_and_vocab(cfg)
    ckpt = load_checkpoint(checkpoint_path)
    model, snapshot = model_from_checkpoint(ckpt, schema, vocab)
    return corpus, schema, model, snapshot


def cmd_eval(cfg: TrainConfig, checkpoint_path: str) -> int:
    corpus, schema, model, snapshot = _load_model_for(cfg, checkpoint_path)
    target = model.target_domain
    if cfg.target and cfg.target != target:
        raise CheckpointError(f"checkpoint was trained for target {target!r}, not {cfg.target!r}")
    out_dir = _resolve_output_dir(dataclasses.replace(cfg, target=target))
    split = _split(corpus, schema, dataclasses.replace(snapshot, target=target))
    report = evaluate_split(model, split, cfg.batch_size)
    print(report.to_text())
    _write_lines(os.path.join(out_dir, "report.kv"), report.to_kv_lines())
    _write_lines(os.path.join(out_dir, "report.txt"), [report.to_text()])
    return 0


def _read_prediction_input(path: str) -> list[list[str]]:
    """Token lines (tag column optional), blank-line separated."""
    if not os.path.exists(path):
        raise DataFormatError(f"input file not found: {path}")
    sentences: list[list[str]] = []
    current: list[str] = []
    for lineno, line in enumerate(text_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        token = line.split("\t")[0]
        if not token:
            raise DataFormatError(f"{path}:{lineno}: empty token in {line!r}")
        current.append(token)
    if current:
        sentences.append(current)
    return sentences


def cmd_predict(cfg: TrainConfig, checkpoint_path: str, input_path: str, output_path: str) -> int:
    _, _, model, _ = _load_model_for(cfg, checkpoint_path)
    sentences = _read_prediction_input(input_path)
    utterances = [
        Utterance(toks, ["O"] * len(toks), [None] * len(toks), model.target_domain, f"input:{i}")
        for i, toks in enumerate(sentences)
    ]
    with output_file(output_path) as fh:
        predictions = model.predict(utterances, batch_size=cfg.batch_size)
        for toks, spans in zip(sentences, predictions):
            tags = ["O"] * len(toks)
            for span in spans:
                tags[span.start] = f"B-{span.slot}"
                for t in range(span.start + 1, span.end + 1):
                    tags[t] = f"I-{span.slot}"
            for tok, tag in zip(toks, tags):
                fh.write(f"{tok}\t{tag}\n")
            fh.write("\n")
    print(f"predicted {len(sentences)} utterances -> {output_path}")
    return 0


def _sweep_one(cfg: TrainConfig, lam: float, out_dir: str) -> tuple[float, EvalReport]:
    cfg = dataclasses.replace(cfg, confusion_lambda=lam, output_dir=out_dir)
    result, split, schema, vocab = _train_and_write(cfg)
    model, _ = model_from_checkpoint(result.checkpoint, schema, vocab)
    return lam, evaluate_split(model, split, cfg.batch_size)


def _parse_lambdas(raw: str) -> list[float]:
    values = []
    for v in raw.split(","):
        if v.strip():
            try:
                values.append(float(v))
            except ValueError:
                raise ConfigError(f"--lambdas: expected a number, got {v.strip()!r}") from None
    if not values:
        raise ConfigError("--lambdas: no values given")
    return values


def cmd_sweep_lambda(cfg: TrainConfig, lambdas: list[float]) -> int:
    seen: list[float] = []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda values must lie in [0, 1], got {lam}")
        if lam in seen:
            print(f"warning: duplicate lambda {lam} ignored", file=sys.stderr)
        else:
            seen.append(lam)
    lam_of: dict[str, float] = {}  # run directory name -> lambda
    for lam in seen:
        name = f"lambda_{lam:g}"
        if name in lam_of:
            raise ConfigError(f"lambdas {lam_of[name]!r} and {lam!r} would both train into {name}")
        lam_of[name] = lam
    base_dir = _resolve_output_dir(cfg)
    results = [_sweep_one(cfg, lam, os.path.join(base_dir, name)) for name, lam in lam_of.items()]
    tsv_path = os.path.join(base_dir, "lambda_sweep.tsv")
    rows = [f"{lam!r}\t{r.f1!r}\t{r.seen_f1!r}\t{r.unseen_f1!r}" for lam, r in results]
    _write_lines(tsv_path, ["lambda\tf1\tseen_f1\tunseen_f1"] + rows)
    print(f"sweep complete -> {tsv_path}")
    return 0


def cmd_export_protos(cfg: TrainConfig, checkpoint_path: str, output_path: str) -> int:
    _, _, model, _ = _load_model_for(cfg, checkpoint_path)
    export_prototypes(model.prototypes(), output_path)
    print(f"exported prototypes -> {output_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pclc",
        description="Zero-shot cross-domain slot filling: two-stage tagger "
        "with prototypical contrastive learning and label confusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on the source domains of a split")
    _add_override_flags(p_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the target test set")
    p_eval.add_argument("checkpoint", help="checkpoint directory")
    _add_override_flags(p_eval, ("data_dir", "target", "output_dir", "batch_size"))

    p_pred = sub.add_parser("predict", help="tag raw utterances with a checkpoint")
    p_pred.add_argument("checkpoint")
    p_pred.add_argument("input", help="token-per-line file, blank-line separated")
    p_pred.add_argument("output", help="where to write tagged CoNLL output")
    _add_override_flags(p_pred, ("data_dir", "batch_size"))

    p_sweep = sub.add_parser("sweep-lambda", help="train/eval across confusion factors")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated values in [0,1]")
    _add_override_flags(p_sweep)

    p_export = sub.add_parser("export-protos", help="dump prototype vectors as TSV")
    p_export.add_argument("checkpoint")
    p_export.add_argument("output")
    _add_override_flags(p_export, ("data_dir",))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            cfg = _build_config(args)
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "eval":
                return cmd_eval(cfg, args.checkpoint)
            if args.command == "predict":
                return cmd_predict(cfg, args.checkpoint, args.input, args.output)
            if args.command == "sweep-lambda":
                return cmd_sweep_lambda(cfg, _parse_lambdas(args.lambdas))
            if args.command == "export-protos":
                return cmd_export_protos(cfg, args.checkpoint, args.output)
            raise ConfigError(f"unknown command {args.command!r}")
        finally:
            sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
    except PclcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # what is left unwritten goes to os.devnull, so the flush at exit
        # cannot fail again (the Python docs' advice for SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
