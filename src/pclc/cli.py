"""Command-line entry point: train / eval / predict / sweep-lambda / export-protos.

Hyperparameters come from a key=value config file plus command-line
overrides (override wins); unknown keys are rejected. Every run directory
receives the effective config, the split manifest, and the training log, so
a run can be reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import os
import sys

from .data import (
    DataFormatError,
    Utterance,
    build_vocab,
    fewshot_select,
    load_corpus,
    load_embeddings,
    split_leave_one_out,
    text_lines,
    write_split_manifest,
)
from .errors import CheckpointError, ConfigError, PclcError
from .evaluate import export_prototypes, seen_unseen_report, span_f1
from .trainer import (
    TrainConfig,
    config_from_kv,
    config_to_kv,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train_run,
)
from .trainer import _gold_prediction_sets

OUTPUT_ROOT_ENV = "PCLC_OUTPUT_ROOT"


_ALIASES = {"lambda": "confusion_lambda", "tau": "temperature", "alpha": "kl_weight"}


def _read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text_lines(path, ConfigError), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file")
    for field in dataclasses.fields(TrainConfig):
        flag = "--" + field.name.replace("_", "-")
        parser.add_argument(flag, dest=f"cfg_{field.name}", metavar="V")
    for alias, name in _ALIASES.items():
        parser.add_argument(f"--{alias}", dest=f"cfg_{name}", metavar="V")


def _build_config(args: argparse.Namespace) -> TrainConfig:
    pairs: dict[str, str] = {}
    if args.config:
        pairs.update(_read_config_file(args.config))
    for field in dataclasses.fields(TrainConfig):
        value = getattr(args, f"cfg_{field.name}", None)
        if value is not None:
            pairs[field.name] = value
    renamed = {_ALIASES.get(k, k): v for k, v in pairs.items()}
    return config_from_kv(TrainConfig, renamed)


def _resolve_output_dir(cfg: TrainConfig, suffix: str = "") -> str:
    out = cfg.output_dir
    if not out:
        root = os.environ.get(OUTPUT_ROOT_ENV)
        if not root:
            raise ConfigError(
                f"no output directory: pass --output-dir or set {OUTPUT_ROOT_ENV}"
            )
        out = os.path.join(root, cfg.target or "run")
    if suffix:
        out = os.path.join(out, suffix)
    os.makedirs(out, exist_ok=True)
    return out


def _echo_config(cfg: TrainConfig, directory: str) -> None:
    with open(os.path.join(directory, "effective.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(config_to_kv(cfg)) + "\n")


def _corpus_and_vocab(cfg: TrainConfig):
    if not cfg.data_dir:
        raise ConfigError("data_dir is required")
    corpus, schema = load_corpus(cfg.data_dir)
    return corpus, schema, build_vocab(corpus, schema)


def _prepare(cfg: TrainConfig):
    corpus, schema, vocab = _corpus_and_vocab(cfg)
    if not cfg.target:
        raise ConfigError("target domain is required")
    split = split_leave_one_out(
        corpus, schema, cfg.target, cfg.seed, validation_size=cfg.validation_size
    )
    if cfg.few_shot > 0:
        split = fewshot_select(split, cfg.few_shot, cfg.seed)
    table = load_embeddings(
        cfg.embeddings or None,
        vocab,
        cfg.word_dim,
        cfg.seed,
        require_pretrained=cfg.require_pretrained,
    )
    return corpus, schema, split, vocab, table


def cmd_train(cfg: TrainConfig) -> int:
    out_dir = _resolve_output_dir(cfg)
    _, schema, split, vocab, table = _prepare(cfg)
    _echo_config(cfg, out_dir)
    write_split_manifest(split, os.path.join(out_dir, "split_manifest.txt"))
    result = train_run(split, schema, vocab, table.matrix, cfg)
    save_checkpoint(result.checkpoint, os.path.join(out_dir, "checkpoint"))
    with open(os.path.join(out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(result.log_lines) + "\n")
    print(
        f"trained target={cfg.target} epochs={result.checkpoint.epoch} "
        f"best_val_f1={result.checkpoint.best_val_f1:.4f} -> {out_dir}"
    )
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
    split = split_leave_one_out(corpus, schema, target, snapshot.seed, snapshot.validation_size)
    if snapshot.few_shot > 0:
        split = fewshot_select(split, snapshot.few_shot, snapshot.seed)
    predictions = [set(p) for p in model.predict(split.test, batch_size=cfg.batch_size)]
    setting = f"few-shot-{snapshot.few_shot}" if snapshot.few_shot else "zero-shot"
    report = span_f1(
        _gold_prediction_sets(split.test),
        predictions,
        domain=target,
        setting=setting,
    )
    report = seen_unseen_report(report, split.seen_slots, split.unseen_slots)
    print(report.to_text())
    out_dir = _resolve_output_dir(dataclasses.replace(cfg, target=target))
    with open(os.path.join(out_dir, "report.kv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report.to_kv_lines()) + "\n")
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text() + "\n")
    return 0


def _read_prediction_input(path: str) -> list[list[str]]:
    """Token lines (tag column optional), blank-line separated."""
    if not os.path.exists(path):
        raise DataFormatError(f"input file not found: {path}")
    sentences: list[list[str]] = []
    current: list[str] = []
    for line in text_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        current.append(line.split("\t")[0])
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
    predictions = model.predict(utterances, batch_size=cfg.batch_size)
    with open(output_path, "w", encoding="utf-8") as fh:
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


def _sweep_one(cfg: TrainConfig, lam: float, out_dir: str) -> tuple[float, float]:
    cfg = dataclasses.replace(cfg, confusion_lambda=lam, output_dir=out_dir)
    cmd_train(cfg)
    _, schema, split, vocab, _ = _prepare(cfg)
    ckpt = load_checkpoint(os.path.join(out_dir, "checkpoint"))
    model, _ = model_from_checkpoint(ckpt, schema, vocab)
    predictions = [set(p) for p in model.predict(split.test, batch_size=cfg.batch_size)]
    report = span_f1(_gold_prediction_sets(split.test), predictions)
    return lam, report.f1


def _parse_lambdas(raw: str) -> list[float]:
    values = []
    for v in raw.split(","):
        if v.strip():
            try:
                values.append(float(v))
            except ValueError:
                raise ConfigError(f"--lambdas: expected a number, got {v.strip()!r}") from None
    return values


def cmd_sweep_lambda(cfg: TrainConfig, lambdas: list[float], parallel: int) -> int:
    seen: list[float] = []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"lambda values must lie in [0, 1], got {lam}")
        if lam in seen:
            print(f"warning: duplicate lambda {lam} ignored", file=sys.stderr)
        else:
            seen.append(lam)
    base_dir = _resolve_output_dir(cfg)
    jobs = [(lam, os.path.join(base_dir, f"lambda_{lam:g}")) for lam in seen]
    results: list[tuple[float, float]] = []
    if parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_sweep_one, cfg, lam, d) for lam, d in jobs]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_one(cfg, lam, d) for lam, d in jobs]
    tsv_path = os.path.join(base_dir, "lambda_sweep.tsv")
    with open(tsv_path, "w", encoding="utf-8") as fh:
        fh.write("lambda\tf1\n")
        for lam, f1 in results:
            fh.write(f"{lam!r}\t{f1!r}\n")
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
    _add_override_flags(p_eval)

    p_pred = sub.add_parser("predict", help="tag raw utterances with a checkpoint")
    p_pred.add_argument("checkpoint")
    p_pred.add_argument("input", help="token-per-line file, blank-line separated")
    p_pred.add_argument("output", help="where to write tagged CoNLL output")
    _add_override_flags(p_pred)

    p_sweep = sub.add_parser("sweep-lambda", help="train/eval across confusion factors")
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated values in [0,1]")
    p_sweep.add_argument("--parallel", type=int, default=1, help="worker processes")
    _add_override_flags(p_sweep)

    p_export = sub.add_parser("export-protos", help="dump prototype vectors as TSV")
    p_export.add_argument("checkpoint")
    p_export.add_argument("output")
    _add_override_flags(p_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.input, args.output)
        if args.command == "sweep-lambda":
            return cmd_sweep_lambda(cfg, _parse_lambdas(args.lambdas), args.parallel)
        if args.command == "export-protos":
            return cmd_export_protos(cfg, args.checkpoint, args.output)
        raise ConfigError(f"unknown command {args.command!r}")
    except PclcError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
