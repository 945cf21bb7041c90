import os
import pathlib
import subprocess
import sys

import pytest

import oracles
from conftest import DATA_DIR, REPO_ROOT, damaged_manifest, fail_payload_writes
from pclc import cli
from pclc.cli import build_parser, main

TOY_FLAGS = [
    "--word-dim", "6", "--char-dim", "2", "--char-hidden", "2",
    "--hidden", "4", "--layers", "1", "--entity-hidden", "4", "--proto-dim", "8",
    "--max-epochs", "2", "--batch-size", "16", "--dropout", "0.0", "--lr", "0.01",
]


def _train(tmp_path, run="run", extra=()):
    out = os.path.join(tmp_path, run)
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3", "--output-dir", out]
        + TOY_FLAGS + list(extra)
    )
    assert rc == 0
    return out


def test_train_writes_artifacts(tmp_path):
    out = _train(tmp_path)
    assert os.path.isdir(os.path.join(out, "checkpoint"))
    assert os.path.exists(os.path.join(out, "checkpoint", "manifest.txt"))
    assert os.path.exists(os.path.join(out, "checkpoint", "params.bin"))
    assert os.path.exists(os.path.join(out, "train_log.txt"))
    assert os.path.exists(os.path.join(out, "effective.cfg"))
    assert os.path.exists(os.path.join(out, "split_manifest.txt"))


def test_effective_config_echoes_overrides(tmp_path):
    out = _train(tmp_path, extra=["--lambda", "0.6"])
    text = open(os.path.join(out, "effective.cfg")).read()
    assert "confusion_lambda=0.6" in text
    assert "target=kitchen" in text


def test_config_file_plus_override_precedence(tmp_path):
    cfg_path = os.path.join(tmp_path, "base.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("# base config\nconfusion_lambda=0.2\nseed=3\ntau=0.5\n")
    out = os.path.join(tmp_path, "run")
    rc = main(
        ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", out, "--lambda", "0.9"] + TOY_FLAGS
    )
    assert rc == 0
    text = open(os.path.join(out, "effective.cfg")).read()
    assert "confusion_lambda=0.9" in text  # command line wins
    assert "temperature=0.5" in text  # an alias in the file names its key


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "bad.cfg")
    with open(cfg_path, "w") as fh:
        fh.write("not_a_real_key=1\n")
    rc = main(
        ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "x")]
    )
    assert rc == 1
    assert "not_a_real_key" in capsys.readouterr().err


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "twice.cfg")
    for text, message in (
        ("seed=3\n# comment\nlr=0.01\nseed=4\n", "config key 'seed' repeats line 1"),
        ("lambda=0.2\nconfusion_lambda=0.3\n", "config key 'confusion_lambda' repeats line 1"),
    ):
        with open(cfg_path, "w") as fh:
            fh.write(text)
        lineno = len(text.splitlines())
        rc = main(
            ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
             "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "x")]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg_path}:{lineno}: {message}\n"
        assert not os.path.exists(os.path.join(tmp_path, "x"))


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("seed=3\nhidden=abc\n", 2, "config key 'hidden': expected int, got 'abc'"),
        ("# dims\n\nhidden = 0\n", 3, "config key 'hidden': must be >= 1, got 0"),
        ("tau=0\n", 1, "config key 'temperature': must be > 0, got 0.0"),
        ("sead=1\n", 1, "unknown config key 'sead'"),
        ("lr=0.01\nseed 3\n", 2, "config entry needs key=value, got 'seed 3'"),
    ],
)
def test_bad_config_file_entry_names_its_line(tmp_path, capsys, text, lineno, message):
    cfg_path = os.path.join(tmp_path, "bad.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(text)
    rc = main(
        ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "x")]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg_path}:{lineno}: {message}\n"
    assert not os.path.exists(os.path.join(tmp_path, "x"))


def test_train_determinism_byte_identical(tmp_path):
    # identical config (including output dir): rerun and compare bytes
    out = _train(tmp_path, "run")
    files = ["train_log.txt", "checkpoint/manifest.txt", "checkpoint/params.bin"]
    first = {f: open(os.path.join(out, f), "rb").read() for f in files}
    _train(tmp_path, "run")
    for f in files:
        assert open(os.path.join(out, f), "rb").read() == first[f], f


def test_checkpoint_bytes_do_not_depend_on_the_run_directory(tmp_path):
    # the manifest's [config] leaves out data_dir, embeddings, target and
    # output_dir; effective.cfg, the rerun recipe, keeps them
    runs = [_train(tmp_path, run) for run in ("a", "b")]
    for name in ("manifest.txt", "params.bin"):
        a, b = (pathlib.Path(run, "checkpoint", name).read_bytes() for run in runs)
        assert a == b, name
    manifest = pathlib.Path(runs[0], "checkpoint", "manifest.txt").read_text()
    effective = pathlib.Path(runs[0], "effective.cfg").read_text()
    for key in ("data_dir", "embeddings", "target", "output_dir"):
        assert f"\n{key}=" not in manifest
        assert f"\n{key}=" in effective
    assert f"\noutput_dir={runs[0]}\n" in effective


def test_eval_reads_a_manifest_that_holds_the_run_keys(tmp_path):
    # checkpoints saved before the run keys were left out hold all four
    out = _train(tmp_path)
    checkpoint = os.path.join(out, "checkpoint")
    manifest = pathlib.Path(checkpoint, "manifest.txt")
    data = os.path.join(DATA_DIR, "overfit")
    reports = []
    for run_keys in ("", f"data_dir={data}\nembeddings=\ntarget=kitchen\noutput_dir={out}\n"):
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("\n[word_vocab]\n", f"\n{run_keys}[word_vocab]\n"))
        eval_dir = os.path.join(tmp_path, f"eval{len(reports)}")
        assert main(["eval", checkpoint, "--data-dir", data, "--output-dir", eval_dir]) == 0
        reports.append(pathlib.Path(eval_dir, "report.kv").read_bytes())
    assert f"output_dir={out}\n" in manifest.read_text()
    assert reports[0] == reports[1]


def test_eval_prints_report_and_writes_kv(tmp_path, capsys):
    out = _train(tmp_path)
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--output-dir", os.path.join(out, "eval")]
    )
    assert rc == 0
    shown = capsys.readouterr().out
    assert "seen f1" in shown
    assert "per-type counts" in shown
    kv = open(os.path.join(out, "eval", "report.kv")).read()
    assert "f1=" in kv
    assert "unseen_f1=" in kv
    assert "type." in kv


def test_eval_without_output_dir_fails_before_predicting(tmp_path, monkeypatch, capsys):
    from pclc.model import PclcModel

    out = _train(tmp_path)
    capsys.readouterr()
    monkeypatch.delenv("PCLC_OUTPUT_ROOT", raising=False)
    predicted = []
    monkeypatch.setattr(PclcModel, "predict", lambda self, *a, **k: predicted.append(a))
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err.startswith("error: no output directory")
    assert predicted == []


def test_eval_missing_checkpoint_fails(tmp_path, capsys):
    rc = main(
        ["eval", os.path.join(tmp_path, "missing"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    assert "checkpoint not found" in capsys.readouterr().err


def test_eval_target_mismatch_refused(tmp_path, capsys):
    out = _train(tmp_path)
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "music",
         "--output-dir", os.path.join(out, "eval")]
    )
    assert rc == 1
    assert "target" in capsys.readouterr().err


def test_eval_reads_checkpoint_naming_removed_kl_direction(tmp_path, capsys):
    # checkpoints written while `kl_direction`, `contrast_block` and
    # `require_pretrained` existed name the value every run still computes
    out = _train(tmp_path)
    manifest = os.path.join(out, "checkpoint", "manifest.txt")
    removed = "kl_direction=smooth_to_pred\ncontrast_block=both\nrequire_pretrained=false\n"
    with open(manifest, encoding="utf-8") as fh:
        text = fh.read()
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(text.replace("enable_lc=true\n", "enable_lc=true\n" + removed))
    assert removed in open(manifest).read()
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--output-dir", os.path.join(out, "eval")]
    )
    assert rc == 0
    assert "seen f1" in capsys.readouterr().out


def test_eval_refuses_checkpoint_with_unknown_config_key(tmp_path, capsys):
    out = _train(tmp_path)
    manifest = os.path.join(out, "checkpoint", "manifest.txt")
    with open(manifest, encoding="utf-8") as fh:
        text = fh.read()
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write(text.replace("seed=3\n", "seed=3\nlearning_rate=0.1\n"))
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--output-dir", os.path.join(out, "eval")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "unknown config key 'learning_rate'" in err
    assert not os.path.exists(os.path.join(out, "eval"))


def test_eval_refuses_checkpoint_requiring_pretrained_vectors(tmp_path, capsys):
    out = _train(tmp_path)
    manifest = os.path.join(out, "checkpoint", "manifest.txt")
    with open(manifest, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lineno = lines.index("[word_vocab]") + 1  # the new last line of [config]
    lines.insert(lineno - 1, "require_pretrained=true")
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rc = main(
        ["eval", os.path.join(out, "checkpoint"),
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--output-dir", os.path.join(out, "eval")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {manifest}:{lineno}: config key 'require_pretrained' was removed, got 'true'"
    )
    assert not os.path.exists(os.path.join(out, "eval"))


def test_removed_reverse_kl_direction_is_a_config_error(tmp_path, capsys):
    cfg_path = os.path.join(tmp_path, "old.cfg")
    removed = (("kl_direction", "pred_to_smooth"), ("contrast_block", "source"),
               ("require_pretrained", "true"))
    for key, value in removed:
        with open(cfg_path, "w") as fh:
            fh.write(f"{key}={value}\n")
        rc = main(
            ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
             "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "x")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}:1: config key '{key}' was removed")
        assert value in err
        assert not os.path.exists(os.path.join(tmp_path, "x"))


def test_checkpoint_commands_without_data_dir_are_config_errors(tmp_path, capsys):
    out = _train(tmp_path)
    checkpoint = os.path.join(out, "checkpoint")
    for argv in (
        ["eval", checkpoint, "--output-dir", os.path.join(out, "eval")],
        ["export-protos", checkpoint, os.path.join(tmp_path, "protos.tsv")],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: data_dir is required\n"


def test_predict_emits_conll(tmp_path):
    out = _train(tmp_path)
    inp = os.path.join(tmp_path, "input.txt")
    with open(inp, "w") as fh:
        fh.write("cook\nlasagna\nfor\ntwenty\nminutes\n\nstop\tO\nthe\tO\ntimer\tO\n")
    dest = os.path.join(tmp_path, "tagged.conll")
    rc = main(
        ["predict", os.path.join(out, "checkpoint"), inp, dest,
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 0
    blocks = open(dest).read().strip().split("\n\n")
    assert len(blocks) == 2
    for block in blocks:
        for line in block.splitlines():
            token, tag = line.split("\t")
            assert tag == "O" or tag[:2] in ("B-", "I-")


def test_non_utf8_input_files_are_errors_not_tracebacks(tmp_path, capsys):
    out = _train(tmp_path)
    cfg = os.path.join(tmp_path, "bad.cfg")
    with open(cfg, "wb") as fh:
        fh.write(b"lr=0.01\n\xff\n")
    assert main(["train", "--config", cfg, "--output-dir", out]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: byte 0xff at offset 8 is not UTF-8\n"
    inp = os.path.join(tmp_path, "input.txt")
    with open(inp, "wb") as fh:
        fh.write(b"stop\nthe\ncaf\xe9\n")
    rc = main(
        ["predict", os.path.join(out, "checkpoint"), inp, os.path.join(tmp_path, "tagged.conll"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {inp}: byte 0xe9 at offset 12 is not UTF-8\n"


def test_predict_input_with_empty_token_names_its_line(tmp_path, capsys):
    out = _train(tmp_path)
    inp = os.path.join(tmp_path, "input.txt")
    with open(inp, "w") as fh:
        fh.write("stop\tO\n\tB-x\n")
    dest = os.path.join(tmp_path, "tagged.conll")
    rc = main(
        ["predict", os.path.join(out, "checkpoint"), inp, dest,
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {inp}:2: empty token in '\\tB-x'\n"
    assert not os.path.exists(dest)


@pytest.mark.parametrize("embeddings", [
    "no_such_file.txt", os.path.join(DATA_DIR, "overfit", "kitchen.conll"),
], ids=["missing", "not_vectors"])
def test_named_embeddings_file_is_used_or_refused(tmp_path, capsys, embeddings):
    path = os.path.join(tmp_path, embeddings)  # an absolute second part wins
    out = os.path.join(tmp_path, "run")
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
         "--output-dir", out, "--embeddings", path] + TOY_FLAGS
    )
    assert rc == 1
    err = capsys.readouterr().err
    if os.path.exists(path):
        assert err == f"error: {path}: no line parses as 'word v1 .. v6'\n"
    else:
        assert err == f"error: embeddings file not found: {path}\n"
    assert not os.path.exists(os.path.join(out, "checkpoint"))


def test_output_file_that_cannot_be_written_is_an_error(tmp_path, monkeypatch, capsys):
    from pclc.model import PclcModel

    out = _train(tmp_path)
    capsys.readouterr()
    inp = os.path.join(tmp_path, "input.txt")
    with open(inp, "w") as fh:
        fh.write("stop\nthe\ntimer\n")
    predicted = []
    monkeypatch.setattr(PclcModel, "predict", lambda self, *a, **k: predicted.append(a))
    data = ["--data-dir", os.path.join(DATA_DIR, "overfit")]
    checkpoint = os.path.join(out, "checkpoint")
    dest = os.path.join(tmp_path, "nodir", "out.txt")
    for argv in (["predict", checkpoint, inp, dest], ["export-protos", checkpoint, dest]):
        assert main(argv + data) == 1
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == f"error: cannot write {dest}: No such file or directory\n"
    assert predicted == []  # predict opens its output before predicting


def test_output_dir_naming_a_file_is_an_error(tmp_path, capsys):
    out = _train(tmp_path)
    capsys.readouterr()
    a_file = os.path.join(tmp_path, "a_file")
    open(a_file, "w").close()
    data = ["--data-dir", os.path.join(DATA_DIR, "overfit")]
    for argv in (
        ["train", "--target", "kitchen"] + TOY_FLAGS,
        ["eval", os.path.join(out, "checkpoint")],
    ):
        assert main(argv + data + ["--output-dir", a_file]) == 1
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err == f"error: cannot create output directory {a_file}: File exists\n"


def test_a_failed_checkpoint_write_is_an_error_and_keeps_the_earlier_one(
    tmp_path, monkeypatch, capsys
):
    # the whole run directory stays the earlier run's, its config included
    out = _train(tmp_path)
    checkpoint = os.path.join(out, "checkpoint")
    names = (
        "checkpoint/manifest.txt", "checkpoint/params.bin",
        "effective.cfg", "split_manifest.txt", "train_log.txt",
    )
    before = [pathlib.Path(out, n).read_bytes() for n in names]
    assert "seed=3\n" in before[2].decode()
    capsys.readouterr()
    fail_payload_writes(monkeypatch)
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
         "--seed", "4", "--output-dir", out] + TOY_FLAGS
    )
    assert rc == 1
    shown = capsys.readouterr()
    full = "[Errno 28] No space left on device"
    assert shown.err == f"error: cannot write checkpoint {checkpoint}: {full}\n"
    monkeypatch.undo()
    assert sorted(os.listdir(out)) == ["checkpoint", "effective.cfg", "split_manifest.txt", "train_log.txt"]
    assert [pathlib.Path(out, n).read_bytes() for n in names] == before


@pytest.mark.parametrize("sweep", [False, True], ids=["train", "sweep-lambda"])
def test_a_file_named_checkpoint_is_refused_before_training(tmp_path, monkeypatch, capsys, sweep):
    monkeypatch.setattr(cli, "train_run", lambda *a: pytest.fail("trained"))
    out = os.path.join(tmp_path, "out")
    run_dir = os.path.join(out, "lambda_0.5") if sweep else out
    os.makedirs(run_dir)
    checkpoint = os.path.join(run_dir, "checkpoint")
    open(checkpoint, "w").close()
    command = ["sweep-lambda", "--lambdas", "0.5"] if sweep else ["train"]
    rc = main(
        command + ["--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
                   "--output-dir", out] + TOY_FLAGS
    )
    assert rc == 1
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err == f"error: cannot write checkpoint {checkpoint}: a file has that name\n"


@pytest.mark.parametrize("value", ["nan", "1e400"])
def test_non_finite_embedding_value_is_an_error(tmp_path, capsys, value):
    path = os.path.join(tmp_path, "vectors.txt")
    with open(path, "w") as fh:
        fh.write("timer 0.1 0.2 0.3 0.4 0.5 0.6\n")
        fh.write(f"set 0.1 0.2 {value} 0.4 0.5 0.6\n")
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
         "--output-dir", os.path.join(tmp_path, "out"), "--embeddings", path] + TOY_FLAGS
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}:2: non-finite value after 'set'\n"


def test_a_gradient_norm_that_is_not_finite_stops_training(tmp_path, capsys):
    # tau = 1e-300 scales the contrastive gradient by 1e300; its square
    # overflows, and clipping by 5/inf would zero every step
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
         "--output-dir", os.path.join(tmp_path, "out"), "--temperature", "1e-300"] + TOY_FLAGS
    )
    assert rc == 1
    shown = capsys.readouterr()
    assert shown.out == ""
    assert shown.err == "error: gradient norm is inf, largest gradient in 'entity_proj.b'\n"


@pytest.mark.parametrize("argv", [
    ["eval", "ck", "--seed", "5"],
    ["eval", "ck", "--few-shot", "3"],
    ["eval", "ck", "--hidden", "99"],
    ["eval", "ck", "--config", "run.cfg"],
    ["eval", "ck", "--tau", "0.5"],
    ["predict", "ck", "in.txt", "out.txt", "--target", "bus"],
    ["predict", "ck", "in.txt", "out.txt", "--output-dir", "runs"],
    ["export-protos", "ck", "p.tsv", "--batch-size", "8"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_checkpoint_commands_refuse_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_checkpoint_commands_take_the_flags_they_read():
    parser = build_parser()
    common = ["--data-dir", "d"]
    args = parser.parse_args(
        ["eval", "ck", "--target", "bus", "--output-dir", "o", "--batch-size", "8"] + common
    )
    assert (args.cfg_target, args.cfg_output_dir, args.cfg_batch_size) == ("bus", "o", "8")
    args = parser.parse_args(["predict", "ck", "i", "o", "--batch-size", "8"] + common)
    assert (args.cfg_data_dir, args.cfg_batch_size) == ("d", "8")
    assert parser.parse_args(["export-protos", "ck", "p"] + common).cfg_data_dir == "d"
    for command in (["train"], ["sweep-lambda", "--lambdas", "0.5"]):
        args = parser.parse_args(command + ["--seed", "5", "--tau", "0.5", "--config", "c"])
        assert (args.cfg_seed, args.cfg_temperature, args.config) == ("5", "0.5", "c")


def test_export_protos_round_trip(tmp_path):
    out = _train(tmp_path)
    dest = os.path.join(tmp_path, "protos.tsv")
    rc = main(
        ["export-protos", os.path.join(out, "checkpoint"), dest,
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 0
    labels, blocks, matrix = oracles.read_prototype_export(dest)
    assert "dish_name" in labels
    assert matrix.shape[1] == 8
    assert set(blocks) == {"source", "target"}


def test_malformed_checkpoint_manifest_is_error_not_traceback(tmp_path, capsys):
    directory = os.path.join(tmp_path, "ckpt")
    lineno = damaged_manifest(directory, "epoch=2", "epoch=x")
    rc = main(
        ["export-protos", directory, os.path.join(tmp_path, "protos.tsv"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"manifest.txt:{lineno}: epoch='x'" in err


def test_older_checkpoint_format_is_error_not_traceback(tmp_path, capsys):
    directory = os.path.join(tmp_path, "ckpt")
    damaged_manifest(directory, "pclc-checkpoint 2", "pclc-checkpoint 1")
    rc = main(["eval", directory, "--data-dir", os.path.join(DATA_DIR, "overfit")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "format version 1 unsupported (expected 2)" in err


def test_sweep_lambda_writes_tsv_and_dedupes(tmp_path, capsys):
    out = os.path.join(tmp_path, "sweep")
    rc = main(
        ["sweep-lambda", "--lambdas", "0.2,0.8,0.2",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3", "--output-dir", out]
        + TOY_FLAGS
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "duplicate lambda" in err
    lines = open(os.path.join(out, "lambda_sweep.tsv")).read().strip().splitlines()
    assert lines[0] == "lambda\tf1\tseen_f1\tunseen_f1"
    assert len(lines) == 3  # header + two distinct values
    for line in lines[1:]:
        for value in line.split("\t"):
            assert 0.0 <= float(value) <= 1.0


def test_sweep_lambda_reads_inputs_once_per_lambda_and_matches_eval(tmp_path, monkeypatch):
    import pclc.cli

    calls = {"load_corpus": 0, "load_embeddings": 0}
    for name in calls:
        def counted(*args, _real=getattr(pclc.cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(pclc.cli, name, counted)
    out = os.path.join(tmp_path, "sweep")
    rc = main(
        ["sweep-lambda", "--lambdas", "0.2,0.8",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3", "--output-dir", out]
        + TOY_FLAGS
    )
    assert rc == 0
    assert calls == {"load_corpus": 2, "load_embeddings": 2}
    rows = open(os.path.join(out, "lambda_sweep.tsv")).read().strip().splitlines()[1:]
    for row in rows:
        lam, f1, seen_f1, unseen_f1 = row.split("\t")
        run = os.path.join(out, f"lambda_{float(lam):g}")
        rc = main(
            ["eval", os.path.join(run, "checkpoint"),
             "--data-dir", os.path.join(DATA_DIR, "overfit"),
             "--batch-size", "16", "--output-dir", os.path.join(run, "eval")]
        )
        assert rc == 0
        kv = open(os.path.join(run, "eval", "report.kv")).read().splitlines()
        assert f"f1={f1}" in kv
        assert f"seen_f1={seen_f1}" in kv
        assert f"unseen_f1={unseen_f1}" in kv


def test_sweep_lambda_parallel_is_an_unknown_flag(tmp_path, capsys):
    # sweeps run serially; the process pool and its flag are gone
    out = os.path.join(tmp_path, "sweep")
    with pytest.raises(SystemExit) as exit_:
        main(["sweep-lambda", "--lambdas", "0.5", "--parallel", "2",
              "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
              "--output-dir", out])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "pclc: error: unrecognized arguments: --parallel 2"
    assert not os.path.exists(out)


def test_sweep_lambda_refuses_lambdas_sharing_a_run_directory(tmp_path, monkeypatch, capsys):
    import pclc.cli

    calls = []
    monkeypatch.setattr(pclc.cli, "_sweep_one", lambda *args: calls.append(args))
    out = os.path.join(tmp_path, "sweep")
    rc = main(
        ["sweep-lambda", "--lambdas", "0.1234567,0.1234568",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3", "--output-dir", out]
        + TOY_FLAGS
    )
    assert rc == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "error: lambdas 0.1234567 and 0.1234568 would both train into lambda_0.123457\n"
    )
    assert not os.path.exists(out)


def test_sweep_lambda_rejects_out_of_range(tmp_path, capsys):
    rc = main(
        ["sweep-lambda", "--lambdas", "0.5,1.5",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "sweep")]
    )
    assert rc == 1
    assert "lambda" in capsys.readouterr().err


def test_sweep_lambda_rejects_non_numeric_value(tmp_path, capsys):
    rc = main(
        ["sweep-lambda", "--lambdas", "0.1,x",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", os.path.join(tmp_path, "sweep")]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --lambdas: expected a number, got 'x'\n"


@pytest.mark.parametrize("lambdas", [",", "", " , "])
def test_sweep_lambda_refuses_an_empty_list(tmp_path, capsys, lambdas):
    out = os.path.join(tmp_path, "sweep")
    rc = main(
        ["sweep-lambda", "--lambdas", lambdas,
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", out]
    )
    assert rc == 1
    assert capsys.readouterr().err == "error: --lambdas: no values given\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--batch-size", "0", "config key 'batch_size': must be >= 1, got 0"),
        ("--lr", "abc", "config key 'lr': expected float, got 'abc'"),
        ("--dropout", "1.5", "config key 'dropout': must be in [0, 1), got 1.5"),
        ("--hidden", "0", "config key 'hidden': must be >= 1, got 0"),
        ("--word-dim", "0", "config key 'word_dim': must be >= 1, got 0"),
        ("--proto-dim", "0", "config key 'proto_dim': must be >= 1, got 0"),
        ("--layers", "0", "config key 'layers': must be >= 1, got 0"),
        ("--validation-size", "-5", "config key 'validation_size': must be >= 1, got -5"),
        ("--validation-size", "0", "config key 'validation_size': must be >= 1, got 0"),
        ("--temperature", "inf", "config key 'temperature': must be finite, got inf"),
        ("--kl-weight", "inf", "config key 'kl_weight': must be finite, got inf"),
        ("--crf-weight", "1e400", "config key 'crf_weight': must be finite, got inf"),
        ("--grad-clip", "inf", "config key 'grad_clip': must be finite, got inf"),
        ("--grad-clip", "-1", "config key 'grad_clip': must be > 0, got -1.0"),
        ("--lr", "nan", "config key 'lr': must be finite and > 0, got nan"),
        ("--patience", "-1", "config key 'patience': must be >= 0, got -1"),
        ("--few-shot", "-1", "config key 'few_shot': must be >= 0, got -1"),
        ("--seed", "-1", "config key 'seed': must be >= 0, got -1"),
        ("--max-epochs", "-1", "config key 'max_epochs': must be none or >= 0, got -1"),
    ],
)
def test_bad_config_value_is_config_error(tmp_path, capsys, flag, value, message):
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen",
         "--output-dir", os.path.join(tmp_path, "x"), flag, value]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PCLC_OUTPUT_ROOT", str(tmp_path))
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3"] + TOY_FLAGS
    )
    assert rc == 0
    assert os.path.isdir(os.path.join(tmp_path, "kitchen", "checkpoint"))


def test_missing_output_dir_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("PCLC_OUTPUT_ROOT", raising=False)
    rc = main(
        ["train", "--data-dir", os.path.join(DATA_DIR, "overfit"), "--target", "kitchen"]
    )
    assert rc == 1
    assert "output" in capsys.readouterr().err.lower()


def test_console_entry_point_subprocess(tmp_path):
    # exit status travels through the installed script path
    src = os.path.join(REPO_ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pclc", "eval", os.path.join(tmp_path, "none"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1
    assert "checkpoint not found" in proc.stderr


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_1_without_traceback(tmp_path, unbuffered):
    # the reader of stdout is gone before the report is written: buffered,
    # the write fails at the last flush; unbuffered, inside print
    out = _train(tmp_path)
    src = os.path.join(REPO_ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pclc", "eval", os.path.join(out, "checkpoint"),
             "--data-dir", os.path.join(DATA_DIR, "overfit"),
             "--output-dir", os.path.join(out, "eval")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
