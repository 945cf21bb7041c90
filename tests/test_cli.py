import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR, REPO_ROOT, damaged_manifest
from pclc.cli import main
from pclc.evaluate import read_prototype_export

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
        fh.write("# base config\nconfusion_lambda=0.2\nseed=3\n")
    out = os.path.join(tmp_path, "run")
    rc = main(
        ["train", "--config", cfg_path, "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--output-dir", out, "--lambda", "0.9"] + TOY_FLAGS
    )
    assert rc == 0
    text = open(os.path.join(out, "effective.cfg")).read()
    assert "confusion_lambda=0.9" in text  # command line wins


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


def test_train_determinism_byte_identical(tmp_path):
    # identical config (including output dir): rerun and compare bytes
    out = _train(tmp_path, "run")
    files = ["train_log.txt", "checkpoint/manifest.txt", "checkpoint/params.bin"]
    first = {f: open(os.path.join(out, f), "rb").read() for f in files}
    _train(tmp_path, "run")
    for f in files:
        assert open(os.path.join(out, f), "rb").read() == first[f], f


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


def test_export_protos_round_trip(tmp_path):
    out = _train(tmp_path)
    dest = os.path.join(tmp_path, "protos.tsv")
    rc = main(
        ["export-protos", os.path.join(out, "checkpoint"), dest,
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 0
    labels, blocks, matrix = read_prototype_export(dest)
    assert "dish_name" in labels
    assert matrix.shape[1] == 8
    assert set(blocks) == {"source", "target"}


def test_malformed_checkpoint_manifest_is_error_not_traceback(tmp_path, capsys):
    directory = os.path.join(tmp_path, "ckpt")
    lineno = damaged_manifest(directory, "adam_t=4", "adam_t=x")
    rc = main(
        ["export-protos", directory, os.path.join(tmp_path, "protos.tsv"),
         "--data-dir", os.path.join(DATA_DIR, "overfit")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"manifest.txt:{lineno}: adam_t='x'" in err


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
    assert lines[0] == "lambda\tf1"
    assert len(lines) == 3  # header + two distinct values
    for line in lines[1:]:
        lam, f1 = line.split("\t")
        assert 0.0 <= float(lam) <= 1.0
        assert 0.0 <= float(f1) <= 1.0


def test_sweep_lambda_parallel_processes(tmp_path):
    out = os.path.join(tmp_path, "sweep")
    rc = main(
        ["sweep-lambda", "--lambdas", "0.3,0.7", "--parallel", "2",
         "--data-dir", os.path.join(DATA_DIR, "overfit"),
         "--target", "kitchen", "--seed", "3", "--output-dir", out]
        + TOY_FLAGS
    )
    assert rc == 0
    lines = open(os.path.join(out, "lambda_sweep.tsv")).read().strip().splitlines()
    assert len(lines) == 3
    assert os.path.isdir(os.path.join(out, "lambda_0.3", "checkpoint"))
    assert os.path.isdir(os.path.join(out, "lambda_0.7", "checkpoint"))


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


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--batch-size", "0", "config key 'batch_size': must be >= 1, got 0"),
        ("--lr", "abc", "config key 'lr': expected float, got 'abc'"),
        ("--dropout", "1.5", "config key 'dropout': must be in [0, 1), got 1.5"),
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
