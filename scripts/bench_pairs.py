"""Compare the benchmark on a parent commit and on the working tree, in pairs.

    python3 scripts/bench_pairs.py --workload train-paper --pairs 10 --parent HEAD

Extracts the parent ref with `git archive` into a temporary directory, then
runs `perfbench/run.py` once on the parent and once on the working tree for
each pair, alternating which of the two goes first, with seeds `--seed`,
`--seed`+1, ... (both runs of a pair use the same seed). Prints, for every
end-to-end metric in BENCHMARK.json, the median [lower quartile, upper
quartile] of each side, the number of pairs the working tree won, the
gap between the medians over the parent's interquartile range, the
verdict (see `verdict`), the number of pairs whose two values are
identical, and the largest relative difference within a pair (which 6
significant digits would hide). It also
keeps each run's record line (printed before the result line) and, for the
record keys in RECORD_KEYS that both runs of a pair hold, prints how many
pairs are identical: predict-paper's `predict_f1` and `spans_per_utt` show
whether a change kept its predictions. `--out` also writes every run's
result and record as JSON. A run that times out or ends
without a JSON result line counts as incorrect, with its stderr tail; the
remaining pairs still run, and the exit status is 1. Uses the standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_KEYS = ("predict_f1", "spans_per_utt")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git ref to compare against")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    return parser.parse_args(argv)


def extract(ref: str, directory: str) -> None:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(directory, filter="data")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 300
        )
    except subprocess.TimeoutExpired as err:
        return failed(f"timed out after {err.timeout:g} s", err.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return failed("printed no result line", proc.stderr)
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        return failed(f"unreadable result line ({err!r}): {lines[-1][:200]}", proc.stderr)
    result["record"] = run_record(lines[:-1])
    return result


def run_record(lines: list[str]) -> dict:
    """The last `{"record": {...}}` line among `lines`, or {} if there is none."""
    for line in reversed(lines):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and isinstance(obj.get("record"), dict):
            return obj["record"]
    return {}


def failed(reason: str, stderr) -> dict:
    """A run that gave no result: incorrect, with why and its stderr tail."""
    if isinstance(stderr, bytes):  # TimeoutExpired keeps undecoded output
        stderr = stderr.decode("utf-8", "replace")
    return {"correct": False, "metrics": {}, "error": reason, "stderr": (stderr or "")[-2000:]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def verdict(diffs: list[float], gap: float, iqr: float, n_run: int) -> str:
    """`gain` when the change won at least nine tenths of the `n_run` pairs
    (a tie counts for neither side) and its median beats the parent's by
    more than the parent's interquartile range; `worse` in the mirror case;
    otherwise `unresolved`. `diffs` (one per pair with both values) and
    `gap` (between the medians) are signed so that positive favours the change."""
    if 10 * sum(d > 0 for d in diffs) >= 9 * n_run and gap > iqr:
        return "gain"
    if 10 * sum(d < 0 for d in diffs) >= 9 * n_run and -gap > iqr:
        return "worse"
    return "unresolved"


def summary(runs: dict[str, list[dict]], better: dict[str, str]) -> list[str]:
    parent, change = runs["parent"], runs["change"]
    out = [f"correct runs: parent {sum(r['correct'] for r in parent)}/{len(parent)}, "
           f"change {sum(r['correct'] for r in change)}/{len(change)}"]
    out.append(f"{'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
               f" {'ratio':>7} {'wins':>6} {'gap/IQR':>8} {'verdict':>10} {'same':>6}"
               f" {'max|rel|':>9}")
    for name, direction in better.items():
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        pv, cv = [p for p, _ in pairs], [c for _, c in pairs]
        (pm, p1, p3), (cm, c1, c3) = quartiles(pv), quartiles(cv)
        sign = 1.0 if direction == "higher" else -1.0
        diffs = [sign * (c - p) for p, c in pairs]
        wins = sum(d > 0 for d in diffs)
        iqr, lead = p3 - p1, sign * (cm - pm)
        judged = verdict(diffs, lead, iqr, min(len(parent), len(change)))
        gap = f"{lead / iqr:8.2f}" if iqr > 0 else f"{'-':>8}"
        ratio = f"{cm / pm:7.3f}" if pm else f"{'-':>7}"
        same = sum(p == c for p, c in pairs)
        rel = max(abs(c - p) / max(abs(p), abs(c)) if p != c else 0.0 for p, c in pairs)
        out.append(f"{name:<14} {f'{pm:.6g} [{p1:.6g}, {p3:.6g}]':>30} "
                   f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':>30} {ratio} "
                   f"{f'{wins}/{len(pairs)}':>6} {gap} {judged:>10} {f'{same}/{len(pairs)}':>6}"
                   f" {rel:9.2e}")
    for key in RECORD_KEYS:
        pairs = [(p["record"][key], c["record"][key]) for p, c in zip(parent, change)
                 if key in p.get("record", {}) and key in c.get("record", {})]
        if pairs:
            same = sum(p == c for p, c in pairs)
            out.append(f"record {key}: {same}/{len(pairs)} pairs identical")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_tree:
        extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                res = run_once(trees[side], args.workload, seed, args.seconds)
                res["seed"] = seed
                runs[side].append(res)
                shown = {k: round(v, 4) for k, v in res["metrics"].items()}
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"correct={res['correct']} {res.get('error', shown)}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "runs": runs}, fh, indent=1)
    print("\n".join(summary(runs, better)))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
