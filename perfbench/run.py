"""pclc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 30 --trace 0

Runs one workload (train-small, train-paper or predict-paper) from the
root of a source checkout for about `--seconds` seconds. With `--trace 0`
the last line of standard output is the end-to-end result; with
`--trace 1` it is the per-layer split, and the spans go to
`.bench_out/trace-<workload>-<seed>.json`. The line before it is the
machine and run record. Exits 1 when an output check failed and 2 when the
checkout is incomplete. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-small", "train-paper", "predict-paper")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pclc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one epoch per train run and a short fixture: for the benchmark's tests",
    )
    return parser.parse_args(argv)


def missing_sources(root: str) -> list[str]:
    needed = [os.path.join("src", "pclc", "__init__.py"), os.path.join("data", "transfer")]
    return [p for p in needed if not os.path.exists(os.path.join(root, p))]


def git_sha(root: str) -> str:
    """HEAD's commit, or "unknown" when the checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_record() -> dict:
    import numpy as np

    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": name, "threads": threads}


def run_record(args, load_avg) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "load_avg_at_start": load_avg,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def format_result(res: dict, trace: bool) -> dict:
    outcome = res["outcome"]
    chosen = res["per_layer"] if trace else res["metrics"]
    return {
        "correct": outcome.failed == 0 and bool(chosen),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else max(outcome.failed, 1),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = missing_sources(ROOT)
    if missing:
        print(f"perfbench: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    load_avg = os.getloadavg()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import run_workload

    res = run_workload(args.workload, ROOT, args.seed, args.seconds, bool(args.trace), args.smoke)
    record = run_record(args, load_avg)
    record.update({k: v for k, v in res["info"].items() if k != "trace"})
    outcome = res["outcome"]
    record["fail_ratio"] = outcome.failed / max(outcome.attempted, 1)
    record["problems"] = outcome.problems
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "trace": res["info"].get("trace", {})}, fh)
        record["trace_file"] = os.path.relpath(path, ROOT)
        record["absent"] = res["info"].get("trace", {}).get("absent", [])
    line = format_result(res, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
