"""Benchmark of the aged CLI pipeline: end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload train-mini --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds src/aged. With --trace 0 it runs
SETUP_REPEATS - 1 set-up-only processes and one measuring process, and
prints the end-to-end metrics named in BENCHMARK.json. With --trace 1 it
runs one process whose passes alternate untraced and traced, and prints the
per-layer metrics of the traced passes, including the tracing overhead
(traced wall_s against untraced wall_s).

Stdout ends with two lines: a report (environment, every measured figure
with its unit, phase quartiles, check violations), then the result object
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
output check passed, 1 when one failed (the result still prints), 2 when
the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BLAS_THREADS, QUALITY_SEEDS, SETUP_REPEATS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170  # every child process ends within this many seconds of the start


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env.pop("AGED_LOG", None)
    return env


def spawn(args, role: str, seconds: float, quality_seeds: int, tag: str) -> dict:
    """Run worker.py in a fresh process; adds setup_s measured from process start."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--role", role,
           "--quality-seeds", str(quality_seeds), "--workdir", str(WORK / args.workload / tag)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                              timeout=max(args.deadline - started, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process still running {RUN_LIMIT_S} s after the start") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} process exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_at"] - started
    return result


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "aged").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(args) -> tuple[dict, dict]:
    """Untraced run: (report, metrics by name)."""
    setups = [spawn(args, "setup", 0, args.quality_seeds, f"setup{i}")["setup_s"]
              for i in range(SETUP_REPEATS - 1)]
    res = spawn(args, "measure", args.seconds, args.quality_seeds, "measure")
    setups.append(res["setup_s"])
    metrics = dict(res.get("metrics", {}))
    metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    metrics["failed_frac"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
    if WORKLOADS[args.workload].long_instances:
        # Absolute positions past the bundled sentence lengths are never
        # trained, so F1 on the long set is ~0 and says nothing.
        metrics.pop("test_f1", None)
    report = {k: res[k] for k in ("env", "passes", "attempted", "failed", "violations")}
    report.update(setup_samples_s=setups, phases=res.get("phases"))
    return report, metrics


def trace(args) -> tuple[dict, dict]:
    """Alternating untraced and traced passes: (report, per-layer metrics by name)."""
    res = spawn(args, "trace", args.seconds, args.quality_seeds, "trace")
    report = {k: res[k] for k in ("env", "passes", "attempted", "failed", "violations")}
    if res["failed"]:
        return report, {}
    untraced_wall = res["metrics"]["wall_s"]["value"]
    metrics = dict(res["layers"])
    metrics["trace.overhead_frac"] = {"value": res["traced_wall_s"] / untraced_wall - 1,
                                      "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": res["traced_wall_mean_s"], "unit": "s/pass"}
    metrics["trace.self_sum_s"] = {"value": res["self_sum_s"], "unit": "s/pass"}
    metrics["trace.spans"] = {"value": res["spans"], "unit": "count/pass"}
    report.update(absent=res["absent"], traced_passes=res["traced_passes"],
                  untraced_wall_s=untraced_wall, traced_wall_s=res["traced_wall_s"],
                  spans_file=str(WORK / args.workload / "trace" / "spans.jsonl"))
    return report, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quality-seeds", type=int, default=QUALITY_SEEDS,
                        help="training seeds per cycle (smaller for a quick self-test)")
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "aged" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/aged to benchmark", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        report, measured = (trace if args.trace else measure)(args)
    except (BenchError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=measured)
    report["env"].update(git_commit=git_commit(), src_sha256=source_digest())
    correct = report["failed"] == 0
    result = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: measured[m["name"]] for m in wanted if m["name"] in measured},
    }
    text = json.dumps(report)
    (WORK / args.workload / f"report-trace{args.trace}.json").write_text(text, encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
