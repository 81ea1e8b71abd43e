"""One benchmark process: set up a workload's inputs, then run its passes.

run.py starts this in a fresh process for every role:

  setup    set up and stop; the launcher times process start -> inputs ready
  measure  set up, then run passes untraced for --seconds (end-to-end metrics)
  trace    set up, then run passes with every aged module traced (per-layer)

A pass is the user's pipeline `aged train -> aged predict -> aged eval`,
driven in-process through `aged.cli.dispatch` as one closed-loop caller.
Passes continue until --seconds have elapsed and at least one cycle of
quality seeds is done. After each pass, outside the timed region, the
predictions file is checked by checks.py. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import aged.cli  # noqa: E402

import checks  # noqa: E402
import longgen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

DATA = ROOT / "src" / "aged" / "data" / "mini"


class SetupError(RuntimeError):
    pass


def cli(argv: list) -> tuple[int, str, float]:
    """Run one aged command in-process: (exit code, its stdout, seconds)."""
    out = io.StringIO()
    argv = [str(a) for a in argv]
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = aged.cli.dispatch(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


@dataclass
class Inputs:
    frames: Path
    train: Path
    test: Path
    gold: list[dict]
    fe_orders: dict[str, list[str]]
    pairs: int  # training pairs per epoch, counted from the input files


def set_up(wl: Workload, seed: int, workdir: Path) -> Inputs:
    frames, train, test = DATA / "frames.jsonl", DATA / "train.jsonl", DATA / "test.jsonl"
    if wl.long_instances:
        test = workdir / "long-test.jsonl"
        longgen.write(DATA / "train.jsonl", DATA / "test.jsonl", test, wl.long_instances, seed)
    fe_orders = {f["name"]: f["fe_order"] for f in longgen.read_jsonl(frames)}
    train_records = longgen.read_jsonl(train)
    gold = longgen.read_jsonl(test)
    # The program receives only inputs that pass its own validation.
    for path, records in ((train, train_records), (test, gold)):
        code, out, _ = cli(["ingest", "--frames", frames, "--instances", path])
        if code != 0 or json.loads(out)["instances"] != len(records):
            raise SetupError(f"aged ingest rejected {path} (exit {code})")
    if wl.mode == "question":
        pairs = sum(len(fe_orders[r["frame"]]) for r in train_records)
    else:
        pairs = len(train_records)
    return Inputs(frames, train, test, gold, fe_orders, pairs)


@dataclass
class Pass:
    train_s: float = math.nan
    predict_s: float = math.nan
    eval_s: float = math.nan
    final_loss: float = math.nan
    f1: float = math.nan
    attempted: int = 0
    failed: int = 0
    traced: bool = False

    @property
    def wall_s(self) -> float:
        return self.train_s + self.predict_s + self.eval_s


def run_pass(wl: Workload, inp: Inputs, pass_seed: int, workdir: Path,
             violations: list[str]) -> Pass:
    p = Pass()
    ckpt, pred = workdir / "model.json", workdir / "predictions.jsonl"
    common = ["--frames", inp.frames, "--mode", wl.mode]
    stages = (
        ("train", ["train", *common, "--train", inp.train, "--epochs", wl.epochs,
                   "--seed", pass_seed, "--checkpoint", ckpt, "--force"]),
        ("predict", ["predict", *common, "--instances", inp.test, "--checkpoint", ckpt,
                     "--out", pred, "--force"]),
        ("eval", ["eval", "--frames", inp.frames, "--gold", inp.test, "--pred", pred]),
    )
    outputs = {}
    for stage, argv in stages:
        p.attempted += 1
        code, out, seconds = cli(argv)
        setattr(p, f"{stage}_s", seconds)
        if code != 0:
            p.failed += 1
            violations.append(f"seed {pass_seed}: aged {stage} exited {code}")
            return p
        outputs[stage] = json.loads(out.splitlines()[-1])

    p.final_loss = outputs["train"]["final_loss"]
    p.f1 = outputs["eval"]["f1"]
    result = checks.check_predictions(pred, inp.gold, inp.fe_orders)
    p.attempted += result.instances
    p.failed += result.bad_instances
    violations.extend(f"seed {pass_seed}: {v}" for v in result.violations)
    if not checks.f1_matches(result.f1, p.f1):
        p.failed += 1
        violations.append(f"seed {pass_seed}: aged eval F1 {p.f1} != recomputed {result.f1}")
    if not math.isfinite(p.final_loss):
        p.failed += 1
        violations.append(f"seed {pass_seed}: final_loss {p.final_loss}")
    return p


def run_passes(wl: Workload, inp: Inputs, seed: int, seconds: float, quality_seeds: int,
               workdir: Path, violations: list[str], tracer=None) -> list[Pass]:
    """Closed loop of passes; with a tracer, every second pass is traced.

    Interleaving traced and untraced passes in one process measures the
    tracing overhead without the drift of a noisy machine between two runs.
    """
    passes: list[Pass] = []
    least = quality_seeds if tracer is None else max(quality_seeds, 2)
    start = time.perf_counter()
    while len(passes) < least or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.run = len(passes)
            tracer.install()
        try:
            p = run_pass(wl, inp, seed * quality_seeds + len(passes) % quality_seeds,
                         workdir, violations)
        finally:
            if traced:
                tracer.uninstall()
        p.traced = traced
        passes.append(p)
        if p.failed:
            break
    return passes


def _quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q[0], "median": statistics.median(values), "q3": q[2], "n": len(values)}


def summarize(wl: Workload, inp: Inputs, passes: list[Pass], quality_seeds: int) -> dict:
    """End-to-end figures of untraced passes, with the phase time quartiles."""
    quality = passes[:quality_seeds]  # one pass per quality seed
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "train_pairs_per_s": (statistics.median(
            inp.pairs * wl.epochs / p.train_s for p in passes), "pairs/s"),
        "predict_instances_per_s": (statistics.median(
            len(inp.gold) / p.predict_s for p in passes), "instances/s"),
        "final_loss": (statistics.fmean(p.final_loss for p in quality), "nats"),
        "test_f1": (statistics.fmean(p.f1 for p in quality), "ratio"),
    }
    phases = {
        phase: _quartiles([getattr(p, f"{phase}_s") for p in passes])
        for phase in ("wall", "train", "predict", "eval")
    }
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "phases": phases,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--quality-seeds", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)  # aged writes ingest/eval manifests to the working directory

    inp = set_up(wl, args.seed, args.workdir)
    ready_at = time.monotonic()
    out: dict = {"ready_at": ready_at, "env": environment()}
    if args.role != "setup":
        tracer = tracing.Tracer() if args.role == "trace" else None
        violations: list[str] = []
        passes = run_passes(wl, inp, args.seed, args.seconds, args.quality_seeds,
                            args.workdir, violations, tracer)
        out.update(
            attempted=sum(p.attempted for p in passes),
            failed=sum(p.failed for p in passes),
            violations=violations[:50],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        plain = [p for p in passes if not p.traced]
        out["passes"] = len(plain)
        if not out["failed"]:
            out.update(summarize(wl, inp, plain, args.quality_seeds))
        if tracer is not None and not out["failed"]:
            traced = [p for p in passes if p.traced]
            tracer.write_jsonl(args.workdir / "spans.jsonl")
            layers, absent = tracing.layer_metrics(tracer, len(traced))
            out.update(layers=layers, absent=absent, traced_passes=len(traced),
                       spans=len(tracer.spans) / len(traced),
                       self_sum_s=sum(tracer.self_times()) / len(traced),
                       traced_wall_mean_s=statistics.fmean(p.wall_s for p in traced),
                       traced_wall_s=statistics.median(p.wall_s for p in traced))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
