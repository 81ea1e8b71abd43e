"""Self-test of the benchmark: every workload at minimal size, and the checks.

  python3 perfbench/selftest.py

Runs each workload for one pass (--seconds 0 --quality-seeds 1), untraced
and traced, and requires every metric of BENCHMARK.json to be printed with
its unit, the report to carry the remaining figures, and the traced self
times to add up to the traced wall time. It then corrupts a real predictions
file in several ways and requires checks.py to flag each one, so the output
checks cannot pass vacuously. It also requires a metric whose function is
missing to be reported absent, and run.py to fail without a result in a
directory that holds only the benchmark. Exits 1 on any failure.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import longgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
DATA = ROOT / "src" / "aged" / "data" / "mini"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED = ("setup_s", "wall_s", "train_pairs_per_s", "predict_instances_per_s",
            "final_loss", "peak_rss_mb", "failed_frac")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--quality-seeds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(workload: str, trace: int) -> None:
    code, lines = run_bench(workload, trace)
    expect(code == 0 and len(lines) >= 2, f"{workload} --trace {trace} exits 0 with a result")
    if code != 0 or len(lines) < 2:
        return
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"]
           and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} --trace {trace} result is correct with attempted >= 1")
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and math.isfinite(got.get("value", math.nan)),
               f"{workload} --trace {trace} prints {m['name']} in {m['unit']}")
    env = report["env"]
    expect(all(env.get(k) for k in ("cpu_count", "python", "numpy", "blas", "blas_threads",
                                     "src_sha256")) and "git_commit" in env,
           f"{workload} --trace {trace} records the environment")
    if trace:
        m = result["metrics"]
        gap = 1 - m["trace.self_sum_s"]["value"] / m["trace.wall_s"]["value"]
        expect(not report["absent"], f"{workload}: no per-layer metric absent")
        expect(abs(gap) <= max(m["trace.overhead_frac"]["value"], 0) + 0.02,
               f"{workload}: self times sum to traced wall_s (gap {gap:.4f})")
        return
    wanted = REPORTED + (("test_f1",) if workload != "predict-long" else ())
    expect(all(k in report["metrics"] and report["metrics"][k].get("unit") for k in wanted),
           f"{workload} report gives {', '.join(wanted)} with units")
    expect(("test_f1" in report["metrics"]) == (workload != "predict-long"),
           f"{workload} reports test_f1 only where it means something")


def check_corruptions() -> None:
    pred = WORK / "train-mini" / "measure" / "predictions.jsonl"
    if not pred.exists():
        expect(False, "a predictions file from train-mini exists to corrupt")
        return
    gold = longgen.read_jsonl(DATA / "test.jsonl")
    fe_orders = {f["name"]: f["fe_order"] for f in longgen.read_jsonl(DATA / "frames.jsonl")}
    records = longgen.read_jsonl(pred)
    clean = checks.check_predictions(pred, gold, fe_orders)
    expect(not clean.violations and clean.bad_instances == 0, "an intact predictions file passes")

    n = len(gold[0]["tokens"])

    def first_pred(recs, **change):
        recs[0]["predictions"][0].update(change)

    corruptions = {
        "span past the sentence": lambda r: first_pred(r, span=[1, n + 1]),
        "span starting at 0": lambda r: first_pred(r, span=[0, 1]),
        "start > end": lambda r: first_pred(r, span=[2, 1]),
        "non-finite score": lambda r: first_pred(r, score=float("nan")),
        "FE repeated (three copies of one prediction)":
            lambda r: r[0].update(predictions=[r[0]["predictions"][0]] * 3),
        "FE missing": lambda r: r[0]["predictions"].pop(),
        "FE not in the frame": lambda r: first_pred(r, fe="Nobody"),
        "wrong frame": lambda r: r[0].update(frame="NoSuchFrame"),
        "record missing": lambda r: r.pop(),
    }
    bad = WORK / "corrupt-predictions.jsonl"
    for what, corrupt in corruptions.items():
        recs = copy.deepcopy(records)
        corrupt(recs)
        bad.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
        res = checks.check_predictions(bad, gold, fe_orders)
        expect(res.bad_instances >= 1 and res.violations, f"check flags: {what}")
    expect(not checks.f1_matches(clean.f1, 1.2), "an F1 the predictions do not give is flagged")


def check_absent_metric() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import aged.decoding
    import tracing

    decode_slot = aged.decoding.decode_slot
    del aged.decoding.decode_slot  # as if a later change removed it
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        aged.decoding.decode_slot = decode_slot
    metrics, absent = tracing.layer_metrics(tracer, passes=1)
    expect("decoding.decode_slot_calls" in absent and "decoding.decode_slot_calls" not in metrics
           and "encoder.forward_calls" in metrics,
           "a metric whose function is missing is reported absent")


def check_bare_directory() -> None:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, lines = run_bench("train-mini", 0, cwd=bare)
    expect(code != 0 and not lines, "run.py fails without a result where src/aged is missing")
    shutil.rmtree(bare)


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace)
    check_corruptions()
    check_absent_metric()
    check_bare_directory()
    print(f"{len(failures)} failure(s)" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
