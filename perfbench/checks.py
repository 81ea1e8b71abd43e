"""Output checks the benchmark makes on its own, without trusting `aged eval`.

`aged eval` scores whatever it is given (three copies of one correct
prediction score F1 1.2), so the predictions file is read back here and
checked against the gold instances and the frames' FE order:

* one record per gold instance, with the gold instance's frame;
* exactly one prediction per FE in the frame's fe_order, no FE twice;
* every span is null or [start, end] with 1 <= start <= end <= n;
* every score is a finite number;
* the F1 recomputed from the file equals the F1 the CLI printed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class CheckResult:
    instances: int  # gold instances the file had to cover
    bad_instances: int  # instances (or surplus records) with any violation
    violations: list[str] = field(default_factory=list)
    f1: float = 0.0  # recomputed from the valid spans


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _span_problem(span, n: int) -> str | None:
    if span is None:
        return None
    if not (isinstance(span, list) and len(span) == 2 and all(_is_int(v) for v in span)):
        return f"span {span!r} is not [start, end]"
    start, end = span
    if not 1 <= start <= end <= n:
        return f"span {span!r} outside 1..{n} or start > end"
    return None


def f1_from_counts(tp: int, predicted: int, gold: int) -> float:
    """Micro F1 with the same arithmetic as aged.evaluation.Metrics.from_counts."""
    precision = tp / predicted if predicted else 0.0
    recall = tp / gold if gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def gold_spans(record: dict) -> set[tuple[str, int, int]]:
    """Gold (fe, start, end) triples; a repeated FE keeps its leftmost span, as aged does."""
    by_fe: dict[str, tuple[int, int]] = {}
    for a in record["arguments"]:
        span = (a["start"], a["end"])
        by_fe[a["fe"]] = min(by_fe.get(a["fe"], span), span)
    return {(fe, s, e) for fe, (s, e) in by_fe.items()}


def check_predictions(
    pred_path: str | Path, gold: list[dict], fe_orders: dict[str, list[str]]
) -> CheckResult:
    result = CheckResult(instances=len(gold), bad_instances=0)
    records: list = []
    with open(pred_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                records.append(None)
                result.violations.append(f"line {lineno}: malformed JSON ({e.msg})")
    if len(records) != len(gold):
        result.violations.append(f"{len(records)} prediction records for {len(gold)} instances")
        result.bad_instances += abs(len(records) - len(gold))

    tp = predicted = gold_count = 0
    for i, (rec, inst) in enumerate(zip(records, gold), start=1):
        problems: list[str] = []
        golds = gold_spans(inst)
        gold_count += len(golds)
        preds = rec.get("predictions") if isinstance(rec, dict) else None
        if not isinstance(preds, list) or not all(isinstance(p, dict) for p in preds):
            problems.append("no list of prediction objects")
            preds = []
        elif rec.get("frame") != inst["frame"]:
            problems.append(f"frame {rec.get('frame')!r}, gold {inst['frame']!r}")
        fes = [p.get("fe") for p in preds]
        order = fe_orders[inst["frame"]]
        if sorted(fes, key=str) != sorted(order):
            problems.append(f"FEs {fes} are not one per FE of {order}")
        n = len(inst["tokens"])
        for p in preds:
            span_problem = _span_problem(p.get("span"), n)
            score = p.get("score")
            if span_problem:
                problems.append(f"{p.get('fe')}: {span_problem}")
            if not (isinstance(score, (int, float)) and not isinstance(score, bool)
                    and math.isfinite(score)):
                problems.append(f"{p.get('fe')}: score {score!r} is not finite")
            if p.get("span") is not None and not span_problem:
                predicted += 1
                tp += (p.get("fe"), *p["span"]) in golds
        if problems:
            result.bad_instances += 1
            result.violations.extend(f"instance {i}: {msg}" for msg in problems)
    result.f1 = f1_from_counts(tp, predicted, gold_count)
    return result


def f1_matches(recomputed: float, reported: float) -> bool:
    return math.isclose(recomputed, reported, rel_tol=1e-12, abs_tol=1e-12)
