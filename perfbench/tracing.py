"""Span tracing of the aged modules, installed from the benchmark's side.

`Tracer.install()` wraps every public function of the traced modules (plus
the few methods a metric needs) and rebinds every name that refers to one
in any loaded `aged` module: from-import bindings such as
`aged.pointer.forward_cached`, `aged.training.loss_and_gradients` or
`aged.cli.train`, and the values of module-level dicts such as
`aged.cli.COMMANDS`. Each call records a span [name, start, end, parent,
run] in memory; `write_jsonl` saves them when the run ends.

A span's self time is its length minus the time its child spans cover.
Calls nest in one thread, so the children of a span are disjoint and their
coverage is the sum of their lengths.

Per-layer metrics are per pass of the workload (run totals divided by the
number of traced passes), except ratios, means and bytes. A metric whose functions are
missing from the program is reported absent rather than failing the run.
`aged.experiments` is not traced: it repeats the CLI pipeline.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("corpus", "templates", "encoding", "encoder", "pointer", "training",
          "decoding", "evaluation", "cli")
METHODS = (("training", "Adam", "step"), ("encoding", "Vocabulary", "save"),
           ("encoding", "Vocabulary", "load"))

Counters = dict[str, float]


def _observe_forward(c: Counters, a: dict, result) -> None:
    cfg, length = a["config"], len(a["pair"].ids)
    d, ff = cfg.d_model, cfg.d_ff
    c["encoder.tokens"] += length
    c["encoder.attn_scores"] += cfg.n_layers * cfg.n_heads * length * length
    # matmul flops: q/k/v/o projections, scores and context, the two FFN layers
    c["encoder.flops"] += cfg.n_layers * (8 * length * d * d + 4 * length * length * d
                                          + 4 * length * d * ff)


def _observe_save(c: Counters, a: dict, result) -> None:
    c["encoder.checkpoint_bytes"] += os.path.getsize(a["path"])


def _observe_distributions(c: Counters, a: dict, result) -> None:
    c["pointer.slots"] += len(result)


def _observe_clip(c: Counters, a: dict, result) -> None:
    c["training.clipped"] += 0 < a["max_norm"] < result


def _observe_decode(c: Counters, a: dict, result) -> None:
    n = len(a["start_probs"]) - 1
    c["decoding.candidates"] += n * (n + 1) // 2
    c["decoding.nulls"] += result[0] is None


def _observe_assemble(c: Counters, a: dict, result) -> None:
    c["encoding.pair_tokens"] += len(result.ids)


OBSERVERS = {
    "encoder.forward_cached": _observe_forward,
    "encoder.save_checkpoint": _observe_save,
    "pointer.pointer_distributions": _observe_distributions,
    "training.clip_gradients": _observe_clip,
    "decoding.decode_slot": _observe_decode,
    "encoding.assemble": _observe_assemble,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = 0  # the pass a new span belongs to
        self.found: set[str] = set()
        self.counters: Counters = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, counters = self.spans, self._stack, time.perf_counter, self.counters
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(counters, bound.arguments, result)
            return result

        self.found.add(name)
        return traced

    def _set(self, owner, key, value) -> None:
        is_dict = isinstance(owner, dict)
        self._undo.append((owner, key, owner[key] if is_dict else owner.__dict__[key], is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"aged.{layer}")
            except ImportError:
                continue
            for attr, fn in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(fn) \
                        and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        aged_modules = [m for n, m in sys.modules.items() if n == "aged" or n.startswith("aged.")]
        for module in aged_modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set(value, key, wrappers[item])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules.get(f"aged.{layer}"), cls_name, None)
            raw = vars(cls).get(method) if cls is not None else None
            if raw is None:
                continue
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, staticmethod):
                self._set(cls, method, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, method, self._wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._undo):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def self_times(self) -> list[float]:
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")


# (metric, unit, functions it needs, value from the run's stats).
# `s` holds per function name its calls and self seconds;
# `c` holds the observers' counters. Values with unit s/pass or count/pass
# are divided by the number of passes.
def _self(s, *names):
    return sum(s[n]["self"] for n in names)


def _share(num, den):
    return num / den if den else 0.0


LAYER_METRICS = (
    ("encoder.forward_calls", "count/pass", ("encoder.forward_cached",),
     lambda s, c: s["encoder.forward_cached"]["calls"]),
    ("encoder.forward_s", "s/pass", ("encoder.forward_cached",),
     lambda s, c: _self(s, "encoder.forward_cached")),
    ("encoder.backward_calls", "count/pass", ("encoder.backward_from_cache",),
     lambda s, c: s["encoder.backward_from_cache"]["calls"]),
    ("encoder.backward_s", "s/pass", ("encoder.backward_from_cache",),
     lambda s, c: _self(s, "encoder.backward_from_cache")),
    ("encoder.tokens", "computed/pass", ("encoder.forward_cached",),
     lambda s, c: c["encoder.tokens"]),
    ("encoder.attn_scores", "computed/pass", ("encoder.forward_cached",),
     lambda s, c: c["encoder.attn_scores"]),
    ("encoder.flops", "computed/pass", ("encoder.forward_cached",),
     lambda s, c: c["encoder.flops"]),
    ("encoder.save_s", "s/pass", ("encoder.save_checkpoint",),
     lambda s, c: _self(s, "encoder.save_checkpoint")),
    ("encoder.load_s", "s/pass", ("encoder.load_checkpoint",),
     lambda s, c: _self(s, "encoder.load_checkpoint")),
    ("encoder.checkpoint_bytes", "bytes", ("encoder.save_checkpoint",),
     lambda s, c: _share(c["encoder.checkpoint_bytes"], s["encoder.save_checkpoint"]["calls"])),
    ("pointer.loss_grad_calls", "count/pass", ("pointer.loss_and_gradients",),
     lambda s, c: s["pointer.loss_and_gradients"]["calls"]),
    ("pointer.loss_grad_self_s", "s/pass", ("pointer.loss_and_gradients",),
     lambda s, c: _self(s, "pointer.loss_and_gradients")),
    ("pointer.distributions_s", "s/pass", ("pointer.pointer_distributions",),
     lambda s, c: _self(s, "pointer.pointer_distributions")),
    ("pointer.slots", "count/pass", ("pointer.pointer_distributions",),
     lambda s, c: c["pointer.slots"]),
    ("training.steps", "count/pass", ("training.Adam.step",),
     lambda s, c: s["training.Adam.step"]["calls"]),
    ("training.train_self_s", "s/pass", ("training.train",),
     lambda s, c: _self(s, "training.train")),
    ("training.adam_s", "s/pass", ("training.Adam.step",),
     lambda s, c: _self(s, "training.Adam.step")),
    ("training.clip_s", "s/pass", ("training.clip_gradients",),
     lambda s, c: _self(s, "training.clip_gradients")),
    ("training.clipped_frac", "ratio", ("training.clip_gradients",),
     lambda s, c: _share(c["training.clipped"], s["training.clip_gradients"]["calls"])),
    ("training.stream_s", "s/pass", ("training.build_training_stream",),
     lambda s, c: _self(s, "training.build_training_stream")),
    ("decoding.decode_slot_calls", "count/pass", ("decoding.decode_slot",),
     lambda s, c: s["decoding.decode_slot"]["calls"]),
    ("decoding.decode_slot_s", "s/pass", ("decoding.decode_slot",),
     lambda s, c: _self(s, "decoding.decode_slot")),
    ("decoding.candidates", "count/pass", ("decoding.decode_slot",),
     lambda s, c: c["decoding.candidates"]),
    ("decoding.null_frac", "ratio", ("decoding.decode_slot",),
     lambda s, c: _share(c["decoding.nulls"], s["decoding.decode_slot"]["calls"])),
    ("decoding.predict_self_s", "s/pass",
     ("decoding.predict_all", "decoding.predict_instance", "decoding.decode"),
     lambda s, c: _self(s, "decoding.predict_all", "decoding.predict_instance", "decoding.decode")),
    ("templates.build_calls", "count/pass",
     ("templates.build_frame_template", "templates.build_question_template"),
     lambda s, c: sum(v["calls"] for n, v in s.items() if n.startswith("templates.build_"))),
    ("templates.build_s", "s/pass",
     ("templates.build_frame_template", "templates.build_question_template"),
     lambda s, c: sum(v["self"] for n, v in s.items() if n.startswith("templates.build_"))),
    ("encoding.assemble_calls", "count/pass", ("encoding.assemble",),
     lambda s, c: s["encoding.assemble"]["calls"]),
    ("encoding.assemble_s", "s/pass", ("encoding.assemble",),
     lambda s, c: _self(s, "encoding.assemble")),
    ("encoding.pair_tokens_mean", "tokens", ("encoding.assemble",),
     lambda s, c: _share(c["encoding.pair_tokens"], s["encoding.assemble"]["calls"])),
    ("encoding.vocab_s", "s/pass",
     ("encoding.build_vocabulary", "encoding.Vocabulary.save", "encoding.Vocabulary.load"),
     lambda s, c: _self(s, "encoding.build_vocabulary", "encoding.Vocabulary.save",
                        "encoding.Vocabulary.load")),
    ("corpus.load_s", "s/pass", ("corpus.load_ontology", "corpus.load_instances"),
     lambda s, c: _self(s, "corpus.load_ontology", "corpus.load_instances")),
    ("evaluation.evaluate_s", "s/pass", ("evaluation.evaluate",),
     lambda s, c: _self(s, "evaluation.evaluate")),
    ("cli.dispatch_self_s", "s/pass", ("cli.dispatch",),
     lambda s, c: sum(v["self"] for n, v in s.items() if n.startswith("cli."))),
)

# Ratios and means; everything else is a per-pass total.
_NOT_PER_PASS = {"ratio", "bytes", "tokens"}


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, dict], list[str]]:
    """Per-layer metrics of a traced run, and the names reported absent."""
    stats: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self": 0.0})
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        entry = stats[span[0]]
        entry["calls"] += 1
        entry["self"] += self_s
    metrics, absent = {}, []
    for name, unit, needs, compute in LAYER_METRICS:
        if not all(n in tracer.found for n in needs):
            absent.append(name)
            continue
        value = compute(stats, tracer.counters)
        if unit not in _NOT_PER_PASS:
            value /= passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
