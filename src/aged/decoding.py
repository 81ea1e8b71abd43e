"""Constrained greedy span decoding and whole-instance prediction.

For each slot the decoder maximizes start_prob[s] * end_prob[e] over valid
pairs 1 <= s <= e <= n and emits the span only if that product strictly
beats the no-argument product start_prob[0] * end_prob[0]; ties go to
no-argument. Among equal-product pairs the lexicographically smallest
(s, e) wins, so results are reproducible even on degenerate distributions.
The search is linear in n: rounding a product of non-negative numbers is
monotone, so the best product of a start s is start[s] times the largest
end from s on, and no (n, n) product matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedInstance, FrameStore
from .encoder import Checkpoint, forward_batch
from .encoding import Vocabulary, assemble
from .pointer import PointerDistribution, score_batch
from .templates import DEFAULT_MARKERS, MarkerOptions, TemplateMode, query_templates


@dataclass(frozen=True)
class SpanPrediction:
    """A decoded slot: either a (start, end) sentence span or no argument."""

    fe: str
    span: tuple[int, int] | None
    score: float


def decode_slot(start_probs: np.ndarray, end_probs: np.ndarray) -> tuple[tuple[int, int] | None, float]:
    """Best valid span versus the no-argument product for one slot."""
    start = np.asarray(start_probs, dtype=np.float64)
    end = np.asarray(end_probs, dtype=np.float64)
    n = len(start) - 1
    null_score = float(start[0] * end[0])
    if n < 1:
        return None, null_score
    # best[s-1] = start[s] * max(end[s:]), the largest product of start s; the
    # first argmax is the smallest start that reaches the overall best
    best = start[1:] * np.maximum.accumulate(end[:0:-1])[::-1]
    s = int(np.argmax(best))
    score = float(best[s])
    if score <= null_score:
        return None, null_score
    # the smallest end with that product: a smaller end can round to it too
    e = s + int(np.argmax(start[s + 1] * end[s + 1 :] == score))
    return (s + 1, e + 1), score


def decode(distributions: list[PointerDistribution]) -> list[SpanPrediction]:
    """`decode_slot` of each slot, in order; the per-layer benchmark tracer times it by name."""
    out = []
    for dist in distributions:
        span, score = decode_slot(dist.start_probs, dist.end_probs)
        out.append(SpanPrediction(dist.fe, span, score))
    return out


def predict_instance(
    instance: AnnotatedInstance,
    store: FrameStore,
    model: Checkpoint,
    vocab: Vocabulary,
    *,
    mode: TemplateMode = TemplateMode.FRAME_DEF,
    markers: MarkerOptions = DEFAULT_MARKERS,
) -> list[SpanPrediction]:
    """One prediction per FE of the instance's frame.

    The instance is paired with `query_templates` of its frame: one
    frame-definition template that extracts every argument, or in question
    mode one single-slot question per FE. The pairs run as one padded
    `forward_batch`, and one `score_batch` call scores all of their slots
    before each slot is decoded. `mode` fe-def raises ValueError.
    """
    frame = store.frame(instance.frame)
    pairs = [
        assemble(instance, template, vocab, markers, model.config.max_len)
        for template in query_templates(frame, mode, markers)
    ]
    reps, _ = forward_batch(model.params, model.config, pairs)
    distributions, _ = score_batch(model.params, reps, pairs)
    return [prediction for dists in distributions for prediction in decode(dists)]


def predict_all(
    instances: list[AnnotatedInstance],
    store: FrameStore,
    model: Checkpoint,
    vocab: Vocabulary,
    *,
    mode: TemplateMode = TemplateMode.FRAME_DEF,
    markers: MarkerOptions = DEFAULT_MARKERS,
) -> list[list[SpanPrediction]]:
    """Predict a whole set, one instance at a time."""
    return [
        predict_instance(inst, store, model, vocab, mode=mode, markers=markers)
        for inst in instances
    ]
