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
from .encoding import EncodedPair, PairTooLongError, assemble
from .pointer import PointerDistribution, score_batch
from .templates import query_templates

# Padded tokens (pairs x longest pair) one prediction batch may hold. Short
# pairs share a batch to save per-call overhead; a pair longer than half of
# it runs alone, since attention at that length is bound by compute.
PREDICT_BATCH_TOKENS = 256


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


def query_pairs(
    instances: list[AnnotatedInstance], store: FrameStore, model: Checkpoint
) -> list[list[EncodedPair]]:
    """Each instance assembled with every `query_templates` template of its frame.

    The templates, markers, vocabulary and `max_len` are the model's.
    Frame-def mode gives one pair per instance, question mode one per FE in
    `fe_order`. A pair over `max_len` raises PairTooLongError whose
    `instance` is the 0-based position of its instance.
    """
    pairs = []
    for i, inst in enumerate(instances):
        templates = query_templates(store.frame(inst.frame), model.mode, model.markers)
        try:
            pairs.append([
                assemble(inst, t, model.vocab, model.markers, model.config.max_len)
                for t in templates
            ])
        except PairTooLongError as e:
            raise PairTooLongError(str(e), instance=i) from None
    return pairs


def predict_pairs(model: Checkpoint, pairs: list[list[EncodedPair]]) -> list[list[SpanPrediction]]:
    """Predictions for each instance's `query_pairs`, in instance and slot order.

    The pairs of all instances are sorted by length (stably) and consecutive
    runs are cut into batches whose padded size, pairs x longest pair, stays
    within PREDICT_BATCH_TOKENS; a pair over half of it runs alone. Each
    batch runs `forward_batch`, one `score_batch` and `decode`.
    """
    flat = [pair for instance_pairs in pairs for pair in instance_pairs]
    order = sorted(range(len(flat)), key=lambda i: len(flat[i].ids))
    decoded = [None] * len(flat)
    lo = 0
    while lo < len(order):
        hi = lo + 1
        while hi < len(order) and (hi - lo + 1) * len(flat[order[hi]].ids) <= PREDICT_BATCH_TOKENS:
            hi += 1
        batch = [flat[i] for i in order[lo:hi]]
        reps, _ = forward_batch(model.params, model.config, batch)
        distributions, _ = score_batch(model.params, reps, batch)
        for i, dists in zip(order[lo:hi], distributions):
            decoded[i] = decode(dists)
        lo = hi
    spans = iter(decoded)
    return [[p for _ in instance_pairs for p in next(spans)] for instance_pairs in pairs]


def predict_all(
    instances: list[AnnotatedInstance], store: FrameStore, model: Checkpoint
) -> list[list[SpanPrediction]]:
    """One prediction per FE of each instance's frame, in `fe_order`.

    `query_pairs` of the whole set, then `predict_pairs` in length-sorted
    padded batches.
    """
    return predict_pairs(model, query_pairs(instances, store, model))


def predict_instance(
    instance: AnnotatedInstance, store: FrameStore, model: Checkpoint
) -> list[SpanPrediction]:
    """`predict_all` of the one instance."""
    return predict_all([instance], store, model)[0]
