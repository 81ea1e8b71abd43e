"""Constrained greedy span decoding and whole-instance prediction.

For each slot the decoder maximizes start_prob[s] * end_prob[e] over valid
pairs 1 <= s <= e <= n and emits the span only if that product strictly
beats the no-argument product start_prob[0] * end_prob[0]; ties go to
no-argument. Among equal-product pairs the lexicographically smallest
(s, e) wins, so results are reproducible even on degenerate distributions.
The search is linear in n: rounding a product of non-negative numbers is
monotone, so the best product of a start s is start[s] times the largest
end from s on, and no (n, n) product matrix is formed.

One vectorized kernel runs that search over rows of slots: `decode_batch`
gives it every slot of a padded prediction batch at once, and `decode_slot`
the one row of a single slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedInstance, FrameStore
from .encoder import Checkpoint, _runs, forward_batch
from .encoding import EncodedPair, assemble
from .pointer import PointerDistribution, score_batch
from .templates import query_templates


@dataclass(frozen=True)
class SpanPrediction:
    """A decoded slot: either a (start, end) sentence span or no argument."""

    fe: str
    span: tuple[int, int] | None
    score: float


def _best_spans(
    start: np.ndarray, end: np.ndarray
) -> tuple[list[bool], list[float], list[int], list[int]]:
    """The decoding rule of every row of (slots, C) f64 start and end probabilities.

    Returns each row's emit flag, score and 1-based start and end as lists;
    a row that emits no span scores its no-argument product.
    """
    score = start[:, 0] * end[:, 0]  # the no-argument product
    emit = np.zeros(len(score), dtype=bool)
    s = e = np.zeros(len(score), dtype=np.intp)
    if start.shape[1] > 1:  # some row has a sentence token
        # best[:, s-1] = start[s] * max(end[s:]), the largest product of start s;
        # the first argmax is the smallest start that reaches the overall best
        best = start[:, 1:] * np.maximum.accumulate(end[:, :0:-1], axis=1)[:, ::-1]
        s = best.argmax(axis=1)
        slots = np.arange(len(score))
        best_score = best[slots, s]
        # the smallest end from s on with that product: a smaller end can round to it too
        hit = start[slots, s + 1, None] * end[:, 1:] == best_score[:, None]
        hit &= np.arange(best.shape[1]) >= s[:, None]
        e = hit.argmax(axis=1)
        emit = best_score > score
        score = np.where(emit, best_score, score)
    return emit.tolist(), score.tolist(), (s + 1).tolist(), (e + 1).tolist()


def decode_slot(start_probs: np.ndarray, end_probs: np.ndarray) -> tuple[tuple[int, int] | None, float]:
    """Best valid span versus the no-argument product for one slot: `_best_spans` of its one row."""
    start = np.asarray(start_probs, dtype=np.float64).reshape(1, -1)
    end = np.asarray(end_probs, dtype=np.float64).reshape(1, -1)
    [emit], [score], [s], [e] = _best_spans(start, end)
    return ((s, e) if emit else None), score


def decode_batch(probs: np.ndarray, pairs: list[EncodedPair]) -> list[list[SpanPrediction]]:
    """`_best_spans` of every slot of a padded batch, in one vectorized pass.

    `probs` is the (2, B, M, C) output of `score_batch` on `pairs`. Returns
    each pair's predictions in slot order, spans and scores bitwise those
    of `decode_slot` on the slot's own n+1 candidates. That holds for finite
    probabilities that are not negative, as softmax gives: a padded
    candidate's 0 neither raises the largest end from a real start on nor
    beats a real start's product, and a best product of 0 never beats the
    no-argument product.
    """
    start, end = probs.astype(np.float64).reshape(2, -1, probs.shape[3])  # (B*M, C) each
    emit, score, starts, ends = _best_spans(start, end)
    n_slot = probs.shape[2]
    return [
        [SpanPrediction(fe, (starts[i], ends[i]) if emit[i] else None, score[i])
         for i, fe in enumerate(pair.slot_fes, b * n_slot)]
        for b, pair in enumerate(pairs)
    ]


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
    `fe_order`. A pair over `max_len` raises PairTooLongError.
    """
    templates = {frame.name: query_templates(frame, model.mode, model.markers) for frame in store}
    return [
        [assemble(inst, t, model.vocab, model.markers, model.config.max_len)
         for t in templates[inst.frame]]
        for inst in instances
    ]


def predict_pairs(model: Checkpoint, pairs: list[list[EncodedPair]]) -> list[list[SpanPrediction]]:
    """Predictions for each instance's `query_pairs`, in instance and slot order.

    The pairs of all instances are sorted by length (stably) and cut into
    the `encoder._runs` whose feed-forward hidden rows, pairs x longest pair
    x d_ff, stay within `encoder.ARRAY_BUDGET` (1024 rows at d_ff 128), so
    numpy's per-call floor of the row-wise layers is paid once per batch; a
    pair over the budget runs alone. `forward_batch` keeps each attention
    score array within the same budget by running attention per length
    chunk. Each batch runs `forward_batch` without a backward cache, one
    `score_batch` and one `decode_batch`.
    """
    flat = [pair for instance_pairs in pairs for pair in instance_pairs]
    order = sorted(range(len(flat)), key=lambda i: len(flat[i].ids))
    decoded = [None] * len(flat)
    for lo, hi in _runs([len(flat[i].ids) for i in order], lambda n: n * model.config.d_ff):
        batch = [flat[i] for i in order[lo:hi]]
        reps, _ = forward_batch(model.params, model.config, batch, backward=False)
        probs, _ = score_batch(model.params, reps, batch)
        for i, predictions in zip(order[lo:hi], decode_batch(probs, batch)):
            decoded[i] = predictions
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
