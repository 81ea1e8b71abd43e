"""Slot queries and span pointer heads.

Each template slot becomes a query vector by elementwise-maxpooling its
contextual rows. Two weight matrices project the query and score it against
the [CLS] row plus the n sentence rows, giving softmax distributions over
the n+1 candidate start and end positions. Position 0 means "no argument".
Cross-entropy on gold starts and ends, equally weighted, is the training
loss.

`score_batch` scores every slot of a padded batch at once; training and
prediction both call it. `make_queries`, `pointer_distributions` and
`slot_loss` are its per-pair reference in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderConfig,
    FlatTensors,
    ParameterSet,
    backward_from_cache,
    forward_batch,
    _softmax,
)
from .encoding import EncodedPair, SlotLabel


@dataclass(frozen=True)
class PointerDistribution:
    """Start/end probabilities over the n+1 candidate positions of one slot."""

    fe: str
    start_probs: np.ndarray
    end_probs: np.ndarray


def make_queries(reps: np.ndarray, pair: EncodedPair) -> np.ndarray:
    """Maxpool each slot's rows of `reps` (mention tokens only, no markers).

    Returns one row per slot, in `pair.slot_fes` order. Per-slot reference for
    `score_batch`, kept for the tests and the tracer.
    """
    return np.array([reps[start : end + 1].max(axis=0) for start, end in pair.slot_pos])


def pointer_distributions(
    params: ParameterSet,
    reps: np.ndarray,
    pair: EncodedPair,
    queries: np.ndarray,
) -> list[PointerDistribution]:
    """Score every candidate position for every slot's query, softmax-normalized.

    Per-slot reference for `score_batch`, kept for the tests and the tracer.
    """
    rows = reps[[0, *pair.sentence_pos]]  # [CLS] + sentence
    w_start, w_end = params["pointer.w_start"], params["pointer.w_end"]
    out = []
    for fe, q in zip(pair.slot_fes, queries):
        start_probs = _softmax(rows @ (w_start @ q))
        end_probs = _softmax(rows @ (w_end @ q))
        out.append(PointerDistribution(fe, start_probs, end_probs))
    return out


def slot_loss(distributions: list[PointerDistribution], labels: list[SlotLabel]) -> float:
    """Cross entropy summed over slots: 0.5 * sum(-log p_start) + 0.5 * sum(-log p_end).

    Per-pair reference for the loss of `batch_loss_and_gradients`.
    """
    if len(distributions) != len(labels):
        raise ValueError(f"{len(distributions)} distributions vs {len(labels)} labels")
    loss_start = 0.0
    loss_end = 0.0
    for dist, (s, e) in zip(distributions, labels):
        n_plus_1 = len(dist.start_probs)
        if not (0 <= s < n_plus_1 and 0 <= e < n_plus_1):
            raise ValueError(f"label ({s}, {e}) outside 0..{n_plus_1 - 1}")
        loss_start += -float(np.log(dist.start_probs[s]))
        loss_end += -float(np.log(dist.end_probs[e]))
    return 0.5 * loss_start + 0.5 * loss_end


def score_batch(
    params: ParameterSet,
    reps: np.ndarray,
    pairs: list[EncodedPair],
) -> tuple[list[list[PointerDistribution]], dict]:
    """Pointer distributions for every slot of every pair of a padded batch.

    `reps` is the (B, N, d) output of `forward_batch` on `pairs`: a pair's n+1
    candidates are its first rows, and each slot span a run of later rows.
    Slots are padded to the batch's most slots (M) and candidates to its most
    (C). Returns each pair's distributions over its own n+1 candidates, and
    the cache for the backward pass, whose "probs" holds the padded (B, M, C)
    start and end probabilities; padded candidates get probability 0.
    """
    batch = len(pairs)
    n_cands = [len(pair.sentence_pos) + 1 for pair in pairs]
    n_slots = [len(pair.slot_pos) for pair in pairs]
    n_cand, n_slot = max(n_cands), max(n_slots)
    spans = np.zeros((2, batch, n_slot), dtype=np.intp)  # each slot's first and last read row
    for b, pair in enumerate(pairs):
        spans[:, b, : n_slots[b]] = np.searchsorted(pair.read_rows, pair.slot_pos).T
    span_lo, span_hi = spans
    cand_ok = np.arange(n_cand) < np.array(n_cands)[:, None]

    rows = reps[:, :n_cand]  # (B, C, d); rows past a pair's candidates get probability 0
    # maxpool over each slot span, padded to the widest span by repeating
    # its last row
    width = int((span_hi - span_lo).max(initial=0)) + 1
    span_rows = np.minimum(span_lo[..., None] + np.arange(width), span_hi[..., None])
    pooled = reps[np.arange(batch)[:, None, None], span_rows]  # (B, M, W, d)
    queries = pooled.max(axis=2)

    cand_bias = np.where(cand_ok, 0.0, -np.inf).astype(reps.dtype)[:, None, :]
    z, probs = [], []
    for name in ("pointer.w_start", "pointer.w_end"):
        z.append(queries @ params[name].T)  # (B, M, d): w @ q for every slot
        probs.append(_softmax(z[-1] @ rows.transpose(0, 2, 1) + cand_bias))  # (B, M, C)
    distributions = [
        [
            PointerDistribution(fe, probs[0][b, m, : n_cands[b]], probs[1][b, m, : n_cands[b]])
            for m, fe in enumerate(pair.slot_fes)
        ]
        for b, pair in enumerate(pairs)
    ]
    cache = {"n_rows": reps.shape[1], "n_cands": n_cands, "n_slots": n_slots, "rows": rows,
             "span_rows": span_rows, "pooled": pooled, "queries": queries, "z": z,
             "probs": probs}
    return distributions, cache


def batch_loss_and_gradients(
    params: FlatTensors,
    config: EncoderConfig,
    pairs: list[EncodedPair],
    labels: list[list[SlotLabel]],
    out: FlatTensors | None = None,
) -> tuple[list[float], list[list[PointerDistribution]], FlatTensors]:
    """Forward and backward for a mini-batch: `forward_batch`, `score_batch`, backward.

    Returns each pair's loss and pointer distributions, and exact gradients
    of the summed loss for every parameter (encoder, embeddings, and both
    pointer matrices) as the `FlatTensors` of `backward_from_cache`, written
    into `out` if given. Padded slots get zero loss.
    """
    if len(pairs) != len(labels):
        raise ValueError(f"{len(pairs)} pairs vs {len(labels)} label lists")
    reps, cache = forward_batch(params, config, pairs)
    distributions, scores = score_batch(params, reps, pairs)
    batch, _, d = reps.shape
    n_cands, n_slots = scores["n_cands"], scores["n_slots"]
    rows, queries = scores["rows"], scores["queries"]
    n_cand, n_slot = rows.shape[1], queries.shape[1]
    gold = np.zeros((2, batch, n_slot), dtype=np.intp)
    for b, pair_labels in enumerate(labels):
        if len(pair_labels) != n_slots[b]:
            raise ValueError(f"{n_slots[b]} distributions vs {len(pair_labels)} labels")
        for s, e in pair_labels:
            if not (0 <= s < n_cands[b] and 0 <= e < n_cands[b]):
                raise ValueError(f"label ({s}, {e}) outside 0..{n_cands[b] - 1}")
        if n_slots[b]:
            gold[:, b, : n_slots[b]] = np.array(pair_labels).T
    slot_ok = np.arange(n_slot) < np.array(n_slots)[:, None]

    d_rows = np.zeros_like(rows)
    d_queries = np.zeros_like(queries)
    dz = {}
    nll = []
    for name, head_gold, z, head_probs in zip(
        ("pointer.w_start", "pointer.w_end"), gold, scores["z"], scores["probs"]
    ):
        p_gold = np.take_along_axis(head_probs, head_gold[..., None], axis=2)[..., 0]
        nll.append(-np.log(np.where(slot_ok, p_gold, 1.0)).astype(np.float64))
        # loss contribution 0.5 * -log softmax(rows @ (w @ q))[gold]
        dlogits = 0.5 * (head_probs - (np.arange(n_cand) == head_gold[..., None]))
        dlogits *= slot_ok[..., None]
        d_rows += dlogits.transpose(0, 2, 1) @ z
        dz[name] = dlogits @ rows
        d_queries += dz[name] @ params[name]

    grads = backward_from_cache(params, config, cache, _reps_grad(scores, d_rows, d_queries), out)
    for name, head_dz in dz.items():
        np.matmul(head_dz.reshape(-1, d).T, queries.reshape(-1, d), out=grads[name])

    losses = [0.5 * float(nll[0][b].sum()) + 0.5 * float(nll[1][b].sum()) for b in range(batch)]
    return losses, distributions, grads


def _reps_grad(scores: dict, d_rows: np.ndarray, d_queries: np.ndarray):
    """d loss / d reps (B, N, d) from the gradients of the candidate rows and slot queries.

    Each slot query's gradient goes to the first span row attaining the
    maxpool maximum: `np.add.at` into zeros, done as one batched matmul of a
    one-hot (B, N, M*W) matrix with the pooled span rows. The candidates are
    each pair's first rows, so their gradients are then added in place.
    """
    pooled = scores["pooled"]  # (B, M, W, d)
    batch, d = pooled.shape[0], pooled.shape[3]
    first_max = pooled.argmax(axis=2)[:, :, None] == np.arange(pooled.shape[2])[:, None]
    d_pooled = (first_max * d_queries[:, :, None]).reshape(batch, -1, d)
    index = scores["span_rows"].reshape(batch, 1, -1)
    one_hot = (np.arange(scores["n_rows"])[:, None] == index).astype(d_pooled.dtype)
    d_reps = one_hot @ d_pooled
    d_reps[:, : d_rows.shape[1]] += d_rows
    return d_reps


def loss_and_gradients(
    params: ParameterSet,
    config: EncoderConfig,
    pair: EncodedPair,
    labels: list[SlotLabel],
) -> tuple[float, list[PointerDistribution], FlatTensors]:
    """`batch_loss_and_gradients` of the single pair, kept for the tests and the tracer."""
    [loss], [distributions], grads = batch_loss_and_gradients(params, config, [pair], [labels])
    return loss, distributions, grads
