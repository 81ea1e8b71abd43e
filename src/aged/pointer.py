"""Slot queries and span pointer heads.

Each template slot becomes a query vector by elementwise-maxpooling its
contextual rows. Two weight matrices project the query and score it against
the [CLS] row plus the n sentence rows, giving softmax distributions over
the n+1 candidate start and end positions. Position 0 means "no argument".
Cross-entropy on gold starts and ends, equally weighted, is the training
loss.

`score_batch` scores every slot of a padded batch at once, both heads in
one stacked pass; training and prediction both call it, and
`batch_loss_and_gradients` differentiates it. `pointer_distributions` and
`loss_and_gradients` score one pair; only the tests and the benchmark
tracer call them.
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


def pointer_distributions(
    params: ParameterSet,
    reps: np.ndarray,
    pair: EncodedPair,
    queries: np.ndarray,
) -> list[PointerDistribution]:
    """Score every candidate position for every slot's query, softmax-normalized.

    `queries` holds one row per slot, in `pair.slot_fes` order. Kept for the
    tests and the tracer.
    """
    rows = reps[[0, *pair.sentence_pos]]  # [CLS] + sentence
    w_start, w_end = params["pointer.w_start"], params["pointer.w_end"]
    out = []
    for fe, q in zip(pair.slot_fes, queries):
        start_probs = _softmax(rows @ (w_start @ q))
        end_probs = _softmax(rows @ (w_end @ q))
        out.append(PointerDistribution(fe, start_probs, end_probs))
    return out


def score_batch(
    params: FlatTensors,
    reps: np.ndarray,
    pairs: list[EncodedPair],
) -> tuple[np.ndarray, dict]:
    """Start and end probabilities for every slot of every pair of a padded batch.

    `reps` is the (B, N, d) output of `forward_batch` on `pairs`: a pair's n+1
    candidates are its first rows, and each slot span a run of later rows.
    Slots are padded to the batch's most slots (M) and candidates to its most
    (C). Returns the padded (2, B, M, C) probabilities, start head first,
    and the cache for the backward pass. Padded candidates get probability 0;
    padded slots hold probabilities that nothing reads. Both heads run as
    one stacked chain of matmuls and softmaxes.
    """
    batch = len(pairs)
    n_cands = np.array([len(pair.sentence_pos) + 1 for pair in pairs])
    n_slots = np.array([len(pair.slot_pos) for pair in pairs])
    n_cand, n_slot = int(n_cands.max()), int(n_slots.max())
    slot_ok = np.arange(n_slot) < n_slots[:, None]
    spans = np.zeros((2, batch, n_slot), dtype=np.intp)  # each slot's first and last read row
    spans[:, slot_ok] = np.concatenate([pair.slot_rows for pair in pairs]).T
    span_lo, span_hi = spans
    cand_ok = np.arange(n_cand) < n_cands[:, None]

    rows = reps[:, :n_cand]  # (B, C, d); rows past a pair's candidates get probability 0
    # maxpool over each slot span, padded to the widest span by repeating
    # its last row
    width = int((span_hi - span_lo).max(initial=0)) + 1
    span_rows = np.minimum(span_lo[..., None] + np.arange(width), span_hi[..., None])
    pooled = reps[np.arange(batch)[:, None, None], span_rows]  # (B, M, W, d)
    queries = pooled.max(axis=2)

    cand_bias = np.where(cand_ok, 0.0, -np.inf).astype(reps.dtype)[:, None, :]
    heads = _head_pair(params)  # (2, d, d)
    z = queries @ heads[:, None].transpose(0, 1, 3, 2)  # (2, B, M, d): w @ q for every slot
    probs = _softmax(z @ rows.transpose(0, 2, 1) + cand_bias)  # (2, B, M, C)
    cache = {"n_rows": reps.shape[1], "n_cands": n_cands, "slot_ok": slot_ok, "rows": rows,
             "span_rows": span_rows, "pooled": pooled, "queries": queries, "heads": heads,
             "z": z}
    return probs, cache


def _head_pair(tensors: FlatTensors) -> np.ndarray:
    """`pointer.w_start` and `pointer.w_end` as one (2, d, d) view of `flat`.

    `parameter_shapes` ends with the two, so a write into the view writes both.
    """
    start = tensors["pointer.w_start"]
    return tensors.flat[-2 * start.size :].reshape(2, *start.shape)


def batch_loss_and_gradients(
    params: FlatTensors,
    config: EncoderConfig,
    pairs: list[EncodedPair],
    labels: list[list[SlotLabel]],
    out: FlatTensors | None = None,
) -> tuple[list[float], FlatTensors]:
    """Forward and backward for a mini-batch: `forward_batch`, `score_batch`, backward.

    Returns each pair's loss, and exact gradients of the summed loss for
    every parameter (encoder, embeddings, and both pointer matrices) as the
    `FlatTensors` of `backward_from_cache`, written into `out` if given.
    Padded slots get zero loss.
    """
    if len(pairs) != len(labels):
        raise ValueError(f"{len(pairs)} pairs vs {len(labels)} label lists")
    for pair, pair_labels in zip(pairs, labels):
        if len(pair_labels) != len(pair.slot_pos):
            raise ValueError(f"{len(pair.slot_pos)} distributions vs {len(pair_labels)} labels")
    reps, cache = forward_batch(params, config, pairs)
    probs, scores = score_batch(params, reps, pairs)
    d = reps.shape[2]
    slot_ok, rows, queries, z = scores["slot_ok"], scores["rows"], scores["queries"], scores["z"]
    # every real slot's (start, end) label, in pair and slot order
    flat = np.array([label for pair_labels in labels for label in pair_labels],
                    dtype=np.intp).reshape(-1, 2)
    n_cands = np.repeat(scores["n_cands"], slot_ok.sum(axis=1))
    bad = ((flat < 0) | (flat >= n_cands[:, None])).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"label {tuple(flat[i].tolist())} outside 0..{n_cands[i] - 1}")
    gold = np.zeros(probs.shape[:3], dtype=np.intp)  # (2, B, M), 0 at padded slots
    gold[:, slot_ok] = flat.T

    p_gold = np.take_along_axis(probs, gold[..., None], axis=3)[..., 0]
    nll = -np.log(np.where(slot_ok, p_gold, 1.0)).astype(np.float64)
    # loss contribution 0.5 * -log softmax(rows @ (w @ q))[gold] of each head
    dlogits = 0.5 * (probs - (np.arange(rows.shape[1]) == gold[..., None]))
    dlogits *= slot_ok[..., None]
    d_rows = dlogits.transpose(0, 1, 3, 2) @ z  # (2, B, C, d)
    dz = dlogits @ rows  # (2, B, M, d)
    d_queries = dz @ scores["heads"][:, None]
    d_reps = _reps_grad(scores, d_rows[0] + d_rows[1], d_queries[0] + d_queries[1])

    grads = backward_from_cache(params, config, cache, d_reps, out)
    np.matmul(dz.reshape(2, -1, d).transpose(0, 2, 1), queries.reshape(-1, d),
              out=_head_pair(grads))

    head_sums = nll.sum(axis=2)  # (2, B)
    losses = (0.5 * head_sums[0] + 0.5 * head_sums[1]).tolist()
    return losses, grads


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
    params: FlatTensors,
    config: EncoderConfig,
    pair: EncodedPair,
    labels: list[SlotLabel],
) -> tuple[float, list[PointerDistribution], FlatTensors]:
    """`batch_loss_and_gradients` of the single pair, with the pointer
    distributions `score_batch` gives it; kept for the tests and the tracer."""
    [loss], grads = batch_loss_and_gradients(params, config, [pair], [labels])
    reps, _ = forward_batch(params, config, [pair], backward=False)
    probs, _ = score_batch(params, reps, [pair])
    n_cand = len(pair.sentence_pos) + 1
    distributions = [PointerDistribution(fe, probs[0, 0, m, :n_cand], probs[1, 0, m, :n_cand])
                     for m, fe in enumerate(pair.slot_fes)]
    return loss, distributions, grads
