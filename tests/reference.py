"""An independent f64 reference of the model, for the tests.

It encodes one pair at a time with the textbook formulas: full L x L softmax
attention, split into heads by column slices, at every row of every layer.
There is no padding, key mask, read-row pruning, attention chunking, deferred
softmax normalization or flat-buffer view, so `forward_batch` can be checked
against something that shares none of its shortcuts. `distributions` and
`loss` score the pair one slot and one pointer head at a time, and
`decode_slot` decodes one slot on its own, so `score_batch`,
`batch_loss_and_gradients` and the library's decoder are checked against
code they do not share.
"""

from __future__ import annotations

import math

import numpy as np

from aged.encoder import LN_EPS, EncoderConfig
from aged.encoding import EncodedPair, SlotLabel
from aged.pointer import PointerDistribution


def layer_norm(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gain + bias


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def encode(params, config: EncoderConfig, pair: EncodedPair) -> np.ndarray:
    """The final-norm output at every position of `pair`, (len, d_model), in f64."""
    p = {name: np.array(tensor, dtype=np.float64) for name, tensor in params.items()}
    ids = np.array(pair.ids)
    length = len(ids)
    segments = (np.arange(length) >= pair.definition_start).astype(int)
    x = p["tok_emb"][ids] + p["pos_emb"][:length] + p["seg_emb"][segments]
    dh = config.d_model // config.n_heads
    for i in range(config.n_layers):
        w = {name[len(f"layer{i}.") :]: t for name, t in p.items() if name.startswith(f"layer{i}.")}
        a = layer_norm(x, w["ln1.gain"], w["ln1.bias"])
        q = a @ w["attn.w_q"] + w["attn.b_q"]
        k = a @ w["attn.w_k"]
        v = a @ w["attn.w_v"] + w["attn.b_v"]
        heads = []
        for h in range(config.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            heads.append(softmax(q[:, cols] @ k[:, cols].T / math.sqrt(dh)) @ v[:, cols])
        x = x + np.concatenate(heads, axis=1) @ w["attn.w_o"] + w["attn.b_o"]
        hidden = gelu(layer_norm(x, w["ln2.gain"], w["ln2.bias"]) @ w["ffn.w1"] + w["ffn.b1"])
        x = x + hidden @ w["ffn.w2"] + w["ffn.b2"]
    return layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])


def make_queries(reps: np.ndarray, pair: EncodedPair) -> np.ndarray:
    """Maxpool each slot's rows of `reps` (mention tokens only, no markers).

    Returns one row per slot, in `pair.slot_fes` order.
    """
    return np.array([reps[start : end + 1].max(axis=0) for start, end in pair.slot_pos])


def slot_loss(distributions: list[PointerDistribution], labels: list[SlotLabel]) -> float:
    """Cross entropy summed over slots: 0.5 * sum(-log p_start) + 0.5 * sum(-log p_end)."""
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


def distributions(params, config: EncoderConfig, pair: EncodedPair) -> list[PointerDistribution]:
    """Each slot's start and end softmax over [CLS] and the sentence rows of `encode`."""
    reps = encode(params, config, pair)
    rows = reps[[0, *pair.sentence_pos]]
    w_start, w_end = (np.array(params[name], dtype=np.float64)
                      for name in ("pointer.w_start", "pointer.w_end"))
    return [PointerDistribution(fe, softmax(rows @ (w_start @ q)), softmax(rows @ (w_end @ q)))
            for fe, q in zip(pair.slot_fes, make_queries(reps, pair))]


def loss(params, config: EncoderConfig, pair: EncodedPair, labels: list[SlotLabel]) -> float:
    """The pair's training loss: `slot_loss` of its `distributions`."""
    return slot_loss(distributions(params, config, pair), labels)


def decode_slot(start_probs, end_probs) -> tuple[tuple[int, int] | None, float]:
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
