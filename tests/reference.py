"""An independent f64 reference of the encoder, for the tests.

It encodes one pair at a time with the textbook formulas: full L x L softmax
attention, split into heads by column slices, at every row of every layer.
There is no padding, key mask, read-row pruning, attention chunking, deferred
softmax normalization or flat-buffer view, so `forward_batch` can be checked
against something that shares none of its shortcuts.
"""

from __future__ import annotations

import math

import numpy as np

from aged.encoder import LN_EPS, EncoderConfig
from aged.encoding import EncodedPair


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
