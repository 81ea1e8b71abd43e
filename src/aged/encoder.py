"""A compact transformer encoder with hand-written forward and backward passes.

Pre-normalization blocks, learned absolute position embeddings, learned
two-way segment embeddings (sentence vs. definition), GELU feed-forward.
Full bidirectional self-attention runs over the whole assembled pair, so
sentence tokens and definition slots contextualize each other. A
mini-batch runs as one pass padded to its longest pair, with a key-padding
mask on the attention scores; a single pair is a batch of one. Gradients
are exact reverse-mode and are validated against central finite differences
in the test suite.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .encoding import EncodedPair, Vocabulary
from .templates import MarkerOptions, TemplateMode

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# `_attention` skips the row max while no score exceeds _MAX_UNSHIFTED_SCORE
# (exp(30) times a row of max_len keys stays far below the f32 maximum, and
# 1 / rowsum stays a normal number) and no row sum of exp(s) falls below
# _MIN_UNSHIFTED_SUM
_MAX_UNSHIFTED_SCORE = 30.0
_MIN_UNSHIFTED_SUM = 1e-20

DTYPES = {"f32": np.float32, "f64": np.float64}

ParameterSet = dict[str, np.ndarray]


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0  # 0 means 4 * d_model
    max_len: int = 256
    seed: int = 0
    dtype: str = "f32"

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is not a size
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if type(self.dtype) is not str or self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(doc: dict) -> "EncoderConfig":
        """The inverse of `to_json`; an unknown or missing key raises ValueError naming it."""
        names = [f.name for f in fields(EncoderConfig)]
        for key in doc:
            if key not in names:
                raise ValueError(f"checkpoint config key '{key}' is unknown: the checkpoint was "
                                 "saved by another version of aged; retrain the model")
        for name in names:
            if name not in doc:
                raise ValueError(f"checkpoint config is missing key '{name}'")
        return EncoderConfig(**doc)


class FlatGradients(dict):
    """Parameter gradients, zeroed, as views in `params` order of one array `flat`.

    Scaling `flat` scales every gradient at once. Write a gradient into its
    view (`out=`, `+=`); assigning a new array would detach it from `flat`.
    """

    def __init__(self, params: ParameterSet):
        super().__init__()
        self.flat = np.zeros(
            sum(p.size for p in params.values()), np.result_type(*params.values())
        )
        offset = 0
        for name, p in params.items():
            self[name] = self.flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size


@dataclass
class ContextualEncoding:
    """Per-position representations for one assembled pair, shape (len, d_model)."""

    reps: np.ndarray


def parameter_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every tensor, in parameter order.

    The pointer matrices live here too so one parameter set covers the whole
    trainable model.
    """
    d, ff = config.d_model, config.d_ff
    shapes = {"tok_emb": (config.vocab_size, d), "pos_emb": (config.max_len, d), "seg_emb": (2, d)}
    for i in range(config.n_layers):
        p = f"layer{i}."
        shapes[p + "ln1.gain"] = shapes[p + "ln1.bias"] = (d,)
        for nm in ("w_q", "w_k", "w_v", "w_o"):
            shapes[p + "attn." + nm] = (d, d)
        # no key bias: it shifts every score in a softmax row equally, so its
        # gradient is identically zero
        for nm in ("b_q", "b_v", "b_o"):
            shapes[p + "attn." + nm] = (d,)
        shapes[p + "ln2.gain"] = shapes[p + "ln2.bias"] = (d,)
        shapes[p + "ffn.w1"], shapes[p + "ffn.b1"] = (d, ff), (ff,)
        shapes[p + "ffn.w2"], shapes[p + "ffn.b2"] = (ff, d), (d,)
    shapes["final_ln.gain"] = shapes["final_ln.bias"] = (d,)
    shapes["pointer.w_start"] = shapes["pointer.w_end"] = (d, d)
    return shapes


def init_parameters(config: EncoderConfig) -> ParameterSet:
    """Allocate the `parameter_shapes` tensors, deterministically in the config seed.

    Embeddings are uniform in +-1/sqrt(d), weight matrices Glorot-uniform,
    normalization gains 1 and all biases 0, drawn in parameter order.
    """
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / math.sqrt(config.d_model)
    params: ParameterSet = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith("_emb"):
            tensor = rng.uniform(-scale, scale, shape)
        elif len(shape) == 2:
            limit = math.sqrt(6.0 / sum(shape))  # fan_in + fan_out
            tensor = rng.uniform(-limit, limit, shape)
        else:
            tensor = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[name] = tensor.astype(config.np_dtype)
    return params


@functools.cache
def _column(n: int, dtype: np.dtype, value: float = 1.0) -> np.ndarray:
    """A read-only (n, 1) column filled with `value`, made once per (n, dtype, value).

    Row sums and means are matmuls with it (`x @ column`), and column sums
    matmuls with its transpose: one BLAS call instead of a ufunc reduction
    that pays numpy's per-row overhead on these short rows.
    """
    col = np.full((n, 1), value, dtype)
    col.flags.writeable = False
    return col


def _row_sums(x):
    """Sums over the last axis, keeping it: `x @ ones`."""
    return x @ _column(x.shape[-1], x.dtype)


def _column_sums(x, out):
    """Sums of a 2-D `x` over its rows, written into the 1-D `out`: `ones.T @ x`."""
    np.matmul(_column(x.shape[0], x.dtype).T, x, out=out[None])


def _row_means(x):
    """Means over the last axis, keeping it: `x @ (ones / d)`."""
    d = x.shape[-1]
    return x @ _column(d, x.dtype, 1.0 / d)


# The kernels below run the plain formula of their comment or docstring op
# for op, in the same order, on as few buffers as they can, with every sum and
# mean taken by the helpers above; the tests check them bitwise against those
# formulas.


def _layer_norm(x, gain, bias):
    # xc = x - mean(x); inv = 1 / sqrt(mean(xc * xc) + eps); xhat = xc * inv
    # y = xhat * gain + bias
    xhat = x - _row_means(x)
    y = xhat * xhat
    inv = _row_means(y)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, (xhat, inv)


def _layer_norm_backward(dy, cache, gain, dgain, dbias):
    """dx of the layer norm; writes d gain and d bias into `dgain` and `dbias`.

    dgain = sum_rows(dy * xhat); dbias = sum_rows(dy); dxhat = dy * gain
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
    """
    xhat, inv = cache
    tmp = dy * xhat
    _column_sums(tmp, dgain)
    _column_sums(dy, dbias)
    dx = dy * gain
    m1 = _row_means(dx)
    np.multiply(dx, xhat, out=tmp)
    m2 = _row_means(tmp)
    dx -= m1
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _gelu(x):
    # t = tanh(C * (x + A * (x * x * x))); y = 0.5 * x * (1 + t)
    # products, not x**3: numpy's pow is far slower on negative entries
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.multiply(x, 0.5)
    y *= np.add(t, 1.0)
    return y, t


def _gelu_backward(dy, x, t):
    """d gelu(x) given dy, written into `dy`:

    du = C * (1 + 3A * (x * x))
    dx = dy * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du)
    """
    a = t * t
    np.subtract(1.0, a, out=a)
    b = np.multiply(x, 0.5)
    b *= a
    np.multiply(x, x, out=a)
    a *= 3.0 * _GELU_A
    a += 1.0
    a *= _GELU_C
    b *= a
    np.add(t, 1.0, out=a)
    a *= 0.5
    a += b
    dy *= a
    return dy


def _softmax(x):
    """Softmax over the last axis, computed in `x` (callers pass fresh logits).

    e = exp(x - max(x)); e / sum(e)
    """
    x /= _exp_rows(x, True)
    return x


def _scores(qh, kh, key_bias):
    """The attention scores qh @ kh^T + key_bias, laid out key-major.

    They are computed as the transpose of kh @ qh^T, so a row max runs
    across whole memory rows: numpy's maximum reduction is about twice as
    fast that way as along each short row.
    """
    s = (kh @ qh.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    if key_bias is not None:
        s += key_bias
    return s


def _exp_rows(s, shift):
    """exp(s - max(s)) over each row if `shift`, else exp(s), in `s`; returns the row sums."""
    if shift:
        s -= np.maximum.reduce(s, axis=-1, keepdims=True)
    np.exp(s, out=s)
    return _row_sums(s)


def _attention(qh, kh, vh, key_bias):
    """Context of softmax(qh kh^T + key_bias) vh, normalized after the product.

    e = exp(s) for the scores s = qh @ kh^T + key_bias, and
    ctx = (e @ vh) * inv_sum with inv_sum = 1 / sum(e): the (L, dh) context
    is scaled instead of the (L, L) probabilities. Queries come pre-scaled
    by 1/sqrt(dh). Returns ctx, e and inv_sum, the last two for
    `_attention_backward`.

    Softmax does not change when a row is shifted, so the exact row max is
    subtracted only when it is needed. If any score exceeds
    `_MAX_UNSHIFTED_SCORE`, e = exp(s - max(s)) row by row. Otherwise
    e = exp(s) cannot overflow, and if a row sum falls below
    `_MIN_UNSHIFTED_SUM` (exp underflow would cost precision, or give
    1 / 0), the scores are computed again and shifted.
    """
    e = _scores(qh, kh, key_bias)
    shift = bool(e.max() > _MAX_UNSHIFTED_SCORE)
    inv_sum = _exp_rows(e, shift)
    if not shift and inv_sum.min() < _MIN_UNSHIFTED_SUM:
        e = _scores(qh, kh, key_bias)
        inv_sum = _exp_rows(e, True)
    np.divide(1.0, inv_sum, out=inv_sum)
    ctx = e @ vh
    ctx *= inv_sum
    return ctx, e, inv_sum


def _attention_backward(dctx, qh, kh, vh, e, inv_sum):
    """d qh, d kh and d vh of `_attention`, given d ctx (scaled in place).

    With p = e * inv_sum and x = (dctx * inv_sum) @ vh^T = inv_sum * (dctx @ vh^T),
    d scores = p * (dctx @ vh^T - sum(dctx @ vh^T * p)) = e * (x - sum(x * e) * inv_sum).
    """
    dctx *= inv_sum
    dvh = e.transpose(0, 1, 3, 2) @ dctx
    dscores = (vh @ dctx.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)  # e's layout
    dscores -= _row_sums(dscores * e) * inv_sum
    dscores *= e
    return dscores @ kh, dscores.transpose(0, 1, 3, 2) @ qh, dvh


def _embedding_grad(index, dx, out):
    """Writes into the zeroed (V, d) `out` the sums of the rows of `dx` by `index`:
    a one-hot matmul over the ids that occur, not all V of them."""
    present = np.zeros(len(out), bool)
    present[index] = True
    used = np.flatnonzero(present)
    rank = np.cumsum(present) - 1
    one_hot = np.zeros((len(used), len(index)), dx.dtype)
    one_hot[rank[index], np.arange(len(index))] = 1
    out[used] = one_hot @ dx


def _split_heads(x: np.ndarray, batch: int, n_heads: int) -> np.ndarray:
    """(B*L, d) rows -> (B, H, L, dh)."""
    rows, d = x.shape
    return x.reshape(batch, rows // batch, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(B, H, L, dh) -> (B*L, d) rows."""
    batch, n_heads, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(batch * length, n_heads * dh)


def forward_batch(
    params: ParameterSet,
    config: EncoderConfig,
    pairs: list[EncodedPair],
) -> tuple[np.ndarray, dict]:
    """One forward pass over a mini-batch padded to its longest pair.

    Returns reps of shape (B, L, d_model) and the cache for
    `backward_from_cache`. A key-padding mask gives padded positions zero
    attention probability, so each pair's rows equal its unpadded encoding;
    rows past a pair's length are padding and carry no meaning. Training and
    prediction run this same pass.
    """
    lengths = np.array([len(pair.ids) for pair in pairs])
    batch, length = len(pairs), int(lengths.max())
    if length > config.max_len:
        raise ValueError(f"input length {length} exceeds max_len {config.max_len}")
    ids = np.zeros((batch, length), dtype=np.intp)
    segments = np.zeros((batch, length), dtype=np.intp)
    for b, pair in enumerate(pairs):
        ids[b, : lengths[b]] = pair.ids
        segments[b, : lengths[b]] = pair.segment
    if ids.max() >= config.vocab_size:
        raise ValueError(f"token id {int(ids.max())} out of range for vocab_size {config.vocab_size}")
    valid = np.arange(length) < lengths[:, None]
    d = config.d_model

    x = params["tok_emb"][ids]
    x += params["pos_emb"][:length]
    x += params["seg_emb"][segments]
    x = x.reshape(batch * length, d)
    key_bias = None
    if not valid.all():
        key_bias = np.where(valid, 0.0, -np.inf).astype(x.dtype)[:, None, None, :]
    cache: dict = {"ids": ids, "segments": segments, "valid": valid,
                   "shape": (batch, length, d), "layers": []}
    dh = d // config.n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    for i in range(config.n_layers):
        p = f"layer{i}."
        lc: dict = {}
        a, lc["ln1"] = _layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        q = a @ params[p + "attn.w_q"]
        q += params[p + "attn.b_q"]
        q *= inv_sqrt_dh
        k = a @ params[p + "attn.w_k"]
        v = a @ params[p + "attn.w_v"]
        v += params[p + "attn.b_v"]
        qh, kh, vh = (_split_heads(m, batch, config.n_heads) for m in (q, k, v))
        ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
        ctx = _merge_heads(ctx)
        x1 = ctx @ params[p + "attn.w_o"]
        x1 += params[p + "attn.b_o"]
        x1 += x  # x1 = x + o
        a2, lc["ln2"] = _layer_norm(x1, params[p + "ln2.gain"], params[p + "ln2.bias"])
        h1 = a2 @ params[p + "ffn.w1"]
        h1 += params[p + "ffn.b1"]
        g, t = _gelu(h1)
        x = g @ params[p + "ffn.w2"]
        x += params[p + "ffn.b2"]
        x += x1  # x = x1 + f
        lc.update(a=a, qh=qh, kh=kh, vh=vh, e=e, inv_sum=inv_sum, ctx=ctx, a2=a2, h1=h1, t=t,
                  g=g)
        cache["layers"].append(lc)

    reps, cache["final_ln"] = _layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    return reps.reshape(batch, length, d), cache


def forward_cached(
    params: ParameterSet,
    config: EncoderConfig,
    pair: EncodedPair,
) -> tuple[ContextualEncoding, dict]:
    """`forward_batch` of the single pair; reps have shape (len, d_model).

    Kept for the tests and the per-layer benchmark tracer.
    """
    reps, cache = forward_batch(params, config, [pair])
    return ContextualEncoding(reps[0]), cache


def forward(params: ParameterSet, config: EncoderConfig, pair: EncodedPair) -> ContextualEncoding:
    """Contextual representations for every assembled position; the per-pair reference."""
    encoding, _ = forward_cached(params, config, pair)
    return encoding


def backward_from_cache(
    params: ParameterSet,
    config: EncoderConfig,
    cache: dict,
    d_reps: np.ndarray,
) -> FlatGradients:
    """Exact gradients of every parameter given d(loss)/d(reps), summed over the batch.

    `d_reps` has the (B, L, d_model) shape of the batch's reps; any other
    shape raises ValueError, even one of the same size. Rows past a pair's
    length are padding and get zero gradient.
    """
    batch, length, d = cache["shape"]
    if d_reps.shape != (batch, length, d):
        raise ValueError(
            f"upstream gradient shape {d_reps.shape} does not match "
            f"output shape {(batch, length, d)}"
        )
    grads = FlatGradients(params)
    dh = d // config.n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    d_reps = d_reps * cache["valid"][..., None]

    dx = _layer_norm_backward(
        d_reps.reshape(batch * length, d), cache["final_ln"], params["final_ln.gain"],
        grads["final_ln.gain"], grads["final_ln.bias"],
    )

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        lc = cache["layers"][i]
        # x_out = x1 + f, f = gelu(a2 @ w1 + b1) @ w2 + b2, a2 = LN2(x1)
        np.matmul(lc["g"].T, dx, out=grads[p + "ffn.w2"])
        _column_sums(dx, grads[p + "ffn.b2"])
        dh1 = _gelu_backward(dx @ params[p + "ffn.w2"].T, lc["h1"], lc["t"])
        np.matmul(lc["a2"].T, dh1, out=grads[p + "ffn.w1"])
        _column_sums(dh1, grads[p + "ffn.b1"])
        dx1 = _layer_norm_backward(
            dh1 @ params[p + "ffn.w1"].T, lc["ln2"], params[p + "ln2.gain"],
            grads[p + "ln2.gain"], grads[p + "ln2.bias"],
        )
        dx1 += dx  # dx1 = dx + d LN2
        # x1 = x_in + o, o = merge(softmax(q k^T / sqrt(dh) + key_bias) v) @ w_o + b_o
        np.matmul(lc["ctx"].T, dx1, out=grads[p + "attn.w_o"])
        _column_sums(dx1, grads[p + "attn.b_o"])
        dctx = _split_heads(dx1 @ params[p + "attn.w_o"].T, batch, config.n_heads)
        dqh, dkh, dvh = _attention_backward(
            dctx, lc["qh"], lc["kh"], lc["vh"], lc["e"], lc["inv_sum"]
        )
        dq, dk, dv = _merge_heads(dqh), _merge_heads(dkh), _merge_heads(dvh)
        dq *= inv_sqrt_dh  # the queries were scaled by 1/sqrt(dh) before the scores
        a = lc["a"]
        np.matmul(a.T, dq, out=grads[p + "attn.w_q"])
        _column_sums(dq, grads[p + "attn.b_q"])
        np.matmul(a.T, dk, out=grads[p + "attn.w_k"])
        np.matmul(a.T, dv, out=grads[p + "attn.w_v"])
        _column_sums(dv, grads[p + "attn.b_v"])
        da = dq @ params[p + "attn.w_q"].T
        da += dk @ params[p + "attn.w_k"].T
        da += dv @ params[p + "attn.w_v"].T
        dx = _layer_norm_backward(
            da, lc["ln1"], params[p + "ln1.gain"], grads[p + "ln1.gain"], grads[p + "ln1.bias"]
        )
        dx += dx1  # dx = dx1 + d LN1

    _embedding_grad(cache["ids"].ravel(), dx, grads["tok_emb"])
    grads["pos_emb"][:length] += dx.reshape(batch, length, d).sum(axis=0)
    _embedding_grad(cache["segments"].ravel(), dx, grads["seg_emb"])
    return grads


@dataclass
class Checkpoint:
    """The whole model: encoder and pointer-head parameters, the config that
    shaped them, and the vocabulary and query templates they were trained on."""

    config: EncoderConfig
    params: ParameterSet
    vocab: Vocabulary
    mode: TemplateMode
    markers: MarkerOptions

    def copy(self) -> "Checkpoint":
        return replace(self, params={k: v.copy() for k, v in self.params.items()})


CHECKPOINT_FORMAT = 1
_CHECKPOINT_KEYS = ("format", "config", "vocab", "mode", "markers", "params")
_QUERY_MODES = (TemplateMode.FRAME_DEF.value, TemplateMode.QUESTION.value)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Single JSON document; each tensor's `data` is base64 of its row-major
    little-endian bytes in the config dtype, so values round-trip bitwise."""
    dtype = _wire_dtype(ckpt.config)
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": ckpt.config.to_json(),
        "vocab": ckpt.vocab.tokens,
        "mode": ckpt.mode.value,
        "markers": asdict(ckpt.markers),
        "params": {
            name: {
                "shape": list(t.shape),
                "data": base64.b64encode(t.astype(dtype, copy=False).tobytes()).decode("ascii"),
            }
            for name, t in ckpt.params.items()
        },
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a `save_checkpoint` file.

    A missing or unknown top-level key, a `format` other than 1, a malformed
    config (see `EncoderConfig.from_json`), a vocabulary that is not a valid
    `Vocabulary` of `vocab_size` tokens, a mode that is not a query mode,
    markers that are not exactly the `MarkerOptions` fields as booleans, a
    tensor that is not among the config's `parameter_shapes` or is missing
    from the file, and a misshapen, malformed or non-finite tensor raise
    ValueError naming the key or tensor.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError("checkpoint must be a JSON object")
    for key in (*_CHECKPOINT_KEYS, *doc):
        if (key in doc) != (key in _CHECKPOINT_KEYS):
            state = "unknown" if key in doc else "missing"
            raise ValueError(f"checkpoint key '{key}' is {state}: the checkpoint was saved by "
                             "another version of aged; retrain the model")
    if type(doc["format"]) is not int or doc["format"] != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint 'format' is {doc['format']!r}; this version of aged "
                         f"reads format {CHECKPOINT_FORMAT}")
    for key in ("config", "params", "markers"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"checkpoint '{key}' is not a JSON object")
    config = EncoderConfig.from_json(doc["config"])
    tokens = doc["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("checkpoint 'vocab' must be a list of strings")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as e:
        raise ValueError(f"checkpoint 'vocab': {e}") from None
    if len(vocab) != config.vocab_size:
        raise ValueError(f"checkpoint 'vocab' has {len(vocab)} tokens, "
                         f"but config vocab_size is {config.vocab_size}")
    if doc["mode"] not in _QUERY_MODES:
        raise ValueError(f"checkpoint 'mode' must be one of {list(_QUERY_MODES)}, "
                         f"got {doc['mode']!r}")
    markers = doc["markers"]
    names = [f.name for f in fields(MarkerOptions)]
    if set(markers) != set(names) or any(type(v) is not bool for v in markers.values()):
        raise ValueError(f"checkpoint 'markers' must hold exactly {names} as booleans, "
                         f"got {json.dumps(markers)}")
    shapes, specs = parameter_shapes(config), doc["params"]
    if specs.keys() != shapes.keys():
        raise ValueError(f"checkpoint tensors missing: {sorted(shapes.keys() - specs.keys())}; "
                         f"not in this config: {sorted(specs.keys() - shapes.keys())}")
    dtype = _wire_dtype(config)
    params = {}
    for name, shape in shapes.items():
        spec = specs[name] if isinstance(specs[name], dict) else {}
        if spec.get("shape") != list(shape):
            raise ValueError(
                f"checkpoint tensor '{name}': shape {spec.get('shape')}, "
                f"expected {list(shape)} for this config"
            )
        data = spec.get("data")
        if not isinstance(data, str):
            raise ValueError(
                f"checkpoint tensor '{name}': data must be a base64 string, "
                f"got {type(data).__name__} (decimal-list checkpoints are not read)"
            )
        try:
            raw = base64.b64decode(data, validate=True)
        except binascii.Error as e:
            raise ValueError(
                f"checkpoint tensor '{name}': data is not valid base64 ({e})"
            ) from None
        expected = math.prod(shape) * dtype.itemsize
        if len(raw) != expected:
            raise ValueError(
                f"checkpoint tensor '{name}': {len(raw)} bytes, expected {expected} "
                f"for shape {list(shape)} in {config.dtype}"
            )
        # astype copies, so the parameters are writable and in native byte order
        params[name] = np.frombuffer(raw, dtype=dtype).reshape(shape).astype(config.np_dtype)
        if not np.isfinite(params[name]).all():
            raise ValueError(f"checkpoint tensor '{name}': holds NaN or infinite values")
    return Checkpoint(config, params, vocab, TemplateMode(doc["mode"]), MarkerOptions(**markers))


def _wire_dtype(config: EncoderConfig) -> np.dtype:
    return np.dtype(config.np_dtype).newbyteorder("<")
