"""A compact transformer encoder with hand-written forward and backward passes.

Pre-normalization blocks, learned absolute position embeddings, learned
two-way segment embeddings (sentence vs. definition), GELU feed-forward.
Full bidirectional self-attention runs over the whole assembled pair, so
sentence tokens and definition slots contextualize each other. A
mini-batch runs as one pass padded to its longest pair, with a key-padding
mask on the attention scores; a single pair is a batch of one. The output
is read only at [CLS], the sentence tokens and the slot spans, so the last
layer attends from and transforms just those rows, and the output holds
only them: the pointer candidates first, padded per batch with 0 rows that
nothing reads. Every position stays a key and a value. Gradients are exact
reverse-mode, validated against central finite differences in the tests.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .encoding import EncodedPair, Vocabulary
from .templates import QUERY_MODES, MarkerOptions, TemplateMode

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# `_attention` skips the row max while no score exceeds _MAX_UNSHIFTED_SCORE
# (exp(30) times a row of max_len keys stays far below the f32 maximum, and
# 1 / rowsum stays a normal number) and no row sum of exp(s) falls below
# _MIN_UNSHIFTED_SUM; it checks each attention chunk on its own
_MAX_UNSHIFTED_SCORE = 30.0
_MIN_UNSHIFTED_SUM = 1e-20

# The most elements one activation array of a batch may hold: a prediction
# batch's feed-forward hidden rows (pairs x longest pair x d_ff), and one
# attention chunk's padded scores (pairs x heads x longest pair squared). At
# 2^17 an f32 array (512 KB) stays well inside a 2 MB per-core L2 cache.
ARRAY_BUDGET = 2**17

DTYPES = {"f32": np.float32, "f64": np.float64}

ParameterSet = dict[str, np.ndarray]


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process instead of returning it to the OS.

    By default glibc trims the freed top of the heap after each batch's
    large temporaries and serves blocks over 128 KiB with fresh mmaps, so
    every batch faults the same pages back in. Raising both thresholds keeps
    those pages mapped; the results are unchanged. `forward_batch` calls this
    once per process. Outside glibc there is no `mallopt` and this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, from <malloc.h>
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD


@dataclass
class EncoderConfig:
    """The shape, seed and dtype of the encoder; the vocabulary sizes its embedding.

    The seed draws the initial weights, and also orders training batches and
    samples k-shot instances, so a checkpoint records every seed of its run.
    """

    d_model: int = 32
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0  # 0 means 4 * d_model
    max_len: int = 256
    seed: int = 7
    dtype: str = "f32"

    def __post_init__(self):
        if self.d_ff == 0:
            self.d_ff = 4 * self.d_model
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is not a size
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if type(self.dtype) is not str or self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {sorted(DTYPES)}, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]


class FlatTensors(dict):
    """Named tensors as views, in `shapes` order, of one contiguous 1-D array `flat`.

    Parameters and gradients take this layout, in `parameter_shapes` order,
    so saving, loading, copying, scaling and the Adam update are each one
    operation on `flat`. Write into a view (`out=`, `+=`); assigning a new
    array would detach it from `flat`.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray):
        super().__init__()
        self.shapes, self.flat = shapes, flat
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self[name] = flat[offset : offset + size].reshape(shape)
            offset += size

    def copy(self) -> "FlatTensors":
        return FlatTensors(self.shapes, self.flat.copy())


def parameter_shapes(config: EncoderConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The name and shape of every tensor, in parameter order: `tok_emb` has
    a row per vocabulary token.

    The pointer matrices live here too so one parameter set covers the whole
    trainable model.
    """
    d, ff = config.d_model, config.d_ff
    shapes = {"tok_emb": (vocab_size, d), "pos_emb": (config.max_len, d), "seg_emb": (2, d)}
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


def init_parameters(config: EncoderConfig, vocab_size: int) -> FlatTensors:
    """Allocate the `parameter_shapes` tensors, deterministically in the config seed.

    Embeddings are uniform in +-1/sqrt(d), weight matrices Glorot-uniform,
    normalization gains 1 and all biases 0, drawn in parameter order.
    """
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / math.sqrt(config.d_model)
    shapes = parameter_shapes(config, vocab_size)
    params = FlatTensors(shapes, np.empty(sum(map(math.prod, shapes.values())), config.np_dtype))
    for name, shape in shapes.items():
        if name.endswith("_emb"):
            tensor = rng.uniform(-scale, scale, shape)
        elif len(shape) == 2:
            limit = math.sqrt(6.0 / sum(shape))  # fan_in + fan_out
            tensor = rng.uniform(-limit, limit, shape)
        else:
            tensor = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
        params[name][...] = tensor  # rounded to the config dtype as by astype
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
    ctx = (e @ vh) * inv_sum with inv_sum = 1 / sum(e): for N queries and L
    keys, the (N, dh) context is scaled instead of the (N, L) probabilities.
    Queries come pre-scaled by 1/sqrt(dh). Returns ctx, e and inv_sum, the
    last two for `_attention_backward`.

    Softmax does not change when a row is shifted, so the exact row max is
    subtracted only when it is needed. If any score exceeds
    `_MAX_UNSHIFTED_SCORE`, e = exp(s - max(s)) row by row. Otherwise
    e = exp(s) cannot overflow, and if a row sum falls below
    `_MIN_UNSHIFTED_SUM` (exp underflow would cost precision, or give
    1 / 0), the scores are computed again and shifted. Both checks see only
    the call's scores: `forward_batch` calls this once per attention chunk,
    and in its last layer the query rows are the read rows (and the unread
    rows that pad them).
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


def _runs(lengths: list[int], size: Callable[[int], int]) -> list[tuple[int, int]]:
    """Runs [lo, hi) of consecutive pairs that cover `lengths` in order.

    A run grows while its pairs times `size(n)`, the elements of one pair
    when the run's longest pair has n tokens, stay within ARRAY_BUDGET; a
    pair over the budget is a run of its own, and pairs within it are one run.
    """
    runs, lo, longest = [], 0, 0
    for b, length in enumerate(lengths):
        longest = max(longest, length)
        if b > lo and (b + 1 - lo) * size(longest) > ARRAY_BUDGET:
            runs.append((lo, b))
            lo, longest = b, length
    runs.append((lo, len(lengths)))
    return runs


def _chunked_attention(qh, kh, vh, chunks, keep: bool):
    """`_attention` of each chunk's (rows, keys, key_bias) slices, into one context.

    Each chunk's context is written straight into a (B, rows, H, dh) buffer,
    returned as (B*rows, d) rows. Query rows outside every chunk (padding
    only) get a zero context; a single chunk covers every row. Returns the
    context and, if `keep`, each chunk's slices, e and inv_sum for
    `_chunked_attention_backward`; else each chunk's scores are freed once
    its context is written.
    """
    ctx, ctx_heads = _row_buffer(qh, len(chunks) == 1)
    kept = []
    for rows, keys, key_bias in chunks:
        ctx_heads[rows], e, inv_sum = _attention(qh[rows], kh[keys], vh[keys], key_bias)
        if keep:
            kept.append((rows, keys, e, inv_sum))
        del e
    return ctx, kept


def _chunked_attention_backward(dctx, qh, kh, vh, kept):
    """d q, d k and d v of `_chunked_attention` as (B*rows, d) rows; zero outside the chunks."""
    (dq, dqh), (dk, dkh), (dv, dvh) = (_row_buffer(x, len(kept) == 1) for x in (qh, kh, vh))
    for rows, keys, e, inv_sum in kept:
        dqh[rows], dkh[keys], dvh[keys] = _attention_backward(
            dctx[rows], qh[rows], kh[keys], vh[keys], e, inv_sum
        )
    return dq, dk, dv


def _row_buffer(heads: np.ndarray, covered: bool):
    """A new buffer as (B*L, d) rows and as a view shaped like the (B, H, L, dh)
    `heads`; uninitialized if the chunks write every row (`covered`), else 0."""
    batch, n_heads, length, dh = heads.shape
    buf = (np.empty if covered else np.zeros)((batch, length, n_heads, dh), heads.dtype)
    return buf.reshape(batch * length, n_heads * dh), buf.transpose(0, 2, 1, 3)


def _chunk_slices(lengths, n_read, n_heads, key_bias):
    """Each attention chunk's (rows, keys, key_bias) slices of (B, H, rows, dh)
    arrays, below the last layer and in it.

    A chunk spans its own longest pair for keys and values, and for queries
    below the last layer; in the last layer its queries are its most read
    rows. It gets its slice of the batch's key mask only if it has padding.
    """
    lengths, n_read = lengths.tolist(), n_read.tolist()
    inner, last = [], []
    for lo, hi in _runs(lengths, lambda n: n_heads * n * n):
        n_keys = max(lengths[lo:hi])
        keys = (slice(lo, hi), slice(None), slice(n_keys))
        bias = key_bias[lo:hi, ..., :n_keys] if min(lengths[lo:hi]) < n_keys else None
        inner.append((keys, keys, bias))
        last.append(((slice(lo, hi), slice(None), slice(max(n_read[lo:hi]))), keys, bias))
    return inner, last


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


def forward_batch(
    params: ParameterSet,
    config: EncoderConfig,
    pairs: list[EncodedPair],
    backward: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """One forward pass over a mini-batch padded to its longest pair.

    Returns reps of shape (B, N, d_model), N the batch's most read rows, and
    the cache for `backward_from_cache`, or None in its place if not
    `backward`: then each layer's activations are freed as the next layer
    runs, and the reps are bitwise the same. Row i of pair b is its position
    `pairs[b].read_rows[i]`, so its n+1 pointer candidates are its first
    rows; rows past its read rows only pad it and are exactly 0. The last
    layer computes queries, attention, feed-forward and final norm only at
    these rows: no later layer reads its other outputs. Its keys and values
    still cover every position. A key-padding mask gives padded positions
    zero attention probability, so each pair's read rows equal its unpadded
    encoding. Training and prediction run this same pass.

    Row-wise layers run over the whole batch, and attention per
    `_chunk_slices` chunk of consecutive pairs, each sliced to its own
    longest pair (and in the last layer its most read rows), so no chunk's
    score array outgrows ARRAY_BUDGET; a batch that fits is one chunk. The
    cache holds each layer's chunks.
    """
    _keep_freed_heap()
    lengths = np.array([len(pair.ids) for pair in pairs])
    batch, length = len(pairs), int(lengths.max())
    if length > config.max_len:
        raise ValueError(f"input length {length} exceeds max_len {config.max_len}")
    ids = np.zeros((batch, length), dtype=np.intp)
    read = np.zeros((batch, length), dtype=bool)
    for b, pair in enumerate(pairs):
        ids[b, : lengths[b]] = pair.ids
        read[b, pair.read_rows] = True
    if ids.max() >= len(params["tok_emb"]):
        raise ValueError(f"token id {int(ids.max())} out of range for a vocabulary of "
                         f"{len(params['tok_emb'])} tokens")
    valid = np.arange(length) < lengths[:, None]
    # segment 1 is the definition; padded positions stay in segment 0
    starts = np.array([pair.definition_start for pair in pairs])
    segments = ((np.arange(length) >= starts[:, None]) & valid).astype(np.intp)
    d = config.d_model
    # each pair's read rows, then distinct unread ones (a fancy-index write in the
    # backward drops duplicates) up to the batch's most read rows; as flat (B*L) rows
    n_read = np.array([len(pair.read_rows) for pair in pairs])
    picked = np.argsort(~read, axis=1, kind="stable")[:, : n_read.max()]
    picked_read = (np.arange(picked.shape[1]) < n_read[:, None]).reshape(-1, 1)
    picked = (picked + length * np.arange(batch)[:, None]).ravel()

    x = params["tok_emb"][ids]
    x += params["pos_emb"][:length]
    x += params["seg_emb"][segments]
    x = x.reshape(batch * length, d)
    key_bias = None
    if not valid.all():
        key_bias = np.where(valid, 0.0, -np.inf).astype(x.dtype)[:, None, None, :]
    chunks = _chunk_slices(lengths, n_read, config.n_heads, key_bias)
    cache: dict = {"ids": ids, "segments": segments, "picked": picked,
                   "picked_read": picked_read, "shape": (batch, length, d), "layers": []}
    dh = d // config.n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)

    for i in range(config.n_layers):
        p = f"layer{i}."
        rows = _query_rows(config, i, picked)
        last = i == config.n_layers - 1
        lc: dict = {}
        a, lc["ln1"] = _layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.bias"])
        a_q = a[rows]
        q = a_q @ params[p + "attn.w_q"]
        q += params[p + "attn.b_q"]
        q *= inv_sqrt_dh
        k = a @ params[p + "attn.w_k"]
        v = a @ params[p + "attn.w_v"]
        v += params[p + "attn.b_v"]
        qh, kh, vh = (_split_heads(m, batch, config.n_heads) for m in (q, k, v))
        ctx, lc["chunks"] = _chunked_attention(qh, kh, vh, chunks[last], backward)
        x1 = ctx @ params[p + "attn.w_o"]
        x1 += params[p + "attn.b_o"]
        x1 += x[rows]  # x1 = x + o
        a2, lc["ln2"] = _layer_norm(x1, params[p + "ln2.gain"], params[p + "ln2.bias"])
        h1 = a2 @ params[p + "ffn.w1"]
        h1 += params[p + "ffn.b1"]
        g, t = _gelu(h1)
        x = g @ params[p + "ffn.w2"]
        x += params[p + "ffn.b2"]
        x += x1  # x = x1 + f
        if backward:
            lc.update(a=a, a_q=a_q, qh=qh, kh=kh, vh=vh, ctx=ctx, a2=a2, h1=h1, t=t, g=g)
            cache["layers"].append(lc)

    out, cache["final_ln"] = _layer_norm(x, params["final_ln.gain"], params["final_ln.bias"])
    out *= picked_read  # rows picked only to pad the batch's read rows are 0
    return out.reshape(batch, -1, d), cache if backward else None


def _query_rows(config: EncoderConfig, layer: int, picked: np.ndarray):
    """The rows at which `layer` computes its outputs: all of them below the
    last layer, the `picked` ones in it."""
    return picked if layer == config.n_layers - 1 else slice(None)


def forward_cached(
    params: ParameterSet,
    config: EncoderConfig,
    pair: EncodedPair,
) -> tuple[np.ndarray, dict]:
    """`forward_batch` of the single pair, its rows at their positions: (len, d_model) reps.

    Kept for the tests and the per-layer benchmark tracer.
    """
    rows, cache = forward_batch(params, config, [pair])
    reps = np.zeros((len(pair.ids), rows.shape[2]), rows.dtype)
    reps[pair.read_rows] = rows[0]
    return reps, cache


def backward_from_cache(
    params: FlatTensors,
    config: EncoderConfig,
    cache: dict,
    d_reps: np.ndarray,
    out: FlatTensors | None = None,
) -> FlatTensors:
    """Exact gradients of every parameter given d(loss)/d(reps), summed over the batch.

    `d_reps` has the (B, N, d_model) shape of the batch's reps, rows in
    `read_rows` order; any other shape raises ValueError, even one of the
    same size. Upstream at the rows that only pad a pair's read rows is
    ignored, as those rows are constant 0. Attention is differentiated per
    chunk, over the chunks each layer cached. The gradients are written into
    `out`, zero-filled first, or else into new `FlatTensors` laid out as `params`.
    """
    batch, length, d = cache["shape"]
    picked = cache["picked"]
    shape = (batch, len(picked) // batch, d)
    if d_reps.shape != shape:
        raise ValueError(
            f"upstream gradient shape {d_reps.shape} does not match output shape {shape}"
        )
    grads = out if out is not None else FlatTensors(params.shapes, np.empty_like(params.flat))
    grads.flat.fill(0)
    dh = d // config.n_heads
    inv_sqrt_dh = 1.0 / math.sqrt(dh)
    d_out = d_reps.reshape(-1, d) * cache["picked_read"]

    dx = _layer_norm_backward(
        d_out, cache["final_ln"], params["final_ln.gain"],
        grads["final_ln.gain"], grads["final_ln.bias"],
    )

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        rows = _query_rows(config, i, picked)
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
        # x1 = x_in + o, o = merge(softmax(q k^T / sqrt(dh) + key_bias) v) @ w_o + b_o,
        # at the query rows only; keys and values cover every row of x_in
        np.matmul(lc["ctx"].T, dx1, out=grads[p + "attn.w_o"])
        _column_sums(dx1, grads[p + "attn.b_o"])
        dctx = _split_heads(dx1 @ params[p + "attn.w_o"].T, batch, config.n_heads)
        dq, dk, dv = _chunked_attention_backward(dctx, lc["qh"], lc["kh"], lc["vh"], lc["chunks"])
        dq *= inv_sqrt_dh  # the queries were scaled by 1/sqrt(dh) before the scores
        a = lc["a"]
        np.matmul(lc["a_q"].T, dq, out=grads[p + "attn.w_q"])
        _column_sums(dq, grads[p + "attn.b_q"])
        np.matmul(a.T, dk, out=grads[p + "attn.w_k"])
        np.matmul(a.T, dv, out=grads[p + "attn.w_v"])
        _column_sums(dv, grads[p + "attn.b_v"])
        da = np.zeros_like(a)
        da[rows] = dq @ params[p + "attn.w_q"].T
        da += dk @ params[p + "attn.w_k"].T
        da += dv @ params[p + "attn.w_v"].T
        dx = _layer_norm_backward(
            da, lc["ln1"], params[p + "ln1.gain"], grads[p + "ln1.gain"], grads[p + "ln1.bias"]
        )
        dx[rows] += dx1  # dx = dx1 + d LN1

    _embedding_grad(cache["ids"].ravel(), dx, grads["tok_emb"])
    grads["pos_emb"][:length] += dx.reshape(batch, length, d).sum(axis=0)
    _embedding_grad(cache["segments"].ravel(), dx, grads["seg_emb"])
    return grads


@dataclass
class Checkpoint:
    """The whole model: encoder and pointer-head parameters, the config that
    shaped them, and the vocabulary and query templates they were trained on."""

    config: EncoderConfig
    params: FlatTensors
    vocab: Vocabulary
    mode: TemplateMode
    markers: MarkerOptions

    def copy(self) -> "Checkpoint":
        return replace(self, params=self.params.copy())


CHECKPOINT_FORMAT = 3
_CHECKPOINT_KEYS = ("format", "config", "vocab", "mode", "markers", "params")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Line 1 is the compact JSON header: format, config, vocabulary, query
    mode, markers and `params` as {name: shape} in `parameter_shapes` order,
    the only order `load_checkpoint` reads. Every byte after its newline is
    the parameter buffer, each tensor row-major and little-endian in the
    config dtype, so values round-trip bitwise.
    `json.dumps` escapes every newline in a string, so `head -1` prints the header.
    """
    header = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(ckpt.config),
        "vocab": ckpt.vocab.tokens,
        "mode": ckpt.mode.value,
        "markers": asdict(ckpt.markers),
        "params": {name: list(t.shape) for name, t in ckpt.params.items()},
    }
    with open(path, "wb") as f:
        f.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        ckpt.params.flat.astype(_wire_dtype(ckpt.config), copy=False).tofile(f)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a `save_checkpoint` file.

    A first line that is not a JSON object, a header or config key missing
    or unknown, a `format` other than 3, a config value that `EncoderConfig`
    rejects, a vocabulary that is not a valid `Vocabulary`, a mode that is
    not a query mode, markers that are not exactly the `MarkerOptions`
    fields as booleans, a tensor that is not among the `parameter_shapes`
    of the config and vocabulary or is missing or misshapen, tensors listed
    in another order than those `parameter_shapes`, and a bad body (see
    `_read_body`) raise ValueError naming the key or the first such tensor.
    """
    head, _, body = Path(path).read_bytes().partition(b"\n")
    try:
        doc = json.loads(head)
    except ValueError as e:  # not UTF-8 or not JSON
        raise ValueError(f"checkpoint line 1 is not a JSON header ({e})") from None
    if not isinstance(doc, dict):
        raise ValueError("checkpoint header must be a JSON object")
    _check_keys(doc, _CHECKPOINT_KEYS, "checkpoint key")
    if type(doc["format"]) is not int or doc["format"] != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint 'format' is {doc['format']!r}; this version of aged "
                         f"reads format {CHECKPOINT_FORMAT}: retrain the model")
    for key in ("config", "params", "markers"):
        if not isinstance(doc[key], dict):
            raise ValueError(f"checkpoint '{key}' is not a JSON object")
    _check_keys(doc["config"], [f.name for f in fields(EncoderConfig)], "checkpoint config key")
    config = EncoderConfig(**doc["config"])
    tokens = doc["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ValueError("checkpoint 'vocab' must be a list of strings")
    try:
        vocab = Vocabulary(tokens)
    except ValueError as e:
        raise ValueError(f"checkpoint 'vocab': {e}") from None
    query_modes = [mode.value for mode in QUERY_MODES]
    if doc["mode"] not in query_modes:
        raise ValueError(f"checkpoint 'mode' must be one of {query_modes}, "
                         f"got {doc['mode']!r}")
    markers = doc["markers"]
    names = [f.name for f in fields(MarkerOptions)]
    if set(markers) != set(names) or any(type(v) is not bool for v in markers.values()):
        raise ValueError(f"checkpoint 'markers' must hold exactly {names} as booleans, "
                         f"got {json.dumps(markers)}")
    shapes, specs = parameter_shapes(config, len(vocab)), doc["params"]
    if specs.keys() != shapes.keys():
        raise ValueError(f"checkpoint tensors missing: {sorted(shapes.keys() - specs.keys())}; "
                         f"not in this config: {sorted(specs.keys() - shapes.keys())}")
    for name, shape in shapes.items():
        if specs[name] != list(shape):
            raise ValueError(f"checkpoint tensor '{name}': shape {specs[name]}, "
                             f"expected {list(shape)} for this config and vocabulary")
    for name, expected in zip(specs, shapes):
        if name != expected:
            raise ValueError(f"checkpoint tensor '{name}' is out of place: '{expected}' comes "
                             "there in parameter order")
    return Checkpoint(config, FlatTensors(shapes, _read_body(body, shapes, config)), vocab,
                      TemplateMode(doc["mode"]), MarkerOptions(**markers))


def _check_keys(doc: dict, names, what: str) -> None:
    """Raise ValueError naming the first of `names` missing from `doc`, else
    the first key of `doc` not in `names`."""
    for key in (*names, *doc):
        if (key in doc) != (key in names):
            state = "unknown" if key in doc else "missing"
            raise ValueError(f"{what} '{key}' is {state}: the checkpoint was saved by another "
                             "version of aged; retrain the model")


def _read_body(body: bytes, shapes: dict[str, tuple[int, ...]], config: EncoderConfig):
    """The body as a new native-order parameter buffer. A body cut short, too
    long or holding NaN or infinity raises ValueError naming the tensor."""
    names, wire = list(shapes), _wire_dtype(config)
    sizes = [math.prod(shape) * wire.itemsize for shape in shapes.values()]  # in bytes
    ends = np.cumsum(sizes)
    if len(body) > ends[-1]:
        raise ValueError(f"checkpoint body has {len(body) - ends[-1]} byte(s) after its last "
                         f"tensor '{names[-1]}'")
    if len(body) < ends[-1]:
        i = int(np.searchsorted(ends, len(body), side="right"))
        raise ValueError(
            f"checkpoint tensor '{names[i]}': {len(body) - ends[i] + sizes[i]} bytes, expected "
            f"{sizes[i]} for shape {list(shapes[names[i]])} in {config.dtype}; the file is cut "
            "short there"
        )
    flat = np.frombuffer(body, wire).astype(config.np_dtype)  # astype copies
    finite = np.isfinite(flat)
    if not finite.all():
        i = int(np.searchsorted(ends, np.argmin(finite) * wire.itemsize, side="right"))
        raise ValueError(f"checkpoint tensor '{names[i]}': holds NaN or infinite values")
    return flat


def _wire_dtype(config: EncoderConfig) -> np.dtype:
    return np.dtype(config.np_dtype).newbyteorder("<")
