import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aged.encoder import (
    LN_EPS,
    _GELU_A,
    _GELU_C,
    Checkpoint,
    EncoderConfig,
    _attention,
    _attention_backward,
    _gelu,
    _gelu_backward,
    _layer_norm,
    _layer_norm_backward,
    _softmax,
    backward_from_cache,
    forward,
    forward_batch,
    forward_cached,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import CLS_ID, RESERVED_TOKENS, EncodedPair, Vocabulary, assemble
from aged.templates import MarkerOptions, TemplateMode, build_frame_template


def tiny_config(**overrides):
    base = dict(vocab_size=64, d_model=8, n_layers=1, n_heads=2, max_len=64, seed=3, dtype="f64")
    base.update(overrides)
    return EncoderConfig(**base)


def tiny_model(config):
    """An untrained frame-def model whose vocabulary has `config.vocab_size` tokens."""
    words = [f"w{i}" for i in range(config.vocab_size - len(RESERVED_TOKENS))]
    return Checkpoint(config, init_parameters(config), Vocabulary([*RESERVED_TOKENS, *words]),
                      TemplateMode.FRAME_DEF, MarkerOptions())


def make_pair(ids, n_text):
    """A minimal EncodedPair: [CLS] w_1..w_n [SEP] defn [SEP] without markers."""
    length = len(ids)
    return EncodedPair(
        ids=tuple(ids),
        sentence_pos=tuple(range(1, n_text + 1)),
        slot_pos=(),
        slot_fes=(),
        segment=tuple(0 if i <= n_text + 1 else 1 for i in range(length)),
    )


def backward(params, config, pair, upstream):
    """Encode one pair and backpropagate `upstream` (d loss / d reps, (L, d)) through it."""
    _, cache = forward_cached(params, config, pair)
    return backward_from_cache(params, config, cache, upstream[None])


@pytest.fixture
def pair(store, vocab, train_instances):
    inst = train_instances[0]
    return assemble(inst, build_frame_template(store.frame(inst.frame)), vocab)


def test_init_is_deterministic():
    config = tiny_config()
    a = init_parameters(config)
    b = init_parameters(config)
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_different_seed_changes_parameters():
    a = init_parameters(tiny_config(seed=3))
    b = init_parameters(tiny_config(seed=4))
    assert any(not np.array_equal(a[k], b[k]) for k in a)


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(d_model=8, n_heads=3)


def test_forward_shape_and_determinism(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    first = forward(params, config, pair).reps
    second = forward(params, config, pair).reps
    assert first.shape == (len(pair.ids), config.d_model)
    assert np.array_equal(first, second)


def test_attention_rows_are_probability_vectors(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    _, cache = forward_cached(params, config, pair)
    for layer in cache["layers"]:
        probs = layer["e"] * layer["inv_sum"]
        assert probs.min() >= 0
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_single_cls_token_input():
    config = tiny_config()
    params = init_parameters(config)
    pair = make_pair([CLS_ID], n_text=0)
    assert forward(params, config, pair).reps.shape == (1, config.d_model)


def test_overlength_and_out_of_range_inputs_rejected():
    config = tiny_config(max_len=4)
    params = init_parameters(config)
    with pytest.raises(ValueError, match="max_len"):
        forward(params, config, make_pair([CLS_ID] * 5, n_text=3))
    with pytest.raises(ValueError, match="out of range"):
        forward(params, config, make_pair([CLS_ID, 9999], n_text=1))


def test_zero_upstream_gives_zero_gradients(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    reps = forward(params, config, pair).reps
    grads = backward(params, config, pair, np.zeros_like(reps))
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert not g.any(), name


def test_backward_is_linear_in_upstream(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    upstream = np.random.default_rng(0).normal(size=(len(pair.ids), config.d_model))
    g1 = backward(params, config, pair, upstream)
    g2 = backward(params, config, pair, 2.0 * upstream)
    np.testing.assert_allclose(g2["tok_emb"], 2.0 * g1["tok_emb"], rtol=1e-12)
    np.testing.assert_allclose(g2["pos_emb"], 2.0 * g1["pos_emb"], rtol=1e-12)


def test_backward_shape_mismatch_rejected(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    length, d = len(pair.ids), config.d_model
    _, cache = forward_cached(params, config, pair)
    # a transposed upstream has the right size but not the right shape, and
    # a batch of one takes no unbatched (L, d) upstream
    for shape in ((3, 3), (d, length), (length * d,), (2, length, d), (length, d)):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*\(1, {length}, {d}\)"):
            backward_from_cache(params, config, cache, np.zeros(shape))
    short = make_pair([CLS_ID, 11, 12, 3], n_text=2)
    _, batch_cache = forward_batch(params, config, [short, pair])
    with pytest.raises(ValueError, match="shape"):
        backward_from_cache(params, config, batch_cache, np.zeros((2 * length, d)))


def test_encoder_gradients_match_finite_differences(vocab, pair):
    # quick spot check; the full sweep lives in the acceptance suite
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    rng = np.random.default_rng(11)
    direction = rng.normal(size=(len(pair.ids), config.d_model))

    def objective(ps):
        return float((forward(ps, config, pair).reps * direction).sum())

    grads = backward(params, config, pair, direction)
    eps = 1e-6
    for name in ("tok_emb", "layer0.attn.w_q", "layer0.ffn.w1", "layer0.ln1.gain", "final_ln.bias"):
        tensor = params[name]
        flat_idx = rng.integers(0, tensor.size, size=4)
        for fi in flat_idx:
            idx = np.unravel_index(fi, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + eps
            plus = objective(params)
            tensor[idx] = orig - eps
            minus = objective(params)
            tensor[idx] = orig
            fd = (plus - minus) / (2 * eps)
            an = grads[name][idx]
            assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (name, idx)


@given(seed=st.integers(0, 2**16), length=st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_forward_and_backward_stay_finite(seed, length):
    config = tiny_config(seed=seed)
    params = init_parameters(config)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, config.vocab_size, size=length)
    pair = make_pair(list(ids), n_text=max(0, length - 2))
    reps = forward(params, config, pair).reps
    assert np.isfinite(reps).all()
    grads = backward(params, config, pair, rng.normal(size=reps.shape))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_checkpoint_round_trip_is_bitwise(vocab, pair, tmp_path):
    config = tiny_config(vocab_size=len(vocab), max_len=128, dtype="f64")
    ckpt = tiny_model(config)
    path = tmp_path / "model.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    for k in ckpt.params:
        assert np.array_equal(loaded.params[k], ckpt.params[k])
        assert loaded.params[k].dtype == ckpt.params[k].dtype
    before = forward(ckpt.params, config, pair).reps
    after = forward(loaded.params, loaded.config, pair).reps
    assert np.array_equal(before, after)


def test_checkpoint_round_trip_f32(tmp_path):
    config = tiny_config(dtype="f32")
    ckpt = tiny_model(config)
    path = tmp_path / "model.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    for k in ckpt.params:
        assert np.array_equal(loaded.params[k], ckpt.params[k])


def test_checkpoint_file_schema(tmp_path):
    import base64
    import json

    for dtype in ("f32", "f64"):
        config = tiny_config(dtype=dtype)
        ckpt = tiny_model(config)
        path = tmp_path / f"model-{dtype}.json"
        save_checkpoint(ckpt, path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["format", "config", "vocab", "mode", "markers", "params"]
        assert doc["format"] == 1
        assert doc["vocab"] == ckpt.vocab.tokens
        assert doc["mode"] == "frame-def"
        assert doc["markers"] == {"target_markers": True, "label_markers": True}
        assert doc["config"]["d_model"] == config.d_model
        assert doc["config"]["dtype"] == dtype
        assert list(doc["params"]) == list(ckpt.params)
        size = np.dtype(config.np_dtype).itemsize
        for name, tensor in ckpt.params.items():
            spec = doc["params"][name]
            assert set(spec) == {"shape", "data"}
            assert spec["shape"] == list(tensor.shape)
            raw = base64.b64decode(spec["data"], validate=True)
            assert len(raw) == tensor.size * size
            # little-endian bit patterns of the row-major flattening
            stored = np.frombuffer(raw, dtype=f"<u{size}")
            assert np.array_equal(stored, tensor.ravel().view(f"=u{size}")), name


def _rewrite_tensor(path, name, data):
    import json

    doc = json.loads(path.read_text())
    doc["params"][name]["data"] = data(doc["params"][name]["data"])
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("data, message", [
    (lambda d: d[:-8], "bytes, expected"),
    (lambda d: "!" + d[1:], "not valid base64"),
    (lambda d: [0.5] * 8, "base64 string, got list"),
])
def test_load_rejects_bad_tensor_data(tmp_path, data, message):
    config = tiny_config()
    path = tmp_path / "model.json"
    save_checkpoint(tiny_model(config), path)
    _rewrite_tensor(path, "layer0.ffn.w1", data)
    with pytest.raises(ValueError, match=message) as err:
        load_checkpoint(path)
    assert "'layer0.ffn.w1'" in str(err.value)


def test_loaded_parameters_are_writable(tmp_path):
    config = tiny_config()
    path = tmp_path / "model.json"
    save_checkpoint(tiny_model(config), path)
    for tensor in load_checkpoint(path).params.values():
        tensor += 1.0


def test_padded_reps_equal_unpadded(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128, n_layers=2)
    params = init_parameters(config)
    short = make_pair([CLS_ID, 11, 12, 3, 13, 3], n_text=2)
    cls_only = make_pair([CLS_ID], n_text=0)
    reps, cache = forward_batch(params, config, [short, pair, cls_only])
    assert reps.shape == (3, len(pair.ids), config.d_model)
    for b, p in enumerate((short, pair, cls_only)):
        np.testing.assert_allclose(reps[b, : len(p.ids)], forward(params, config, p).reps,
                                   rtol=0, atol=1e-12)
    for layer in cache["layers"]:
        # padded keys get exactly zero attention
        probs = layer["e"] * layer["inv_sum"]
        assert not probs[0, :, :, len(short.ids):].any()
        assert not probs[2, :, :, 1:].any()


def test_padded_rows_get_no_gradient(vocab, pair):
    config = tiny_config(vocab_size=len(vocab), max_len=128)
    params = init_parameters(config)
    short = make_pair([CLS_ID, 11, 12, 3, 13, 3], n_text=2)
    reps, cache = forward_batch(params, config, [short, pair])
    upstream = np.random.default_rng(1).normal(size=reps.shape)
    grads = backward_from_cache(params, config, cache, upstream)
    alone = backward(params, config, short, upstream[0, : len(short.ids)])
    long = backward(params, config, pair, upstream[1])
    for name in grads:
        np.testing.assert_allclose(grads[name], alone[name] + long[name], rtol=1e-9, atol=1e-12)


# The plain formulas the in-place kernels must reproduce bitwise. Sums and
# means are matmuls with a ones or 1/d column, as in the kernels.
def ones(n, dtype, value=1.0):
    return np.full((n, 1), value, dtype)


def ref_mean(x):
    return x @ ones(x.shape[-1], x.dtype, 1.0 / x.shape[-1])


def ref_column_sums(x):
    return (ones(x.shape[0], x.dtype).T @ x)[0]


def ref_layer_norm(x, gain, bias):
    xc = x - ref_mean(x)
    inv = 1.0 / np.sqrt(ref_mean(xc * xc) + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def ref_layer_norm_backward(dy, cache, gain):
    xhat, inv = cache
    dgain = ref_column_sums(dy * xhat)
    dbias = ref_column_sums(dy)
    dxhat = dy * gain
    m1 = ref_mean(dxhat)
    m2 = ref_mean(dxhat * xhat)
    return inv * (dxhat - m1 - xhat * m2), dgain, dbias


def ref_gelu(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def ref_gelu_backward(dy, x, t):
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))
    return dy * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def ref_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / (e @ ones(x.shape[-1], x.dtype))


def ref_attention(qh, kh, vh, key_bias):
    """Deferred normalization: exp(s - max s) @ vh, then times 1 / rowsum; the
    scores key-major, as in the kernel."""
    s = (kh @ qh.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2) + key_bias
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    inv_sum = 1.0 / (e @ ones(s.shape[-1], s.dtype))
    return (e @ vh) * inv_sum, e, inv_sum


def ref_attention_backward(dctx, qh, kh, vh, e, inv_sum):
    dctx = dctx * inv_sum
    x = (vh @ dctx.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    dscores = (x - ((x * e) @ ones(x.shape[-1], x.dtype)) * inv_sum) * e
    return dscores @ kh, dscores.transpose(0, 1, 3, 2) @ qh, e.transpose(0, 1, 3, 2) @ dctx


def wide(rng, shape, dtype):
    """Normal entries scaled by 10**k for k in [-6, 3], a quarter of them also by
    the dtype's smallest normal number, so rounding and underflow differences show."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
    x[rng.random(size=shape) < 0.25] *= np.finfo(dtype).tiny
    return x.astype(dtype)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_kernels_equal_plain_formulas_bitwise(dtype):
    rng = np.random.default_rng(11)
    rows, d = 37, 24
    x, dy = wide(rng, (rows, d), dtype), wide(rng, (rows, d), dtype)
    gain, bias = wide(rng, d, dtype), wide(rng, d, dtype)

    y, (xhat, inv) = _layer_norm(x, gain, bias)
    ref_y, (ref_xhat, ref_inv) = ref_layer_norm(x, gain, bias)
    for actual, expected in ((y, ref_y), (xhat, ref_xhat), (inv, ref_inv)):
        assert_bitwise(actual, expected)
    dgain, dbias = np.full(d, np.nan, dtype), np.full(d, np.nan, dtype)
    dx = _layer_norm_backward(dy, (xhat, inv), gain, dgain, dbias)
    for actual, expected in zip((dx, dgain, dbias),
                                ref_layer_norm_backward(dy, (ref_xhat, ref_inv), gain)):
        assert_bitwise(actual, expected)

    # GELU over its whole range: tanh saturates at both ends
    h = wide(rng, (rows, 4 * d), dtype)
    g, t = _gelu(h)
    ref_g, ref_t = ref_gelu(h)
    assert_bitwise(g, ref_g)
    assert_bitwise(t, ref_t)
    dg = wide(rng, h.shape, dtype)
    expected = ref_gelu_backward(dg, h, t)
    assert_bitwise(_gelu_backward(dg.copy(), h, t), expected)

    # attention logits with key-padding -inf entries, as forward_batch builds them
    logits = wide(rng, (3, 2, 9, 9), dtype)
    logits[0, :, :, 6:] = -np.inf
    logits[2, :, :, 1:] = -np.inf  # rows left with a single finite entry
    expected = ref_softmax(logits)
    assert_bitwise(_softmax(logits.copy()), expected)
    assert (expected[0, :, :, 6:] == 0).all() and (expected[2, :, :, 0] == 1).all()

    # attention, with the same key padding as a bias
    qh, kh, vh = (wide(rng, (3, 2, 9, 4), dtype) for _ in range(3))
    key_bias = np.zeros((3, 1, 1, 9), dtype)
    key_bias[0, ..., 6:] = key_bias[2, ..., 1:] = -np.inf
    expected = ref_attention(qh, kh, vh, key_bias)
    ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
    for actual, want in zip((ctx, e, inv_sum), expected):
        assert_bitwise(actual, want)
    dctx = wide(rng, ctx.shape, dtype)
    expected = ref_attention_backward(dctx, qh, kh, vh, e, inv_sum)
    for actual, want in zip(_attention_backward(dctx.copy(), qh, kh, vh, e, inv_sum), expected):
        assert_bitwise(actual, want)


def explicit_softmax_attention(qh, kh, vh, key_bias):
    """softmax(qh kh^T + key_bias) @ vh, with the probabilities formed first."""
    s = qh @ kh.transpose(0, 1, 3, 2) + key_bias
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    return p @ vh, p


def explicit_softmax_gradients(dctx, p, qh, kh, vh):
    """d qh, d kh and d vh of `explicit_softmax_attention` with probabilities p."""
    dp = dctx @ vh.transpose(0, 1, 3, 2)
    dscores = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return dscores @ kh, dscores.transpose(0, 1, 3, 2) @ qh, p.transpose(0, 1, 3, 2) @ dctx


def test_deferred_normalization_equals_explicit_softmax():
    rng = np.random.default_rng(5)
    qh, kh, vh = (rng.normal(size=(3, 2, 11, 4)) for _ in range(3))
    key_bias = np.zeros((3, 1, 1, 11))
    key_bias[0, ..., 7:] = key_bias[2, ..., 1:] = -np.inf
    ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
    assert not (e.max(axis=-1) == 1.0).any()  # small scores: exp(s), not shifted
    expected, p = explicit_softmax_attention(qh, kh, vh, key_bias)
    np.testing.assert_allclose(ctx, expected, rtol=1e-12, atol=0)
    np.testing.assert_allclose(e * inv_sum, p, rtol=1e-12, atol=0)

    # backward against the explicit softmax gradient
    dctx = rng.normal(size=ctx.shape)
    expected = explicit_softmax_gradients(dctx, p, qh, kh, vh)
    for actual, want in zip(_attention_backward(dctx, qh, kh, vh, e, inv_sum), expected):
        np.testing.assert_allclose(actual, want, rtol=1e-12, atol=1e-14)


def key_major_scores(qh, kh, key_bias):
    return (kh @ qh.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2) + key_bias


def plain_unshifted_attention(qh, kh, vh, key_bias):
    """exp(s) @ vh * 1/rowsum, no row max; the scores key-major, as in the kernel."""
    s = key_major_scores(qh, kh, key_bias)
    e = np.exp(s)
    inv_sum = 1.0 / (e @ ones(s.shape[-1], s.dtype))
    return (e @ vh) * inv_sum, e, inv_sum


def attention_inputs(rng, dtype, lift=0.0, low_row=False):
    """qh, kh, vh and a key-padding bias. `lift` 45 adds about 45-50 to every
    score, past the no-shift bound; `low_row` puts every score of one query
    row below -200."""
    qh, kh, vh = (rng.normal(size=(3, 2, 11, 4)) for _ in range(3))
    if lift or low_row:
        kh[..., 0] = 10.0 + rng.random(kh.shape[:-1])
        qh[..., 0] = lift / 10.0
    if low_row:
        qh[1, 0, 5, 0] = -25.0
    key_bias = np.zeros((3, 1, 1, 11))
    key_bias[0, ..., 7:] = key_bias[2, ..., 1:] = -np.inf
    return (*(m.astype(dtype) for m in (qh, kh, vh)), key_bias.astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_on_small_scores_skips_the_row_max_bitwise(dtype):
    qh, kh, vh, key_bias = attention_inputs(np.random.default_rng(17), dtype)
    expected = plain_unshifted_attention(qh, kh, vh, key_bias)
    ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
    for actual, want in zip((ctx, e, inv_sum), expected):
        assert_bitwise(actual, want)
    # not the shifted form: no row holds an exact 1
    assert (e.max(axis=-1) != 1.0).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_falls_back_to_the_row_max_on_tiny_row_sums(dtype):
    qh, kh, vh, key_bias = attention_inputs(np.random.default_rng(19), dtype, low_row=True)
    s = key_major_scores(qh, kh, key_bias)
    assert s[1, 0, 5].max() <= -200 and s.max() <= 30
    ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
    assert np.isfinite(ctx).all() and np.isfinite(inv_sum).all()
    # the whole call takes the exact row-max path
    for actual, want in zip((ctx, e, inv_sum), ref_attention(qh, kh, vh, key_bias)):
        assert_bitwise(actual, want)


@pytest.mark.parametrize("lift, low_row", [(45.0, False), (0.0, True)], ids=["shift", "fallback"])
def test_shifted_attention_branches_match_explicit_softmax(lift, low_row):
    # the no-shift branch is test_deferred_normalization_equals_explicit_softmax
    rng = np.random.default_rng(23)
    qh, kh, vh, key_bias = attention_inputs(rng, np.float64, lift, low_row)
    ctx, e, inv_sum = _attention(qh, kh, vh, key_bias)
    assert (e.max(axis=-1) == 1.0).all()  # every row shifted by its exact max
    if lift:  # every row has a score past the bound: the shift comes from it, not the floor
        assert (key_major_scores(qh, kh, key_bias).max(axis=-1) > 30).all()
    expected, p = explicit_softmax_attention(qh, kh, vh, key_bias)
    np.testing.assert_allclose(ctx, expected, rtol=1e-12, atol=0)

    dctx = rng.normal(size=ctx.shape)
    expected = explicit_softmax_gradients(dctx, p, qh, kh, vh)
    for actual, want in zip(_attention_backward(dctx, qh, kh, vh, e, inv_sum), expected):
        np.testing.assert_allclose(actual, want, rtol=1e-12, atol=1e-14)
