import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aged.encoder
from aged.encoder import (
    ARRAY_BUDGET,
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
    _runs,
    _softmax,
    backward_from_cache,
    forward_batch,
    forward_cached,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import CLS_ID, RESERVED_TOKENS, EncodedPair, Vocabulary, assemble
from aged.templates import (
    MarkerOptions,
    TemplateMode,
    build_fe_template,
    build_frame_template,
    build_question_template,
)

import reference


TINY_VOCAB = 64  # tokens, where a test has no vocabulary of its own


def tiny_config(**overrides):
    base = dict(d_model=8, n_layers=1, n_heads=2, max_len=64, seed=3, dtype="f64")
    base.update(overrides)
    return EncoderConfig(**base)


def tiny_model(config, vocab_size=TINY_VOCAB):
    """An untrained frame-def model whose vocabulary has `vocab_size` tokens."""
    words = [f"w{i}" for i in range(vocab_size - len(RESERVED_TOKENS))]
    return Checkpoint(config, init_parameters(config, vocab_size),
                      Vocabulary([*RESERVED_TOKENS, *words]), TemplateMode.FRAME_DEF,
                      MarkerOptions())


def make_pair(ids, n_text):
    """A minimal EncodedPair: [CLS] w_1..w_n [SEP] defn [SEP] without markers."""
    return EncodedPair(
        ids=tuple(ids),
        sentence_pos=tuple(range(1, n_text + 1)),
        slot_pos=(),
        slot_fes=(),
        definition_start=n_text + 2,
    )


def backward(params, config, pair, upstream):
    """Encode one pair and backpropagate `upstream` through it: d loss / d reps
    at the pair's read rows, (len(read_rows), d)."""
    _, cache = forward_cached(params, config, pair)
    return backward_from_cache(params, config, cache, upstream[None])


@pytest.fixture
def pair(store, vocab, train_instances):
    inst = train_instances[0]
    return assemble(inst, build_frame_template(store.frame(inst.frame)), vocab)


def test_init_is_deterministic():
    config = tiny_config()
    a = init_parameters(config, TINY_VOCAB)
    b = init_parameters(config, TINY_VOCAB)
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k])


def test_different_seed_changes_parameters():
    a = init_parameters(tiny_config(seed=3), TINY_VOCAB)
    b = init_parameters(tiny_config(seed=4), TINY_VOCAB)
    assert any(not np.array_equal(a[k], b[k]) for k in a)


def test_head_divisibility_enforced():
    with pytest.raises(ValueError, match="divisible"):
        tiny_config(d_model=8, n_heads=3)


def test_forward_shape_and_determinism(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    first = forward_cached(params, config, pair)[0]
    second = forward_cached(params, config, pair)[0]
    assert first.shape == (len(pair.ids), config.d_model)
    assert np.array_equal(first, second)


def test_attention_rows_are_probability_vectors(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    _, cache = forward_cached(params, config, pair)
    for layer in cache["layers"]:
        [(_, _, e, inv_sum)] = layer["chunks"]  # a single pair is one chunk
        probs = e * inv_sum
        assert probs.min() >= 0
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_single_cls_token_input():
    config = tiny_config()
    params = init_parameters(config, TINY_VOCAB)
    pair = make_pair([CLS_ID], n_text=0)
    assert forward_cached(params, config, pair)[0].shape == (1, config.d_model)


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_forward_batch_keeps_freed_heap_where_mallopt_exists(monkeypatch, has_mallopt):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(**({"mallopt": mallopt} if has_mallopt else {}))
    monkeypatch.setattr(aged.encoder.ctypes, "CDLL", lambda name: libc)
    config = tiny_config()
    params = init_parameters(config, TINY_VOCAB)
    pair = make_pair([CLS_ID, 11, 12, 3, 13, 3], n_text=2)
    aged.encoder._keep_freed_heap.cache_clear()
    try:
        forward_batch(params, config, [pair])
        forward_batch(params, config, [pair], backward=False)  # once per process
    finally:
        aged.encoder._keep_freed_heap.cache_clear()
    # M_TRIM_THRESHOLD = 64 MiB, M_MMAP_THRESHOLD = 16 MiB
    assert calls == ([(-1, 64 << 20), (-3, 16 << 20)] if has_mallopt else [])


def test_overlength_and_out_of_range_inputs_rejected():
    config = tiny_config(max_len=4)
    params = init_parameters(config, TINY_VOCAB)
    with pytest.raises(ValueError, match="max_len"):
        forward_cached(params, config, make_pair([CLS_ID] * 5, n_text=3))
    with pytest.raises(ValueError, match="out of range"):
        forward_cached(params, config, make_pair([CLS_ID, 9999], n_text=1))


def test_zero_upstream_gives_zero_gradients(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    grads = backward(params, config, pair, np.zeros((len(pair.read_rows), config.d_model)))
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert not g.any(), name


def test_backward_is_linear_in_upstream(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    upstream = np.random.default_rng(0).normal(size=(len(pair.read_rows), config.d_model))
    g1 = backward(params, config, pair, upstream)
    g2 = backward(params, config, pair, 2.0 * upstream)
    np.testing.assert_allclose(g2["tok_emb"], 2.0 * g1["tok_emb"], rtol=1e-12)
    np.testing.assert_allclose(g2["pos_emb"], 2.0 * g1["pos_emb"], rtol=1e-12)


def test_backward_shape_mismatch_rejected(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    n, d = len(pair.read_rows), config.d_model
    _, cache = forward_cached(params, config, pair)
    # a transposed upstream has the right size but not the right shape, a
    # batch of one takes no unbatched (N, d) upstream, and no upstream over
    # all (L) positions
    for shape in ((3, 3), (d, n), (n * d,), (2, n, d), (n, d), (1, len(pair.ids), d)):
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*\(1, {n}, {d}\)"):
            backward_from_cache(params, config, cache, np.zeros(shape))
    short = make_pair([CLS_ID, 11, 12, 3], n_text=2)
    _, batch_cache = forward_batch(params, config, [short, pair])
    with pytest.raises(ValueError, match="shape"):
        backward_from_cache(params, config, batch_cache, np.zeros((2 * n, d)))


def test_encoder_gradients_match_finite_differences(vocab, pair):
    # quick spot check; the full sweep lives in the acceptance suite
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    rng = np.random.default_rng(11)
    direction = rng.normal(size=(len(pair.ids), config.d_model))

    def objective(ps):
        return float((forward_cached(ps, config, pair)[0] * direction).sum())

    grads = backward(params, config, pair, direction[pair.read_rows])
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
    params = init_parameters(config, TINY_VOCAB)
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, TINY_VOCAB, size=length)
    pair = make_pair(list(ids), n_text=max(0, length - 2))
    reps = forward_cached(params, config, pair)[0]
    assert np.isfinite(reps).all()
    grads = backward(params, config, pair, rng.normal(size=(len(pair.read_rows), config.d_model)))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_checkpoint_round_trip_is_bitwise(vocab, pair, tmp_path):
    config = tiny_config(max_len=128, dtype="f64")
    ckpt = tiny_model(config, len(vocab))
    path = tmp_path / "model.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == config
    for k in ckpt.params:
        assert np.array_equal(loaded.params[k], ckpt.params[k])
        assert loaded.params[k].dtype == ckpt.params[k].dtype
    before = forward_cached(ckpt.params, config, pair)[0]
    after = forward_cached(loaded.params, loaded.config, pair)[0]
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
    import json

    for dtype in ("f32", "f64"):
        config = tiny_config(dtype=dtype)
        ckpt = tiny_model(config)
        path = tmp_path / f"model-{dtype}.ckpt"
        save_checkpoint(ckpt, path)
        head, newline, body = path.read_bytes().partition(b"\n")
        doc = json.loads(head)
        assert newline == b"\n"
        assert list(doc) == ["format", "config", "vocab", "mode", "markers", "params"]
        assert doc["format"] == 3
        assert doc["vocab"] == ckpt.vocab.tokens
        assert doc["mode"] == "frame-def"
        assert doc["markers"] == {"target_markers": True, "label_markers": True}
        # the vocabulary, not the config, sizes the embedding
        assert doc["config"] == {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 32,
                                 "max_len": 64, "seed": 3, "dtype": dtype}
        assert doc["params"]["tok_emb"] == [len(doc["vocab"]), config.d_model]
        assert list(doc["params"]) == list(ckpt.params)
        size = np.dtype(config.np_dtype).itemsize
        offset = 0
        for name, tensor in ckpt.params.items():
            assert doc["params"][name] == list(tensor.shape)
            raw = body[offset : offset + tensor.size * size]
            # little-endian bit patterns of the row-major flattening, in header order
            stored = np.frombuffer(raw, dtype=f"<u{size}")
            assert np.array_equal(stored, tensor.ravel().view(f"=u{size}")), name
            offset += len(raw)
        assert offset == len(body)


def _tensor_bytes(head, name, itemsize):
    """The byte range of tensor `name` in the body of a checkpoint with header `head`."""
    import json
    import math

    offset = 0
    for tensor, shape in json.loads(head)["params"].items():
        if tensor == name:
            return offset, offset + math.prod(shape) * itemsize
        offset += math.prod(shape) * itemsize


@pytest.mark.parametrize("edit, message", [
    (lambda body, lo, hi: body[: hi - 8], "bytes, expected"),
    (lambda body, lo, hi: body[:lo], ": 0 bytes, expected 2048 for shape"),
    (lambda body, lo, hi: body[: hi - 8] + np.array([np.nan], "<f8").tobytes() + body[hi:],
     "holds NaN or infinite"),
])
def test_load_rejects_bad_tensor_data(tmp_path, edit, message):
    config = tiny_config()
    path = tmp_path / "model.ckpt"
    save_checkpoint(tiny_model(config), path)
    head, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(head + b"\n" + edit(body, *_tensor_bytes(head, "layer0.ffn.w1", 8)))
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
    config = tiny_config(max_len=128, n_layers=2)
    params = init_parameters(config, len(vocab))
    short = make_pair([CLS_ID, 11, 12, 3, 13, 3], n_text=2)
    cls_only = make_pair([CLS_ID], n_text=0)
    reps, cache = forward_batch(params, config, [short, pair, cls_only])
    assert reps.shape == (3, len(pair.read_rows), config.d_model)
    for b, p in enumerate((short, pair, cls_only)):
        n = len(p.read_rows)
        np.testing.assert_allclose(reps[b, :n],
                                   forward_cached(params, config, p)[0][p.read_rows],
                                   rtol=0, atol=1e-12)
        assert not reps[b, n:].any()  # rows that only pad the read rows are 0
        # segment 1 runs from the definition's start to the pair's end; padding is 0
        segments = [int(p.definition_start <= i < len(p.ids)) for i in range(len(pair.ids))]
        assert cache["segments"][b].tolist() == segments
    for i, layer in enumerate(cache["layers"]):
        # the batch fits the budget, so it attends as one chunk of all 3 pairs and
        # every key, with the read rows as the last layer's queries; padded keys get
        # exactly zero attention
        [(rows, keys, e, inv_sum)] = layer["chunks"]
        assert keys == (slice(0, 3), slice(None), slice(len(pair.ids)))
        n_rows = len(pair.read_rows) if i == config.n_layers - 1 else len(pair.ids)
        assert rows == (slice(0, 3), slice(None), slice(n_rows))
        probs = e * inv_sum
        assert not probs[0, :, :, len(short.ids):].any()
        assert not probs[2, :, :, 1:].any()


def test_padded_rows_get_no_gradient(vocab, pair):
    config = tiny_config(max_len=128)
    params = init_parameters(config, len(vocab))
    short = make_pair([CLS_ID, 11, 12, 3, 13, 3], n_text=2)
    reps, cache = forward_batch(params, config, [short, pair])
    upstream = np.random.default_rng(1).normal(size=reps.shape)
    grads = backward_from_cache(params, config, cache, upstream)
    alone = backward(params, config, short, upstream[0, : len(short.read_rows)])
    long = backward(params, config, pair, upstream[1])
    for name in grads:
        np.testing.assert_allclose(grads[name], alone[name] + long[name], rtol=1e-9, atol=1e-12)


def read_everything(pair):
    """The pair with every row after [CLS] a sentence row, so every row is read."""
    return dataclasses.replace(pair, sentence_pos=tuple(range(1, len(pair.ids))))


def mixed_batch(pair):
    """The fixture pair, a short pair with a two-row slot and unread rows, and [CLS] alone."""
    short = dataclasses.replace(make_pair([CLS_ID, 11, 12, 3, 13, 14, 15, 3], n_text=2),
                                slot_pos=((5, 6),), slot_fes=("A",))
    return [short, pair, make_pair([CLS_ID], n_text=0)]


def assert_close_to(actual, expected, rel=1e-12):
    """Equal up to `rel` times the largest magnitude of `expected`."""
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "padded-batch"])
def test_pruned_last_layer_equals_full_pass(vocab, pair, n_layers, batched):
    config = tiny_config(max_len=128, n_layers=n_layers)
    params = init_parameters(config, len(vocab))
    pairs = mixed_batch(pair) if batched else [pair]
    reps, cache = forward_batch(params, config, pairs)
    full_reps, full_cache = forward_batch(params, config, [read_everything(p) for p in pairs])
    assert reps.shape[1] < full_reps.shape[1]  # the full pass reads every position
    n_read = np.array([len(p.read_rows) for p in pairs])
    read = np.arange(reps.shape[1]) < n_read[:, None]  # the rows that do not pad
    assert read.all() == (not batched)  # only a batch pads read rows
    assert_close_to(reps[read], np.concatenate([full_reps[b, p.read_rows]
                                                for b, p in enumerate(pairs)]))
    assert not reps[~read].any()

    upstream = np.random.default_rng(7).normal(size=reps.shape)
    at_read = upstream * read[..., None]
    full_upstream = np.zeros_like(full_reps)
    for b, p in enumerate(pairs):
        full_upstream[b, p.read_rows] = upstream[b, : n_read[b]]
    grads = backward_from_cache(params, config, cache, upstream)
    full_grads = backward_from_cache(params, config, full_cache, full_upstream)
    for name in grads:
        assert_close_to(grads[name], full_grads[name])
    # upstream placed only at rows that pad a pair's read rows reaches nothing
    padding = backward_from_cache(params, config, cache, upstream - at_read)
    assert not padding.flat.any()


@pytest.mark.parametrize("n_layers", [1, 2])
def test_last_layer_caches_only_read_rows(vocab, pair, n_layers):
    # the work saved by pruning: the last layer's queries, attention rows and
    # feed-forward cover B x N rows, N the batch's most read rows
    config = tiny_config(max_len=128, n_layers=n_layers)
    params = init_parameters(config, len(vocab))
    pairs = mixed_batch(pair)
    reps, cache = forward_batch(params, config, pairs)
    batch, most_read, _ = reps.shape
    length = max(len(p.ids) for p in pairs)
    assert most_read == max(len(p.read_rows) for p in pairs) < length
    *lower, last = cache["layers"]
    for name in ("h1", "a2", "a_q"):
        assert len(last[name]) == batch * most_read, name
        for layer in lower:
            assert len(layer[name]) == batch * length, name
    [(_, _, e, _)] = last["chunks"]
    assert e.shape == (batch, config.n_heads, most_read, length)
    assert len(last["a"]) == batch * length  # keys and values cover every row


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_forward_without_backward_cache_gives_the_same_reps(vocab, pair, n_layers, dtype):
    config = tiny_config(max_len=128, n_layers=n_layers, dtype=dtype)
    params = init_parameters(config, len(vocab))
    pairs = mixed_batch(pair)
    reps, cache = forward_batch(params, config, pairs)
    bare, none = forward_batch(params, config, pairs, backward=False)
    assert none is None and len(cache["layers"]) == n_layers
    assert bare.dtype == reps.dtype and bare.shape == reps.shape
    assert bare.tobytes() == reps.tobytes()


@pytest.mark.parametrize("budget", [ARRAY_BUDGET, 20_000], ids=["one-chunk", "multi-chunk"])
def test_forward_batch_equals_independent_reference(store, vocab, train_instances, monkeypatch,
                                                    budget):
    # a bundled training batch of 8 frame-def pairs, whole or in several chunks
    monkeypatch.setattr(aged.encoder, "ARRAY_BUDGET", budget)
    config = EncoderConfig(d_model=16, n_layers=2, n_heads=4, max_len=128, seed=5, dtype="f64")
    params = init_parameters(config, len(vocab))
    pairs = [assemble(inst, build_frame_template(store.frame(inst.frame)), vocab)
             for inst in train_instances[:8]]
    lengths = [len(p.ids) for p in pairs]
    n_chunks = len(_runs(lengths, lambda n: config.n_heads * n * n))
    if budget == ARRAY_BUDGET:
        assert len(pairs) * config.n_heads * max(lengths) ** 2 <= budget and n_chunks == 1
    else:
        assert 1 < n_chunks < len(pairs)
    reps, cache = forward_batch(params, config, pairs)
    assert all(len(layer["chunks"]) == n_chunks for layer in cache["layers"])
    for b, p in enumerate(pairs):
        n = len(p.read_rows)
        assert_close_to(reps[b, :n], reference.encode(params, config, p)[list(p.read_rows)])
        assert not reps[b, n:].any()


def chunky_batch(pair):
    """Pairs whose attention runs in three chunks at a budget of 600 scores and 2 heads:
    two padded pairs (8 and 1 tokens), the fixture pair over the budget alone, and
    two unpadded pairs of 12 tokens; then a pair of 6 tokens on its own."""
    short = dataclasses.replace(make_pair([CLS_ID, 11, 12, 3, 13, 14, 15, 3], n_text=2),
                                slot_pos=((5, 6),), slot_fes=("A",))
    twelve = [make_pair([CLS_ID, *range(11, 20), 3, 3], n_text=9),
              make_pair([CLS_ID, *range(14, 23), 3, 3], n_text=4)]
    return [short, make_pair([CLS_ID], n_text=0), pair, *twelve,
            make_pair([CLS_ID, 11, 3, 12, 13, 3], n_text=1)]


@pytest.mark.parametrize("n_layers", [1, 2])
def test_multi_chunk_batch_equals_per_pair_passes(vocab, pair, monkeypatch, n_layers):
    monkeypatch.setattr(aged.encoder, "ARRAY_BUDGET", 600)
    config = tiny_config(max_len=128, n_layers=n_layers)
    params = init_parameters(config, len(vocab))
    pairs = chunky_batch(pair)
    assert _runs([len(p.ids) for p in pairs], lambda n: config.n_heads * n * n) == [
        (0, 2), (2, 3), (3, 5), (5, 6)]
    reps, cache = forward_batch(params, config, pairs)
    assert all(len(layer["chunks"]) == 4 for layer in cache["layers"])
    bare, _ = forward_batch(params, config, pairs, backward=False)
    assert bare.tobytes() == reps.tobytes()
    upstream = np.random.default_rng(5).normal(size=reps.shape)
    grads = backward_from_cache(params, config, cache, upstream)
    summed = {name: np.zeros_like(g) for name, g in grads.items()}
    for b, p in enumerate(pairs):
        n = len(p.read_rows)
        assert_close_to(reps[b, :n], forward_cached(params, config, p)[0][p.read_rows])
        assert not reps[b, n:].any()  # rows that only pad the read rows are 0
        for name, g in backward(params, config, p, upstream[b, :n]).items():
            summed[name] += g
    for name in grads:
        assert_close_to(grads[name], summed[name])


@settings(max_examples=200, deadline=None)
@given(lengths=st.lists(st.integers(1, 256), min_size=1, max_size=24),
       n_heads=st.sampled_from([1, 2, 4, 8]))
def test_attention_chunks_cover_the_batch_within_the_budget(lengths, n_heads):
    chunks = _runs(lengths, lambda n: n_heads * n * n)
    assert [lo for lo, _ in chunks] == [0, *(hi for _, hi in chunks[:-1])]
    assert chunks[-1][1] == len(lengths) and all(lo < hi for lo, hi in chunks)

    def scores(lo, hi):
        return (hi - lo) * n_heads * max(lengths[lo:hi]) ** 2

    for lo, hi in chunks:
        assert hi - lo == 1 or scores(lo, hi) <= ARRAY_BUDGET
        if hi < len(lengths):  # a chunk grows until the next pair would pass the budget
            assert scores(lo, hi + 1) > ARRAY_BUDGET
    for b, length in enumerate(lengths):
        if n_heads * length**2 > ARRAY_BUDGET:
            assert (b, b + 1) in chunks
    if scores(0, len(lengths)) <= ARRAY_BUDGET:
        assert chunks == [(0, len(lengths))]


def test_read_rows_are_candidates_and_slot_spans(pair):
    spans = {i for start, end in pair.slot_pos for i in range(start, end + 1)}
    assert list(pair.read_rows) == sorted({0, *pair.sentence_pos, *spans})
    assert pair.read_rows is pair.read_rows  # derived once per pair
    assert len(pair.read_rows) < len(pair.ids)  # markers and definition prose are unread


@pytest.mark.parametrize("target_markers", [True, False])
@pytest.mark.parametrize("label_markers", [True, False])
def test_candidates_lead_the_read_rows_and_slot_spans_are_runs(store, vocab, train_instances,
                                                              test_instances, target_markers,
                                                              label_markers):
    # the layout `score_batch` relies on: the n+1 candidates are a pair's
    # first read rows, and each slot span is a run of consecutive read rows
    opts = MarkerOptions(target_markers, label_markers)
    checked = 0
    for inst in train_instances + test_instances:
        frame = store.frame(inst.frame)
        templates = [build_frame_template(frame, opts)]
        for fe in frame.fe_order:
            templates += [build_fe_template(frame, fe, opts), build_question_template(frame, fe, opts)]
        for template in templates:
            pair = assemble(inst, template, vocab, opts)
            rows = list(pair.read_rows)
            n = len(pair.sentence_pos)
            assert rows[: n + 1] == [0, *pair.sentence_pos]
            for start, end in pair.slot_pos:
                lo = rows.index(start)
                assert rows[lo : lo + end - start + 1] == list(range(start, end + 1))
            # each slot span's first and last read row, derived once per pair
            assert pair.slot_rows.tolist() == [[rows.index(start), rows.index(end)]
                                               for start, end in pair.slot_pos]
            assert pair.slot_rows is pair.slot_rows and pair.slot_rows.shape[1] == 2
            checked += 1
    assert checked > 100


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
