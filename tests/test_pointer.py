import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import aged.encoder
from aged.encoder import (
    EncoderConfig,
    _embedding_grad,
    _runs,
    _softmax,
    backward_from_cache,
    forward_batch,
    init_parameters,
)
from aged.encoding import CLS_ID, EncodedPair, assemble, gold_labels
from aged.pointer import (
    PointerDistribution,
    batch_loss_and_gradients,
    loss_and_gradients,
    _head_pair,
    _reps_grad,
    pointer_distributions,
    score_batch,
)
from aged.templates import build_frame_template

import reference as ref


def pair_with_slots(n, slot_pos, total_len):
    """Synthetic EncodedPair: candidates 0..n map to rows 0..n of the encoding."""
    return EncodedPair(
        ids=tuple(range(total_len)),
        sentence_pos=tuple(range(1, n + 1)),
        slot_pos=tuple(slot_pos),
        slot_fes=tuple(f"FE{i}" for i in range(len(slot_pos))),
        definition_start=n + 2,
    )


def test_maxpool_single_row_slot():
    reps = np.arange(24, dtype=np.float64).reshape(6, 4)
    pair = pair_with_slots(2, [(5, 5)], 6)
    [q] = ref.make_queries(reps, pair)
    assert np.array_equal(q, reps[5])


def test_maxpool_elementwise_example():
    reps = np.zeros((6, 2))
    reps[4] = [1.0, -2.0]
    reps[5] = [0.0, 5.0]
    pair = pair_with_slots(2, [(4, 5)], 6)
    [q] = ref.make_queries(reps, pair)
    assert q.tolist() == [1.0, 5.0]


@given(
    block=arrays(np.float64, (5, 3), elements=st.floats(-100, 100)),
)
def test_maxpool_matches_brute_force_oracle(block):
    reps = np.vstack([np.zeros((2, 3)), block])
    pair = pair_with_slots(0, [(2, 6)], 7)
    [q] = ref.make_queries(reps, pair)
    brute = [max(block[r][c] for r in range(5)) for c in range(3)]
    assert q.tolist() == brute
    assert all((q >= block[r]).all() for r in range(5))


def pointer_params(w_start, w_end):
    return {"pointer.w_start": np.asarray(w_start, float), "pointer.w_end": np.asarray(w_end, float)}


def test_pointer_distribution_hand_computed():
    # d=1, identity weights, candidate rows [0, ln 2, ln 4] -> softmax [1/7, 2/7, 4/7]
    reps = np.array([[0.0], [math.log(2)], [math.log(4)], [1.0]])
    pair = pair_with_slots(2, [(3, 3)], 4)
    queries = ref.make_queries(reps, pair)
    [dist] = pointer_distributions(pointer_params([[1.0]], [[1.0]]), reps, pair, queries)
    np.testing.assert_allclose(dist.start_probs, [1 / 7, 2 / 7, 4 / 7], rtol=1e-12)
    np.testing.assert_allclose(dist.end_probs, [1 / 7, 2 / 7, 4 / 7], rtol=1e-12)


def test_zero_query_gives_uniform_distributions():
    rng = np.random.default_rng(5)
    reps = rng.normal(size=(6, 3))
    reps[5] = 0.0  # slot row -> zero query
    pair = pair_with_slots(3, [(5, 5)], 6)
    queries = ref.make_queries(reps, pair)
    [dist] = pointer_distributions(pointer_params(np.eye(3), np.eye(3)), reps, pair, queries)
    np.testing.assert_allclose(dist.start_probs, np.full(4, 0.25), rtol=1e-12)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=30)
def test_distributions_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    reps = rng.normal(size=(n + 4, 5))
    pair = pair_with_slots(n, [(n + 2, n + 3)], n + 4)
    queries = ref.make_queries(reps, pair)
    dists = pointer_distributions(
        pointer_params(rng.normal(size=(5, 5)), rng.normal(size=(5, 5))), reps, pair, queries
    )
    for dist in dists:
        assert len(dist.start_probs) == n + 1
        assert abs(dist.start_probs.sum() - 1.0) < 1e-6
        assert abs(dist.end_probs.sum() - 1.0) < 1e-6


def make_dist(fe, start, end):
    return PointerDistribution(fe, np.asarray(start, float), np.asarray(end, float))


def test_loss_zero_on_one_hot_gold():
    dist = make_dist("A", [0, 1, 0], [0, 0, 1])
    assert ref.slot_loss([dist], [(1, 2)]) == 0.0


def test_loss_uniform_analytic_value():
    m, n = 3, 4
    dists = [make_dist(f"FE{i}", np.full(n + 1, 1 / (n + 1)), np.full(n + 1, 1 / (n + 1))) for i in range(m)]
    assert ref.slot_loss(dists, [(0, 0)] * m) == pytest.approx(m * math.log(n + 1), rel=1e-12)


def test_loss_two_slots_matches_scalar_oracle():
    start_a, end_a = [0.5, 0.3, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]
    start_b, end_b = [0.1, 0.1, 0.2, 0.6], [0.05, 0.05, 0.3, 0.6]
    dists = [make_dist("A", start_a, end_a), make_dist("B", start_b, end_b)]
    labels = [(1, 2), (3, 3)]
    # independent scalar recomputation
    ls = -(math.log(start_a[1]) + math.log(start_b[3]))
    le = -(math.log(end_a[2]) + math.log(end_b[3]))
    assert ref.slot_loss(dists, labels) == pytest.approx(0.5 * ls + 0.5 * le, rel=1e-12)


def test_loss_label_out_of_range():
    dist = make_dist("A", [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="outside"):
        ref.slot_loss([dist], [(2, 0)])
    with pytest.raises(ValueError, match="distributions"):
        ref.slot_loss([dist], [])


def test_loss_decomposition_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        dists = []
        labels = []
        loss_start = loss_end = 0.0
        for j in range(m):
            s = rng.dirichlet(np.ones(n + 1))
            e = rng.dirichlet(np.ones(n + 1))
            dists.append(make_dist(f"FE{j}", s, e))
            labels.append((int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))))
            loss_start += -float(np.log(s[labels[-1][0]]))
            loss_end += -float(np.log(e[labels[-1][1]]))
        # bitwise: each head summed over slots in order, then combined 0.5 / 0.5
        assert ref.slot_loss(dists, labels) == 0.5 * loss_start + 0.5 * loss_end
        assert loss_start >= 0 and loss_end >= 0


def test_end_to_end_gradients_match_finite_differences(store, vocab, train_instances):
    # joint loss through pointer heads, maxpool, and encoder; full sweep in acceptance
    inst = train_instances[0]
    template = build_frame_template(store.frame(inst.frame))
    pair = assemble(inst, template, vocab)
    labels = gold_labels(inst, template)
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2, max_len=128, seed=1, dtype="f64")
    params = init_parameters(config, len(vocab))
    _, _, grads = loss_and_gradients(params, config, pair, labels)

    def total_loss():
        return ref.loss(params, config, pair, labels)

    rng = np.random.default_rng(2)
    eps = 1e-5
    for name in ("pointer.w_start", "pointer.w_end", "tok_emb", "layer0.attn.w_v", "seg_emb"):
        tensor = params[name]
        for fi in rng.integers(0, tensor.size, size=4):
            idx = np.unravel_index(fi, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + eps
            plus = total_loss()
            tensor[idx] = orig - eps
            minus = total_loss()
            tensor[idx] = orig
            fd = (plus - minus) / (2 * eps)
            an = grads[name][idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            assert rel <= 1e-4, (name, idx, an, fd)


def mixed_batch(store, vocab, train_instances, dtype="f64"):
    """Pairs of mixed length and slot count: frame-def, question, bare [CLS], FE-def,
    and a frame-def pair whose gold fills two slots that span two rows each."""
    from aged.templates import build_fe_template, build_question_template

    inst = train_instances[0]
    frame = store.frame(inst.frame)
    other = next(i for i in train_instances if i.frame != inst.frame)
    other_frame = store.frame(other.frame)
    wide = next(i for i in train_instances if i.frame == "Transition_to_state"
                and {a.fe for a in i.arguments} >= {"Initial_state", "Final_state"})
    templates = [
        (inst, build_frame_template(frame)),
        (other, build_question_template(other_frame, other_frame.fe_order[0])),
        (inst, build_fe_template(frame, frame.fe_order[1])),
        (wide, build_frame_template(store.frame(wide.frame))),
    ]
    pairs = [assemble(i, t, vocab) for i, t in templates]
    labels = [gold_labels(i, t) for i, t in templates]
    cls_only = EncodedPair(ids=(CLS_ID,), sentence_pos=(), slot_pos=(), slot_fes=(),
                           definition_start=1)
    pairs.insert(2, cls_only)
    labels.insert(2, [])
    assert len({len(p.ids) for p in pairs}) == len(pairs)
    assert len({len(p.slot_pos) for p in pairs}) >= 3
    assert [end - start for start, end in pairs[4].slot_pos] == [0, 1, 1]
    config = EncoderConfig(d_model=8, n_layers=2, n_heads=2, max_len=128, seed=4, dtype=dtype)
    return config, init_parameters(config, len(vocab)), pairs, labels


def test_score_batch_equals_per_pair_reference(store, vocab, train_instances):
    config, params, pairs, _ = mixed_batch(store, vocab, train_instances)
    reps, _ = forward_batch(params, config, pairs)
    probs, _ = score_batch(params, reps, pairs)
    n_cands = np.array([len(pair.sentence_pos) + 1 for pair in pairs])
    assert probs.shape == (2, len(pairs), max(len(p.slot_pos) for p in pairs), n_cands.max())
    for b, pair in enumerate(pairs):
        reference = ref.distributions(params, config, pair)
        assert len(reference) == len(pair.slot_pos)
        for m, r in enumerate(reference):
            np.testing.assert_allclose(probs[0, b, m, : n_cands[b]], r.start_probs, rtol=1e-9,
                                       atol=0)
            np.testing.assert_allclose(probs[1, b, m, : n_cands[b]], r.end_probs, rtol=1e-9,
                                       atol=0)
    padded = np.arange(n_cands.max()) >= n_cands[:, None]  # (B, C)
    assert padded.any()
    assert (probs * padded[:, None, :] == 0).all()


def chunk_attention(monkeypatch, config, pairs):
    """Lower the activation budget so that `mixed_batch` attends in four chunks:
    its first pair over the budget alone, two padded pairs, and two single pairs."""
    monkeypatch.setattr(aged.encoder, "ARRAY_BUDGET", 2000)
    assert _runs([len(p.ids) for p in pairs], lambda n: config.n_heads * n * n) == [
        (0, 1), (1, 3), (3, 4), (4, 5)]


def test_batched_loss_and_gradients_equal_sum_of_single_pairs(store, vocab, train_instances):
    assert_batch_equals_sum_of_single_pairs(*mixed_batch(store, vocab, train_instances))


def test_multi_chunk_loss_and_gradients_equal_sum_of_single_pairs(store, vocab, train_instances,
                                                                  monkeypatch):
    config, params, pairs, labels = mixed_batch(store, vocab, train_instances)
    chunk_attention(monkeypatch, config, pairs)
    assert_batch_equals_sum_of_single_pairs(config, params, pairs, labels)


def assert_batch_equals_sum_of_single_pairs(config, params, pairs, labels):
    losses, grads = batch_loss_and_gradients(params, config, pairs, labels)
    probs, _ = score_batch(params, forward_batch(params, config, pairs)[0], pairs)
    summed = {k: np.zeros_like(v) for k, v in params.items()}
    for b, (pair, pair_labels, loss) in enumerate(zip(pairs, labels, losses)):
        single, single_dists, single_grads = loss_and_gradients(params, config, pair, pair_labels)
        assert loss == pytest.approx(single, rel=1e-9)
        assert [d.fe for d in single_dists] == list(pair.slot_fes)
        n_cand = len(pair.sentence_pos) + 1
        for m, s in enumerate(single_dists):
            np.testing.assert_allclose(probs[0, b, m, :n_cand], s.start_probs, rtol=1e-9,
                                       atol=1e-15)
            np.testing.assert_allclose(probs[1, b, m, :n_cand], s.end_probs, rtol=1e-9,
                                       atol=1e-15)
        for k in summed:
            summed[k] += single_grads[k]
    assert set(grads) == set(params)
    for k, expected in summed.items():
        scale = np.abs(expected).max()
        assert np.abs(grads[k] - expected).max() <= 1e-9 * scale, k


def two_head_reference(params, config, pairs, labels):
    """Losses and gradients with each pointer head run on its own: the per-head
    chain of matmuls and softmaxes, summed into zeroed buffers head by head."""
    reps, cache = forward_batch(params, config, pairs)
    _, scores = score_batch(params, reps, pairs)
    rows, queries = scores["rows"], scores["queries"]
    batch, n_cand, d = rows.shape
    n_slot = queries.shape[1]
    n_cands = [len(pair.sentence_pos) + 1 for pair in pairs]
    n_slots = [len(pair.slot_pos) for pair in pairs]
    gold = np.zeros((2, batch, n_slot), dtype=np.intp)
    for b, pair_labels in enumerate(labels):
        if pair_labels:
            gold[:, b, : n_slots[b]] = np.array(pair_labels).T
    slot_ok = np.arange(n_slot) < np.array(n_slots)[:, None]
    cand_ok = np.arange(n_cand) < np.array(n_cands)[:, None]
    cand_bias = np.where(cand_ok, 0.0, -np.inf).astype(reps.dtype)[:, None, :]

    d_rows = np.zeros_like(rows)
    d_queries = np.zeros_like(queries)
    nll, w_grads = [], {}
    for name, head_gold in zip(("pointer.w_start", "pointer.w_end"), gold):
        z = queries @ params[name].T
        probs = _softmax(z @ rows.transpose(0, 2, 1) + cand_bias)
        p_gold = np.take_along_axis(probs, head_gold[..., None], axis=2)[..., 0]
        nll.append(-np.log(np.where(slot_ok, p_gold, 1.0)).astype(np.float64))
        dlogits = 0.5 * (probs - (np.arange(n_cand) == head_gold[..., None]))
        dlogits *= slot_ok[..., None]
        d_rows += dlogits.transpose(0, 2, 1) @ z
        dz = dlogits @ rows
        d_queries += dz @ params[name]
        w_grads[name] = dz.reshape(-1, d).T @ queries.reshape(-1, d)
    grads = backward_from_cache(params, config, cache, _reps_grad(scores, d_rows, d_queries))
    for name, w_grad in w_grads.items():
        grads[name][...] = w_grad
    losses = [0.5 * float(nll[0][b].sum()) + 0.5 * float(nll[1][b].sum()) for b in range(batch)]
    return losses, grads


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_stacked_heads_equal_two_head_reference_bitwise(store, vocab, train_instances, dtype):
    config, params, pairs, labels = mixed_batch(store, vocab, train_instances, dtype)
    losses, grads = batch_loss_and_gradients(params, config, pairs, labels)
    ref_losses, ref_grads = two_head_reference(params, config, pairs, labels)
    assert losses == ref_losses
    assert all(type(loss) is float for loss in losses)
    for name in ("pointer.w_start", "pointer.w_end"):
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name
    assert grads.flat.tobytes() == ref_grads.flat.tobytes()


def test_pointer_heads_are_one_view_of_the_flat_buffer(store, vocab, train_instances):
    # both heads are scored, and both gradients written, through one (2, d, d)
    # view of the flat buffer
    config, params, pairs, labels = mixed_batch(store, vocab, train_instances)
    heads = _head_pair(params)
    assert heads.shape == (2, 8, 8) and np.shares_memory(heads, params.flat)
    assert heads[0].tobytes() == params["pointer.w_start"].tobytes()
    assert heads[1].tobytes() == params["pointer.w_end"].tobytes()
    _, grads = batch_loss_and_gradients(params, config, pairs, labels)
    w_grads = _head_pair(grads)
    assert np.shares_memory(w_grads, grads.flat)
    assert w_grads[0].tobytes() == grads["pointer.w_start"].tobytes()
    assert w_grads[1].tobytes() == grads["pointer.w_end"].tobytes()


def test_batched_gradients_match_finite_differences(store, vocab, train_instances):
    assert_batch_gradients_match_finite_differences(*mixed_batch(store, vocab, train_instances))


def test_multi_chunk_gradients_match_finite_differences(store, vocab, train_instances,
                                                        monkeypatch):
    config, params, pairs, labels = mixed_batch(store, vocab, train_instances)
    chunk_attention(monkeypatch, config, pairs)
    assert_batch_gradients_match_finite_differences(config, params, pairs, labels)


def assert_batch_gradients_match_finite_differences(config, params, pairs, labels):
    """The padded batch's gradient against the per-pair reference loss."""
    _, grads = batch_loss_and_gradients(params, config, pairs, labels)

    def total_loss():
        return sum(ref.loss(params, config, pair, pair_labels)
                   for pair, pair_labels in zip(pairs, labels))

    rng = np.random.default_rng(8)
    eps = 1e-5
    for name, tensor in params.items():
        for fi in rng.choice(tensor.size, size=min(6, tensor.size), replace=False):
            idx = np.unravel_index(fi, tensor.shape)
            orig = tensor[idx]
            tensor[idx] = orig + eps
            plus = total_loss()
            tensor[idx] = orig - eps
            minus = total_loss()
            tensor[idx] = orig
            fd = (plus - minus) / (2 * eps)
            an = grads[name][idx]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            assert rel <= 1e-4, (name, idx, an, fd)


def test_batch_label_count_mismatch_rejected(store, vocab, train_instances):
    config, params, pairs, labels = mixed_batch(store, vocab, train_instances)
    n_slots = len(labels[0])
    with pytest.raises(ValueError, match=f"^{n_slots} distributions vs {n_slots - 1} labels$"):
        batch_loss_and_gradients(params, config, pairs, [labels[0][:-1]] + labels[1:])
    with pytest.raises(ValueError, match="pairs vs"):
        batch_loss_and_gradients(params, config, pairs, labels[:-1])
    n = len(pairs[0].sentence_pos)
    for bad in ((0, 999), (-1, 0), (n + 1, 1)):
        with pytest.raises(ValueError, match=rf"^label \({bad[0]}, {bad[1]}\) outside 0\.\.{n}$"):
            batch_loss_and_gradients(params, config, pairs[:1], [[bad] * n_slots])
    # the first bad label is named, counted over the pairs in order
    later = [list(pair_labels) for pair_labels in labels]
    later[3][0] = (0, 500)
    with pytest.raises(ValueError, match=r"^label \(0, 500\) outside"):
        batch_loss_and_gradients(params, config, pairs, later)


def test_one_hot_scatters_equal_add_at_exactly():
    # repeated token ids, overlapping slot spans, ties inside a span, and a
    # batch padded in length, candidates and slots
    pairs = [
        EncodedPair(ids=(2, 5, 5, 7, 5, 3, 9, 9, 9, 3), sentence_pos=(1, 2, 3, 4),
                    slot_pos=((6, 8), (7, 9), (8, 8)), slot_fes=("A", "B", "C"),
                    definition_start=6),
        EncodedPair(ids=(2, 4, 4, 3, 6, 6, 3), sentence_pos=(1, 2),
                    slot_pos=((4, 5),), slot_fes=("A",), definition_start=4),
    ]
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2, max_len=16, seed=1, dtype="f64")
    params = init_parameters(config, 12)
    reps, cache = forward_batch(params, config, pairs)
    assert reps.shape[1] == 9  # the (B, N, d) read rows; pair 1 has 4 rows of padding
    reps[0, 6] = reps[0, 7]  # positions 7 and 8 tie in the maxpool: the first row wins
    _, scores = score_batch(params, reps, pairs)
    rng = np.random.default_rng(4)
    d_rows = rng.normal(size=scores["rows"].shape)
    d_rows[1, 3:] = 0.0  # padded candidates get no gradient
    d_queries = rng.normal(size=scores["queries"].shape)
    d_queries[1, 1:] = 0.0  # nor do padded slots

    expected = np.zeros_like(reps)
    batch_idx = np.arange(len(pairs))[:, None]
    np.add.at(expected, (batch_idx, np.arange(d_rows.shape[1])), d_rows)
    span_lo = scores["span_rows"][..., 0]
    winners = span_lo[..., None] + scores["pooled"].argmax(axis=2)
    np.add.at(expected, (batch_idx[..., None], winners, np.arange(reps.shape[2])), d_queries)
    assert _reps_grad(scores, d_rows, d_queries).tobytes() == expected.tobytes()

    length = len(pairs[0].ids)
    dx = rng.normal(size=(reps.shape[0] * length, reps.shape[2]))
    for name, index in (("tok_emb", cache["ids"]), ("seg_emb", cache["segments"])):
        expected = np.zeros_like(params[name])
        np.add.at(expected, index.ravel(), dx)
        actual = np.zeros_like(params[name])
        _embedding_grad(index.ravel(), dx, actual)
        assert actual.tobytes() == expected.tobytes(), name
