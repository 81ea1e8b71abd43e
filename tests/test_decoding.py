import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aged.decoding
from aged.decoding import (
    SpanPrediction,
    decode,
    decode_batch,
    decode_slot,
    predict_all,
    predict_instance,
    query_pairs,
)
from aged.encoder import (
    ARRAY_BUDGET,
    Checkpoint,
    EncoderConfig,
    forward_batch,
    init_parameters,
)
from aged.encoding import EncodedPair, assemble
from aged.pointer import PointerDistribution
from aged.templates import (
    MarkerOptions,
    TemplateMode,
    build_frame_template,
    build_question_template,
    query_templates,
)

import reference as ref


def brute_force_decode(start_probs, end_probs):
    """Exhaustive scan over {(s, e): 1 <= s <= e <= n} with the strict null rule."""
    start = [float(x) for x in start_probs]
    end = [float(x) for x in end_probs]
    n = len(start) - 1
    null_score = start[0] * end[0]
    best = None
    for s in range(1, n + 1):
        for e in range(s, n + 1):
            p = start[s] * end[e]
            if best is None or p > best[0]:
                best = (p, s, e)
    if best is None or best[0] <= null_score:
        return None, null_score
    return (best[1], best[2]), best[0]


def test_decode_emits_best_valid_pair():
    span, score = decode_slot([0.1, 0.6, 0.2, 0.1], [0.1, 0.1, 0.7, 0.1])
    assert span == (1, 2)
    assert score == pytest.approx(0.42)


def test_decode_null_dominates():
    start = [0.9, 0.04, 0.03, 0.03]
    end = [0.9, 0.05, 0.03, 0.02]
    span, score = decode_slot(start, end)
    assert span is None
    assert score == pytest.approx(0.81)


def test_decode_respects_start_end_constraint():
    # start mass late, end mass early: the constrained best differs from the
    # unconstrained argmax pair (3, 1)
    start = [0.05, 0.05, 0.1, 0.8]
    end = [0.05, 0.8, 0.1, 0.05]
    assert decode_slot(start, end) == brute_force_decode(start, end)
    span, _ = decode_slot(start, end)
    s, e = span
    assert s <= e


def test_decode_exact_tie_goes_to_null():
    span, score = decode_slot([0.5, 0.5], [0.5, 0.5])
    assert span is None
    assert score == 0.25


def test_decode_carries_fe_and_null_score():
    dist = PointerDistribution("Victim", np.array([0.9, 0.1]), np.array([0.9, 0.1]))
    [prediction] = decode([dist])
    assert prediction == SpanPrediction("Victim", None, pytest.approx(0.81))


def test_decode_matches_oracle_on_random_distributions():
    rng = np.random.default_rng(123)
    for _ in range(1500):
        n = int(rng.integers(1, 21))
        start = rng.dirichlet(np.full(n + 1, 0.5))
        end = rng.dirichlet(np.full(n + 1, 0.5))
        assert decode_slot(start, end) == brute_force_decode(start, end)


@given(
    n=st.integers(1, 8),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_decode_matches_oracle_with_adversarial_ties(n, data):
    # small integer grids force many exactly-equal products
    grid = st.integers(0, 3)
    start = [data.draw(grid) for _ in range(n + 1)]
    end = [data.draw(grid) for _ in range(n + 1)]
    start_probs = np.asarray(start, float)
    end_probs = np.asarray(end, float)
    assert decode_slot(start_probs, end_probs) == brute_force_decode(start_probs, end_probs)


@given(seed=st.integers(0, 2**20))
@settings(max_examples=150, deadline=None)
def test_decode_agrees_with_independent_argmaxes_when_valid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    start = rng.dirichlet(np.ones(n + 1))
    end = rng.dirichlet(np.ones(n + 1))
    s_hat = 1 + int(np.argmax(start[1:]))
    e_hat = 1 + int(np.argmax(end[1:]))
    if e_hat < s_hat:
        return  # constrained case, covered by the oracle test
    span, _ = decode_slot(start, end)
    if span is not None:
        assert span == (s_hat, e_hat)
    else:
        assert start[0] * end[0] >= start[s_hat] * end[e_hat]


def test_predict_instance_is_structurally_total(store, vocab, test_instances):
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2, seed=0)
    model = Checkpoint(config, init_parameters(config, len(vocab)), vocab, TemplateMode.FRAME_DEF,
                       MarkerOptions())
    for inst in test_instances[:4]:
        predictions = predict_instance(inst, store, model)
        frame = store.frame(inst.frame)
        assert len(predictions) == len(frame.fe_order)
        assert {p.fe for p in predictions} == set(frame.fe_order)
        for p in predictions:
            if p.span is not None:
                s, e = p.span
                assert 1 <= s <= e <= len(inst.tokens)


def reference_predict(inst, store, model):
    """Per pair, per slot: the reference's distributions and decoder."""
    frame = store.frame(inst.frame)
    if model.mode is TemplateMode.QUESTION:
        templates = [build_question_template(frame, fe) for fe in frame.fe_order]
    else:
        templates = [build_frame_template(frame)]
    predictions = []
    for template in templates:
        pair = assemble(inst, template, model.vocab, max_len=model.config.max_len)
        for dist in ref.distributions(model.params, model.config, pair):
            span, score = ref.decode_slot(dist.start_probs, dist.end_probs)
            predictions.append(SpanPrediction(dist.fe, span, score))
    return predictions


def _f64_model(vocab, mode, n_heads=2):
    config = EncoderConfig(d_model=16, n_layers=2, n_heads=n_heads, seed=3, dtype="f64")
    return Checkpoint(config, init_parameters(config, len(vocab)), vocab, mode, MarkerOptions())


def _assert_matches_reference(predictions, instances, store, model):
    assert len(predictions) == len(instances)
    for inst, preds in zip(instances, predictions):
        reference = reference_predict(inst, store, model)
        assert [(p.fe, p.span) for p in preds] == [(r.fe, r.span) for r in reference]
        for p, r in zip(preds, reference):
            assert p.score == pytest.approx(r.score, rel=1e-9)


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_predict_instance_matches_per_pair_reference(store, vocab, test_instances, mode):
    model = _f64_model(vocab, mode)
    predictions = [predict_instance(inst, store, model) for inst in test_instances]
    _assert_matches_reference(predictions, test_instances, store, model)
    assert any(p.span is not None for preds in predictions for p in preds)


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_predict_all_shuffled_matches_per_pair_reference(store, vocab, test_instances, mode):
    model = _f64_model(vocab, mode)
    instances = list(test_instances)
    random.Random(5).shuffle(instances)
    predictions = predict_all(instances, store, model)
    _assert_matches_reference(predictions, instances, store, model)
    assert any(p.span is not None for preds in predictions for p in preds)


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_query_pairs_builds_each_frame_templates_once(store, vocab, test_instances, monkeypatch,
                                                      mode):
    model = _f64_model(vocab, mode)
    built = []

    def counting_query_templates(frame, *args):
        built.append(frame.name)
        return query_templates(frame, *args)

    monkeypatch.setattr(aged.decoding, "query_templates", counting_query_templates)
    pairs = query_pairs(test_instances, store, model)
    assert sorted(built) == sorted(frame.name for frame in store)
    assert len(test_instances) > len(built)
    assert pairs == [
        [assemble(inst, t, vocab) for t in query_templates(store.frame(inst.frame), mode)]
        for inst in test_instances
    ]


def _recording_forward_batch(monkeypatch):
    """Patch prediction's `forward_batch` to record each batch's pair lengths and cache."""
    batches, caches = [], []

    def recording(params, config, pairs, *args, **kwargs):
        batches.append([len(pair.ids) for pair in pairs])
        reps, cache = forward_batch(params, config, pairs, *args, **kwargs)
        caches.append(cache)
        return reps, cache

    monkeypatch.setattr(aged.decoding, "forward_batch", recording)
    return batches, caches


def _padded_rows(lengths, d_ff):
    """A batch's padded feed-forward hidden elements: pairs x longest pair x d_ff."""
    return len(lengths) * max(lengths) * d_ff


def _padded_scores(lengths, n_heads=4):
    """One layer's padded attention scores of a batch: pairs x heads x longest squared."""
    return len(lengths) * n_heads * max(lengths) ** 2


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_predict_all_batches_within_the_row_budget(store, vocab, test_instances, monkeypatch,
                                                   mode):
    model = _f64_model(vocab, mode, n_heads=4)
    d_ff = model.config.d_ff  # 64: 2048 rows, so 8 pairs of 256 tokens share a batch
    base = len(query_pairs(test_instances[:1], store, model)[0][0].ids)
    longer = [replace(test_instances[0], tokens=test_instances[0].tokens + ("filler",) * k)
              for k in (129 - base, 200, 150, 256 - base, 129 - base, 200, 256 - base)]
    instances = [longer[0], *test_instances[:6], *longer[1:], *test_instances[6:]]
    batches, caches = _recording_forward_batch(monkeypatch)
    predictions = predict_all(instances, store, model)
    assert all(_padded_rows(lengths, d_ff) <= ARRAY_BUDGET for lengths in batches)
    # each batch but the last is cut where the next, longer pair would pass the budget
    for lengths, following in zip(batches, batches[1:]):
        assert max(lengths) <= min(following)
        assert _padded_rows([*lengths, following[0]], d_ff) > ARRAY_BUDGET
    # pairs over 128 tokens share batches; their attention runs per chunk
    long_batches = [lengths for lengths in batches if max(lengths) > 128]
    assert long_batches and all(len(lengths) > 1 for lengths in long_batches)
    assert any(_padded_scores(lengths) > ARRAY_BUDGET for lengths in long_batches)
    n_pairs = len(instances) if mode is TemplateMode.FRAME_DEF else sum(
        len(store.frame(inst.frame).fe_order) for inst in instances)
    assert sum(map(len, batches)) == n_pairs
    assert caches == [None] * len(batches)  # prediction keeps no per-layer cache
    _assert_matches_reference(predictions, instances, store, model)


def test_a_pair_over_the_row_budget_predicts_alone(store, vocab, test_instances, monkeypatch):
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2, d_ff=1024, seed=3, dtype="f64")
    model = Checkpoint(config, init_parameters(config, len(vocab)), vocab, TemplateMode.FRAME_DEF,
                       MarkerOptions())
    # 128 rows fit the budget at d_ff 1024: two bundled pairs share a batch, and
    # a pair of over 128 tokens runs alone
    longer = replace(test_instances[0], tokens=test_instances[0].tokens + ("filler",) * 100)
    instances = [longer, *test_instances[:4], longer]
    batches, _ = _recording_forward_batch(monkeypatch)
    predictions = predict_all(instances, store, model)
    assert [len(lengths) for lengths in batches] == [2, 2, 1, 1]
    assert all(_padded_rows(lengths, config.d_ff) <= ARRAY_BUDGET for lengths in batches[:2])
    assert all(lengths[0] * config.d_ff > ARRAY_BUDGET for lengths in batches[2:])
    _assert_matches_reference(predictions, instances, store, model)


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_bundled_test_set_predicts_as_one_batch(store, vocab, test_instances, monkeypatch,
                                                mode):
    model = _f64_model(vocab, mode, n_heads=4)
    batches, _ = _recording_forward_batch(monkeypatch)
    predictions = predict_all(test_instances, store, model)
    assert len(batches) == 1
    assert _padded_rows(batches[0], model.config.d_ff) <= ARRAY_BUDGET
    # and the whole batch attends as one chunk
    assert _padded_scores(batches[0]) <= ARRAY_BUDGET
    _assert_matches_reference(predictions, test_instances, store, model)


def _batch_of(ns, slots):
    """Synthetic pairs with n sentence tokens and the given slot count each."""
    return [EncodedPair(ids=(), sentence_pos=tuple(range(1, n + 1)), slot_pos=((0, 0),) * m,
                        slot_fes=tuple(f"FE{j}" for j in range(m)), definition_start=0)
            for n, m in zip(ns, slots)]


def _distribution(rng, kind, size):
    """Non-negative start or end probabilities of one `kind` over `size` candidates."""
    if kind == "random":
        return rng.dirichlet(np.full(size, 0.5))
    if kind == "ties":  # a few repeated values, some a few ulps apart
        values = rng.choice([0.0, 0.1, 0.3, 0.7, rng.random()], size=size)
        bumped = rng.random(size) < 0.3
        values[bumped] = np.nextafter(values[bumped], 1.0)
        return values
    if kind == "zeros":
        return np.zeros(size)
    return np.full(size, 1.0 / size)  # uniform


def _assert_decode_batch_matches_decode_slot(probs, pairs):
    decoded = decode_batch(probs, pairs)
    assert len(decoded) == len(pairs)
    for b, (pair, predictions) in enumerate(zip(pairs, decoded)):
        n_cand = len(pair.sentence_pos) + 1
        assert [p.fe for p in predictions] == list(pair.slot_fes)
        for m, prediction in enumerate(predictions):
            span, score = ref.decode_slot(probs[0, b, m, :n_cand], probs[1, b, m, :n_cand])
            assert prediction.span == span
            assert type(prediction.score) is float
            assert np.float64(prediction.score).tobytes() == np.float64(score).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["random", "ties", "zeros", "uniform"])
def test_decode_batch_equals_decode_slot_bitwise(dtype, kind):
    rng = np.random.default_rng(31)
    ns = list(range(1, 251))
    rng.shuffle(ns)
    for lo in range(0, len(ns), 5):  # batches of 5 pairs: padded candidates and slots
        batch_ns = ns[lo : lo + 5]
        pairs = _batch_of(batch_ns, rng.integers(0, 4, size=len(batch_ns)))
        n_slot, n_cand = max(len(p.slot_fes) for p in pairs), max(batch_ns) + 1
        # padded slots hold noise that must not matter; padded candidates are 0
        probs = rng.random((2, len(pairs), n_slot, n_cand))
        for b, (n, pair) in enumerate(zip(batch_ns, pairs)):
            probs[:, b, :, n + 1 :] = 0.0
            for m in range(len(pair.slot_fes)):
                for head in range(2):
                    probs[head, b, m, : n + 1] = _distribution(rng, kind, n + 1)
        _assert_decode_batch_matches_decode_slot(probs.astype(dtype), pairs)


def test_decode_batch_edge_cases_equal_decode_slot():
    rng = np.random.default_rng(8)
    # a pair with no sentence tokens next to longer ones, and an all-n=0 batch
    pairs = _batch_of([0, 3, 7], [2, 1, 3])
    probs = rng.random((2, 3, 3, 8))
    probs[:, 0, :, 1:] = 0.0
    probs[:, 1, :, 4:] = 0.0
    _assert_decode_batch_matches_decode_slot(probs, pairs)
    _assert_decode_batch_matches_decode_slot(rng.random((2, 2, 1, 1)), _batch_of([0, 0], [1, 0]))
    assert decode_batch(np.zeros((2, 1, 0, 3)), _batch_of([2], [0])) == [[]]


def test_decode_matches_oracle_on_long_distributions():
    rng = np.random.default_rng(77)
    for n in (60, 150, 250):
        for _ in range(3):
            start = rng.dirichlet(np.full(n + 1, 0.3))
            end = rng.dirichlet(np.full(n + 1, 0.3))
            assert decode_slot(start, end) == brute_force_decode(start, end)

    # repeated start values and runs of ends one or a few ulps apart, so many
    # (s, e) products round to the same float and a larger end ties a smaller one
    ties = 0
    for n in (60, 150, 250):
        for _ in range(20):
            start = rng.choice([0.1, 0.3, 0.7, rng.random()], size=n + 1)
            end = rng.choice([0.4, rng.random()], size=n + 1)
            for _ in range(3):
                bumped = rng.random(n + 1) < 0.5
                end[bumped] = np.nextafter(end[bumped], 1.0)
            span, score = decode_slot(start, end)
            assert (span, score) == brute_force_decode(start, end)
            if span is not None:
                s, e = span
                ties += any(end[x] > end[e] and start[s] * end[x] == score for x in range(e, n + 1))
    assert ties > 0


def test_decode_rounding_tie_keeps_smallest_end():
    # end[2] > end[1], yet start[1] * end[1] == start[1] * end[2] after rounding:
    # the first maximal product wins, not the larger end probability
    e1 = 0.4
    e2 = float(np.nextafter(e1, 1.0))
    assert e2 > e1 and 0.1 * e1 == 0.1 * e2
    start, end = [0.01, 0.1, 0.01], [0.01, e1, e2]
    assert decode_slot(start, end) == brute_force_decode(start, end) == ((1, 1), 0.1 * e1)
