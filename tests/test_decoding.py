import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aged.decoding
from aged.decoding import (
    PREDICT_BATCH_TOKENS,
    SpanPrediction,
    decode,
    decode_slot,
    predict_all,
    predict_instance,
)
from aged.encoder import Checkpoint, EncoderConfig, forward, forward_batch, init_parameters
from aged.encoding import assemble
from aged.pointer import PointerDistribution, make_queries, pointer_distributions
from aged.templates import (
    MarkerOptions,
    TemplateMode,
    build_frame_template,
    build_question_template,
)


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
    config = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, seed=0)
    model = Checkpoint(config, init_parameters(config), vocab, TemplateMode.FRAME_DEF,
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
    """Per pair, per slot: forward, make_queries, pointer_distributions, decode."""
    frame = store.frame(inst.frame)
    if model.mode is TemplateMode.QUESTION:
        templates = [build_question_template(frame, fe) for fe in frame.fe_order]
    else:
        templates = [build_frame_template(frame)]
    predictions = []
    for template in templates:
        pair = assemble(inst, template, model.vocab, max_len=model.config.max_len)
        encoding = forward(model.params, model.config, pair)
        queries = make_queries(encoding, pair)
        predictions.extend(decode(pointer_distributions(model.params, encoding, pair, queries)))
    return predictions


def _f64_model(vocab, mode):
    config = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2, seed=3,
                           dtype="f64")
    return Checkpoint(config, init_parameters(config), vocab, mode, MarkerOptions())


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
def test_predict_all_batches_within_the_token_budget(store, vocab, test_instances, monkeypatch,
                                                     mode):
    model = _f64_model(vocab, mode)
    # pairs of 150+ tokens: longer than half the budget, so each must run alone
    long = replace(test_instances[0], tokens=test_instances[0].tokens + ("filler",) * 140)
    instances = [long, *test_instances, long]
    batches = []

    def counting_forward_batch(params, config, pairs):
        batches.append([len(pair.ids) for pair in pairs])
        return forward_batch(params, config, pairs)

    monkeypatch.setattr(aged.decoding, "forward_batch", counting_forward_batch)
    predictions = predict_all(instances, store, model)
    assert all(len(lengths) * max(lengths) <= PREDICT_BATCH_TOKENS for lengths in batches)
    assert max(len(lengths) for lengths in batches) > 1
    long_batches = [lengths for lengths in batches if max(lengths) > PREDICT_BATCH_TOKENS // 2]
    assert long_batches and all(len(lengths) == 1 for lengths in long_batches)
    n_pairs = len(instances) if mode is TemplateMode.FRAME_DEF else sum(
        len(store.frame(inst.frame).fe_order) for inst in instances)
    assert sum(map(len, batches)) == n_pairs
    _assert_matches_reference(predictions, instances, store, model)


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
