"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Scaled-down experiments run on the bundled mini corpus; stated
runtime budgets are asserted.
"""

import dataclasses
import time
from contextlib import contextmanager

import numpy as np
import pytest

from aged.corpus import load_mini_framenet
from aged.decoding import decode_slot, predict_all, predict_instance
from aged.encoder import (
    Checkpoint,
    EncoderConfig,
    forward_cached,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import assemble, build_vocabulary, gold_labels
from aged.evaluation import evaluate
from aged.experiments import run_holdout_experiment
from aged.pointer import loss_and_gradients
from aged.templates import (
    MarkerOptions,
    TemplateMode,
    build_frame_template,
)
from aged.training import TrainConfig, build_training_stream, train, untrained_model

import reference
from test_decoding import brute_force_decode
from test_evaluation import instance as make_instance
from test_evaluation import predictions as make_predictions
from test_evaluation import set_oracle


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


@pytest.fixture(scope="module")
def corpus():
    return load_mini_framenet()


@pytest.fixture(scope="module")
def overfit(corpus):
    """Two identical overfit runs at the pinned hyperparameters."""
    store, train_instances, _ = corpus
    vocab = build_vocabulary(train_instances, store)

    def one_run():
        config = EncoderConfig(
            d_model=32, n_layers=2, n_heads=4,
            max_len=256, seed=7, dtype="f32",
        )
        model = Checkpoint(config, init_parameters(config, len(vocab)), vocab, TemplateMode.FRAME_DEF, MarkerOptions())
        train_config = TrainConfig(epochs=60, batch_size=8, learning_rate=1e-3)
        stream = build_training_stream(train_instances, store, model, train_config)
        return train(stream, model, train_config)

    started = time.monotonic()
    model_a, report_a, _ = one_run()
    model_b, report_b, _ = one_run()
    elapsed = time.monotonic() - started
    return vocab, model_a, report_a, report_b, elapsed


def test_criterion_1_template_completeness(corpus):
    store, _, _ = corpus
    with criterion(1, "template completeness"):
        started = time.monotonic()
        for frame in store:
            template = build_frame_template(frame)
            # exactly one slot per FE of the frame
            assert sorted(template.slot_fes) == sorted(frame.fe_order)
            sep_positions = [i for i, t in enumerate(template.tokens) if t == "|"]
            mentioned = set(frame.definition.mentioned_fes())
            for slot in template.slots:
                in_list = slot.start > sep_positions[1]
                # no FE both wrapped in the definition and appended to the list
                assert in_list == (slot.fe not in mentioned)
            # at most one slot per FE, at the leftmost mention: slot order in
            # the definition part must match first-mention order
            for slot in template.slots:
                assert sum(1 for s in template.slots if s.fe == slot.fe) == 1
            order_in_def = list(frame.definition.mentioned_fes())
            slots_in_def = [s.fe for s in template.slots if s.start < sep_positions[1]]
            assert slots_in_def == order_in_def
        assert time.monotonic() - started < 1.0


def test_criterion_2_gradient_fidelity(corpus):
    store, train_instances, _ = corpus
    with criterion(2, "gradient fidelity"):
        started = time.monotonic()
        vocab = build_vocabulary(train_instances, store)
        config = EncoderConfig(
            d_model=8, n_layers=1, n_heads=2,
            max_len=64, seed=13, dtype="f64",
        )
        params = init_parameters(config, len(vocab))
        inst = train_instances[0]
        template = build_frame_template(store.frame(inst.frame))
        pair = assemble(inst, template, vocab, max_len=64)
        labels = gold_labels(inst, template)
        _, _, grads = loss_and_gradients(params, config, pair, labels)

        def total_loss():
            return reference.loss(params, config, pair, labels)

        eps = 1e-5
        rng = np.random.default_rng(99)
        checked = 0
        for name, tensor in params.items():
            count = min(200, tensor.size)
            flat = rng.choice(tensor.size, size=count, replace=False)
            for fi in flat:
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
                assert rel <= 1e-4, (name, idx, an, fd, rel)
                checked += 1
        assert checked >= 200 * sum(1 for t in params.values() if t.size >= 200)
        assert time.monotonic() - started < 60.0


def test_criterion_3_decode_oracle_equivalence():
    with criterion(3, "decode-oracle equivalence"):
        started = time.monotonic()
        rng = np.random.default_rng(2024)
        mismatches = 0
        for case in range(1200):
            n = int(rng.integers(1, 21))
            start = rng.dirichlet(np.full(n + 1, 0.4))
            end = rng.dirichlet(np.full(n + 1, 0.4))
            if decode_slot(start, end) != brute_force_decode(start, end):
                mismatches += 1
        assert mismatches == 0
        assert time.monotonic() - started < 5.0


def test_criterion_4_metric_oracle_equivalence():
    with criterion(4, "metric-oracle equivalence"):
        started = time.monotonic()
        rng = np.random.default_rng(4242)
        fes = ["A", "B", "C", "D"]
        cases = 0
        for case in range(1100):
            n_instances = int(rng.integers(0, 6))
            force = case % 11  # cycle through degenerate shapes
            gold, preds = [], []
            for _ in range(n_instances):
                n = int(rng.integers(2, 9))
                gold_args = []
                if force != 1:  # force == 1 leaves gold empty
                    for fe in fes:
                        if rng.random() < 0.5:
                            s = int(rng.integers(1, n + 1))
                            e = int(rng.integers(s, n + 1))
                            gold_args.append((fe, s, e))
                gold.append(make_instance("Attack", *gold_args, n=n))
                spans = []
                for fe in fes:
                    if force == 2 or rng.random() < 0.4:  # force == 2: nothing predicted
                        spans.append((fe, None))
                    else:
                        s = int(rng.integers(1, n + 1))
                        e = int(rng.integers(s, n + 1))
                        spans.append((fe, (s, e)))
                preds.append(make_predictions(*spans))
            metrics = evaluate(preds, gold)
            tp, pc, gc, p, r, f1 = set_oracle(preds, gold)
            assert (metrics.true_positives, metrics.predicted_count, metrics.gold_count,
                    metrics.precision, metrics.recall, metrics.f1) == (tp, pc, gc, p, r, f1)
            cases += 1
        assert cases >= 1000
        assert time.monotonic() - started < 5.0


def test_criterion_5_overfit_convergence(corpus, overfit):
    store, train_instances, _ = corpus
    with criterion(5, "overfit convergence"):
        vocab, model, report_a, report_b, elapsed = overfit
        assert elapsed < 300.0, f"two runs took {elapsed:.1f}s"
        assert report_a.epochs <= 200
        predictions = predict_all(train_instances, store, model)
        metrics = evaluate(predictions, train_instances)
        assert metrics.f1 >= 0.99, metrics
        assert report_a.epoch_losses == report_b.epoch_losses


def test_criterion_6_augmentation_accounting(corpus):
    store, train_instances, test_instances = corpus
    with criterion(6, "augmentation accounting"):
        config = TrainConfig(epochs=1, augment_fe_defs=True)
        model = untrained_model(train_instances, store, EncoderConfig())
        for dataset in (train_instances, test_instances):
            stream = build_training_stream(dataset, store, model, config)
            total_args = sum(len(inst.arguments) for inst in dataset)
            assert len(stream) == len(dataset) + total_args


def test_criterion_7_zero_shot_mechanics(corpus):
    store, train_instances, test_instances = corpus
    with criterion(7, "zero-shot mechanics"):
        holdout = {"Getting"}
        encoder_config = EncoderConfig(
            d_model=16, n_layers=1, n_heads=2, max_len=256, seed=5
        )
        reports = {}
        for mode in (TemplateMode.FRAME_DEF, TemplateMode.QUESTION):
            train_config = TrainConfig(epochs=12, batch_size=8, learning_rate=1e-3)
            report = run_holdout_experiment(
                train_instances, test_instances, store, holdout, 0,
                encoder_config, train_config, mode=mode,
            )
            assert report.holdout_certified
            assert report.train_counts == {"Getting": 0}
            assert report.predictions_complete  # |R_f| predictions per test instance
            assert "Getting" in report.per_frame  # per-frame F1 entry exists
            reports[mode] = report
        def_f1 = reports[TemplateMode.FRAME_DEF].per_frame["Getting"].f1
        q_f1 = reports[TemplateMode.QUESTION].per_frame["Getting"].f1
        direction = ">=" if def_f1 >= q_f1 else "<"
        print(
            f"  zero-shot Getting F1: definition {def_f1:.3f} {direction} question {q_f1:.3f}"
            " (reported, not asserted)"
        )


def test_criterion_8_target_marker_ablation(corpus, overfit):
    store, train_instances, _ = corpus
    with criterion(8, "target-marker ablation mechanism"):
        vocab, model, _, _, _ = overfit
        twins = [
            inst for inst in train_instances
            if inst.tokens[:2] == ("the", "rebels")
        ]
        assert len(twins) == 2
        first, second = twins
        assert first.tokens == second.tokens
        assert first.target != second.target
        assert first.frame == second.frame
        template = build_frame_template(store.frame(first.frame))

        no_target = MarkerOptions(target_markers=False)
        pair_a = assemble(first, template, vocab, no_target)
        pair_b = assemble(second, template, vocab, no_target)
        assert pair_a == pair_b  # the encoder cannot tell the targets apart

        preds_a = predict_instance(first, store, dataclasses.replace(model, markers=no_target))
        preds_b = predict_instance(second, store, dataclasses.replace(model, markers=no_target))
        assert preds_a == preds_b
        # both cannot be right: the gold argument sets differ
        assert {(a.fe, a.start, a.end) for a in first.arguments} != {
            (a.fe, a.start, a.end) for a in second.arguments
        }

        with_markers = assemble(first, template, vocab), assemble(second, template, vocab)
        assert with_markers[0] != with_markers[1]


def test_criterion_9_checkpoint_round_trip(corpus, tmp_path):
    store, train_instances, test_instances = corpus
    with criterion(9, "checkpoint round-trip"):
        vocab = build_vocabulary(train_instances, store)
        config = EncoderConfig(
            d_model=16, n_layers=1, n_heads=2,
            max_len=256, seed=21, dtype="f64",
        )
        model = Checkpoint(config, init_parameters(config, len(vocab)), vocab, TemplateMode.FRAME_DEF, MarkerOptions())
        train_config = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-3)
        stream = build_training_stream(train_instances, store, model, train_config)
        model, _, _ = train(stream, model, train_config)

        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)

        template = build_frame_template(store.frame(test_instances[0].frame))
        pair = assemble(test_instances[0], template, vocab)
        before = forward_cached(model.params, model.config, pair)[0]
        after = forward_cached(loaded.params, loaded.config, pair)[0]
        assert before.dtype == np.float64
        assert np.array_equal(before, after)  # bitwise

        dev_before = predict_all(test_instances, store, model)
        dev_after = predict_all(test_instances, store, loaded)
        assert dev_before == dev_after  # span-for-span, scores included
