import numpy as np
import pytest

from aged.corpus import AnnotatedInstance, Argument
from aged.encoder import Checkpoint, EncoderConfig, init_parameters, load_checkpoint
from aged.evaluation import evaluate
from aged.decoding import predict_all
from aged.templates import TemplateMode
from aged.training import (
    Provenance,
    TrainConfig,
    build_training_stream,
    clip_gradients,
    train,
)


def small_model(vocab, d_model=8, n_layers=1, n_heads=2, seed=0, dtype="f32"):
    config = EncoderConfig(
        vocab_size=len(vocab), d_model=d_model, n_layers=n_layers,
        n_heads=n_heads, max_len=256, seed=seed, dtype=dtype,
    )
    return Checkpoint(config, init_parameters(config))


def test_stream_frame_def_with_augmentation(store, vocab):
    inst = AnnotatedInstance(
        ("he", "was", "invading", "iraq"), 3, "Attack",
        (Argument("Assailant", 1, 1), Argument("Victim", 4, 4)),
    )
    config = TrainConfig(epochs=1, augment_fe_defs=True)
    stream = build_training_stream([inst], store, vocab, config)
    assert len(stream) == 3
    assert stream[0].provenance == Provenance(TemplateMode.FRAME_DEF)
    assert stream[1].provenance == Provenance(TemplateMode.FE_DEF, "Assailant")
    assert stream[2].provenance == Provenance(TemplateMode.FE_DEF, "Victim")
    for example in stream:
        assert len(example.labels) == len(example.pair.slot_pos)


def test_stream_without_augmentation(store, vocab, train_instances):
    config = TrainConfig(epochs=1)
    stream = build_training_stream(train_instances, store, vocab, config)
    assert len(stream) == len(train_instances)
    assert all(ex.provenance.kind is TemplateMode.FRAME_DEF for ex in stream)


def test_stream_size_closed_form_with_augmentation(store, vocab, train_instances):
    config = TrainConfig(epochs=1, augment_fe_defs=True)
    stream = build_training_stream(train_instances, store, vocab, config)
    total_args = sum(len(inst.arguments) for inst in train_instances)
    assert len(stream) == len(train_instances) + total_args


def test_stream_question_mode_one_pair_per_fe(store, vocab):
    inst = AnnotatedInstance(("stop", "attacking"), 2, "Attack", ())
    config = TrainConfig(epochs=1, template_mode=TemplateMode.QUESTION)
    stream = build_training_stream([inst], store, vocab, config)
    assert len(stream) == 4  # Attack has 4 FEs
    assert [ex.provenance.fe for ex in stream] == list(store.frame("Attack").fe_order)
    assert all(len(ex.labels) == 1 for ex in stream)


def test_fe_def_mode_is_not_a_training_mode():
    with pytest.raises(ValueError, match="fe-def"):
        TrainConfig(template_mode=TemplateMode.FE_DEF)


def test_zero_learning_rate_rejected():
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


def test_tiny_learning_rate_leaves_parameters_nearly_fixed(store, vocab, train_instances):
    # the zero-step contract, tested at the smallest usable rate
    model = small_model(vocab)
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-30, seed=0)
    stream = build_training_stream(train_instances[:4], store, vocab, config)
    trained, _ = train(stream, model, config)
    for k in model.params:
        np.testing.assert_allclose(trained.params[k], model.params[k], atol=1e-20)


def test_training_is_deterministic(store, vocab, train_instances):
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=11)
    stream = build_training_stream(train_instances[:8], store, vocab, config)
    _, report_a = train(stream, small_model(vocab), config)
    _, report_b = train(stream, small_model(vocab), config)
    assert report_a.epoch_losses == report_b.epoch_losses


def test_loss_is_nonincreasing_at_start(store, vocab, train_instances):
    config = TrainConfig(epochs=5, batch_size=8, learning_rate=3e-4, seed=1)
    stream = build_training_stream(train_instances, store, vocab, config)
    _, report = train(stream, small_model(vocab, d_model=16), config)
    losses = report.epoch_losses
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert increases <= 1, losses


def test_clip_gradients_scales_to_cap():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)
    unclipped = {"a": np.array([0.3, 0.4])}
    clip_gradients(unclipped, 1.0)
    np.testing.assert_allclose(unclipped["a"], [0.3, 0.4])


def test_empty_stream_rejected(vocab):
    with pytest.raises(ValueError, match="empty"):
        train([], small_model(vocab), TrainConfig(epochs=1))


def test_checkpoint_round_trip_preserves_dev_f1(store, vocab, train_instances, tmp_path):
    dev = train_instances[:6]
    ckpt_path = tmp_path / "model.json"
    config = TrainConfig(
        epochs=4, batch_size=8, learning_rate=1e-3, seed=2,
        checkpoint_path=ckpt_path, eval_every=2,
    )
    stream = build_training_stream(train_instances, store, vocab, config)
    model, report = train(stream, small_model(vocab, d_model=16), config,
                          store=store, vocab=vocab, dev=dev)
    assert report.dev_f1_history, "eval_every should have produced dev scores"
    loaded = load_checkpoint(ckpt_path)
    f1_direct = evaluate(predict_all(dev, store, model, vocab), dev).f1
    f1_loaded = evaluate(predict_all(dev, store, loaded, vocab), dev).f1
    assert f1_direct == f1_loaded
    assert report.best_checkpoint_path is not None


def test_training_report_serializes(tmp_path, store, vocab, train_instances):
    config = TrainConfig(epochs=1, batch_size=8, seed=0)
    stream = build_training_stream(train_instances[:4], store, vocab, config)
    _, report = train(stream, small_model(vocab), config)
    path = tmp_path / "report.json"
    report.save(path)
    assert path.exists()
    assert report.stream_size == 4


def test_batched_training_with_dropout_is_deterministic(store, vocab, train_instances):
    # augmentation mixes frame-def and FE-def pairs: lengths and slot counts vary per batch
    config = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=3, augment_fe_defs=True)
    stream = build_training_stream(train_instances[:6], store, vocab, config)

    def run(dropout):
        enc = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                            max_len=256, seed=0, dtype="f64", dropout=dropout)
        return train(stream, Checkpoint(enc, init_parameters(enc)), config)

    model_a, report_a = run(0.2)
    model_b, report_b = run(0.2)
    assert report_a.epoch_losses == report_b.epoch_losses
    for k in model_a.params:
        assert np.array_equal(model_a.params[k], model_b.params[k]), k
    _, report_plain = run(0.0)
    assert report_plain.epoch_losses != report_a.epoch_losses  # dropout was applied
