import math
from dataclasses import replace

import numpy as np
import pytest

from aged.corpus import AnnotatedInstance, Argument
from aged.encoder import Checkpoint, EncoderConfig, FlatGradients, init_parameters, load_checkpoint
from aged.encoding import build_vocabulary
from aged.evaluation import evaluate
from aged.decoding import predict_all, query_pairs
from aged.pointer import batch_loss_and_gradients
from aged.templates import MarkerOptions, TemplateMode
from aged.training import (
    ADAM_BETAS,
    ADAM_EPS,
    Adam,
    DevPairTooLongError,
    Provenance,
    TrainConfig,
    build_training_stream,
    clip_gradients,
    fit,
    train,
)


def small_model(vocab, d_model=8, n_layers=1, n_heads=2, seed=0, dtype="f32"):
    config = EncoderConfig(
        vocab_size=len(vocab), d_model=d_model, n_layers=n_layers,
        n_heads=n_heads, max_len=256, seed=seed, dtype=dtype,
    )
    return Checkpoint(config, init_parameters(config), vocab, TemplateMode.FRAME_DEF,
                      MarkerOptions())


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


@pytest.mark.parametrize("augment_fe_defs", [False, True], ids=["frame-def", "mixed-batch"])
def test_training_is_deterministic(store, vocab, train_instances, augment_fe_defs):
    # augmentation mixes frame-def and FE-def pairs: lengths and slot counts vary per batch
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=11,
                         augment_fe_defs=augment_fe_defs)
    stream = build_training_stream(train_instances[:8], store, vocab, config)
    model_a, report_a = train(stream, small_model(vocab), config)
    model_b, report_b = train(stream, small_model(vocab), config)
    assert report_a.epoch_losses == report_b.epoch_losses
    for k in model_a.params:
        assert np.array_equal(model_a.params[k], model_b.params[k]), k


def test_loss_is_nonincreasing_at_start(store, vocab, train_instances):
    config = TrainConfig(epochs=5, batch_size=8, learning_rate=3e-4, seed=1)
    stream = build_training_stream(train_instances, store, vocab, config)
    _, report = train(stream, small_model(vocab, d_model=16), config)
    losses = report.epoch_losses
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert increases <= 1, losses


def flat_gradients(values):
    """`FlatGradients` holding `values`, a dict of arrays."""
    grads = FlatGradients(values)
    for k, v in values.items():
        grads[k][...] = v
    return grads


def test_clip_gradients_scales_to_cap():
    grads = flat_gradients({"a": np.array([3.0, 4.0])})
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)
    unclipped = flat_gradients({"a": np.array([0.3, 0.4])})
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
    model = small_model(vocab, d_model=16)
    model, report = train(stream, model, config, dev=(dev, query_pairs(dev, store, model)))
    assert report.dev_f1_history, "eval_every should have produced dev scores"
    loaded = load_checkpoint(ckpt_path)
    f1_direct = evaluate(predict_all(dev, store, model), dev).f1
    f1_loaded = evaluate(predict_all(dev, store, loaded), dev).f1
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


class ReferenceAdam:
    """The per-tensor Adam that the flat in-place optimizer must match bitwise."""

    def __init__(self, params, lr):
        self.lr = lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for k, p in params.items():
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1.0 - b1) * g
            self.v[k] = b2 * self.v[k] + (1.0 - b2) * g * g
            p -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + ADAM_EPS)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_flat_adam_matches_per_tensor_reference_bitwise(vocab, dtype):
    params = small_model(vocab, dtype=dtype).params
    ours = {k: v.copy() for k, v in params.items()}
    ref = {k: v.copy() for k, v in params.items()}
    adam, ref_adam = Adam(ours, 3e-3), ReferenceAdam(ref, 3e-3)
    rng = np.random.default_rng(5)
    for _ in range(6):
        # wide magnitudes so rounding differences would show
        grads = {k: (rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 3)).astype(v.dtype)
                 for k, v in params.items()}
        adam.step(ours, flat_gradients(grads))
        ref_adam.step(ref, grads)
        for k in params:
            assert ours[k].dtype == ref[k].dtype
            assert np.array_equal(ours[k], ref[k]), k


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_training_matches_per_tensor_adam_bitwise(store, vocab, train_instances, monkeypatch,
                                                  dtype):
    import aged.training

    config = TrainConfig(epochs=2, batch_size=4, learning_rate=3e-3, seed=4,
                         augment_fe_defs=True, grad_clip=0.5)
    stream = build_training_stream(train_instances[:8], store, vocab, config)
    enc = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2,
                        max_len=256, seed=0, dtype=dtype)
    model = Checkpoint(enc, init_parameters(enc), vocab, TemplateMode.FRAME_DEF, MarkerOptions())
    trained, report = train(stream, model, config)
    monkeypatch.setattr(aged.training, "Adam", ReferenceAdam)
    ref_trained, ref_report = train(stream, model, config)
    assert report.epoch_losses == ref_report.epoch_losses
    for k in trained.params:
        assert np.array_equal(trained.params[k], ref_trained.params[k]), k


def test_gradients_own_their_arrays(store, vocab, train_instances):
    # training scales gradients in place, so no two may share memory
    model = small_model(vocab, n_layers=2)
    config = TrainConfig(epochs=1)
    stream = build_training_stream(train_instances[:3], store, vocab, config)
    _, _, grads = batch_loss_and_gradients(
        model.params, model.config, [ex.pair for ex in stream], [ex.labels for ex in stream]
    )
    arrays = list(grads.values()) + list(model.params.values())
    for i, a in enumerate(grads.values()):
        assert a.flags.writeable and a.dtype == model.params[next(iter(model.params))].dtype
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_gradients_are_views_of_one_flat_buffer(store, vocab, train_instances):
    model = small_model(vocab, n_layers=2)
    stream = build_training_stream(train_instances[:3], store, vocab, TrainConfig(epochs=1))
    _, _, grads = batch_loss_and_gradients(
        model.params, model.config, [ex.pair for ex in stream], [ex.labels for ex in stream]
    )
    flat = grads.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous
    assert list(grads) == list(model.params)
    offset = 0
    for name, g in grads.items():  # consecutive, so pairwise disjoint
        assert g.shape == model.params[name].shape and g.base is flat
        assert g.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        offset += g.size
    assert offset == flat.size
    # clipping takes the norm of the flat buffer in one call, equal to the
    # per-tensor norm up to summation order, and scales the flat buffer once,
    # bitwise as the same scale applied to each tensor
    plain = {k: g.copy() for k, g in grads.items()}
    norm = clip_gradients(grads, 1e-3)
    assert norm == pytest.approx(math.sqrt(sum(float(np.vdot(g, g)) for g in plain.values())),
                                 rel=1e-5)
    assert norm > 1e-3
    for name, g in plain.items():
        g *= 1e-3 / norm
        assert grads[name].tobytes() == g.tobytes(), name


def test_report_records_gradient_norms_per_epoch(store, vocab, train_instances, monkeypatch):
    import aged.training

    norms = []

    def recording_clip(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(aged.training, "clip_gradients", recording_clip)
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3, seed=0, grad_clip=0.05)
    stream = build_training_stream(train_instances[:10], store, vocab, config)
    _, report = train(stream, small_model(vocab), config)
    steps = -(-len(stream) // config.batch_size)
    assert len(norms) == config.epochs * steps
    for name in ("grad_norm_mean", "grad_norm_max", "clipped_steps"):
        assert len(getattr(report, name)) == config.epochs, name
        assert report.to_json()[name] == getattr(report, name)
    for epoch, clipped in enumerate(report.clipped_steps):
        epoch_norms = norms[epoch * steps : (epoch + 1) * steps]
        assert report.grad_norm_mean[epoch] == sum(epoch_norms) / steps
        assert report.grad_norm_max[epoch] == max(epoch_norms)
        assert clipped == sum(n > config.grad_clip for n in epoch_norms) <= steps
    assert sum(report.clipped_steps) > 0  # the cap is tiny, so some steps clip
    _, unclipped = train(stream, small_model(vocab), TrainConfig(
        epochs=1, batch_size=4, learning_rate=1e-3, seed=0, grad_clip=0.0))
    assert unclipped.clipped_steps == [0]


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_fit_equals_hand_built_pipeline_bitwise(store, train_instances, test_instances, mode):
    instances, dev = train_instances[:6], test_instances[:2]
    config = TrainConfig(epochs=2, batch_size=4, seed=3, template_mode=mode, eval_every=1)
    shape = dict(d_model=8, n_layers=1, n_heads=2, max_len=256, seed=2)
    model, report = fit(instances, store, EncoderConfig(vocab_size=1, **shape), config, dev=dev)

    expected_vocab = build_vocabulary(instances, store)
    sized = EncoderConfig(vocab_size=len(expected_vocab), **shape)
    stream = build_training_stream(instances, store, expected_vocab, config)
    initial = Checkpoint(sized, init_parameters(sized), expected_vocab, mode, MarkerOptions())
    expected, expected_report = train(
        stream, initial, config, dev=(dev, query_pairs(dev, store, initial)),
    )
    assert model.vocab.tokens == expected_vocab.tokens
    assert (model.mode, model.markers) == (mode, config.marker_options)
    assert model.config == sized
    assert report.stream_size == len(stream)
    assert report.epoch_losses == expected_report.epoch_losses
    assert len(report.dev_f1_history) == 2
    assert report.dev_f1_history == expected_report.dev_f1_history
    assert model.params.keys() == expected.params.keys()
    for name, tensor in expected.params.items():
        assert model.params[name].tobytes() == tensor.tobytes(), name


def test_fit_checks_dev_set_before_training(store, train_instances, monkeypatch):
    import aged.training

    long = replace(train_instances[0], tokens=train_instances[0].tokens + ("filler",) * 300)
    monkeypatch.setattr(aged.training, "train", lambda *a, **k: pytest.fail("trained"))
    encoder_config = EncoderConfig(vocab_size=1, d_model=8, n_layers=1, n_heads=2)
    with pytest.raises(DevPairTooLongError, match="max_len is 256") as err:
        fit(train_instances[:4], store, encoder_config, TrainConfig(epochs=1),
            dev=[train_instances[1], long])
    assert err.value.instance == 1
