import json
import math

import numpy as np
import pytest

import aged.training
from aged.corpus import AnnotatedInstance, Argument, load_instances, mini_framenet_path
from aged.encoder import (
    ARRAY_BUDGET,
    Checkpoint,
    EncoderConfig,
    FlatTensors,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import PairTooLongError, assemble, build_vocabulary, gold_labels
from aged.evaluation import evaluate
from aged.decoding import predict_all, query_pairs
from aged.pointer import batch_loss_and_gradients
from aged.templates import MarkerOptions, TemplateMode, build_fe_template
from aged.training import (
    ADAM_BETAS,
    ADAM_EPS,
    Adam,
    TrainConfig,
    build_training_stream,
    clip_gradients,
    fit,
    train,
    untrained_model,
)


def small_model(vocab, d_model=8, n_layers=1, n_heads=2, seed=0, dtype="f32",
                mode=TemplateMode.FRAME_DEF, markers=MarkerOptions()):
    config = EncoderConfig(d_model=d_model, n_layers=n_layers, n_heads=n_heads, max_len=256,
                           seed=seed, dtype=dtype)
    return Checkpoint(config, init_parameters(config, len(vocab)), vocab, mode, markers)


def test_stream_frame_def_with_augmentation(store, vocab):
    inst = AnnotatedInstance(
        ("he", "was", "invading", "iraq"), 3, "Attack",
        (Argument("Assailant", 1, 1), Argument("Victim", 4, 4)),
    )
    frame = store.frame("Attack")
    config = TrainConfig(epochs=1, augment_fe_defs=True)
    for markers in (MarkerOptions(), MarkerOptions(label_markers=False)):
        model = small_model(vocab, markers=markers)
        stream = build_training_stream([inst], store, model, config)
        # the prediction pair, then one FE-definition pair per gold argument,
        # all assembled with the model's markers
        assert [ex.pair for ex in stream] == query_pairs([inst], store, model)[0] + [
            assemble(inst, build_fe_template(frame, fe, model.markers), vocab, model.markers,
                     model.config.max_len)
            for fe in ("Assailant", "Victim")
        ]
        for example in stream:
            assert example.labels == gold_labels(inst, example.pair)
            assert len(example.labels) == len(example.pair.slot_pos)
    assert stream[0].pair != build_training_stream([inst], store, small_model(vocab), config)[0].pair


def test_stream_without_augmentation(store, vocab, train_instances):
    model = small_model(vocab)
    stream = build_training_stream(train_instances, store, model, TrainConfig(epochs=1))
    assert [[ex.pair] for ex in stream] == query_pairs(train_instances, store, model)


def test_stream_size_closed_form_with_augmentation(store, vocab, train_instances):
    config = TrainConfig(epochs=1, augment_fe_defs=True)
    stream = build_training_stream(train_instances, store, small_model(vocab), config)
    total_args = sum(len(inst.arguments) for inst in train_instances)
    assert len(stream) == len(train_instances) + total_args


def test_stream_question_mode_one_pair_per_fe(store, vocab):
    inst = AnnotatedInstance(("stop", "attacking"), 2, "Attack", ())
    model = small_model(vocab, mode=TemplateMode.QUESTION)
    stream = build_training_stream([inst], store, model, TrainConfig(epochs=1))
    assert [ex.pair for ex in stream] == query_pairs([inst], store, model)[0]
    assert [ex.pair.slot_fes for ex in stream] == [(fe,) for fe in store.frame("Attack").fe_order]
    assert all(ex.labels == [(0, 0)] for ex in stream)


def test_fe_augmentation_rejected_for_a_question_model(store, vocab, train_instances, monkeypatch):
    # the check reads the model's mode, and runs before any pair is assembled
    import aged.training

    monkeypatch.setattr(aged.training, "query_pairs", lambda *a: pytest.fail("assembled"))
    model = small_model(vocab, mode=TemplateMode.QUESTION)
    with pytest.raises(ValueError, match="--augment-fe-defs.*--mode question"):
        build_training_stream(train_instances, store, model, TrainConfig(augment_fe_defs=True))


def test_fe_def_mode_is_not_a_training_mode(store, vocab, train_instances):
    model = small_model(vocab, mode=TemplateMode.FE_DEF)
    for augment in (False, True):
        with pytest.raises(ValueError, match="fe-def"):
            build_training_stream(train_instances, store, model,
                                  TrainConfig(augment_fe_defs=augment))


def test_zero_learning_rate_rejected():
    for rate in (0.0, float("nan"), float("inf")):  # a non-finite rate cannot train either
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)


@pytest.mark.parametrize("seed", [-5, 1.0, True])
def test_bad_seed_rejected(seed):
    with pytest.raises(ValueError, match=rf"seed must be an integer >= 0, got {seed!r}"):
        EncoderConfig(seed=seed)


@pytest.mark.parametrize("name", ["epochs", "batch_size"])
@pytest.mark.parametrize("value", [0, -2, 2.0, True])
def test_bad_count_rejected(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, got {value!r}$"):
        TrainConfig(**{name: value})


def test_tiny_learning_rate_leaves_parameters_nearly_fixed(store, vocab, train_instances):
    # the zero-step contract, tested at the smallest usable rate
    model = small_model(vocab)
    config = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-30)
    stream = build_training_stream(train_instances[:4], store, model, config)
    trained, _, _ = train(stream, model, config)
    for k in model.params:
        np.testing.assert_allclose(trained.params[k], model.params[k], atol=1e-20)


@pytest.mark.parametrize("augment_fe_defs", [False, True], ids=["frame-def", "mixed-batch"])
def test_training_is_deterministic(store, vocab, train_instances, augment_fe_defs):
    # augmentation mixes frame-def and FE-def pairs: lengths and slot counts vary per batch
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                         augment_fe_defs=augment_fe_defs)
    stream = build_training_stream(train_instances[:8], store, small_model(vocab), config)
    model_a, report_a, _ = train(stream, small_model(vocab), config)
    model_b, report_b, _ = train(stream, small_model(vocab), config)
    assert report_a.epoch_losses == report_b.epoch_losses
    for k in model_a.params:
        assert np.array_equal(model_a.params[k], model_b.params[k]), k


def test_loss_is_nonincreasing_at_start(store, vocab, train_instances):
    config = TrainConfig(epochs=5, batch_size=8, learning_rate=3e-4)
    model = small_model(vocab, d_model=16)
    stream = build_training_stream(train_instances, store, model, config)
    _, report, _ = train(stream, model, config)
    losses = report.epoch_losses
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert increases <= 1, losses


def flat_gradients(values):
    """`FlatTensors` holding `values`, a dict of arrays."""
    return FlatTensors({k: v.shape for k, v in values.items()},
                       np.concatenate([v.ravel() for v in values.values()]))


def test_clip_gradients_scales_to_cap():
    grads = flat_gradients({"a": np.array([3.0, 4.0])})
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)
    unclipped = flat_gradients({"a": np.array([0.3, 0.4])})
    clip_gradients(unclipped, 1.0)
    np.testing.assert_allclose(unclipped["a"], [0.3, 0.4])


def test_batch_order_follows_the_model_seed(store, vocab, train_instances, monkeypatch):
    # the model's seed, which its checkpoint records, is the one seed of a run
    config = TrainConfig(epochs=2, batch_size=4)
    stream = build_training_stream(train_instances[:10], store, small_model(vocab), config)
    position = {id(ex.pair): i for i, ex in enumerate(stream)}
    orders = []

    def recording(params, enc_config, pairs, *args):
        orders[-1].append([position[id(pair)] for pair in pairs])
        return batch_loss_and_gradients(params, enc_config, pairs, *args)

    monkeypatch.setattr(aged.training, "batch_loss_and_gradients", recording)
    trained = []
    for seed in (3, 3, 4):
        orders.append([])
        trained.append(train(stream, small_model(vocab, seed=seed), config)[0])
    assert orders[0] == orders[1] != orders[2]
    assert trained[0].params.flat.tobytes() == trained[1].params.flat.tobytes()


def test_empty_stream_rejected(vocab):
    with pytest.raises(ValueError, match="empty"):
        train([], small_model(vocab), TrainConfig(epochs=1))


def test_checkpoint_round_trip_preserves_dev_f1(store, vocab, train_instances, tmp_path):
    dev = train_instances[:6]
    ckpt_path = tmp_path / "model.json"
    config = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-3)
    model = small_model(vocab, d_model=16)
    stream = build_training_stream(train_instances, store, model, config)
    model, report, best = train(stream, model, config, dev=(dev, query_pairs(dev, store, model)))
    assert [epoch for epoch, _ in report.dev_f1_history] == list(range(config.epochs))
    save_checkpoint(model, ckpt_path)
    loaded = load_checkpoint(ckpt_path)
    f1_direct = evaluate(predict_all(dev, store, model), dev).f1
    f1_loaded = evaluate(predict_all(dev, store, loaded), dev).f1
    assert f1_direct == f1_loaded
    # the best model is a copy taken at the first epoch of the highest dev F1
    f1s = [f1 for _, f1 in report.dev_f1_history]
    assert report.best_epoch == f1s.index(max(f1s))
    assert evaluate(predict_all(dev, store, best), dev).f1 == report.best_dev_f1 == max(f1s)
    assert not np.shares_memory(best.params.flat, model.params.flat)


def test_training_report_serializes(store, vocab, train_instances):
    config = TrainConfig(epochs=1, batch_size=8)
    model = small_model(vocab)
    stream = build_training_stream(train_instances[:4], store, model, config)
    _, report, best = train(stream, model, config)
    assert best is None  # no dev set, no best model
    assert json.loads(json.dumps(report.to_json()))["stream_size"] == report.stream_size == 4


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
    ours = params.copy()  # the flat layout that training steps
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

    config = TrainConfig(epochs=2, batch_size=4, learning_rate=3e-3, augment_fe_defs=True)
    enc = EncoderConfig(d_model=8, n_layers=1, n_heads=2, max_len=256, seed=0, dtype=dtype)
    model = Checkpoint(enc, init_parameters(enc, len(vocab)), vocab, TemplateMode.FRAME_DEF,
                       MarkerOptions())
    stream = build_training_stream(train_instances[:8], store, model, config)
    trained, report, _ = train(stream, model, config)
    monkeypatch.setattr(aged.training, "Adam", ReferenceAdam)
    ref_trained, ref_report, _ = train(stream, model, config)
    assert report.epoch_losses == ref_report.epoch_losses
    for k in trained.params:
        assert np.array_equal(trained.params[k], ref_trained.params[k]), k


def test_gradients_own_their_arrays(store, vocab, train_instances):
    # training scales gradients in place, so no two may share memory
    model = small_model(vocab, n_layers=2)
    stream = build_training_stream(train_instances[:3], store, model, TrainConfig(epochs=1))
    _, grads = batch_loss_and_gradients(
        model.params, model.config, [ex.pair for ex in stream], [ex.labels for ex in stream]
    )
    arrays = list(grads.values()) + list(model.params.values())
    for i, a in enumerate(grads.values()):
        assert a.flags.writeable and a.dtype == model.params[next(iter(model.params))].dtype
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_gradients_are_views_of_one_flat_buffer(store, vocab, train_instances):
    model = small_model(vocab, n_layers=2)
    stream = build_training_stream(train_instances[:3], store, model, TrainConfig(epochs=1))
    _, grads = batch_loss_and_gradients(
        model.params, model.config, [ex.pair for ex in stream], [ex.labels for ex in stream]
    )
    assert_views_of_flat(grads, model.params)
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


def assert_views_of_flat(tensors, like):
    """`tensors` are consecutive views, in `like`'s order and shapes, of its whole `flat`."""
    flat = tensors.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous and flat.flags.writeable
    assert list(tensors) == list(like)
    offset = 0
    for name, t in tensors.items():  # consecutive, so pairwise disjoint
        assert t.shape == like[name].shape and t.base is flat
        assert t.ctypes.data == flat.ctypes.data + offset * flat.itemsize, name
        offset += t.size
    assert offset == flat.size


def test_parameters_are_views_of_one_flat_buffer(store, vocab, train_instances, tmp_path,
                                                  monkeypatch):
    import aged.training

    model = small_model(vocab, n_layers=2)
    assert_views_of_flat(model.params, model.params)
    copied = model.copy()
    assert_views_of_flat(copied.params, model.params)
    assert not np.shares_memory(copied.params.flat, model.params.flat)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    # the body is the buffer's little-endian bytes, after the one header line
    assert path.read_bytes().partition(b"\n")[2] == model.params.flat.astype("<f4").tobytes()
    assert_views_of_flat(load_checkpoint(path).params, model.params)

    # three steps reuse one gradient buffer, and the parameters stay views of theirs
    buffers = []
    real = aged.training.batch_loss_and_gradients

    def recording(*args):
        result = real(*args)
        buffers.append(result[1])
        return result

    monkeypatch.setattr(aged.training, "batch_loss_and_gradients", recording)
    config = TrainConfig(epochs=1, batch_size=2)
    stream = build_training_stream(train_instances[:6], store, model, config)
    trained, _, _ = train(stream, model, config)
    assert len(buffers) == 3 and all(b is buffers[0] for b in buffers)
    assert not np.shares_memory(buffers[0].flat, trained.params.flat)
    assert_views_of_flat(trained.params, model.params)
    assert not np.array_equal(trained.params.flat, model.params.flat)


def test_report_records_gradient_norms_per_epoch(store, vocab, train_instances, monkeypatch):
    import aged.training

    norms = []

    def recording_clip(grads, max_norm):
        norms.append(clip_gradients(grads, max_norm))
        return norms[-1]

    monkeypatch.setattr(aged.training, "clip_gradients", recording_clip)
    config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3)
    model = small_model(vocab)
    stream = build_training_stream(train_instances[:10], store, model, config)
    _, report, _ = train(stream, model, config)
    steps = -(-len(stream) // config.batch_size)
    assert len(norms) == config.epochs * steps
    for name in ("grad_norm_mean", "grad_norm_max", "clipped_steps"):
        assert len(getattr(report, name)) == config.epochs, name
        assert report.to_json()[name] == getattr(report, name)
    for epoch, clipped in enumerate(report.clipped_steps):
        epoch_norms = norms[epoch * steps : (epoch + 1) * steps]
        assert report.grad_norm_mean[epoch] == sum(epoch_norms) / steps
        assert report.grad_norm_max[epoch] == max(epoch_norms)
        assert clipped == sum(n > aged.training.GRAD_CLIP for n in epoch_norms) <= steps
    assert sum(report.clipped_steps) > 0  # the untrained model's first steps clip


@pytest.mark.parametrize("mode", [TemplateMode.FRAME_DEF, TemplateMode.QUESTION])
def test_fit_equals_hand_built_pipeline_bitwise(store, train_instances, test_instances, mode):
    instances, dev = train_instances[:6], test_instances[:2]
    config = TrainConfig(epochs=2, batch_size=4)
    shape = dict(d_model=8, n_layers=1, n_heads=2, max_len=256, seed=2)
    encoder_config = EncoderConfig(**shape)
    untrained = untrained_model(instances, store, encoder_config, mode=mode)
    model, report, _ = fit(untrained, instances, store, config, dev=dev)

    expected_vocab = build_vocabulary(instances, store)
    initial = Checkpoint(encoder_config, init_parameters(encoder_config, len(expected_vocab)),
                         expected_vocab, mode, MarkerOptions())
    stream = build_training_stream(instances, store, initial, config)
    expected, expected_report, _ = train(
        stream, initial, config, dev=(dev, query_pairs(dev, store, initial)),
    )
    assert model.vocab.tokens == expected_vocab.tokens
    assert (model.mode, model.markers) == (mode, MarkerOptions())
    assert model.config == encoder_config
    assert report.stream_size == len(stream)
    assert report.epoch_losses == expected_report.epoch_losses
    assert [epoch for epoch, _ in report.dev_f1_history] == [0, 1]
    assert report.dev_f1_history == expected_report.dev_f1_history
    assert model.params.keys() == expected.params.keys()
    for name, tensor in expected.params.items():
        assert model.params[name].tobytes() == tensor.tobytes(), name


def test_fit_scores_a_dev_set_every_epoch(store, train_instances, test_instances):
    encoder_config = EncoderConfig(d_model=8, n_layers=1, n_heads=2)
    config = TrainConfig(epochs=3)
    model = untrained_model(train_instances[:4], store, encoder_config)
    _, report, _ = fit(model, train_instances[:4], store, config, dev=test_instances[:2])
    assert [epoch for epoch, _ in report.dev_f1_history] == [0, 1, 2]
    assert report.best_dev_f1 == max(f1 for _, f1 in report.dev_f1_history)


def test_fit_checks_dev_set_before_training(store, train_instances, tmp_path, monkeypatch):
    import aged.training

    first = json.loads(mini_framenet_path("train").read_text().splitlines()[0])
    long = dict(first, tokens=first["tokens"] + ["filler"] * 300)
    dev_path = tmp_path / "dev.jsonl"
    dev_path.write_text(f"{json.dumps(first)}\n\n{json.dumps(long)}\n")  # long is on line 3
    monkeypatch.setattr(aged.training, "train", lambda *a, **k: pytest.fail("trained"))
    encoder_config = EncoderConfig(d_model=8, n_layers=1, n_heads=2)
    config = TrainConfig(epochs=1)
    model = untrained_model(train_instances[:4], store, encoder_config)
    with pytest.raises(PairTooLongError, match="max_len is 256") as err:
        fit(model, train_instances[:4], store, config, dev=load_instances(dev_path, store))
    assert str(err.value).startswith(f"{dev_path}:3: assembled pair has ")


@pytest.mark.parametrize("mode, augment_fe_defs", [
    (TemplateMode.FRAME_DEF, False), (TemplateMode.FRAME_DEF, True), (TemplateMode.QUESTION, False),
], ids=["frame-def", "augment-fe-defs", "question"])
def test_bundled_training_batches_attend_as_one_chunk(store, train_instances, monkeypatch, mode,
                                                      augment_fe_defs):
    # a batch whose padded attention scores fit the budget attends as one
    # whole-batch chunk; if this fails, bundled training batches attend in
    # several chunks and training is no longer bitwise the whole-batch one
    batches = []

    def recording(params, enc_config, pairs, *args):
        batches.append([len(pair.ids) for pair in pairs])
        return batch_loss_and_gradients(params, enc_config, pairs, *args)

    monkeypatch.setattr(aged.training, "batch_loss_and_gradients", recording)
    train_config = TrainConfig(epochs=1, augment_fe_defs=augment_fe_defs)
    for seed in (1, 2, 3):
        config = EncoderConfig(seed=seed)
        model = untrained_model(train_instances, store, config, mode=mode)
        stream = build_training_stream(train_instances, store, model, train_config)
        # the longest pairs of the stream bound every batch of any seed and epoch
        longest = sorted(len(ex.pair.ids) for ex in stream)[-train_config.batch_size:]
        assert len(longest) * config.n_heads * max(longest) ** 2 <= ARRAY_BUDGET
        fit(model, train_instances, store, train_config)
    assert len(batches) == 3 * math.ceil(len(stream) / train_config.batch_size)
    assert all(len(lengths) * config.n_heads * max(lengths) ** 2 <= ARRAY_BUDGET
               for lengths in batches)
