import dataclasses
import importlib.util
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import aged.cli
from aged.corpus import mini_framenet_path
from aged.encoder import (
    Checkpoint,
    EncoderConfig,
    forward_cached,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import RESERVED_TOKENS, Vocabulary, assemble, build_vocabulary
from aged.templates import MarkerOptions, TemplateMode, build_frame_template
from aged.training import TrainConfig, fit, untrained_model

import reference

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "scripts" / "make_mini_framenet.py"
TRACING = ROOT / "perfbench" / "tracing.py"
MUTANTS = ROOT / "scripts" / "mutants.py"


def _load_script(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _load_script("make_mini_framenet", GENERATOR)


def test_every_catalogued_mutant_snippet_matches_once():
    # a refactor that moves a snippet updates scripts/mutants.py, or this fails
    mutants = _load_script("mutants", MUTANTS)
    assert mutants.unmatched(mutants.CATALOGUE) == []


def test_mutant_script_exits_1_on_an_unmatched_snippet(capsys):
    mutants = _load_script("mutants", MUTANTS)
    stale = mutants.Mutant("stale", "src/aged/cli.py", "no such snippet", "",
                           ("tests/test_cli.py::test_version_flag",))
    assert mutants.main(catalogue=[stale, *mutants.CATALOGUE]) == 1
    assert capsys.readouterr().out == (
        "UNMATCHED stale: its snippet occurs 0 times in src/aged/cli.py, not once\n")


@pytest.mark.parametrize("name, records", [
    ("frames", "FRAMES"), ("train", "TRAIN"), ("test", "TEST"),
])
def test_generator_reproduces_bundled_corpus(generator, name, records):
    expected = mini_framenet_path(name).read_bytes()
    assert generator.to_jsonl(getattr(generator, records)).encode("utf-8") == expected


@pytest.fixture(scope="module")
def tracing():
    return _load_script("perfbench_tracing", TRACING)


def test_benchmark_tracer_finds_every_function_it_needs(tracing):
    # the per-layer metrics look functions up by name; a renamed or deleted
    # function makes a metric absent and fails the benchmark's self-test
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics, absent = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    assert absent == []
    assert len(metrics) == len(tracing.LAYER_METRICS)


def test_benchmark_observers_read_what_they_need(tracing, mini, tmp_path):
    # each observer reads its function's arguments by name and its result; a
    # renamed argument or a changed result fails here, not in the benchmark
    store, train_instances, _ = mini
    vocab = build_vocabulary(train_instances, store)
    config = EncoderConfig(d_model=8, n_layers=1, n_heads=2)
    model = Checkpoint(config, init_parameters(config, len(vocab)), vocab, TemplateMode.FRAME_DEF,
                       MarkerOptions())
    inst = train_instances[0]
    template = build_frame_template(store.frame(inst.frame))
    pair = assemble(inst, template, vocab)
    encoding = forward_cached(model.params, config, pair)[0]
    grads = model.params.copy()
    grads.flat[:] = 1.0  # a norm above the cap of 1, so the step is clipped
    calls = {
        "encoder.forward_cached": lambda f: f(model.params, config, pair),
        "encoder.save_checkpoint": lambda f: f(model, tmp_path / "model.json"),
        "pointer.pointer_distributions":
            lambda f: f(model.params, encoding, pair, reference.make_queries(encoding, pair)),
        "training.clip_gradients": lambda f: f(grads, 1.0),
        "decoding.decode_slot": lambda f: f(np.array([0.1, 0.6, 0.3]), np.array([0.1, 0.3, 0.6])),
        "encoding.assemble": lambda f: f(inst, template, vocab),
    }
    assert calls.keys() == tracing.OBSERVERS.keys()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, call in calls.items():
            layer, function = name.split(".")
            call(getattr(importlib.import_module(f"aged.{layer}"), function))
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} >= calls.keys()  # each call was traced
    moved = {name for name, value in tracer.counters.items() if value > 0}
    assert moved >= {"encoder.tokens", "encoder.checkpoint_bytes", "pointer.slots",
                     "training.clipped", "decoding.candidates", "encoding.pair_tokens"}


# EncoderConfig fields that no flag sets: the gradient tests run in f64
NOT_FROM_FLAGS = {"dtype"}


def test_every_encoder_config_field_is_set_from_flags(monkeypatch):
    # a config field that no command can set is reachable only from tests
    set_by_cli = {}
    monkeypatch.setattr(aged.cli, "EncoderConfig", lambda **fields: set_by_cli.update(fields))
    aged.cli._encoder_config(aged.cli.DEFAULTS["train"])
    unreachable = {f.name for f in dataclasses.fields(EncoderConfig)} - set(set_by_cli)
    assert unreachable <= NOT_FROM_FLAGS


def test_every_train_config_field_is_set_from_flags(monkeypatch):
    # a training setting that no command can set is reachable only from tests
    set_by_cli = {}
    monkeypatch.setattr(aged.cli, "TrainConfig", lambda **fields: set_by_cli.update(fields))
    aged.cli._train_config(aged.cli.DEFAULTS["train"])
    assert {f.name for f in dataclasses.fields(TrainConfig)} == set(set_by_cli)


def _written_keys():
    """The top-level keys that `save_checkpoint` writes, read back from a saved file."""
    config = EncoderConfig(d_model=2, n_layers=1, n_heads=1)
    model = Checkpoint(config, init_parameters(config, len(RESERVED_TOKENS)),
                       Vocabulary(RESERVED_TOKENS), TemplateMode.FRAME_DEF, MarkerOptions())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.ckpt"
        save_checkpoint(model, path)
        return list(json.loads(path.read_bytes().partition(b"\n")[0]))


@pytest.fixture(scope="module", params=[
    (TemplateMode.FRAME_DEF, MarkerOptions(label_markers=False)),
    (TemplateMode.QUESTION, MarkerOptions()),
], ids=["frame-def-no-label-markers", "question"])
def saved(request, mini, tmp_path_factory):
    """A model trained by `fit`, and the file `save_checkpoint` wrote for it."""
    store, train_instances, _ = mini
    mode, markers = request.param
    untrained = untrained_model(train_instances[:6], store,
                                EncoderConfig(d_model=8, n_layers=1, n_heads=2),
                                mode=mode, markers=markers)
    model, _, _ = fit(untrained, train_instances[:6], store, TrainConfig(epochs=1))
    path = tmp_path_factory.mktemp("checkpoint") / "model.ckpt"
    save_checkpoint(model, path)
    return model, path


def test_checkpoint_round_trips_every_field(saved):
    # a Checkpoint field that the file drops or the reader rebuilds wrongly fails here
    model, path = saved
    loaded = load_checkpoint(path)
    for field in dataclasses.fields(Checkpoint):
        ours, theirs = getattr(loaded, field.name), getattr(model, field.name)
        if field.name == "params":
            assert ours.keys() == theirs.keys()
            for name, tensor in theirs.items():
                assert ours[name].dtype == tensor.dtype
                assert ours[name].tobytes() == tensor.tobytes(), name
        elif field.name == "vocab":
            assert ours.tokens == theirs.tokens
        else:
            assert ours == theirs, field.name


@pytest.mark.parametrize("key", _written_keys())
def test_checkpoint_reader_requires_every_written_key(saved, tmp_path, key):
    # a key the writer gains but the reader does not check fails here
    _, path = saved
    head, newline, body = path.read_bytes().partition(b"\n")
    doc = json.loads(head)
    del doc[key]
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(json.dumps(doc).encode() + newline + body)
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_checkpoint(bad)
