import dataclasses
import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

import aged.cli
from aged.corpus import mini_framenet_path
from aged.encoder import (
    Checkpoint,
    EncoderConfig,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from aged.encoding import RESERVED_TOKENS, Vocabulary
from aged.templates import MarkerOptions, TemplateMode
from aged.training import TrainConfig, fit

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "scripts" / "make_mini_framenet.py"
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("make_mini_framenet", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, records", [
    ("frames", "FRAMES"), ("train", "TRAIN"), ("test", "TEST"),
])
def test_generator_reproduces_bundled_corpus(generator, name, records):
    expected = mini_framenet_path(name).read_bytes()
    assert generator.to_jsonl(getattr(generator, records)).encode("utf-8") == expected


def test_benchmark_tracer_finds_every_function_it_needs():
    # the per-layer metrics look functions up by name; a renamed or deleted
    # function makes a metric absent and fails the benchmark's self-test
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics, absent = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    assert absent == []
    assert len(metrics) == len(tracing.LAYER_METRICS)


# EncoderConfig fields that no flag sets: `fit` sizes the vocabulary, and the
# gradient tests run in f64
NOT_FROM_FLAGS = {"vocab_size", "dtype"}


def test_every_encoder_config_field_is_set_from_flags(monkeypatch):
    # a config field that no command can set is reachable only from tests
    set_by_cli = {}
    monkeypatch.setattr(aged.cli, "EncoderConfig", lambda **fields: set_by_cli.update(fields))
    aged.cli._encoder_config(aged.cli.DEFAULTS["train"])
    unreachable = {f.name for f in dataclasses.fields(EncoderConfig)} - set(set_by_cli)
    assert unreachable <= NOT_FROM_FLAGS


def _written_keys():
    """The top-level keys that `save_checkpoint` writes, read back from a saved file."""
    config = EncoderConfig(vocab_size=len(RESERVED_TOKENS), d_model=2, n_layers=1, n_heads=1)
    model = Checkpoint(config, init_parameters(config), Vocabulary(RESERVED_TOKENS),
                       TemplateMode.FRAME_DEF, MarkerOptions())
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        save_checkpoint(model, path)
        return list(json.loads(path.read_text()))


@pytest.fixture(scope="module", params=[
    (TemplateMode.FRAME_DEF, MarkerOptions(label_markers=False)),
    (TemplateMode.QUESTION, MarkerOptions()),
], ids=["frame-def-no-label-markers", "question"])
def saved(request, mini, tmp_path_factory):
    """A model trained by `fit`, and the file `save_checkpoint` wrote for it."""
    store, train_instances, _ = mini
    mode, markers = request.param
    model, _ = fit(train_instances[:6], store,
                   EncoderConfig(vocab_size=1, d_model=8, n_layers=1, n_heads=2),
                   TrainConfig(epochs=1, template_mode=mode, marker_options=markers))
    path = tmp_path_factory.mktemp("checkpoint") / "model.json"
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
    doc = json.loads(path.read_text())
    del doc[key]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"'{key}'"):
        load_checkpoint(bad)
