import dataclasses
import importlib.util
from pathlib import Path

import pytest

import aged.cli
from aged.corpus import mini_framenet_path
from aged.encoder import EncoderConfig

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
