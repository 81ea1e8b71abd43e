import importlib.util
from pathlib import Path

import pytest

from aged.corpus import mini_framenet_path

GENERATOR = Path(__file__).resolve().parents[1] / "scripts" / "make_mini_framenet.py"


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
