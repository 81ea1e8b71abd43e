"""Seeded long-sentence test set for the predict-long workload.

Each bundled test sentence is embedded at a random offset in filler tokens
drawn from the train vocabulary, to a total length n in [MIN_N, MAX_N].
Targets and gold spans are shifted by the offset, so the gold answers stay
the bundled ones. MAX_N keeps `[CLS] <t>..</t> sentence [SEP] template [SEP]`
within the default max_len of 256 for every bundled frame-def template
(at most 34 tokens).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MIN_N = 100
MAX_N = 210


def read_jsonl(path: str | Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def generate(train: list[dict], test: list[dict], count: int, seed: int) -> list[dict]:
    """`count` instances; the same arguments always give the same list."""
    rng = random.Random(seed)
    filler = sorted({tok for rec in train for tok in rec["tokens"]})
    order: list[int] = []
    out = []
    for _ in range(count):
        if not order:
            order = list(range(len(test)))
            rng.shuffle(order)
        base = test[order.pop()]
        words = base["tokens"]
        n = rng.randint(max(MIN_N, len(words)), MAX_N)
        offset = rng.randint(0, n - len(words))
        tokens = (
            [rng.choice(filler) for _ in range(offset)]
            + list(words)
            + [rng.choice(filler) for _ in range(n - offset - len(words))]
        )
        out.append({
            "tokens": tokens,
            "target": base["target"] + offset,
            "frame": base["frame"],
            "arguments": [
                {"fe": a["fe"], "start": a["start"] + offset, "end": a["end"] + offset}
                for a in base["arguments"]
            ],
        })
    return out


def write(train_path: Path, test_path: Path, out_path: Path, count: int, seed: int) -> list[dict]:
    records = generate(read_jsonl(train_path), read_jsonl(test_path), count, seed)
    with open(out_path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")
    return records

