"""Holdout experiment harness for zero-shot and few-shot frames.

Instances of the held-out frames are capped at k training occurrences
(k=0 removes them entirely, k=None keeps everything), a model is trained
from scratch, and the report carries overall plus per-frame metrics. A
held-out frame is still predictable at k=0 because its definition template
is rendered from the ontology, not learned from instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import AnnotatedInstance, FrameStore, sample_k_shot
from .decoding import predict_all
from .encoder import EncoderConfig
from .evaluation import Metrics, evaluate, per_frame_metrics
from .training import TrainConfig, fit


@dataclass
class ExperimentReport:
    k: int | None
    holdout_frames: list[str]
    mode: str
    train_counts: dict[str, int]
    holdout_certified: bool
    predictions_complete: bool
    overall: Metrics
    per_frame: dict[str, Metrics]
    stream_size: int
    epochs: int
    config: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "holdout_frames": self.holdout_frames,
            "mode": self.mode,
            "train_counts": self.train_counts,
            "holdout_certified": self.holdout_certified,
            "predictions_complete": self.predictions_complete,
            "overall": self.overall.to_json(),
            "per_frame": {f: m.to_json() for f, m in self.per_frame.items()},
            "stream_size": self.stream_size,
            "epochs": self.epochs,
            "config": self.config,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")


def run_holdout_experiment(
    train_instances: list[AnnotatedInstance],
    test_instances: list[AnnotatedInstance],
    store: FrameStore,
    frames: set[str],
    k: int | None,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
) -> ExperimentReport:
    """Train with held-out frames capped at k instances and evaluate on test."""
    for name in frames:
        store.frame(name)  # unknown holdout frame is a setup error
    if k is None:
        sampled = list(train_instances)
    else:
        sampled = sample_k_shot(train_instances, frames, k, train_config.seed)

    train_counts = {name: sum(1 for i in sampled if i.frame == name) for name in sorted(frames)}
    available = {name: sum(1 for i in train_instances if i.frame == name) for name in frames}
    expected = {
        name: available[name] if k is None else min(k, available[name]) for name in train_counts
    }
    certified = train_counts == expected
    if not certified:
        raise ValueError(
            f"holdout cap violated: sampled training counts {train_counts}, expected {expected}"
        )

    model, train_report = fit(sampled, store, encoder_config, train_config)
    predictions = predict_all(test_instances, store, model)
    predictions_complete = all(
        len(preds) == len(store.frame(inst.frame).fe_order)
        for preds, inst in zip(predictions, test_instances)
    )

    return ExperimentReport(
        k=k,
        holdout_frames=sorted(frames),
        mode=train_config.template_mode.value,
        train_counts=train_counts,
        holdout_certified=certified,
        predictions_complete=predictions_complete,
        overall=evaluate(predictions, test_instances),
        per_frame=per_frame_metrics(predictions, test_instances),
        stream_size=train_report.stream_size,
        epochs=train_config.epochs,
        config={
            "encoder": model.config.to_json(),
            "learning_rate": train_config.learning_rate,
            "batch_size": train_config.batch_size,
            "seed": train_config.seed,
            "augment_fe_defs": train_config.augment_fe_defs,
        },
    )
