"""Holdout experiment harness for zero-shot and few-shot frames.

Instances of the held-out frames are capped at k training occurrences
(k=0 removes them entirely, k=None keeps everything), a model is trained
from scratch, and the report carries overall plus per-frame metrics. A
held-out frame is still predictable at k=0 because its definition template
is rendered from the ontology, not learned from instances. The harness
writes no file: `aged experiment` saves the report's `to_json`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .corpus import AnnotatedInstance, FrameStore, sample_k_shot
from .decoding import predict_pairs, query_pairs
from .encoder import EncoderConfig
from .evaluation import Metrics, evaluate, per_frame_metrics
from .templates import DEFAULT_MARKERS, MarkerOptions, TemplateMode
from .training import TrainConfig, fit, untrained_model


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
        """The fields in order, the metrics in their `Metrics.to_json` form."""
        return {**asdict(self), "overall": self.overall.to_json(),
                "per_frame": {f: m.to_json() for f, m in self.per_frame.items()}}


def run_holdout_experiment(
    train_instances: list[AnnotatedInstance],
    test_instances: list[AnnotatedInstance],
    store: FrameStore,
    frames: set[str],
    k: int | None,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    *,
    mode: TemplateMode = TemplateMode.FRAME_DEF,
    markers: MarkerOptions = DEFAULT_MARKERS,
) -> ExperimentReport:
    """Train a model of query `mode` and `markers` with held-out frames capped
    at k instances, and evaluate it on test."""
    for name in frames:
        store.frame(name)  # unknown holdout frame is a setup error
    if k is None:
        sampled = list(train_instances)
    else:
        sampled = sample_k_shot(train_instances, frames, k, encoder_config.seed)

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

    # the test pairs need only the vocabulary and query settings, which
    # training leaves as they are; assembled first, an over-long test
    # instance is rejected before any training
    model = untrained_model(sampled, store, encoder_config, mode=mode, markers=markers)
    test_pairs = query_pairs(test_instances, store, model)
    model, train_report, _ = fit(model, sampled, store, train_config)
    predictions = predict_pairs(model, test_pairs)
    predictions_complete = all(
        len(preds) == len(store.frame(inst.frame).fe_order)
        for preds, inst in zip(predictions, test_instances)
    )

    return ExperimentReport(
        k=k,
        holdout_frames=sorted(frames),
        mode=model.mode.value,
        train_counts=train_counts,
        holdout_certified=certified,
        predictions_complete=predictions_complete,
        overall=evaluate(predictions, test_instances),
        per_frame=per_frame_metrics(predictions, test_instances),
        stream_size=train_report.stream_size,
        epochs=train_config.epochs,
        config={
            "encoder": {"vocab_size": len(model.vocab), **asdict(model.config)},
            "learning_rate": train_config.learning_rate,
            "batch_size": train_config.batch_size,
            "seed": encoder_config.seed,
            "augment_fe_defs": train_config.augment_fe_defs,
        },
    )
