import dataclasses
import json

import pytest

from aged.corpus import CorpusError
from aged.encoder import EncoderConfig
from aged.evaluation import Metrics
from aged.experiments import ExperimentReport, run_holdout_experiment
from aged.templates import TemplateMode
from aged.training import TrainConfig


def quick_configs(epochs=3):
    encoder = EncoderConfig(d_model=8, n_layers=1, n_heads=2, max_len=256, seed=5)
    training = TrainConfig(epochs=epochs, batch_size=8, learning_rate=1e-3)
    return encoder, training


def test_zero_shot_mechanics(store, train_instances, test_instances):
    encoder, training = quick_configs()
    report = run_holdout_experiment(
        train_instances, test_instances, store, {"Getting"}, 0, encoder, training
    )
    assert report.holdout_certified
    assert report.train_counts == {"Getting": 0}
    assert report.stream_size == sum(1 for i in train_instances if i.frame != "Getting")
    assert report.predictions_complete
    assert "Getting" in report.per_frame
    doc = json.loads(json.dumps(report.to_json()))
    assert doc["k"] == 0 and doc["holdout_frames"] == ["Getting"]
    assert set(doc["overall"]) == {"precision", "recall", "f1", "tp", "pred", "gold"}


def test_report_json_keys_are_the_fields_in_order():
    metrics = Metrics.from_counts(2, 3, 4)
    report = ExperimentReport(k=1, holdout_frames=["Getting"], mode="frame-def",
                              train_counts={"Getting": 1}, holdout_certified=True,
                              predictions_complete=True, overall=metrics,
                              per_frame={"Getting": metrics}, stream_size=9, epochs=2,
                              config={"seed": 5})
    doc = report.to_json()
    assert list(doc) == [f.name for f in dataclasses.fields(ExperimentReport)]
    assert doc["overall"] == metrics.to_json()
    assert doc["per_frame"] == {"Getting": metrics.to_json()}
    assert doc["config"] == {"seed": 5} and doc["k"] == 1


def test_experiment_builds_the_model_once(store, train_instances, test_instances, monkeypatch):
    # the test pairs and training come from one untrained model
    import aged.training

    calls = []
    init_parameters = aged.training.init_parameters
    monkeypatch.setattr(aged.training, "init_parameters",
                        lambda *args: calls.append(args) or init_parameters(*args))
    encoder, training = quick_configs(epochs=1)
    run_holdout_experiment(train_instances, test_instances, store, {"Getting"}, 0, encoder, training)
    assert len(calls) == 1


def test_few_shot_caps_counts(store, train_instances, test_instances):
    encoder, training = quick_configs()
    report = run_holdout_experiment(
        train_instances, test_instances, store, {"Getting"}, 2, encoder, training
    )
    assert report.train_counts == {"Getting": 2}
    assert report.holdout_certified


def test_k_full_is_ordinary_training(store, train_instances, test_instances):
    encoder, training = quick_configs()
    report = run_holdout_experiment(
        train_instances, test_instances, store, {"Getting"}, None, encoder, training
    )
    available = sum(1 for i in train_instances if i.frame == "Getting")
    assert report.train_counts == {"Getting": available}
    assert report.stream_size == len(train_instances)


def test_unknown_holdout_frame_rejected(store, train_instances, test_instances):
    encoder, training = quick_configs()
    with pytest.raises(CorpusError, match="unknown frame"):
        run_holdout_experiment(
            train_instances, test_instances, store, {"Nope"}, 0, encoder, training
        )


def test_question_mode_holdout_runs(store, train_instances, test_instances):
    encoder, training = quick_configs(epochs=1)
    report = run_holdout_experiment(
        train_instances[:10], test_instances, store, {"Getting"}, 0, encoder, training,
        mode=TemplateMode.QUESTION,
    )
    assert report.mode == "question"
    assert report.predictions_complete


def test_violated_holdout_cap_raises(store, train_instances, test_instances, monkeypatch):
    # a sampler that ignores the cap must be caught even under python -O
    monkeypatch.setattr("aged.experiments.sample_k_shot", lambda instances, *_: list(instances))
    encoder, training = quick_configs()
    available = sum(1 for i in train_instances if i.frame == "Getting")
    with pytest.raises(ValueError, match=rf"holdout cap violated.*'Getting': {available}\}}.*'Getting': 0\}}"):
        run_holdout_experiment(
            train_instances, test_instances, store, {"Getting"}, 0, encoder, training
        )
