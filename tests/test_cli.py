import base64
import hashlib
import json
import types
from pathlib import Path

import numpy as np
import pytest

import aged.cli
from aged.cli import build_parser, dispatch
from aged.corpus import load_instances, load_ontology, mini_framenet_path


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ingest_default_flags(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "ingest")
    assert code == 0
    counts = json.loads(out)
    assert counts == {"frames": 4, "frame_elements": 14, "instances": 40, "arguments": 95}
    assert (tmp_path / "aged-ingest-manifest.json").exists()


def test_ingest_missing_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "ingest", "--frames", "nope.jsonl")
    assert code == 1
    assert "nope.jsonl" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def test_ingest_rejects_malformed_corpus_before_manifest(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = Path(mini_framenet_path("train")).read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:2] + ['{"tokens": '] + lines[2:]) + "\n")
    code, out, err = run(capsys, "ingest", "--instances", str(bad))
    assert code == 1
    assert out == ""
    assert "bad.jsonl:3" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(capsys, "ingest", "--bogus")
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("aged ")


def test_template_question(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "template", "--frame", "Attack", "--fe", "Assailant",
                       "--mode", "question")
    assert code == 0
    assert out.strip() == "What's <r> Assailant </r> of <f> Attack </f> ?"


def test_template_fe_def_requires_fe(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "template", "--mode", "fe-def")
    assert code == 1
    assert "--fe" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_dispatch_keeps_freed_heap_where_mallopt_exists(capsys, tmp_path, monkeypatch,
                                                        has_mallopt):
    monkeypatch.chdir(tmp_path)
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = types.SimpleNamespace(**({"mallopt": mallopt} if has_mallopt else {}))
    monkeypatch.setattr(aged.cli.ctypes, "CDLL", lambda name: libc)
    aged.cli._keep_freed_heap.cache_clear()
    try:
        code, out, _ = run(capsys, "template", "--frame", "Attack")
        run(capsys, "template", "--frame", "Attack")  # once per process
    finally:
        aged.cli._keep_freed_heap.cache_clear()
    assert code == 0 and "Attack" in out
    # M_TRIM_THRESHOLD = 64 MiB, M_MMAP_THRESHOLD = 16 MiB
    assert calls == ([(-1, 64 << 20), (-3, 16 << 20)] if has_mallopt else [])


def test_template_no_label_markers(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "template", "--frame", "Getting", "--fe", "Theme",
                       "--mode", "question", "--no-label-markers")
    assert code == 0
    assert out.strip() == "What's Theme of Getting ?"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A quickly trained checkpoint shared by the CLI round-trip tests.

    The dev set also gives it a best-dev checkpoint, `model.json.best`.
    """
    workdir = tmp_path_factory.mktemp("cli-train")
    ckpt = workdir / "model.json"
    code = dispatch([
        "train", "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--seed", "7",
        "--d-model", "8", "--layers", "1", "--heads", "2",
        "--dev", str(mini_framenet_path("test")), "--checkpoint", str(ckpt),
    ])
    assert code == 0
    return workdir, ckpt


def test_train_writes_artifacts(trained):
    workdir, ckpt = trained
    # the checkpoint is the whole model: no vocabulary sidecar
    assert sorted(p.name for p in workdir.iterdir()) == [
        "model.json", "model.json.best", "model.json.manifest.json", "model.json.report.json",
    ]
    manifest = json.loads((workdir / "model.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 7
    assert manifest["config"]["epochs"] == 2
    frames_path = str(mini_framenet_path("frames"))
    digest = hashlib.sha256(open(frames_path, "rb").read()).hexdigest()
    assert manifest["inputs"][frames_path] == digest


def test_train_refuses_to_overwrite(capsys, trained):
    workdir, ckpt = trained
    code, _, err = run(capsys, "train", "--epochs", "1", "--d-model", "8",
                       "--layers", "1", "--heads", "2", "--checkpoint", str(ckpt))
    assert code == 1
    assert "--force" in err


def test_train_refuses_to_overwrite_best_dev_checkpoint(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json.best").write_text("kept")
    code, _, err = run(capsys, "train", "--epochs", "1", "--d-model", "8", "--layers", "1",
                       "--heads", "2", "--dev", str(mini_framenet_path("test")),
                       "--checkpoint", "model.json")
    assert code == 1
    assert "model.json.best" in err and "--force" in err
    assert [p.name for p in tmp_path.iterdir()] == ["model.json.best"]
    assert (tmp_path / "model.json.best").read_text() == "kept"


def test_predict_eval_round_trip(capsys, trained, tmp_path, monkeypatch):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pred.jsonl"
    code, stdout, _ = run(capsys, "predict", "--checkpoint", str(ckpt), "--out", str(out))
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 12
    for rec in lines:
        assert set(rec) == {"frame", "predictions"}
        for p in rec["predictions"]:
            assert set(p) == {"fe", "span", "score"}
            assert p["span"] is None or (len(p["span"]) == 2 and p["span"][0] <= p["span"][1])
    code, stdout, _ = run(capsys, "eval", "--pred", str(out))
    assert code == 0
    metrics = json.loads(stdout)
    assert set(metrics) == {"precision", "recall", "f1", "tp", "pred", "gold"}


def test_eval_perfect_predictions_score_one(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = load_ontology(mini_framenet_path("frames"))
    gold = load_instances(mini_framenet_path("test"), store)
    pred_path = tmp_path / "gold-as-pred.jsonl"
    with open(pred_path, "w") as f:
        for inst in gold:
            rec = {
                "frame": inst.frame,
                "predictions": [
                    {"fe": a.fe, "span": [a.start, a.end], "score": 1.0}
                    for a in inst.arguments
                ],
            }
            f.write(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "eval", "--pred", str(pred_path))
    assert code == 0
    metrics = json.loads(out)
    assert metrics["precision"] == metrics["recall"] == metrics["f1"] == 1.0


def test_eval_misaligned_names_first_bad_instance(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    store = load_ontology(mini_framenet_path("frames"))
    gold = load_instances(mini_framenet_path("test"), store)
    pred_path = tmp_path / "bad.jsonl"
    with open(pred_path, "w") as f:
        for i, inst in enumerate(gold):
            frame = "Getting" if i == 2 else inst.frame
            if i == 2 and inst.frame == "Getting":
                frame = "Attack"
            f.write(json.dumps({"frame": frame, "predictions": []}) + "\n")
    code, _, err = run(capsys, "eval", "--pred", str(pred_path))
    assert code == 1
    assert "instance 3" in err


def _gold_as_predictions(path, edit):
    """Write gold arguments as predictions, `edit`ing the last record that has any.

    Returns the 1-based line of the edited record.
    """
    store = load_ontology(mini_framenet_path("frames"))
    gold = load_instances(mini_framenet_path("test"), store)
    target = max(i for i, inst in enumerate(gold) if inst.arguments)
    with open(path, "w") as f:
        for i, inst in enumerate(gold):
            preds = [{"fe": a.fe, "span": [a.start, a.end], "score": 1.0} for a in inst.arguments]
            if i == target:
                edit(preds, inst)
            f.write(json.dumps({"frame": inst.frame, "predictions": preds}) + "\n")
    return target + 1


@pytest.mark.parametrize("edit, message", [
    (lambda preds, inst: preds.extend([dict(preds[0])] * 2), "more than once"),
    (lambda preds, inst: preds.append({"fe": "Nonsense", "span": None, "score": 0.0}),
     "not in frame"),
    (lambda preds, inst: preds[0].update(span=[1, len(inst.tokens) + 1]), "outside 1.."),
    (lambda preds, inst: preds[0].update(span=[0, 1]), "outside 1.."),
    (lambda preds, inst: preds[0].update(span=[2, 1]), "start <= end"),
    (lambda preds, inst: preds.append([1, 2]), "must be a JSON object"),
    (lambda preds, inst: preds[0].update(score=float("nan")), "not a finite number"),
    (lambda preds, inst: preds[0].update(score=float("inf")), "not a finite number"),
    (lambda preds, inst: preds[0].update(score="0.5"), "not a finite number"),
    (lambda preds, inst: preds[0].update(score=True), "not a finite number"),
    (lambda preds, inst: preds[0].update(span=5), "bad span 5"),
    (lambda preds, inst: preds[0].update(span=True), "bad span true"),
    (lambda preds, inst: preds[0].update(span=[True, True]), "bad span [true, true]"),
], ids=["duplicate-fe", "unknown-fe", "span-past-end", "span-before-start", "start-after-end",
        "not-an-object", "nan-score", "infinite-score", "string-score", "bool-score", "int-span",
        "bool-span", "bool-pair-span"])
def test_eval_rejects_invalid_predictions(capsys, tmp_path, monkeypatch, edit, message):
    monkeypatch.chdir(tmp_path)
    pred_path = tmp_path / "bad.jsonl"
    line = _gold_as_predictions(pred_path, edit)
    code, out, err = run(capsys, "eval", "--pred", str(pred_path))
    assert code == 1
    assert out == ""
    assert message in err
    assert f"bad.jsonl:{line}:" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("line, message", [
    ('{"frame": ', "malformed JSON"),
    ("[1, 2]", "a prediction record must be a JSON object"),
    ('{"frame": "Attack", "predictions": 5}', "'predictions' must be a list"),
], ids=["truncated-json", "not-an-object", "predictions-not-a-list"])
def test_eval_malformed_record_names_line(capsys, tmp_path, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    pred_path = tmp_path / "bad.jsonl"
    pred_path.write_text('{"frame": "Attack", "predictions": []}\n\n' + line + "\n")
    code, _, err = run(capsys, "eval", "--pred", str(pred_path), "--out", "m.json")
    assert code == 1
    assert f"bad.jsonl:3: {message}" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def _tensor_data(edit):
    """Checkpoint edit: `edit` maps the base64 data of `layer0.ffn.w1` to its new data."""
    def apply(doc):
        spec = doc["params"]["layer0.ffn.w1"]
        spec["data"] = edit(spec["data"])
    return apply


def _last_f32_set_to(value):
    """Base64 data edit: the tensor's last f32 entry becomes `value`."""
    def edit(data):
        tensor = np.frombuffer(base64.b64decode(data), "<f4").copy()
        tensor[-1] = value
        return base64.b64encode(tensor.tobytes()).decode("ascii")
    return edit


def _swap_first_tokens(doc):
    doc["vocab"][:2] = doc["vocab"][1::-1]


def _before_format(doc):
    # the layout saved before `format` existed: config and params only
    for key in ("format", "vocab", "mode", "markers"):
        del doc[key]


def _misshapen_w_end(doc):
    doc["params"]["pointer.w_end"] = {
        "shape": [16, 64],
        "data": base64.b64encode(np.zeros((16, 64), "<f4").tobytes()).decode("ascii"),
    }


@pytest.mark.parametrize("edit, message", [
    (_tensor_data(lambda d: d[: len(d) // 2]), "'layer0.ffn.w1': 513 bytes, expected 1024"),
    (_tensor_data(lambda d: [0.25] * 16), "'layer0.ffn.w1': data must be a base64 string"),
    (_tensor_data(_last_f32_set_to(np.nan)), "'layer0.ffn.w1': holds NaN or infinite"),
    (_tensor_data(_last_f32_set_to(-np.inf)), "'layer0.ffn.w1': holds NaN or infinite"),
    (lambda doc: doc["params"].pop("pointer.w_end"), "tensors missing: ['pointer.w_end']"),
    (_misshapen_w_end, "'pointer.w_end': shape [16, 64], expected [8, 8]"),
    (lambda doc: doc["params"].update(extra=doc["params"]["pointer.w_end"]),
     "not in this config: ['extra']"),
    (lambda doc: doc.pop("config"), "'config' is missing"),
    (lambda doc: doc["config"].update(dropout=0.0), "key 'dropout' is unknown"),
    (lambda doc: doc["config"].pop("max_len"), "missing key 'max_len'"),
    (lambda doc: doc["config"].update(vocab_size="x"),
     "vocab_size must be an integer >= 1, got 'x'"),
    (lambda doc: doc["config"].update(dtype=["f32"]), "dtype must be one of ['f32', 'f64']"),
    (lambda doc: doc.pop("format"), "key 'format' is missing"),
    (lambda doc: doc.update(format=2), "'format' is 2; this version of aged reads format 1"),
    (lambda doc: doc.pop("vocab"), "key 'vocab' is missing"),
    (lambda doc: doc.update(vocab=doc["vocab"][:40]), "'vocab' has 40 tokens, but config vocab_size"),
    (_swap_first_tokens, "'vocab': vocabulary must start with the reserved tokens"),
    (lambda doc: doc.update(mode="fe-def"), "'mode' must be one of ['frame-def', 'question']"),
    (lambda doc: doc["markers"].update(frame_markers=True),
     "'markers' must hold exactly ['target_markers', 'label_markers'] as booleans"),
    (lambda doc: doc.update(extra=1), "key 'extra' is unknown"),
    (_before_format, "key 'format' is missing: the checkpoint was saved by another version "
     "of aged; retrain the model"),
], ids=["truncated", "decimal-list", "nan", "infinite", "missing-tensor", "misshapen-tensor",
        "extra-tensor", "no-config", "old-dropout-config", "missing-config-key",
        "string-size", "list-dtype", "no-format", "format-2", "no-vocab", "short-vocab",
        "vocab-without-reserved-tokens", "fe-def-mode", "extra-marker", "extra-key",
        "saved-before-format"])
def test_predict_rejects_bad_checkpoint(capsys, trained, tmp_path, monkeypatch, edit, message):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    doc = json.loads(ckpt.read_text())
    edit(doc)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "predict", "--checkpoint", str(bad),
                       "--out", str(tmp_path / "pred.jsonl"))
    assert code == 1
    assert message in err
    if "dropout" in message:
        assert "retrain" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def test_predict_rejects_fe_def_mode(capsys, trained, tmp_path, monkeypatch):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pred.jsonl"
    code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--mode", "fe-def",
                       "--out", str(out))
    assert code == 1
    assert "fe-def" in err
    assert not out.exists()
    assert list(tmp_path.glob("*manifest.json")) == []


def test_predict_rejects_mode_of_another_model(capsys, trained, tmp_path, monkeypatch):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pred.jsonl"
    code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--mode", "question",
                       "--out", str(out))
    assert code == 1
    assert "--mode question" in err and "mode frame-def" in err
    assert not out.exists()
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("flag", [["--vocab", "model.json.vocab.json"], ["--no-target-markers"],
                                  ["--no-label-markers"]],
                         ids=["vocab", "no-target-markers", "no-label-markers"])
def test_predict_takes_no_model_settings(capsys, trained, tmp_path, monkeypatch, flag):
    # the vocabulary and the markers are the checkpoint's
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), *flag)
    assert code == 1
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_predict_from_best_dev_checkpoint(capsys, trained, tmp_path, monkeypatch):
    workdir, _ = trained
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pred.jsonl"
    code, _, _ = run(capsys, "predict", "--checkpoint", str(workdir / "model.json.best"),
                     "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 12


def test_predict_rejects_over_long_instance(capsys, trained, tmp_path, monkeypatch):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    lines = mini_framenet_path("test").read_text().splitlines()
    long = json.loads(lines[0])
    long["tokens"] = long["tokens"] + ["filler"] * 300
    lines[3:3] = ["", json.dumps(long)]  # a blank line, then the long instance on line 5
    instances = tmp_path / "long.jsonl"
    instances.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred.jsonl"
    code, stdout, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--instances",
                            str(instances), "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert f"{instances}:5: " in err and "max_len is 256" in err
    assert not out.exists()
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("flag", ["train", "dev"])
def test_train_names_over_long_instance(capsys, tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    lines = mini_framenet_path("train").read_text().splitlines()
    long = json.loads(lines[0])
    long["tokens"] = long["tokens"] + ["filler"] * 300
    lines[3:3] = ["", json.dumps(long)]  # a blank line, then the long instance on line 5
    instances = tmp_path / "long.jsonl"
    instances.write_text("\n".join(lines) + "\n")
    code, stdout, err = run(capsys, "train", f"--{flag}", str(instances), "--epochs", "1",
                            "--d-model", "8", "--layers", "1", "--heads", "2",
                            "--checkpoint", "model.json")
    assert code == 1
    assert stdout == ""
    assert "max_len is 256" in err
    assert f"{instances}:5: " in err
    if flag == "dev":  # not reported against the training file
        assert str(mini_framenet_path("train")) not in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_training_rejects_malformed_corpus_before_manifest(capsys, tmp_path, monkeypatch,
                                                           command):
    monkeypatch.chdir(tmp_path)
    lines = mini_framenet_path("train").read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(['{"tokens": '] + lines) + "\n")
    code, out, err = run(capsys, command, "--train", str(bad), "--epochs", "1")
    assert code == 1
    assert out == ""
    assert f"{bad}:1:" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def test_experiment_equals_train_predict_eval(capsys, trained, tmp_path, monkeypatch):
    # same flags and seed as the `trained` fixture, no frame held out
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    pred = tmp_path / "pred.jsonl"
    assert run(capsys, "predict", "--checkpoint", str(ckpt), "--out", str(pred))[0] == 0
    code, stdout, _ = run(capsys, "eval", "--pred", str(pred))
    assert code == 0
    metrics = json.loads(stdout)
    out = tmp_path / "exp.json"
    code, _, _ = run(
        capsys, "experiment", "--holdout", "", "--k", "full",
        "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--seed", "7",
        "--d-model", "8", "--layers", "1", "--heads", "2", "--out", str(out),
    )
    assert code == 0
    assert metrics["tp"] > 0
    assert json.loads(out.read_text())["overall"] == metrics


def test_train_report_has_gradient_norms(trained):
    workdir, _ = trained
    report = json.loads((workdir / "model.json.report.json").read_text())
    assert len(report["grad_norm_mean"]) == len(report["clipped_steps"]) == report["epochs"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_config_file_precedence(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("lr = 0.01\nepochs = 1\nunknown_key = 5\n")
    ckpt = tmp_path / "m.json"
    code, out, err = run(
        capsys, "train", "--config", str(config), "--lr", "0.001",
        "--d-model", "8", "--layers", "1", "--heads", "2",
        "--checkpoint", str(ckpt),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
    assert manifest["config"]["lr"] == 0.001  # flag beats file
    assert manifest["config"]["epochs"] == 1  # file beats default
    assert "unknown_key" not in manifest["config"]


def test_config_file_bad_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("epochs = banana\n")
    code, _, err = run(capsys, "train", "--config", str(config))
    assert code == 1
    assert "banana" in err


def test_experiment_end_to_end(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "exp.json"
    code, stdout, _ = run(
        capsys, "experiment", "--k", "0", "--holdout", "Getting",
        "--epochs", "2", "--d-model", "8", "--layers", "1", "--heads", "2",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["holdout"] == ["Getting"]
    report = json.loads(out.read_text())
    assert report["holdout_certified"] is True
    assert report["train_counts"] == {"Getting": 0}
    assert "Getting" in report["per_frame"]


def test_experiment_k_full(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "exp.json"
    code, stdout, _ = run(
        capsys, "experiment", "--k", "full", "--holdout", "Getting",
        "--epochs", "1", "--d-model", "8", "--layers", "1", "--heads", "2",
        "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text())["k"] is None


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_fe_augmentation_rejected_in_question_mode(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--mode", "question", "--augment-fe-defs",
                         "--epochs", "1")
    assert code == 1
    assert out == ""
    assert "--augment-fe-defs" in err and "--mode question" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", ["abc", "-1", "1.5", ""])
def test_experiment_rejects_bad_k(capsys, tmp_path, monkeypatch, k):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "experiment", "--k", k, "--epochs", "1")
    assert code == 1
    assert "--k must be an integer >= 0 or 'full'" in err
    assert repr(k) in err
    assert list(tmp_path.glob("*manifest.json")) == []
