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
    """A quickly trained checkpoint shared by the CLI round-trip tests."""
    workdir = tmp_path_factory.mktemp("cli-train")
    ckpt = workdir / "model.json"
    code = dispatch([
        "train", "--epochs", "2", "--batch-size", "8", "--lr", "1e-3", "--seed", "7",
        "--d-model", "8", "--layers", "1", "--heads", "2",
        "--checkpoint", str(ckpt),
    ])
    assert code == 0
    return workdir, ckpt


def test_train_writes_artifacts(trained):
    workdir, ckpt = trained
    assert ckpt.exists()
    assert (workdir / "model.json.vocab.json").exists()
    assert (workdir / "model.json.report.json").exists()
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
], ids=["duplicate-fe", "unknown-fe", "span-past-end", "span-before-start", "start-after-end",
        "not-an-object", "nan-score", "infinite-score", "string-score"])
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
], ids=["truncated-json", "not-an-object"])
def test_eval_malformed_record_names_line(capsys, tmp_path, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    pred_path = tmp_path / "bad.jsonl"
    pred_path.write_text('{"frame": "Attack", "predictions": []}\n\n' + line + "\n")
    code, _, err = run(capsys, "eval", "--pred", str(pred_path), "--out", "m.json")
    assert code == 1
    assert f"bad.jsonl:3: {message}" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def _corrupt_checkpoint(src, dst, data):
    doc = json.loads(src.read_text())
    doc["params"]["layer0.ffn.w1"]["data"] = data(doc["params"]["layer0.ffn.w1"]["data"])
    dst.write_text(json.dumps(doc))


def _last_f32_set_to(value):
    """Base64 data edit: the tensor's last f32 entry becomes `value`."""
    def edit(data):
        tensor = np.frombuffer(base64.b64decode(data), "<f4").copy()
        tensor[-1] = value
        return base64.b64encode(tensor.tobytes()).decode("ascii")
    return edit


@pytest.mark.parametrize("data, message", [
    (lambda d: d[: len(d) // 2], "bytes, expected"),
    (lambda d: [0.25] * 16, "base64 string"),
    (_last_f32_set_to(np.nan), "NaN or infinite"),
    (_last_f32_set_to(-np.inf), "NaN or infinite"),
], ids=["truncated", "decimal-list", "nan", "infinite"])
def test_predict_rejects_bad_checkpoint(capsys, trained, tmp_path, monkeypatch, data, message):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "model.json"
    _corrupt_checkpoint(ckpt, bad, data)
    code, _, err = run(capsys, "predict", "--checkpoint", str(bad),
                       "--vocab", str(workdir / "model.json.vocab.json"),
                       "--out", str(tmp_path / "pred.jsonl"))
    assert code == 1
    assert message in err
    assert "'layer0.ffn.w1'" in err
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


def test_predict_rejects_vocabulary_of_another_size(capsys, trained, tmp_path, monkeypatch):
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    tokens = json.loads((workdir / "model.json.vocab.json").read_text())
    small = tmp_path / "small.json"
    small.write_text(json.dumps(tokens[:40]))
    out = tmp_path / "pred.jsonl"
    code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt), "--vocab", str(small),
                       "--out", str(out))
    assert code == 1
    assert str(small) in err
    assert "40" in err and str(len(tokens)) in err
    assert not out.exists()
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
