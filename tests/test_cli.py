import base64
import hashlib
import json
import math
import os
import platform
import types

import numpy as np
import pytest

import aged.cli
import aged.training
from aged.cli import build_parser, dispatch
from aged.corpus import load_instances, load_ontology, mini_framenet_path


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _instance(inst):
    # how a prediction record names its gold instance
    tokens_sha256 = hashlib.sha256(json.dumps(list(inst.tokens)).encode("ascii")).hexdigest()
    return {"target": inst.target, "tokens_sha256": tokens_sha256}


def _record(inst, predictions, frame=None):
    return json.dumps({"frame": frame or inst.frame, "instance": _instance(inst),
                       "predictions": predictions})


def test_ingest_default_flags(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "ingest")
    assert code == 0
    counts = json.loads(out)
    assert counts == {"frames": 4, "frame_elements": 14, "instances": 40, "arguments": 95}
    assert list(tmp_path.iterdir()) == []  # it only prints: no output, so no manifest


def test_ingest_missing_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "ingest", "--frames", "nope.jsonl")
    assert code == 1
    assert "nope.jsonl" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("flag, bad, message", [
    ("instances", b'{"tokens": ', "malformed JSON"),
    ("instances", b"\xff", "not UTF-8"),
    ("instances", {"arguments": 5}, "'arguments' must be a list"),
    ("instances", {"arguments": [5]}, "an argument must be a JSON object"),
    ("instances", {"target": True}, "target True is not an integer"),
    ("instances", {"arguments": [{"fe": "Victim", "start": True, "end": 1}]}, "bad span (True, 1)"),
    ("frames", b'{"name": "\xc3"}', "not UTF-8"),
    ("frames", {"fe_order": ["Victim"], "fes": {"Victim": 5}}, "FE 'Victim' of 'Attack' must be"),
    ("frames", {"definition": [{"text": 5}]}, 'segment {"text": 5} needs'),
    ("frames", {"definition": [{"fe": "Victim", "surface": 5}]}, 'segment {"fe": "Victim", '),
], ids=["truncated-json", "not-utf-8", "arguments-not-a-list", "argument-not-an-object",
        "bool-target", "bool-span", "frames-not-utf-8", "fe-not-an-object", "text-not-a-string",
        "surface-not-a-string"])
def test_ingest_rejects_malformed_corpus_before_manifest(capsys, tmp_path, monkeypatch,
                                                         flag, bad, message):
    """`bad` is the raw third line, or the fields that replace those of the file's first record.

    A bad ontology is checked through `aged template` too, which reads only the ontology.
    """
    monkeypatch.chdir(tmp_path)
    lines = mini_framenet_path("frames" if flag == "frames" else "train").read_bytes().splitlines()
    if isinstance(bad, dict):
        bad = json.dumps({**json.loads(lines[0]), **bad}).encode()
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(lines[:2] + [bad] + lines[2:]) + b"\n")
    for command in ["ingest", "template"] if flag == "frames" else ["ingest"]:
        code, out, err = run(capsys, command, f"--{flag}", str(path))
        assert code == 1
        assert out == ""
        assert f"bad.jsonl:3: {message}" in err
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
    assert {"python", "numpy", "cpu_count"} <= set(manifest["environment"])


@pytest.mark.parametrize("mode_keyword", [True, False], ids=["numpy", "numpy-without-mode"])
def test_manifest_records_the_environment(capsys, tmp_path, monkeypatch, mode_keyword):
    monkeypatch.chdir(tmp_path)
    if not mode_keyword:  # numpy before 1.26: show_config() takes no mode=
        monkeypatch.setattr(np, "show_config", lambda: None)
    _gold_as_predictions(tmp_path / "pred.jsonl", lambda preds, inst: None)
    assert run(capsys, "eval", "--pred", "pred.jsonl", "--out", "e.json")[0] == 0
    environment = json.loads((tmp_path / "e.json.manifest.json").read_text())["environment"]
    assert environment["python"] == platform.python_version()
    assert environment["numpy"] == np.__version__
    assert environment["cpu_count"] == os.cpu_count()
    if mode_keyword:
        assert set(environment) == {"python", "numpy", "cpu_count", "blas"}
        assert set(environment["blas"]) == {"name", "version"}
    else:
        assert set(environment) == {"python", "numpy", "cpu_count"}


@pytest.mark.parametrize("stale", ["file", "directory"])
def test_commands_without_an_output_file_write_nothing(capsys, tmp_path, monkeypatch, stale):
    # no output file, so no manifest: a rerun does not overwrite one, and a
    # directory where a fixed-name manifest used to go does not fail the run
    monkeypatch.chdir(tmp_path)
    _gold_as_predictions(tmp_path / "pred.jsonl", lambda preds, inst: None)
    old = tmp_path / "aged-eval-manifest.json"
    old.write_text("kept") if stale == "file" else old.mkdir()
    before = sorted(tmp_path.iterdir())
    for argv in (["ingest"], ["template", "--frame", "Attack"], ["eval", "--pred", "pred.jsonl"]):
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert out.strip()
            assert sorted(tmp_path.iterdir()) == before
    assert old.read_text() == "kept" if stale == "file" else list(old.iterdir()) == []


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
    store = load_ontology(mini_framenet_path("frames"))
    gold = load_instances(mini_framenet_path("test"), store)
    for rec, inst in zip(lines, gold):
        assert set(rec) == {"frame", "instance", "predictions"}
        assert rec["instance"] == _instance(inst)
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
            preds = [{"fe": a.fe, "span": [a.start, a.end], "score": 1.0} for a in inst.arguments]
            f.write(_record(inst, preds) + "\n")
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
            f.write(_record(inst, [], frame) + "\n")
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
            f.write(_record(inst, preds) + "\n")
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
    (lambda preds, inst: preds[0].pop("span"), "a prediction needs 'span'"),
    (lambda preds, inst: preds[-1].pop("score"), "a prediction needs 'score'"),
    (lambda preds, inst: preds[0].pop("fe"), "a prediction needs 'fe'"),
], ids=["duplicate-fe", "unknown-fe", "span-past-end", "span-before-start", "start-after-end",
        "not-an-object", "nan-score", "infinite-score", "string-score", "bool-score", "int-span",
        "bool-span", "bool-pair-span", "no-span", "no-score", "no-fe"])
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


@pytest.mark.parametrize("records, message", [
    (11, "bad.jsonl: misaligned: 11 prediction records vs 12 gold instances"),
    (13, "bad.jsonl:13: misaligned: more prediction records than 12 gold instances"),
], ids=["fewer-records", "more-records"])
def test_eval_rejects_record_count_mismatch(capsys, tmp_path, monkeypatch, records, message):
    monkeypatch.chdir(tmp_path)
    pred_path = tmp_path / "bad.jsonl"
    _gold_as_predictions(pred_path, lambda preds, inst: None)
    lines = pred_path.read_text().splitlines()
    pred_path.write_text("\n".join((lines * 2)[:records]) + "\n")
    code, out, err = run(capsys, "eval", "--pred", str(pred_path))
    assert code == 1
    assert out == ""
    assert message in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("line, message", [
    (b'{"frame": ', "malformed JSON"),
    (b"[1, 2]", "a prediction record must be a JSON object"),
    (b'{"frame": "Attack", "instance": null, "predictions": 5}', "'predictions' must be a list"),
    (b'{"frame": "Att\xffack", "predictions": []}', "not UTF-8"),
    (b'{"frame": "Attack"}', "a prediction record needs 'predictions'"),
    (b'{"frame": "Attack", "predictions": []}', "a prediction record needs 'instance'"),
], ids=["truncated-json", "not-an-object", "predictions-not-a-list", "not-utf-8",
        "no-predictions", "no-instance"])
def test_eval_malformed_record_names_line(capsys, tmp_path, monkeypatch, line, message):
    monkeypatch.chdir(tmp_path)
    store = load_ontology(mini_framenet_path("frames"))
    first = load_instances(mini_framenet_path("test"), store)[0]
    pred_path = tmp_path / "bad.jsonl"
    pred_path.write_bytes(_record(first, []).encode() + b"\n\n" + line + b"\n")
    code, _, err = run(capsys, "eval", "--pred", str(pred_path), "--out", "m.json")
    assert code == 1
    assert f"bad.jsonl:3: {message}" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("swapped", ["pred", "gold"])
def test_eval_rejects_a_record_of_another_instance(capsys, tmp_path, monkeypatch, swapped):
    # the first two Attack instances trade places in the predictions or in the gold
    # file: the frames still agree, but each record names the other instance
    monkeypatch.chdir(tmp_path)
    _gold_as_predictions(tmp_path / "pred.jsonl", lambda preds, inst: None)
    lines = (tmp_path / "pred.jsonl").read_text().splitlines()
    attack = [i for i, line in enumerate(lines) if json.loads(line)["frame"] == "Attack"][:2]
    gold = mini_framenet_path("test").read_text().splitlines()
    edited = lines if swapped == "pred" else gold
    edited[attack[0]], edited[attack[1]] = edited[attack[1]], edited[attack[0]]
    (tmp_path / "pred.jsonl").write_text("\n".join(lines) + "\n")
    (tmp_path / "gold.jsonl").write_text("\n".join(gold) + "\n")
    code, out, err = run(capsys, "eval", "--pred", "pred.jsonl", "--gold", "gold.jsonl")
    assert code == 1
    assert out == ""
    line = attack[0] + 1
    assert err == (f"error: pred.jsonl:{line}: misaligned at instance {line}: "
                   "the record names another target or sentence\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.jsonl", "pred.jsonl"]


def _tensor_data(edit):
    """Checkpoint body edit: `edit(body, lo, hi)` gives the new body, where
    body[lo:hi] holds `layer0.ffn.w1`."""
    def apply(ck):
        lo = 0
        for name, shape in ck.header["params"].items():
            if name == "layer0.ffn.w1":
                break
            lo += 4 * math.prod(shape)
        ck.body = edit(ck.body, lo, lo + 4 * math.prod(ck.header["params"]["layer0.ffn.w1"]))
    return apply


def _last_f32_set_to(value):
    """Body edit: the tensor's last f32 entry becomes `value`."""
    return lambda body, lo, hi: body[: hi - 4] + np.array([value], "<f4").tobytes() + body[hi:]


def _swap_first_tokens(ck):
    ck.header["vocab"][:2] = ck.header["vocab"][1::-1]


def _before_format(ck):
    # the layout saved before `format` existed: config and params only
    for key in ("format", "vocab", "mode", "markers"):
        del ck.header[key]


def _format_1(ck):
    # format 1: one JSON document holding base64 of each tensor
    offset, params = 0, {}
    for name, shape in ck.header["params"].items():
        size = 4 * math.prod(shape)
        data = base64.b64encode(ck.body[offset : offset + size]).decode("ascii")
        params[name], offset = {"shape": shape, "data": data}, offset + size
    ck.file = json.dumps({**ck.header, "format": 1, "params": params}).encode()


def _format_2(ck):
    # format 2: this layout, with the vocabulary's size also in the config
    ck.header.update(format=2)
    ck.header["config"] = {"vocab_size": len(ck.header["vocab"]), **ck.header["config"]}


@pytest.mark.parametrize("edit, message", [
    (_tensor_data(lambda body, lo, hi: body[: lo + 513]),
     "'layer0.ffn.w1': 513 bytes, expected 1024"),
    (lambda ck: ck.header["params"].update({"layer0.ffn.w1": {"shape": [8, 32],
                                                              "data": [0.25] * 16}}),
     "'layer0.ffn.w1': shape {'shape': [8, 32], 'data': [0.25"),
    (_tensor_data(_last_f32_set_to(np.nan)), "'layer0.ffn.w1': holds NaN or infinite"),
    (_tensor_data(_last_f32_set_to(-np.inf)), "'layer0.ffn.w1': holds NaN or infinite"),
    (lambda ck: ck.header["params"].pop("pointer.w_end"), "tensors missing: ['pointer.w_end']"),
    (lambda ck: ck.header["params"].update({"pointer.w_end": [16, 64]}),
     "'pointer.w_end': shape [16, 64], expected [8, 8]"),
    (lambda ck: ck.header["params"].update(extra=[8, 8]), "not in this config: ['extra']"),
    (lambda ck: ck.header.pop("config"), "'config' is missing"),
    (lambda ck: ck.header["config"].update(dropout=0.0), "key 'dropout' is unknown"),
    (lambda ck: ck.header["config"].pop("max_len"), "config key 'max_len' is missing"),
    (lambda ck: ck.header["config"].update(d_model="x"),
     "d_model must be an integer >= 1, got 'x'"),
    (lambda ck: ck.header["config"].update(dtype=["f32"]), "dtype must be one of ['f32', 'f64']"),
    (lambda ck: ck.header.pop("format"), "key 'format' is missing"),
    (lambda ck: ck.header.update(format=4), "'format' is 4; this version of aged reads format 3"),
    (lambda ck: ck.header.pop("vocab"), "key 'vocab' is missing"),
    (lambda ck: ck.header.update(vocab=ck.header["vocab"][:40]),
     "tensor 'tok_emb': shape [225, 8], expected [40, 8] for this config and vocabulary"),
    (_swap_first_tokens, "'vocab': vocabulary must start with the reserved tokens"),
    (lambda ck: ck.header.update(mode="fe-def"), "'mode' must be one of ['frame-def', 'question']"),
    (lambda ck: ck.header["markers"].update(frame_markers=True),
     "'markers' must hold exactly ['target_markers', 'label_markers'] as booleans"),
    (lambda ck: ck.header.update(extra=1), "key 'extra' is unknown"),
    (_before_format, "key 'format' is missing: the checkpoint was saved by another version "
     "of aged; retrain the model"),
    (_tensor_data(lambda body, lo, hi: body[:-1]), "'pointer.w_end': 255 bytes, expected 256"),
    (_tensor_data(lambda body, lo, hi: body + b"\0"),
     "body has 1 byte(s) after its last tensor 'pointer.w_end'"),
    (_format_1, "'format' is 1; this version of aged reads format 3: retrain the model"),
    (_format_2, "'format' is 2; this version of aged reads format 3: retrain the model"),
    (lambda ck: ck.header["config"].update(vocab_size=len(ck.header["vocab"])),
     "config key 'vocab_size' is unknown: the checkpoint was saved by another version of "
     "aged; retrain the model"),
    (lambda ck: setattr(ck, "file", b"format = 2\n" + ck.body),
     "checkpoint line 1 is not a JSON header"),
    (_tensor_data(lambda body, lo, hi: body[:-4] + np.array([np.nan], "<f4").tobytes()),
     "'pointer.w_end': holds NaN or infinite"),
    (lambda ck: ck.header["params"].update(  # moved to the end, after pointer.w_end
        {"pointer.w_start": ck.header["params"].pop("pointer.w_start")}),
     "tensor 'pointer.w_end' is out of place: 'pointer.w_start' comes there in parameter order"),
], ids=["truncated", "decimal-list", "nan", "infinite", "missing-tensor", "misshapen-tensor",
        "extra-tensor", "no-config", "old-dropout-config", "missing-config-key",
        "string-size", "list-dtype", "no-format", "format-4", "no-vocab", "short-vocab",
        "vocab-without-reserved-tokens", "fe-def-mode", "extra-marker", "extra-key",
        "saved-before-format", "body-one-byte-short", "trailing-byte", "format-1-file",
        "format-2-file", "vocab-size-in-config", "header-not-json", "nan-in-last-tensor",
        "permuted-tensors"])
def test_predict_rejects_bad_checkpoint(capsys, trained, tmp_path, monkeypatch, edit, message):
    # header edits rewrite the JSON first line, body edits the tensor bytes after it
    workdir, ckpt = trained
    monkeypatch.chdir(tmp_path)
    head, _, body = ckpt.read_bytes().partition(b"\n")
    ck = types.SimpleNamespace(header=json.loads(head), body=body, file=None)
    edit(ck)
    bad = tmp_path / "model.ckpt"
    bad.write_bytes(ck.file or json.dumps(ck.header).encode() + b"\n" + ck.body)
    code, _, err = run(capsys, "predict", "--checkpoint", str(bad),
                       "--out", str(tmp_path / "pred.jsonl"))
    assert code == 1
    assert message in err
    assert "Traceback" not in err
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


@pytest.mark.parametrize("command, flag, out", [
    ("train", "train", "model.json"),
    ("train", "dev", "model.json"),
    ("experiment", "train", "exp.json"),
    ("experiment", "test", "exp.json"),
], ids=["train", "dev", "experiment-train", "experiment-test"])
def test_train_names_over_long_instance(capsys, tmp_path, monkeypatch, command, flag, out):
    monkeypatch.chdir(tmp_path)
    trained = []
    monkeypatch.setattr(aged.training, "train", lambda *args, **kwargs: trained.append(args))
    lines = mini_framenet_path("train").read_text().splitlines()
    long = json.loads(lines[0])
    long["tokens"] = long["tokens"] + ["filler"] * 300
    lines[3:3] = ["", json.dumps(long)]  # a blank line, then the long instance on line 5
    instances = tmp_path / "long.jsonl"
    instances.write_text("\n".join(lines) + "\n")
    out_flag = "--checkpoint" if command == "train" else "--out"
    code, stdout, err = run(capsys, command, f"--{flag}", str(instances), "--epochs", "1",
                            "--d-model", "8", "--layers", "1", "--heads", "2", out_flag, out)
    assert code == 1
    assert stdout == ""
    assert "max_len is 256" in err
    assert f"{instances}:5: " in err
    if flag != "train":  # not reported against the training file
        assert str(mini_framenet_path("train")) not in err
    assert not (tmp_path / out).exists()
    assert list(tmp_path.glob("*manifest.json")) == []
    assert trained == []  # rejected before the first epoch


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


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_empty_training_stream_rejected_before_manifest(capsys, tmp_path, monkeypatch, command):
    # `train` on an empty file, `experiment` with every frame held out at k = 0
    monkeypatch.chdir(tmp_path)
    if command == "train":
        (tmp_path / "empty.jsonl").write_text("")
        argv = ["train", "--train", "empty.jsonl"]
    else:
        argv = ["experiment", "--holdout", "Attack,Getting,Arriving,Transition_to_state",
                "--k", "0", "--out", "exp.json"]
    code, out, err = run(capsys, *argv, "--epochs", "1")
    assert code == 1
    assert out == ""
    assert err == "error: no training instance remains: the training stream is empty\n"
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("command, flag, path", [
    ("train", "--checkpoint", ""), ("train", "--checkpoint", "adir"),
    ("train", "--checkpoint", "nodir/m.ckpt"),
    ("predict", "--out", ""), ("predict", "--out", "adir"), ("predict", "--out", "nodir/p.jsonl"),
    ("experiment", "--out", ""), ("experiment", "--out", "adir"),
    ("experiment", "--out", "nodir/x.json"),
    ("eval", "--out", "adir"), ("eval", "--out", "nodir/e.json"),
], ids=lambda value: value or "empty")
def test_unusable_output_path_rejected_before_manifest(capsys, trained, tmp_path, monkeypatch,
                                                       command, flag, path):
    # even with --force; `eval --out ""` means no output file and is not refused
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    _gold_as_predictions(tmp_path / "pred.jsonl", lambda preds, inst: None)
    inputs = {"train": ["--epochs", "1"], "predict": ["--checkpoint", str(trained[1])],
              "eval": ["--pred", "pred.jsonl"], "experiment": ["--epochs", "1"]}[command]
    inputs += ["--frames", "absent.jsonl"]  # refused before it would be found missing
    code, out, err = run(capsys, command, *inputs, flag, path, "--force")
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must name a file in an existing directory, got {path!r}\n"
    assert list(tmp_path.rglob("*manifest.json")) == []
    assert list((tmp_path / "adir").iterdir()) == []
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("command, flag, out", [
    ("train", "--checkpoint", "m.ckpt"), ("predict", "--out", "p.jsonl"),
    ("experiment", "--out", "x.json"), ("eval", "--out", "e.json"),
])
def test_manifest_path_is_checked_before_any_input_is_read(capsys, trained, tmp_path, monkeypatch,
                                                           command, flag, out):
    # the manifest is written last, so an unusable one must be refused first
    monkeypatch.chdir(tmp_path)
    _gold_as_predictions(tmp_path / "pred.jsonl", lambda preds, inst: None)
    inputs = {"train": ["--epochs", "1"], "predict": ["--checkpoint", str(trained[1])],
              "eval": ["--pred", "pred.jsonl"], "experiment": ["--epochs", "1"]}[command]
    inputs += ["--frames", "absent.jsonl"]  # refused before it would be found missing
    manifest = tmp_path / f"{out}.manifest.json"
    manifest.mkdir()
    code, out_text, err = run(capsys, command, *inputs, flag, out, "--force")
    assert code == 1
    assert out_text == ""
    assert err == f"error: {flag} must name a file in an existing directory, got '{manifest.name}'\n"
    manifest.rmdir()
    manifest.write_text("kept")  # an existing manifest is an output like any other
    code, _, err = run(capsys, command, *inputs, flag, out)
    assert code == 1
    assert err == f"error: output '{manifest.name}' exists; pass --force to overwrite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([manifest.name, "pred.jsonl"])
    assert manifest.read_text() == "kept"


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


@pytest.mark.parametrize("command", list(aged.cli.DEFAULTS))
def test_parser_holds_every_default(command):
    args = vars(build_parser().parse_args([command]))
    assert {key: args[key] for key in aged.cli.DEFAULTS[command]} == aged.cli.DEFAULTS[command]


def test_config_file_precedence(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("lr = 0.01\nepochs = 1\nunknown_key = 5\n"
                      "augment_fe_defs = true\nno_label_markers = false\n")
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
    assert manifest["config"]["augment_fe_defs"] is True  # a true boolean is the bare flag
    assert manifest["config"]["no_label_markers"] is False


def test_config_file_bad_value(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("epochs = banana\n")
    code, _, err = run(capsys, "train", "--config", str(config))
    assert code == 1
    assert f"{config}:1: argument --epochs: invalid int value: 'banana'" in err
    assert list(tmp_path.glob("*manifest.json")) == []
    # the line that holds the bad value is named, and a bad flag names no line
    config.write_text("# settings\nseed = 3\nbatch_size = 1.5\n")
    code, _, err = run(capsys, "train", "--config", str(config))
    assert code == 1
    assert f"{config}:3: argument --batch-size: invalid int value: '1.5'" in err
    config.write_text("seed = 3\n")
    code, _, err = run(capsys, "train", "--config", str(config), "--epochs", "banana")
    assert code == 1
    assert err == "error: argument --epochs: invalid int value: 'banana'\n"
    assert list(tmp_path.glob("*manifest.json")) == []


def test_config_file_bad_boolean_names_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("augment_fe_defs = maybe\n")
    code, out, err = run(capsys, "train", "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"{config}:1: augment_fe_defs must be true or false, got 'maybe'" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("command, choices", [
    ("train", "'frame-def', 'question'"),
    ("predict", "'frame-def', 'question'"),
    ("experiment", "'frame-def', 'question'"),
    ("template", "'frame-def', 'fe-def', 'question'"),
], ids=["train", "predict", "experiment", "template"])
@pytest.mark.parametrize("where", ["flag", "file"])
def test_bad_mode_names_flag_and_choices(capsys, tmp_path, monkeypatch, command, choices, where):
    # only `template` renders fe-def templates; the other commands take a query mode
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("mode = bogus\n")
    argv = ["--mode", "bogus"] if where == "flag" else ["--config", str(config)]
    code, out, err = run(capsys, command, *argv)
    assert code == 1
    assert out == ""
    where = "" if where == "flag" else f"{config}:1: "
    assert f"error: {where}argument --mode: invalid choice: 'bogus' (choose from {choices})" in err
    assert list(tmp_path.glob("*manifest.json")) == []


def test_config_file_not_utf8_names_line(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_bytes(b"# settings\nepochs = 2\nseed = \xff\n")
    code, out, err = run(capsys, "ingest", "--config", str(config))
    assert code == 1
    assert out == ""
    assert f"{config}:3: not UTF-8" in err
    assert list(tmp_path.glob("*manifest.json")) == []


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
    assert json.loads((tmp_path / "exp.json.manifest.json").read_text())["command"] == "experiment"


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


def test_train_rejects_fe_def_mode(capsys, tmp_path, monkeypatch):
    # fe-def templates only augment training, so --mode refuses them like any bad mode
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train", "--mode", "fe-def", "--epochs", "1")
    assert code == 1
    assert out == ""
    assert ("error: argument --mode: invalid choice: 'fe-def' "
            "(choose from 'frame-def', 'question')") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_commands_take_no_eval_every(capsys, tmp_path, monkeypatch, caplog, command):
    # a dev set, given only to `train`, is scored every epoch
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, command, "--eval-every", "1", "--epochs", "1")
    assert code == 1
    assert "--eval-every" in err
    config = tmp_path / "run.cfg"
    config.write_text("eval_every = 1\n")
    with caplog.at_level("WARNING", logger="aged.cli"):
        code, _, _ = run(capsys, command, "--config", str(config), "--epochs", "1",
                         "--d-model", "8", "--layers", "1", "--heads", "2")
    assert code == 0
    assert f"config key 'eval_every' is not recognized by '{command}'; ignored" in caplog.text


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--seed", "-5"),
                                         ("--epochs", "0"), ("--batch-size", "-2")])
def test_train_rejects_unusable_setting(capsys, tmp_path, monkeypatch, flag, value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train", "--epochs", "1", flag, value)
    assert code == 1
    assert out == ""
    name = {"--lr": "learning_rate"}.get(flag, flag[2:].replace("-", "_"))
    assert f"{name} must be" in err and f"got {value}" in err
    assert list(tmp_path.iterdir()) == []


def test_train_exits_2_on_non_finite_loss(capsys, tmp_path, monkeypatch):
    real = aged.training.batch_loss_and_gradients

    def nan_loss(*args, **kwargs):
        losses, grads = real(*args, **kwargs)
        return [float("nan")] * len(losses), grads

    monkeypatch.setattr(aged.training, "batch_loss_and_gradients", nan_loss)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "train", "--epochs", "1", "--d-model", "8", "--layers", "1",
                         "--heads", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("runtime error: non-finite loss at epoch 0, batch 0")
    assert list(tmp_path.iterdir()) == []  # no checkpoint, report or manifest


def _nan_loss_after_first_dev_score(monkeypatch):
    """Make training losses NaN once the dev set has been scored once."""
    real_loss, real_evaluate = aged.training.batch_loss_and_gradients, aged.training.evaluate
    scored = []

    def loss(*args, **kwargs):
        losses, grads = real_loss(*args, **kwargs)
        return ([float("nan")] * len(losses) if scored else losses), grads

    def evaluate(*args, **kwargs):
        scored.append(True)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(aged.training, "batch_loss_and_gradients", loss)
    monkeypatch.setattr(aged.training, "evaluate", evaluate)


def test_failed_forced_rerun_leaves_the_finished_run_as_it_was(capsys, tmp_path, monkeypatch):
    # the rerun fails after its epoch 0 has found a best-dev model of its own
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--epochs", "2", "--d-model", "8", "--layers", "1", "--heads", "2",
            "--dev", str(mini_framenet_path("test")), "--checkpoint", "m.ckpt"]
    assert run(capsys, *argv)[0] == 0
    finished = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(finished) == ["m.ckpt", "m.ckpt.best", "m.ckpt.manifest.json",
                                "m.ckpt.report.json"]
    _nan_loss_after_first_dev_score(monkeypatch)
    code, out, err = run(capsys, *argv, "--seed", "8", "--force")
    assert code == 2
    assert out == ""
    assert err.startswith("runtime error: non-finite loss at epoch 1, batch 0")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == finished


def test_failed_write_leaves_the_finished_run_as_it_was(capsys, tmp_path, monkeypatch):
    # the rerun's work succeeds; writing its .best checkpoint fails, as on a full disk
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--epochs", "1", "--d-model", "8", "--layers", "1", "--heads", "2",
            "--dev", str(mini_framenet_path("test")), "--checkpoint", "m.ckpt"]
    assert run(capsys, *argv)[0] == 0
    finished = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_save = aged.cli.save_checkpoint

    def save(model, path):
        real_save(model, path)  # a half-written file is left behind too
        if str(path).startswith("m.ckpt.best"):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(aged.cli, "save_checkpoint", save)
    code, out, err = run(capsys, *argv, "--seed", "8", "--force")
    assert code == 2
    assert out == ""
    assert err == "runtime error: [Errno 28] No space left on device\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == finished


def test_experiment_with_non_finite_loss_leaves_no_file(capsys, tmp_path, monkeypatch):
    real = aged.training.batch_loss_and_gradients
    monkeypatch.setattr(aged.training, "batch_loss_and_gradients",
                        lambda *a: ([float("nan")] * len(a[2]), real(*a)[1]))
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "experiment", "--epochs", "1", "--d-model", "8",
                         "--layers", "1", "--heads", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("runtime error: non-finite loss at epoch 0, batch 0")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", ["abc", "-1", "1.5", "", "2 full"])
def test_experiment_rejects_bad_k(capsys, tmp_path, monkeypatch, k):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "experiment", "--k", k, "--epochs", "1")
    assert code == 1
    assert f"argument --k: must be an integer >= 0 or 'full', got {k!r}" in err
    assert list(tmp_path.glob("*manifest.json")) == []
    # a config-file line is checked by the same parser, and named
    (tmp_path / "run.cfg").write_text(f"k = {k}\n")
    code, _, err = run(capsys, "experiment", "--config", "run.cfg", "--epochs", "1")
    assert code == 1
    assert f"run.cfg:1: argument --k: must be an integer >= 0 or 'full', got {k.strip()!r}" in err
    assert list(tmp_path.glob("*manifest.json")) == []


@pytest.mark.parametrize("k, report_k", [("0", 0), (" 2 ", 2), ("full", None), ("FULL", None)])
def test_experiment_k_in_manifest_and_report(capsys, tmp_path, monkeypatch, k, report_k):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "experiment", "--k", k, "--epochs", "1", "--d-model", "8",
                     "--layers", "1", "--heads", "2")
    assert code == 0
    manifest = json.loads((tmp_path / "experiment.json.manifest.json").read_text())
    assert manifest["config"]["k"] == k.strip().lower()
    assert json.loads((tmp_path / "experiment.json").read_text())["k"] == report_k
