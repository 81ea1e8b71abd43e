"""Command-line entry point: ingest, template, train, predict, eval, experiment.

Every setting is a flag with its built-in default. A --config file is flat
``key = value`` text whose keys are flag names with underscores for dashes;
each line is read as its flag, ahead of the command line, so one argparse
pass types and checks every setting and flags beat the file. `dispatch`
runs each command under one write protocol: it refuses an unusable
or, without --force, existing output before any input is read, digests the
inputs, and lets the command read, validate (`train`, `predict` and
`experiment` assemble every pair they encode) and compute. The command
returns its files as writers; each is written to a `.partial` file beside
its output, then a run manifest (command, configuration, input digests,
seed, version, timestamp, environment) beside the primary output, and only
once every write has succeeded do they replace the outputs. A run that
fails, in its work or its writes, leaves existing outputs as they were and
no manifest. `ingest`, `template` and `eval` without --out write no file and
no manifest; they only print. A checkpoint carries its vocabulary, template
mode and marker options, so `predict` takes none of them from flags.
AGED_LOG in {error, info, debug} controls stderr log verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import hashlib
import json
import logging
import math
import os
import platform
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    CorpusError,
    _read_jsonl,
    load_instances,
    load_ontology,
    mini_framenet_path,
)
from .decoding import SpanPrediction, predict_pairs, query_pairs
from .encoder import EncoderConfig, load_checkpoint, save_checkpoint
from .evaluation import evaluate
from .experiments import run_holdout_experiment
from .templates import QUERY_MODES, MarkerOptions, TemplateMode, build_template, render_surface
from .training import TrainConfig, fit, untrained_model

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _bundled(name: str) -> str:
    return str(mini_framenet_path(name))


_MODEL_DEFAULTS = {
    "d_model": EncoderConfig.d_model,
    "layers": EncoderConfig.n_layers,
    "heads": EncoderConfig.n_heads,
    "d_ff": EncoderConfig.d_ff,
    "max_len": EncoderConfig.max_len,
}

_TRAIN_DEFAULTS = {
    "mode": "frame-def",
    "augment_fe_defs": False,
    "no_target_markers": False,
    "no_label_markers": False,
    "epochs": TrainConfig.epochs,
    "batch_size": TrainConfig.batch_size,
    "lr": TrainConfig.learning_rate,
    "seed": EncoderConfig.seed,
    **_MODEL_DEFAULTS,
}

DEFAULTS: dict[str, dict] = {
    "ingest": {
        "frames": _bundled("frames"),
        "instances": _bundled("train"),
    },
    "template": {
        "frames": _bundled("frames"),
        "frame": "Attack",
        "fe": "",
        "mode": "frame-def",
        "no_label_markers": False,
    },
    "train": {
        "frames": _bundled("frames"),
        "train": _bundled("train"),
        "dev": "",
        "checkpoint": "model.ckpt",
        **_TRAIN_DEFAULTS,
    },
    "predict": {
        "frames": _bundled("frames"),
        "instances": _bundled("test"),
        "checkpoint": "model.ckpt",
        "out": "predictions.jsonl",
        "mode": "",  # the checkpoint's; a different mode is rejected
    },
    "eval": {
        "frames": _bundled("frames"),
        "gold": _bundled("test"),
        "pred": "predictions.jsonl",
        "out": "",
    },
    "experiment": {
        "frames": _bundled("frames"),
        "train": _bundled("train"),
        "test": _bundled("test"),
        "holdout": "Getting",
        "k": "0",
        "out": "experiment.json",
        **_TRAIN_DEFAULTS,
    },
}


_TRUE, _FALSE = ("true", "1", "yes", "on"), ("false", "0", "no", "off")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _k_shot(value: str) -> str:
    """--k: an integer >= 0 or 'full', in any case and with spaces around;
    returned stripped and lower-cased."""
    k = value.strip().lower()
    if k != "full" and not k.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0 or 'full', got {value!r}")
    return k


def _add_option(parser: _Parser, key: str, default, choices: list[str] | None) -> None:
    if isinstance(default, bool):  # every boolean setting is off by default
        parser.add_argument(_flag(key), dest=key, action="store_true", help="(default: off)")
    else:
        parser.add_argument(_flag(key), dest=key, type=_k_shot if key == "k" else type(default),
                            default=default, choices=choices, help=f"(default: {default})")


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="aged", description=__doc__)
    parser.add_argument("--version", action="version", version=f"aged {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command, add_help=True)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        # `template` renders any mode; a model queries only in a query mode
        modes = [mode.value for mode in (TemplateMode if command == "template" else QUERY_MODES)]
        for key, default in defaults.items():
            _add_option(p, key, default, modes if key == "mode" else None)
    return parser


def _config_arguments(command: str, path: str) -> list[str]:
    """Read flat ``key = value`` lines as the `command` flags of the same name.

    Blank lines and # comments are skipped, and a key that `command` does not
    take is warned about and ignored. Quotes around a value are dropped. A
    boolean is true or false: true gives the bare flag, false gives nothing.
    Lines end at ``\n``, ``\r\n`` or ``\r``; a line that is not UTF-8, has
    no ``=``, holds any other boolean or a value that its flag rejects is
    named by its `path:line`.
    """
    defaults = DEFAULTS[command]
    arguments = []
    for lineno, raw_line in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            line = raw_line.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise UsageError(f"{path}:{lineno}: not UTF-8 ({e.reason})") from None
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        value = value.strip("\"'")
        if key not in defaults:
            logger.warning("config key '%s' is not recognized by '%s'; ignored", key, command)
        elif not isinstance(defaults[key], bool):
            arguments.append(f"{_flag(key)}={value}")
            try:  # argparse types and checks the value alone, so its line can be named
                build_parser().parse_args([command, arguments[-1]])
            except UsageError as e:
                raise UsageError(f"{path}:{lineno}: {e}") from None
        elif value.lower() in _TRUE:
            arguments.append(_flag(key))
        elif value.lower() not in _FALSE:
            raise UsageError(f"{path}:{lineno}: {key} must be true or false, got {value!r}")
    return arguments


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _environment() -> dict:
    """Python and numpy versions, CPU count and, where numpy says it, its BLAS."""
    env = {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # a numpy without mode= (before 1.26)
        return env
    return {**env, "blas": {"name": blas["name"], "version": blas["version"]}}


def _write_json(path: str, doc: dict) -> None:
    """The one writer of reports and manifests."""
    Path(path).write_text(json.dumps(doc, indent=2), encoding="utf-8")


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """The one writer of predictions and eval outputs: each line, then a newline."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _markers(cfg: dict) -> MarkerOptions:
    return MarkerOptions(
        target_markers=not cfg.get("no_target_markers", False),
        label_markers=not cfg.get("no_label_markers", False),
    )


def _encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(
        d_model=cfg["d_model"],
        n_layers=cfg["layers"],
        n_heads=cfg["heads"],
        d_ff=cfg["d_ff"],
        max_len=cfg["max_len"],
        seed=cfg["seed"],
    )


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        augment_fe_defs=cfg["augment_fe_defs"],
    )


Files = dict[str, Callable[[str], object]]  # output path -> writer of that file at a given path


def cmd_ingest(cfg: dict) -> tuple[Files, str]:
    store = load_ontology(cfg["frames"])
    instances = load_instances(cfg["instances"], store)
    return {}, json.dumps({
        "frames": len(store),
        "frame_elements": sum(len(f.fes) for f in store),
        "instances": len(instances),
        "arguments": sum(len(i.arguments) for i in instances),
    })


def cmd_template(cfg: dict) -> tuple[Files, str]:
    mode = TemplateMode(cfg["mode"])
    if mode is not TemplateMode.FRAME_DEF and not cfg["fe"]:
        raise UsageError(f"--fe is required for mode '{mode.value}'")
    store = load_ontology(cfg["frames"])
    template = build_template(store.frame(cfg["frame"]), mode, cfg["fe"] or None, _markers(cfg))
    return {}, render_surface(template)


def cmd_train(cfg: dict) -> tuple[Files, str]:
    encoder_config, train_config = _encoder_config(cfg), _train_config(cfg)
    store = load_ontology(cfg["frames"])
    train_instances = load_instances(cfg["train"], store)
    dev_instances = load_instances(cfg["dev"], store) if cfg["dev"] else None
    model = untrained_model(train_instances, store, encoder_config,
                            mode=TemplateMode(cfg["mode"]), markers=_markers(cfg))
    model, report, best = fit(model, train_instances, store, train_config, dev=dev_instances)
    checkpoint_path = cfg["checkpoint"]
    report_path, best_path = checkpoint_path + ".report.json", checkpoint_path + ".best"
    files = {checkpoint_path: lambda path: save_checkpoint(model, path)}
    if best is not None:
        files[best_path] = lambda path: save_checkpoint(best, path)
    files[report_path] = lambda path: _write_json(path, {
        **report.to_json(), "checkpoint_path": checkpoint_path,
        "best_checkpoint_path": best_path if best is not None else None})
    return files, json.dumps({
        "checkpoint": checkpoint_path,
        "report": report_path,
        "final_loss": report.epoch_losses[-1],
        "best_dev_f1": report.best_dev_f1,
    })


def cmd_predict(cfg: dict) -> tuple[Files, str]:
    model = load_checkpoint(cfg["checkpoint"])
    if cfg["mode"] and cfg["mode"] != model.mode.value:
        raise UsageError(
            f"--mode {cfg['mode']} does not match checkpoint '{cfg['checkpoint']}', "
            f"which was trained in mode {model.mode.value}"
        )
    store = load_ontology(cfg["frames"])
    instances = load_instances(cfg["instances"], store)
    predictions = predict_pairs(model, query_pairs(instances, store, model))
    records = (
        json.dumps({
            "frame": inst.frame,
            "instance": _identity(inst),
            "predictions": [
                {"fe": p.fe, "span": list(p.span) if p.span else None, "score": p.score}
                for p in preds
            ],
        })
        for inst, preds in zip(instances, predictions)
    )
    return ({cfg["out"]: lambda path: _write_lines(path, records)},
            json.dumps({"instances": len(instances), "out": cfg["out"]}))


def _identity(inst) -> dict:
    """How a prediction record names its instance: target and SHA-256 of the tokens as JSON."""
    digest = hashlib.sha256(json.dumps(inst.tokens).encode()).hexdigest()
    return {"target": inst.target, "tokens_sha256": digest}


def _load_prediction_file(path: str, gold_instances, store) -> list[list[SpanPrediction]]:
    """Read `aged predict` output aligned with the gold file, one record per line.

    Rejects, naming the 1-based line, a record or prediction that is not an
    object, a missing `predictions`, `instance`, `fe`, `span` or `score`
    (`aged predict` writes them all), a `predictions` that is not a list, a
    record past the last gold instance, a frame or an `instance` (see
    `_identity`) that differs from the gold instance's, an FE
    outside that frame or predicted twice, a span that is neither null nor a
    list of two integers 1 <= start <= end <= len(tokens), and a score that
    is not a finite number. A boolean is not a number here. Fewer records
    than gold instances are rejected too.
    """
    gold = iter(enumerate(gold_instances, start=1))

    def parse(rec: object, where: str) -> list[SpanPrediction]:
        if not isinstance(rec, dict):
            raise CorpusError("a prediction record must be a JSON object")
        for key in ("predictions", "instance"):
            if key not in rec:
                raise CorpusError(f"a prediction record needs '{key}'")
        raw_preds = rec["predictions"]
        if not isinstance(raw_preds, list):
            raise CorpusError("'predictions' must be a list")
        i, inst = next(gold, (None, None))
        if inst is None:
            raise CorpusError(
                f"misaligned: more prediction records than {len(gold_instances)} gold instances"
            )
        if rec.get("frame") != inst.frame:
            raise CorpusError(
                f"misaligned at instance {i}: prediction frame {rec.get('frame')!r} "
                f"vs gold frame {inst.frame!r}"
            )
        if rec["instance"] != _identity(inst):
            raise CorpusError(f"misaligned at instance {i}: the record names another target or sentence")
        frame, n = store.frame(inst.frame), len(inst.tokens)
        preds = []
        for p in raw_preds:
            if not isinstance(p, dict):
                raise CorpusError(f"a prediction must be a JSON object, got {p!r}")
            for key in ("fe", "span", "score"):
                if key not in p:
                    raise CorpusError(f"a prediction needs '{key}', got {json.dumps(p)}")
            fe, span, score = p["fe"], p["span"], p["score"]
            if not isinstance(fe, str) or fe not in frame.fes:
                raise CorpusError(f"FE {fe!r} is not in frame '{inst.frame}'")
            if any(prev.fe == fe for prev in preds):
                raise CorpusError(f"FE '{fe}' is predicted more than once")
            if span is not None:
                if (
                    not isinstance(span, list) or len(span) != 2
                    or {type(x) for x in span} != {int} or span[0] > span[1]
                ):
                    raise CorpusError(
                        f"bad span {json.dumps(span)} for FE '{fe}': "
                        "need [start, end] with integers start <= end"
                    )
                if not (1 <= span[0] and span[1] <= n):
                    raise CorpusError(f"span {span} for FE '{fe}' outside 1..{n}")
                span = tuple(span)
            if type(score) not in (int, float) or not math.isfinite(score):
                raise CorpusError(f"score {score!r} for FE '{fe}' is not a finite number")
            preds.append(SpanPrediction(fe, span, float(score)))
        return preds

    prediction_lists = _read_jsonl(path, parse)
    if len(prediction_lists) != len(gold_instances):
        raise CorpusError(
            f"{path}: misaligned: {len(prediction_lists)} prediction records "
            f"vs {len(gold_instances)} gold instances"
        )
    return prediction_lists


def cmd_eval(cfg: dict) -> tuple[Files, str]:
    store = load_ontology(cfg["frames"])
    gold = load_instances(cfg["gold"], store)
    predictions = _load_prediction_file(cfg["pred"], gold, store)
    line = json.dumps(evaluate(predictions, gold).to_json())
    return ({cfg["out"]: lambda path: _write_lines(path, [line])} if cfg["out"] else {}), line


def cmd_experiment(cfg: dict) -> tuple[Files, str]:
    k = None if cfg["k"] == "full" else int(cfg["k"])
    encoder_config, train_config = _encoder_config(cfg), _train_config(cfg)
    store = load_ontology(cfg["frames"])
    train_instances = load_instances(cfg["train"], store)
    test_instances = load_instances(cfg["test"], store)
    frames = {name.strip() for name in str(cfg["holdout"]).split(",") if name.strip()}
    report = run_holdout_experiment(
        train_instances, test_instances, store, frames, k, encoder_config, train_config,
        mode=TemplateMode(cfg["mode"]), markers=_markers(cfg),
    )
    return {cfg["out"]: lambda path: _write_json(path, report.to_json())}, json.dumps({
        "out": cfg["out"],
        "k": report.k,
        "holdout": report.holdout_frames,
        "overall_f1": report.overall.f1,
        "holdout_f1": {f: report.per_frame[f].f1 for f in report.holdout_frames if f in report.per_frame},
    })


COMMANDS = {
    "ingest": cmd_ingest,
    "template": cmd_template,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
}

# the flags naming the input files of each command that writes a manifest
_INPUTS = {
    "train": ("frames", "train", "dev"),
    "predict": ("frames", "instances", "checkpoint"),
    "eval": ("frames", "gold", "pred"),
    "experiment": ("frames", "train", "test"),
}


def _outputs(command: str, cfg: dict) -> tuple[str, list[str]]:
    """The flag naming `command`'s primary output, and the files it may write, that one first."""
    if command == "train":
        path = cfg["checkpoint"]
        return "--checkpoint", [path, path + ".report.json"] + [path + ".best"] * bool(cfg["dev"])
    if command in ("predict", "experiment") or command == "eval" and cfg["out"]:
        return "--out", [cfg["out"]]
    return "", []


def _run(command: str, cfg: dict, force: bool) -> None:
    """Run `command` under the one write protocol, then print its line.

    Its outputs and the manifest beside the first are refused, before any
    input is read, if one is not a file name in an existing directory or,
    without --force, exists. The inputs are digested before the work. Each
    file the command returns, then the manifest, is written to a `.partial`
    file beside its output, and only once every write has succeeded do they
    replace the outputs in that order; if a write raises, the `.partial`
    files are removed and no output is touched.
    """
    flag, outputs = _outputs(command, cfg)
    if outputs:
        outputs.append(outputs[0] + ".manifest.json")
    for out in outputs:
        if not outputs[0] or Path(out).is_dir() or not Path(out).parent.is_dir():
            raise UsageError(f"{flag} must name a file in an existing directory, got {out!r}")
        if Path(out).exists() and not force:
            raise UsageError(f"output '{out}' exists; pass --force to overwrite")
    if outputs:
        manifest = {
            "command": command,
            "config": dict(cfg),
            "inputs": {cfg[key]: _sha256(cfg[key]) for key in _INPUTS[command] if cfg[key]},
            "seed": cfg.get("seed"),
            "version": __version__,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "environment": _environment(),
        }
    files, line = COMMANDS[command](cfg)
    if outputs:
        files[outputs[-1]] = lambda path: _write_json(path, manifest)
    try:
        for path, write in files.items():
            write(path + ".partial")
    except BaseException:
        for path in files:
            with contextlib.suppress(OSError):  # a file not yet written, or a directory
                Path(path + ".partial").unlink()
        raise
    for path in files:
        os.replace(path + ".partial", path)
        logger.info("wrote %s", path)
    print(line)


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("AGED_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


def dispatch(argv: list[str]) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        if args.config:  # the file's settings come first, so a flag overrides them
            args = parser.parse_args(
                [args.command, *_config_arguments(args.command, args.config), *argv[1:]])
        cfg = {key: getattr(args, key) for key in DEFAULTS[args.command]}
        _run(args.command, cfg, args.force)
        return EXIT_OK
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    except (UsageError, ValueError, FileNotFoundError, IsADirectoryError) as e:  # CorpusError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as e:
        logger.debug("unexpected failure", exc_info=True)
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
