"""Command-line entry point: ingest, template, train, predict, eval, experiment.

Configuration resolution is flags > config file > built-in defaults; the
config file is flat ``key = value`` text whose keys mirror flag names with
dashes replaced by underscores. Every run writes a RunManifest JSON (command,
resolved configuration, input digests, seed, version, timestamp) beside its
primary output before any long-running work starts. `predict` checks its
checkpoint and mode and assembles every input pair first, and every command
reads and validates its input files first, so a run rejected for those
leaves no manifest. A checkpoint carries its vocabulary, template mode and
marker options, so `predict` takes none of them from flags. Existing outputs
are never overwritten unless --force is given.
AGED_LOG in {error, info, debug} controls stderr log verbosity.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import functools
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    load_instances,
    load_ontology,
    mini_framenet_path,
)
from .decoding import SpanPrediction, predict_pairs, query_pairs
from .encoder import EncoderConfig, load_checkpoint
from .encoding import PairTooLongError
from .evaluation import evaluate
from .experiments import run_holdout_experiment
from .templates import MarkerOptions, TemplateMode, build_template, render_surface
from .training import DevPairTooLongError, NonFiniteLossError, TrainConfig, fit

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
    "d_model": 32,
    "layers": 2,
    "heads": 4,
    "d_ff": 0,
    "max_len": 256,
}

_TRAIN_DEFAULTS = {
    "mode": "frame-def",
    "augment_fe_defs": False,
    "no_target_markers": False,
    "no_label_markers": False,
    "epochs": 200,
    "batch_size": 8,
    "lr": 1e-3,
    "seed": 7,
    "eval_every": 0,
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
        "checkpoint": "checkpoint.json",
        **_TRAIN_DEFAULTS,
    },
    "predict": {
        "frames": _bundled("frames"),
        "instances": _bundled("test"),
        "checkpoint": "checkpoint.json",
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


def _add_option(parser: _Parser, key: str, default) -> None:
    flag = "--" + key.replace("_", "-")
    if isinstance(default, bool):
        parser.add_argument(flag, dest=key, action="store_const", const=True, default=None,
                            help="(default: off)" if not default else "(default: on)")
    else:
        typ = type(default) if isinstance(default, (int, float)) and not isinstance(default, bool) else str
        parser.add_argument(flag, dest=key, type=typ, default=None,
                            help=f"(default: {default})")


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="aged", description=__doc__)
    parser.add_argument("--version", action="version", version=f"aged {__version__}")
    sub = parser.add_subparsers(dest="command")
    for command, defaults in DEFAULTS.items():
        p = sub.add_parser(command, add_help=True)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        for key, default in defaults.items():
            _add_option(p, key, default)
    return parser


def _coerce(raw: str, default):
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise UsageError(f"expected a {type(default).__name__}, got {raw!r}") from None
    return raw.strip("\"'")


def load_config_file(path: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return values


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    defaults = DEFAULTS[command]
    resolved = dict(defaults)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in defaults:
                logger.warning("config key '%s' is not recognized by '%s'; ignored", key, command)
                continue
            resolved[key] = _coerce(raw, defaults[key])
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(command: str, cfg: dict, inputs: list[str], out_path: str | None) -> str:
    manifest = {
        "command": command,
        "config": {k: v for k, v in cfg.items()},
        "inputs": {p: _sha256(p) for p in inputs if p},
        "seed": cfg.get("seed"),
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = f"{out_path}.manifest.json" if out_path else f"aged-{command}-manifest.json"
    Path(path).write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    logger.info("wrote manifest %s", path)
    return path


def _check_output(path: str, force: bool) -> None:
    if path and Path(path).exists() and not force:
        raise UsageError(f"output '{path}' exists; pass --force to overwrite")


def _markers(cfg: dict) -> MarkerOptions:
    return MarkerOptions(
        target_markers=not cfg.get("no_target_markers", False),
        label_markers=not cfg.get("no_label_markers", False),
    )


def _encoder_config(cfg: dict) -> EncoderConfig:
    return EncoderConfig(
        vocab_size=1,  # `fit` sizes the embedding to the vocabulary it builds
        d_model=cfg["d_model"],
        n_layers=cfg["layers"],
        n_heads=cfg["heads"],
        d_ff=cfg["d_ff"],
        max_len=cfg["max_len"],
        seed=cfg["seed"],
    )


def _train_config(cfg: dict, checkpoint_path: str | None) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["lr"],
        seed=cfg["seed"],
        augment_fe_defs=cfg["augment_fe_defs"],
        marker_options=_markers(cfg),
        template_mode=TemplateMode(cfg["mode"]),
        checkpoint_path=checkpoint_path,
        eval_every=cfg["eval_every"],
        max_len=cfg["max_len"],
    )


def cmd_ingest(cfg: dict, force: bool) -> int:
    store = load_ontology(cfg["frames"])
    instances = load_instances(cfg["instances"], store)
    write_manifest("ingest", cfg, [cfg["frames"], cfg["instances"]], None)
    counts = {
        "frames": len(store),
        "frame_elements": sum(len(f.fes) for f in store),
        "instances": len(instances),
        "arguments": sum(len(i.arguments) for i in instances),
    }
    print(json.dumps(counts))
    return EXIT_OK


def cmd_template(cfg: dict, force: bool) -> int:
    mode = TemplateMode(cfg["mode"])
    if mode is not TemplateMode.FRAME_DEF and not cfg["fe"]:
        raise UsageError(f"--fe is required for mode '{mode.value}'")
    write_manifest("template", cfg, [cfg["frames"]], None)
    store = load_ontology(cfg["frames"])
    template = build_template(store.frame(cfg["frame"]), mode, cfg["fe"] or None, _markers(cfg))
    print(render_surface(template))
    return EXIT_OK


def cmd_train(cfg: dict, force: bool) -> int:
    checkpoint_path = cfg["checkpoint"]
    report_path = checkpoint_path + ".report.json"
    outputs = [checkpoint_path, report_path] + ([checkpoint_path + ".best"] if cfg["dev"] else [])
    for path in outputs:
        _check_output(path, force)
    encoder_config, train_config = _encoder_config(cfg), _train_config(cfg, checkpoint_path)
    store = load_ontology(cfg["frames"])
    train_instances = load_instances(cfg["train"], store)
    dev_instances = load_instances(cfg["dev"], store) if cfg["dev"] else None
    inputs = [cfg["frames"], cfg["train"]] + ([cfg["dev"]] if cfg["dev"] else [])
    write_manifest("train", cfg, inputs, checkpoint_path)

    if dev_instances is not None and train_config.eval_every == 0:
        train_config.eval_every = 1
    try:
        _, report = fit(train_instances, store, encoder_config, train_config, dev=dev_instances)
    except DevPairTooLongError as e:
        raise _at_line(cfg["dev"], e) from None
    except PairTooLongError as e:
        raise _at_line(cfg["train"], e) from None
    report.save(report_path)
    summary = {
        "checkpoint": checkpoint_path,
        "report": report_path,
        "final_loss": report.epoch_losses[-1],
        "best_dev_f1": report.best_dev_f1,
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_predict(cfg: dict, force: bool) -> int:
    out_path = cfg["out"]
    _check_output(out_path, force)
    model = load_checkpoint(cfg["checkpoint"])
    if cfg["mode"] and cfg["mode"] != model.mode.value:
        raise UsageError(
            f"--mode {cfg['mode']} does not match checkpoint '{cfg['checkpoint']}', "
            f"which was trained in mode {model.mode.value}"
        )
    store = load_ontology(cfg["frames"])
    instances = load_instances(cfg["instances"], store)
    try:
        pairs = query_pairs(instances, store, model)
    except PairTooLongError as e:
        raise _at_line(cfg["instances"], e) from None
    write_manifest("predict", cfg, [cfg["frames"], cfg["instances"], cfg["checkpoint"]], out_path)
    predictions = predict_pairs(model, pairs)
    with open(out_path, "w", encoding="utf-8") as f:
        for inst, preds in zip(instances, predictions):
            rec = {
                "frame": inst.frame,
                "predictions": [
                    {"fe": p.fe, "span": list(p.span) if p.span else None, "score": p.score}
                    for p in preds
                ],
            }
            f.write(json.dumps(rec) + "\n")
    print(json.dumps({"instances": len(instances), "out": out_path}))
    return EXIT_OK


def _at_line(path: str, e: PairTooLongError) -> CorpusError:
    """`e` naming `path` and the 1-based line of its instance; blank lines hold no record."""
    with open(path, encoding="utf-8") as f:
        lines = (lineno for lineno, line in enumerate(f, start=1) if line.strip())
        line = next(itertools.islice(lines, e.instance, None))
    return CorpusError(f"{path}:{line}: {e}")


def _load_prediction_file(path: str, gold_instances, store) -> list[list[SpanPrediction]]:
    """Read `aged predict` output aligned with the gold file, one record per line.

    Rejects, naming the 1-based line, malformed JSON, a record or prediction
    that is not an object, a `predictions` that is not a list, a frame that
    differs from the gold instance's, an FE outside that frame or predicted
    twice, a span that is neither null nor a list of two integers
    1 <= start <= end <= len(tokens), and a score that is not a finite
    number. A boolean is not a number here.
    """
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise CorpusError(f"{path}:{lineno}: malformed JSON ({e.msg})") from None
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}:{lineno}: a prediction record must be a JSON object")
            if not isinstance(rec.get("predictions", []), list):
                raise CorpusError(f"{path}:{lineno}: 'predictions' must be a list")
            records.append((lineno, rec))
    if len(records) != len(gold_instances):
        raise CorpusError(
            f"misaligned: {len(records)} prediction records vs {len(gold_instances)} gold instances"
        )
    prediction_lists = []
    for i, ((lineno, rec), inst) in enumerate(zip(records, gold_instances), start=1):
        where = f"{path}:{lineno}"
        if rec.get("frame") != inst.frame:
            raise CorpusError(
                f"{where}: misaligned at instance {i}: prediction frame {rec.get('frame')!r} "
                f"vs gold frame {inst.frame!r}"
            )
        frame, n = store.frame(inst.frame), len(inst.tokens)
        preds = []
        for p in rec.get("predictions", []):
            if not isinstance(p, dict):
                raise CorpusError(f"{where}: a prediction must be a JSON object, got {p!r}")
            fe = p.get("fe")
            if fe not in frame.fes:
                raise CorpusError(f"{where}: FE {fe!r} is not in frame '{inst.frame}'")
            if any(prev.fe == fe for prev in preds):
                raise CorpusError(f"{where}: FE '{fe}' is predicted more than once")
            span = p.get("span")
            if span is not None:
                if (
                    not isinstance(span, list) or len(span) != 2
                    or {type(x) for x in span} != {int} or span[0] > span[1]
                ):
                    raise CorpusError(
                        f"{where}: bad span {json.dumps(span)} for FE '{fe}': "
                        "need [start, end] with integers start <= end"
                    )
                if not (1 <= span[0] and span[1] <= n):
                    raise CorpusError(f"{where}: span {span} for FE '{fe}' outside 1..{n}")
                span = tuple(span)
            score = p.get("score", 0.0)
            if type(score) not in (int, float) or not math.isfinite(score):
                raise CorpusError(f"{where}: score {score!r} for FE '{fe}' is not a finite number")
            preds.append(SpanPrediction(fe, span, float(score)))
        prediction_lists.append(preds)
    return prediction_lists


def cmd_eval(cfg: dict, force: bool) -> int:
    out_path = cfg["out"] or None
    if out_path:
        _check_output(out_path, force)
    store = load_ontology(cfg["frames"])
    gold = load_instances(cfg["gold"], store)
    predictions = _load_prediction_file(cfg["pred"], gold, store)
    write_manifest("eval", cfg, [cfg["frames"], cfg["gold"], cfg["pred"]], out_path)
    metrics = evaluate(predictions, gold)
    line = json.dumps(metrics.to_json())
    print(line)
    if out_path:
        Path(out_path).write_text(line + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_experiment(cfg: dict, force: bool) -> int:
    out_path = cfg["out"]
    _check_output(out_path, force)
    k_raw = str(cfg["k"]).strip().lower()
    if k_raw == "full":
        k = None
    elif k_raw.isdecimal():
        k = int(k_raw)
    else:
        raise UsageError(f"--k must be an integer >= 0 or 'full', got {cfg['k']!r}")
    encoder_config, train_config = _encoder_config(cfg), _train_config(cfg, None)
    store = load_ontology(cfg["frames"])
    train_instances = load_instances(cfg["train"], store)
    test_instances = load_instances(cfg["test"], store)
    write_manifest("experiment", cfg, [cfg["frames"], cfg["train"], cfg["test"]], out_path)
    frames = {name.strip() for name in str(cfg["holdout"]).split(",") if name.strip()}
    report = run_holdout_experiment(
        train_instances, test_instances, store, frames, k,
        encoder_config, train_config,
    )
    report.save(out_path)
    print(json.dumps({
        "out": out_path,
        "k": report.k,
        "holdout": report.holdout_frames,
        "overall_f1": report.overall.f1,
        "holdout_f1": {f: report.per_frame[f].f1 for f in report.holdout_frames if f in report.per_frame},
    }))
    return EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "template": cmd_template,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "experiment": cmd_experiment,
}


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("AGED_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> None:
    """Keep freed heap memory in the process instead of returning it to the OS.

    By default glibc trims the freed top of the heap after each training
    batch's large temporaries and serves blocks over 128 KiB with fresh
    mmaps, so every batch faults the same pages back in. Raising both
    thresholds keeps those pages mapped; the results are unchanged. Outside
    glibc there is no `mallopt` and this does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)


def dispatch(argv: list[str]) -> int:
    _keep_freed_heap()
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_VALIDATION
        cfg = resolve_config(args.command, args)
        return COMMANDS[args.command](cfg, args.force)
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)
    except (UsageError, ValueError, FileNotFoundError, IsADirectoryError) as e:  # CorpusError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteLossError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:
        logger.debug("unexpected failure", exc_info=True)
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
