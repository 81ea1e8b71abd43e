"""Training-stream construction, the seeded mini-batch training loop, and
`fit`, the one pipeline from annotated instances to a trained model.

Every instance contributes a (sentence, frame-definition) pair. With FE
augmentation on, each gold argument additionally contributes a (sentence,
FE-definition) pair for its role, so stream size is exactly
|instances| + total gold arguments. The question baseline instead builds
one single-slot pair per FE of the frame, and takes no FE augmentation.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .corpus import AnnotatedInstance, FrameStore
from .decoding import predict_pairs, query_pairs
from .encoder import (
    Checkpoint,
    EncoderConfig,
    FlatGradients,
    ParameterSet,
    init_parameters,
    save_checkpoint,
)
from .encoding import (
    EncodedPair,
    PairTooLongError,
    SlotLabel,
    Vocabulary,
    assemble,
    build_vocabulary,
    gold_labels,
)
from .evaluation import evaluate
from .pointer import batch_loss_and_gradients
from .templates import (
    DEFAULT_MARKERS,
    MarkerOptions,
    TemplateMode,
    build_fe_template,
    query_templates,
)

logger = logging.getLogger(__name__)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN or infinite loss."""


class DevPairTooLongError(PairTooLongError):
    """A dev instance's query pair exceeds `max_len`."""


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 1e-3
    seed: int = 7
    augment_fe_defs: bool = False
    marker_options: MarkerOptions = DEFAULT_MARKERS
    template_mode: TemplateMode = TemplateMode.FRAME_DEF
    checkpoint_path: str | Path | None = None
    eval_every: int = 0  # 0 disables dev evaluation
    grad_clip: float = 1.0
    max_len: int = 256

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.template_mode is TemplateMode.FE_DEF:
            raise ValueError("fe-def is an augmentation mode, not a training template_mode")
        if self.augment_fe_defs and self.template_mode is not TemplateMode.FRAME_DEF:
            raise ValueError(
                "--augment-fe-defs augments frame-def training only; "
                f"it cannot be combined with --mode {self.template_mode.value}"
            )


@dataclass(frozen=True)
class Provenance:
    kind: TemplateMode
    fe: str | None = None


@dataclass
class TrainingExample:
    pair: EncodedPair
    labels: list[SlotLabel]
    provenance: Provenance


def build_training_stream(
    instances: list[AnnotatedInstance],
    store: FrameStore,
    vocab: Vocabulary,
    config: TrainConfig,
) -> list[TrainingExample]:
    """Deterministic stream: instance order, then the frame's FE order.

    Each instance is paired with the `query_templates` of its frame, as in
    prediction; in frame-def mode FE augmentation then adds one FE-definition
    pair per gold argument. A pair over `max_len` raises PairTooLongError
    whose `instance` is the 0-based position of its instance.
    """
    opts = config.marker_options
    stream: list[TrainingExample] = []
    frame_templates = {
        frame.name: query_templates(frame, config.template_mode, opts) for frame in store
    }
    for i, inst in enumerate(instances):
        frame = store.frame(inst.frame)
        templates = frame_templates[inst.frame]
        if config.augment_fe_defs:
            gold_fes = {a.fe for a in inst.arguments}
            templates = templates + [
                build_fe_template(frame, fe, opts) for fe in frame.fe_order if fe in gold_fes
            ]
        try:
            for tpl in templates:
                stream.append(TrainingExample(
                    assemble(inst, tpl, vocab, opts, config.max_len),
                    gold_labels(inst, tpl),
                    Provenance(tpl.mode, tpl.focus_fe),
                ))
        except PairTooLongError as e:
            raise PairTooLongError(str(e), instance=i) from None
    return stream


class Adam:
    """Plain Adam with bias correction; no schedule, no weight decay.

    The moments and the update live in flat buffers laid out as
    `FlatGradients`, whose flat buffer a step reads in place. A step runs the
    per-tensor elementwise formula in place on preallocated buffers, op for
    op in the same order, so its updates are bitwise those of the per-tensor
    form.
    """

    def __init__(self, params: ParameterSet, lr: float):
        self.lr = lr
        self.t = 0
        self._update = FlatGradients(params)  # the update, with a view per parameter
        self.m = np.zeros_like(self._update.flat)
        self.v = np.zeros_like(self._update.flat)
        self._tmp = np.empty_like(self._update.flat)

    def step(self, params: ParameterSet, grads: FlatGradients) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        m, v, g, tmp = self.m, self.v, grads.flat, self._tmp
        # m = b1 * m + (1 - b1) * g
        m *= b1
        np.multiply(g, 1.0 - b1, out=tmp)
        m += tmp
        # v = b2 * v + (1 - b2) * g * g
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        # update = lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = np.divide(m, c1, out=self._update.flat)
        update *= self.lr
        update /= tmp
        for k, u in self._update.items():
            params[k] -= u


def clip_gradients(grads: FlatGradients, max_norm: float) -> float:
    """Scale gradients in place to a global-norm cap; returns the pre-clip norm.

    The norm is one dot product of the flat buffer, and the scale one
    multiply of it.
    """
    total = math.sqrt(float(np.vdot(grads.flat, grads.flat)))
    if max_norm > 0 and total > max_norm:
        grads.flat *= max_norm / total
    return total


@dataclass
class TrainingReport:
    epochs: int
    stream_size: int
    epoch_losses: list[float] = field(default_factory=list)
    # per epoch: pre-clip global gradient norms and how many steps were clipped
    grad_norm_mean: list[float] = field(default_factory=list)
    grad_norm_max: list[float] = field(default_factory=list)
    clipped_steps: list[int] = field(default_factory=list)
    dev_f1_history: list[tuple[int, float]] = field(default_factory=list)
    best_dev_f1: float | None = None
    best_epoch: int | None = None
    checkpoint_path: str | None = None
    best_checkpoint_path: str | None = None
    wallclock_seconds: float = 0.0

    def to_json(self) -> dict:
        return {
            "epochs": self.epochs,
            "stream_size": self.stream_size,
            "epoch_losses": self.epoch_losses,
            "grad_norm_mean": self.grad_norm_mean,
            "grad_norm_max": self.grad_norm_max,
            "clipped_steps": self.clipped_steps,
            "dev_f1_history": [[e, f] for e, f in self.dev_f1_history],
            "best_dev_f1": self.best_dev_f1,
            "best_epoch": self.best_epoch,
            "checkpoint_path": self.checkpoint_path,
            "best_checkpoint_path": self.best_checkpoint_path,
            "wallclock_seconds": self.wallclock_seconds,
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")


def train(
    stream: list[TrainingExample],
    model: Checkpoint,
    config: TrainConfig,
    *,
    dev: tuple[list[AnnotatedInstance], list[list[EncodedPair]]] | None = None,
) -> tuple[Checkpoint, TrainingReport]:
    """Run seeded shuffled mini-batch training; returns a trained copy of the model.

    Per-example losses are summed over slots; batches average over examples.
    Each mini-batch runs as one padded forward and backward pass.
    `dev` is a dev set and its `query_pairs`; its F1 is computed every
    `eval_every` epochs, and the best-dev checkpoint is saved alongside the
    final one.
    """
    if not stream:
        raise ValueError("training stream is empty")
    model = model.copy()
    params, enc_config = model.params, model.config
    optimizer = Adam(params, config.learning_rate)
    report = TrainingReport(epochs=config.epochs, stream_size=len(stream))
    started = time.monotonic()

    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(stream))
        epoch_loss = 0.0
        norms = []
        for batch_no, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            examples = [stream[idx] for idx in batch]
            breakdowns, _, grads = batch_loss_and_gradients(
                params, enc_config, [ex.pair for ex in examples], [ex.labels for ex in examples]
            )
            batch_loss = sum(breakdown.total for breakdown in breakdowns)
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no} "
                    f"(examples {[int(i) for i in batch]})"
                )
            grads.flat *= 1.0 / len(batch)
            norms.append(clip_gradients(grads, config.grad_clip))
            optimizer.step(params, grads)
            epoch_loss += batch_loss
        mean_loss = epoch_loss / len(order)
        report.epoch_losses.append(mean_loss)
        report.grad_norm_mean.append(sum(norms) / len(norms))
        report.grad_norm_max.append(max(norms))
        report.clipped_steps.append(sum(0 < config.grad_clip < n for n in norms))
        logger.info("epoch %d: mean loss %.6f", epoch, mean_loss)

        if dev is not None and config.eval_every > 0 and (epoch + 1) % config.eval_every == 0:
            dev_instances, dev_pairs = dev
            f1 = evaluate(predict_pairs(model, dev_pairs), dev_instances).f1
            report.dev_f1_history.append((epoch, f1))
            logger.info("epoch %d: dev F1 %.4f", epoch, f1)
            if report.best_dev_f1 is None or f1 > report.best_dev_f1:
                report.best_dev_f1 = f1
                report.best_epoch = epoch
                if config.checkpoint_path is not None:
                    best_path = str(config.checkpoint_path) + ".best"
                    save_checkpoint(model, best_path)
                    report.best_checkpoint_path = best_path

    report.wallclock_seconds = time.monotonic() - started
    if config.checkpoint_path is not None:
        save_checkpoint(model, config.checkpoint_path)
        report.checkpoint_path = str(config.checkpoint_path)
    return model, report


def fit(
    instances: list[AnnotatedInstance],
    store: FrameStore,
    encoder_config: EncoderConfig,
    train_config: TrainConfig,
    *,
    dev: list[AnnotatedInstance] | None = None,
) -> tuple[Checkpoint, TrainingReport]:
    """Train a fresh model on `instances`: the one pipeline every entry point runs.

    Builds the vocabulary from `instances` and the ontology, sizes the
    embedding to it (the `vocab_size` of `encoder_config` is ignored),
    initialises parameters from the encoder seed, builds the training
    stream, assembles the dev set's query pairs and runs `train`. The model
    carries the vocabulary and the template mode and markers of
    `train_config`. A training pair over `max_len` raises PairTooLongError,
    a dev pair DevPairTooLongError; `instance` is the 0-based position in
    its set.
    """
    vocab = build_vocabulary(instances, store)
    encoder_config = replace(encoder_config, vocab_size=len(vocab))
    model = Checkpoint(
        encoder_config, init_parameters(encoder_config), vocab,
        train_config.template_mode, train_config.marker_options,
    )
    stream = build_training_stream(instances, store, vocab, train_config)
    try:
        dev_set = None if dev is None else (dev, query_pairs(dev, store, model))
    except PairTooLongError as e:
        raise DevPairTooLongError(str(e), instance=e.instance) from None
    logger.info("training on %d pairs (%d instances)", len(stream), len(instances))
    return train(stream, model, train_config, dev=dev_set)
