"""Training-stream construction, the seeded mini-batch training loop, and
`fit`, the one pipeline from an untrained model to a trained one.

The model holds the query settings and the seed, and `TrainConfig` only how
to train. A model's training pairs are the pairs it predicts on: each
instance gives its `query_pairs`. In frame-def mode that is one (sentence,
frame-definition) pair per instance; with FE augmentation on, each gold
argument adds a (sentence, FE-definition) pair for its role, so stream size
is exactly |instances| + total gold arguments. The question baseline
instead has one single-slot pair per FE of the frame, and takes no FE
augmentation. A dev set, when given, is scored every epoch, and the model
at its best F1 is kept. Training writes no file: the caller saves what it
returns.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import AnnotatedInstance, FrameStore
from .decoding import predict_pairs, query_pairs
from .encoder import Checkpoint, EncoderConfig, FlatTensors, init_parameters
from .encoding import (
    EncodedPair,
    SlotLabel,
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
)

logger = logging.getLogger(__name__)

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
GRAD_CLIP = 1.0  # global-norm cap on every training step's gradients


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN or infinite loss."""


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 8
    learning_rate: float = 1e-3
    augment_fe_defs: bool = False

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool is not a count
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.learning_rate < math.inf:  # nan fails both comparisons
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate!r}")


@dataclass
class TrainingExample:
    pair: EncodedPair
    labels: list[SlotLabel]


def build_training_stream(
    instances: list[AnnotatedInstance],
    store: FrameStore,
    model: Checkpoint,
    config: TrainConfig,
) -> list[TrainingExample]:
    """Deterministic stream: instance order, then the frame's FE order.

    Each instance contributes its `query_pairs` for `model`, the pairs
    prediction reads; with `augment_fe_defs` one FE-definition pair per gold
    argument follows, assembled with the model's vocabulary, markers and
    `max_len`. Augmenting a model whose mode is not frame-def raises
    ValueError before any pair is assembled, and a pair over `max_len`
    raises PairTooLongError.
    """
    if config.augment_fe_defs and model.mode is not TemplateMode.FRAME_DEF:
        raise ValueError(
            "--augment-fe-defs augments frame-def training only; "
            f"it cannot be combined with --mode {model.mode.value}"
        )
    markers, max_len = model.markers, model.config.max_len
    stream: list[TrainingExample] = []
    for inst, pairs in zip(instances, query_pairs(instances, store, model)):
        if config.augment_fe_defs:
            frame = store.frame(inst.frame)
            gold_fes = {a.fe for a in inst.arguments}
            pairs += [
                assemble(inst, build_fe_template(frame, fe, markers), model.vocab, markers, max_len)
                for fe in frame.fe_order if fe in gold_fes
            ]
        stream += [TrainingExample(pair, gold_labels(inst, pair)) for pair in pairs]
    return stream


class Adam:
    """Plain Adam with bias correction; no schedule, no weight decay.

    The parameters and gradients are `FlatTensors`, and the moments and the
    update flat buffers in their layout. A step runs the per-tensor
    elementwise formula in place on these whole buffers, op for op in the
    same order, so its updates are bitwise those of the per-tensor form.
    """

    def __init__(self, params: FlatTensors, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self._tmp = np.empty_like(params.flat)
        self._update = np.empty_like(params.flat)

    def step(self, params: FlatTensors, grads: FlatTensors) -> None:
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
        update = np.divide(m, c1, out=self._update)
        update *= self.lr
        update /= tmp
        params.flat -= update


def clip_gradients(grads: FlatTensors, max_norm: float) -> float:
    """Scale gradients in place to a global-norm cap; returns the pre-clip norm.

    The norm is one dot product of the flat buffer, and the scale one
    multiply of it.
    """
    total = math.sqrt(float(np.vdot(grads.flat, grads.flat)))
    if total > max_norm:
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
    wallclock_seconds: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def train(
    stream: list[TrainingExample],
    model: Checkpoint,
    config: TrainConfig,
    *,
    dev: tuple[list[AnnotatedInstance], list[list[EncodedPair]]] | None = None,
) -> tuple[Checkpoint, TrainingReport, Checkpoint | None]:
    """Run shuffled mini-batch training; returns a trained copy of the model,
    the report and, with `dev`, a copy of the model at its best dev F1.

    Each epoch's batch order is drawn from the model's seed and the epoch.
    Per-example losses are summed over slots; batches average over examples,
    and each step's gradients are clipped to a global norm of `GRAD_CLIP`.
    Each mini-batch runs as one padded forward and backward pass.
    `dev` is a dev set and its `query_pairs`; its F1 is computed every
    epoch, and the first epoch with the highest F1 gives the best model.
    """
    if not stream:
        raise ValueError("no training instance remains: the training stream is empty")
    model = model.copy()
    params, enc_config = model.params, model.config
    grads = FlatTensors(params.shapes, np.empty_like(params.flat))  # zero-filled by each backward
    optimizer = Adam(params, config.learning_rate)
    report = TrainingReport(epochs=config.epochs, stream_size=len(stream))
    best = None
    started = time.monotonic()

    for epoch in range(config.epochs):
        order = np.random.default_rng((enc_config.seed, epoch)).permutation(len(stream))
        epoch_loss = 0.0
        norms = []
        for batch_no, lo in enumerate(range(0, len(order), config.batch_size)):
            batch = order[lo : lo + config.batch_size]
            examples = [stream[idx] for idx in batch]
            losses, grads = batch_loss_and_gradients(
                params, enc_config, [ex.pair for ex in examples], [ex.labels for ex in examples],
                grads,
            )
            batch_loss = sum(losses)
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no} "
                    f"(examples {[int(i) for i in batch]})"
                )
            grads.flat *= 1.0 / len(batch)
            norms.append(clip_gradients(grads, GRAD_CLIP))
            optimizer.step(params, grads)
            epoch_loss += batch_loss
        mean_loss = epoch_loss / len(order)
        report.epoch_losses.append(mean_loss)
        report.grad_norm_mean.append(sum(norms) / len(norms))
        report.grad_norm_max.append(max(norms))
        report.clipped_steps.append(sum(n > GRAD_CLIP for n in norms))
        logger.info("epoch %d: mean loss %.6f", epoch, mean_loss)

        if dev is not None:
            dev_instances, dev_pairs = dev
            f1 = evaluate(predict_pairs(model, dev_pairs), dev_instances).f1
            report.dev_f1_history.append((epoch, f1))
            logger.info("epoch %d: dev F1 %.4f", epoch, f1)
            if report.best_dev_f1 is None or f1 > report.best_dev_f1:
                report.best_dev_f1 = f1
                report.best_epoch = epoch
                best = model.copy()

    report.wallclock_seconds = time.monotonic() - started
    return model, report, best


def untrained_model(
    instances: list[AnnotatedInstance],
    store: FrameStore,
    encoder_config: EncoderConfig,
    *,
    mode: TemplateMode = TemplateMode.FRAME_DEF,
    markers: MarkerOptions = DEFAULT_MARKERS,
) -> Checkpoint:
    """The model `fit` trains, the same for the same arguments.

    Its vocabulary is built from `instances` and the ontology, and has a
    `tok_emb` row per token. Its parameters are initialised from the
    encoder seed. It carries the query `mode` and `markers` from which its
    training and prediction pairs are both assembled.
    """
    vocab = build_vocabulary(instances, store)
    return Checkpoint(encoder_config, init_parameters(encoder_config, len(vocab)), vocab, mode,
                      markers)


def fit(
    model: Checkpoint,
    instances: list[AnnotatedInstance],
    store: FrameStore,
    train_config: TrainConfig,
    *,
    dev: list[AnnotatedInstance] | None = None,
) -> tuple[Checkpoint, TrainingReport, Checkpoint | None]:
    """Train `model`, usually an `untrained_model`, on `instances`: the one
    pipeline every entry point runs.

    Builds the training stream from the model, assembles the dev set's
    query pairs and runs `train`, which returns a trained copy, the report
    and the best-dev copy (None without `dev`). A training or dev pair over
    `max_len` raises PairTooLongError, and an empty training stream
    ValueError, before the first epoch.
    """
    stream = build_training_stream(instances, store, model, train_config)
    dev_set = None if dev is None else (dev, query_pairs(dev, store, model))
    logger.info("training on %d pairs (%d instances)", len(stream), len(instances))
    return train(stream, model, train_config, dev=dev_set)
