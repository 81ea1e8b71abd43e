"""The benchmark's workloads and run-shape constants (standard library only).

Every pass of every workload is one closed-loop caller running the user's
pipeline `aged train -> aged predict -> aged eval` in-process through
`aged.cli.dispatch`. The workloads differ in the shapes they push through
the layers; BENCHMARK.json records why each was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # --mode for train and predict
    epochs: int  # --epochs of each aged train
    long_instances: int  # 0: predict the bundled test set; >0: a generated long set of this size


WORKLOADS = {
    w.name: w
    for w in (
        # 40 frame-def pairs of 34-50 tokens; training is nearly all of a pass.
        Workload("train-mini", "frame-def", epochs=4, long_instances=0),
        # 142 single-slot question pairs of ~23 tokens; per-pair and per-call
        # fixed costs dominate, so batching moves this one most.
        Workload("question-mini", "question", epochs=2, long_instances=0),
        # One training epoch makes the checkpoint, then inference over
        # sentences of 100-210 tokens (attention at L ~ 140-250, decode_slot
        # over long n) takes most of the pass.
        Workload("predict-long", "frame-def", epochs=1, long_instances=40),
    )
}

# Passes cycle through this many training seeds derived from --seed; the
# quality figures (final_loss, test_f1) are means over one cycle, because a
# single training seed moves final_loss by ~10%.
QUALITY_SEEDS = 16

# Set-up is measured this many times per untraced run (each in a fresh
# process) and reported as the median.
SETUP_REPEATS = 5

# Threads for the BLAS and OpenMP pools of every benchmark process. The
# matrices are at most 256 x 128, where extra threads only add noise.
BLAS_THREADS = 1
