#!/usr/bin/env python3
"""Re-runnable mutation checks: each catalogued bug must fail the tests named for it.

An entry of `CATALOGUE` is a deliberate bug: a file of the repository, an
exact snippet of it, the snippet that replaces it, and the tests that must
fail once it does. The script first checks that every snippet occurs exactly
once in its file. It then copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, runs the union of the named tests there unmutated (they
must pass), and for each entry applies its substitution to a fresh copy,
runs its tests and reports the mutant killed, if every named test failed, or
survived.

Exit status: 0 when every mutant is killed; 1 when a snippet no longer
matches (checked before any test runs), a named test fails unmutated, or a
mutant survives. A refactor that moves a snippet updates its entry here, and
a claim that "mutation M fails test T" adds M to the catalogue.

    python3 scripts/mutants.py

Standard library only; the tests themselves need numpy, pytest and
hypothesis, as the suite does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; a parametrized test covers all its cases


CATALOGUE = [
    Mutant(
        "maxpool-as-mean", "src/aged/pointer.py",
        "    queries = pooled.max(axis=2)\n",
        "    queries = pooled.mean(axis=2)\n",
        ("tests/test_pointer.py::test_score_batch_equals_per_pair_reference",
         "tests/test_pointer.py::test_batched_gradients_match_finite_differences",
         "tests/test_decoding.py::test_predict_all_shuffled_matches_per_pair_reference"),
    ),
    Mutant(
        "slot-gradient-to-every-span-row", "src/aged/pointer.py",
        "    first_max = pooled.argmax(axis=2)[:, :, None] == np.arange(pooled.shape[2])[:, None]\n",
        "    first_max = np.ones(pooled.shape, dtype=bool)\n",
        ("tests/test_pointer.py::test_batched_gradients_match_finite_differences",
         "tests/test_pointer.py::test_one_hot_scatters_equal_add_at_exactly"),
    ),
    Mutant(
        "decode-tie-to-largest-end", "src/aged/decoding.py",
        "        e = hit.argmax(axis=1)\n",
        "        e = hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)\n",
        ("tests/test_decoding.py::test_decode_matches_oracle_with_adversarial_ties",
         "tests/test_decoding.py::test_decode_rounding_tie_keeps_smallest_end"),
    ),
    Mutant(
        "chunk-context-at-rolled-rows", "src/aged/encoder.py",
        "        ctx_heads[rows], e, inv_sum = _attention(qh[rows], kh[keys], vh[keys], key_bias)\n",
        "        ctx_heads[rows], e, inv_sum = _attention(qh[rows], kh[keys], vh[keys], key_bias)\n"
        "        ctx_heads[rows] = np.roll(ctx_heads[rows], 1, axis=2)\n",
        ("tests/test_encoder.py::test_forward_batch_equals_independent_reference",
         "tests/test_encoder.py::test_multi_chunk_batch_equals_per_pair_passes"),
    ),
    Mutant(
        "batches-ordered-by-a-fixed-seed", "src/aged/training.py",
        "np.random.default_rng((enc_config.seed, epoch))",
        "np.random.default_rng((7, epoch))",
        ("tests/test_training.py::test_batch_order_follows_the_model_seed",),
    ),
    Mutant(
        "manifest-written-before-training", "src/aged/cli.py",
        "    files, line = COMMANDS[command](cfg)\n",
        "    _write_json(outputs[-1], manifest)\n"
        "    files, line = COMMANDS[command](cfg)\n",
        ("tests/test_cli.py::test_train_exits_2_on_non_finite_loss",
         "tests/test_cli.py::test_failed_forced_rerun_leaves_the_finished_run_as_it_was"),
    ),
    Mutant(
        "outputs-checked-after-the-work", "src/aged/cli.py",
        "    for out in outputs:\n",
        "    COMMANDS[command](cfg)\n"
        "    for out in outputs:\n",
        ("tests/test_cli.py::test_manifest_path_is_checked_before_any_input_is_read",
         "tests/test_cli.py::test_unusable_output_path_rejected_before_manifest"),
    ),
]


def unmatched(catalogue: list[Mutant], root: Path = ROOT) -> list[str]:
    """A message for each entry whose snippet does not occur exactly once in its file."""
    problems = []
    for m in catalogue:
        path = root / m.file
        count = path.read_text(encoding="utf-8").count(m.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{m.name}: its snippet occurs {count} times in {m.file}, not once")
    return problems


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def _pytest(where: Path, tests: list[str]) -> tuple[int, set[str]]:
    """Run `tests` in the copy at `where`: (pytest's exit code, failed node ids)."""
    env = {**os.environ, "PYTHONPATH": str(where / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
    )
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed


def _still_passing(mutant: Mutant, failed: set[str]) -> list[str]:
    """The named tests that passed under `mutant`."""
    return [t for t in mutant.tests
            if not any(f == t or f.startswith(t + "[") for f in failed)]


def main(catalogue: list[Mutant] = CATALOGUE) -> int:
    problems = unmatched(catalogue)
    for problem in problems:
        print(f"UNMATCHED {problem}")
    if problems:
        return 1

    with tempfile.TemporaryDirectory(prefix="aged-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        union = sorted({t for m in catalogue for t in m.tests})
        code, failed = _pytest(base, union)
        if code != 0:
            print(f"BASELINE the named tests do not pass unmutated (pytest exit {code}): "
                  f"{' '.join(sorted(failed)) or 'see pytest'}")
            return 1
        survivors = 0
        for m in catalogue:
            where = Path(tmp) / m.name
            shutil.copytree(base, where)
            target = where / m.file
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                              encoding="utf-8")
            code, failed = _pytest(where, list(m.tests))
            passed = _still_passing(m, failed)
            if code == 1 and not passed:
                print(f"killed    {m.name}")
            else:
                survivors += 1
                print(f"SURVIVED  {m.name}: pytest exit {code}; "
                      f"passing: {' '.join(passed) or '(none)'}")
            shutil.rmtree(where)
    print(f"{len(catalogue) - survivors} of {len(catalogue)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
