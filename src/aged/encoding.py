"""Assemble sentence/template token pairs and map them to vocabulary ids.

The assembled layout is ``[CLS] sentence [SEP] template [SEP]`` with ``<t>``
markers around the target word. Index maps record where each sentence token
and each template slot landed, so pointer heads can score exactly the n+1
candidate positions ([CLS] plus the n sentence tokens) and maxpool slot
spans without touching marker tokens.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import AnnotatedInstance, FrameStore
from .templates import (
    DEFAULT_MARKERS,
    DefinitionTemplate,
    FRAME_CLOSE,
    FRAME_OPEN,
    MarkerOptions,
    ROLE_CLOSE,
    ROLE_OPEN,
    TARGET_CLOSE,
    TARGET_OPEN,
    build_fe_template,
    build_frame_template,
    build_question_template,
)

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"

# Fixed ids 0..9, in this order.
RESERVED_TOKENS = (
    PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN,
    TARGET_OPEN, TARGET_CLOSE, FRAME_OPEN, FRAME_CLOSE, ROLE_OPEN, ROLE_CLOSE,
)

UNK_ID = 1
CLS_ID = 2

# Slot labels are (start, end) sentence indices; (0, 0) means no argument.
SlotLabel = tuple[int, int]


class Vocabulary:
    """Token -> dense id map with reserved ids 0..9 and [UNK] fallback."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValueError("vocabulary must start with the reserved tokens")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        index = self.index
        return tuple([index.get(t, UNK_ID) for t in tokens])

    def save(self, path: str | Path) -> None:
        """Write the tokens in id order as a JSON list.

        Nothing in aged calls this: a checkpoint carries its vocabulary. It is
        kept only because the benchmark tracer's `encoding.vocab_s` names it.
        """
        Path(path).write_text(json.dumps(self.tokens), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "Vocabulary":
        """Read a file written by `save`; kept only for the benchmark tracer, like `save`."""
        return Vocabulary(json.loads(Path(path).read_text(encoding="utf-8")))


def build_vocabulary(instances: Iterable[AnnotatedInstance], store: FrameStore) -> Vocabulary:
    """Vocabulary over sentence tokens plus every renderable template token.

    Ids are assigned in first-occurrence order: instances first, then each
    frame's frame-def, fe-def, and question templates.
    """
    tokens = list(RESERVED_TOKENS)
    seen = set(tokens)

    def add(ts: Iterable[str]) -> None:
        for t in ts:
            if t not in seen:
                seen.add(t)
                tokens.append(t)

    for inst in instances:
        add(inst.tokens)
    for frame in store:
        add(build_frame_template(frame).tokens)
        for fe in frame.fe_order:
            add(build_fe_template(frame, fe).tokens)
            add(build_question_template(frame, fe).tokens)
    return Vocabulary(tokens)


class PairTooLongError(ValueError):
    """The assembled pair exceeds the configured maximum length."""


@dataclass(frozen=True)
class EncodedPair:
    """An assembled sentence/template pair with index maps.

    `sentence_pos[i-1]` is the assembled position of sentence token w_i;
    with [CLS] at 0 these are the n+1 pointer candidate positions.
    `definition_start` is the first position after the first [SEP]: the
    definition segment runs from there to the end. `slot_pos` holds the
    assembled (start, end) of each template slot, in slot order, always
    inside the definition segment.
    """

    ids: tuple[int, ...]
    sentence_pos: tuple[int, ...]
    slot_pos: tuple[tuple[int, int], ...]
    slot_fes: tuple[str, ...]
    definition_start: int

    @functools.cached_property
    def read_rows(self) -> np.ndarray:
        """The sorted assembled positions the pointer heads read: [CLS], the
        sentence tokens and every row of every slot span. Derived once per pair."""
        read = {0, *self.sentence_pos}
        for start, end in self.slot_pos:
            read.update(range(start, end + 1))
        rows = np.array(sorted(read), np.intp)
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def slot_rows(self) -> np.ndarray:
        """(slots, 2): the indices into `read_rows` of each slot span's first
        and last row. Derived once per pair."""
        rows = np.searchsorted(self.read_rows, self.slot_pos).reshape(-1, 2)
        rows.flags.writeable = False
        return rows


def assemble(
    instance: AnnotatedInstance,
    template: DefinitionTemplate,
    vocab: Vocabulary,
    opts: MarkerOptions = DEFAULT_MARKERS,
    max_len: int = 256,
) -> EncodedPair:
    """Build ``[CLS] sentence [SEP] template [SEP]`` and its index maps.

    Pairs longer than `max_len` are rejected rather than truncated, since
    truncation could silently delete slots or gold spans; the error starts
    with the instance's `origin`, when it has one.
    """
    if instance.frame != template.frame:
        raise ValueError(
            f"instance evokes '{instance.frame}' but template is for '{template.frame}'"
        )
    words, n = instance.tokens, len(instance.tokens)
    if opts.target_markers:
        t = instance.target
        toks = [CLS_TOKEN, *words[: t - 1], TARGET_OPEN, words[t - 1], TARGET_CLOSE, *words[t:]]
        sentence_pos = (*range(1, t), t + 1, *range(t + 3, n + 3))
    else:
        toks = [CLS_TOKEN, *words]
        sentence_pos = tuple(range(1, n + 1))
    toks.append(SEP_TOKEN)
    text_len = len(toks)
    slot_pos = tuple((text_len + s.start, text_len + s.end) for s in template.slots)
    toks.extend(template.tokens)
    toks.append(SEP_TOKEN)
    if len(toks) > max_len:
        where = f"{instance.origin}: " if instance.origin else ""
        raise PairTooLongError(f"{where}assembled pair has {len(toks)} tokens, max_len is {max_len}")
    return EncodedPair(
        ids=vocab.encode(toks),
        sentence_pos=sentence_pos,
        slot_pos=slot_pos,
        slot_fes=template.slot_fes,
        definition_start=text_len,
    )


def gold_labels(
    instance: AnnotatedInstance, query: DefinitionTemplate | EncodedPair
) -> list[SlotLabel]:
    """One (start, end) label per slot of a template or of the pair assembled
    from it, in slot order; (0, 0) when the slot's FE has no argument."""
    by_fe = {a.fe: (a.start, a.end) for a in instance.arguments}
    return [by_fe.get(fe, (0, 0)) for fe in query.slot_fes]
