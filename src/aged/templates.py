"""Render frame and FE definitions into slot-bearing query templates.

Three template modes share one token-level representation:

* frame-def:  ``<f> name </f> | wrapped definition | remaining FE list``
  with one slot per FE of the frame (leftmost mention wins, FEs absent
  from the definition are appended in the frame's canonical order);
* fe-def:     ``<f> name </f> | <r> FE </r> | wrapped FE definition``
  with a slot for the focus FE plus one per related FE it mentions;
* question:   ``What's <r> FE </r> of <f> name </f> ?`` with a single slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .corpus import CorpusError, Frame, MentionSegment, name_tokens

FRAME_OPEN = "<f>"
FRAME_CLOSE = "</f>"
ROLE_OPEN = "<r>"
ROLE_CLOSE = "</r>"
TARGET_OPEN = "<t>"
TARGET_CLOSE = "</t>"
SEPARATOR = "|"
LIST_DELIM = ","


class TemplateMode(str, Enum):
    FRAME_DEF = "frame-def"
    FE_DEF = "fe-def"
    QUESTION = "question"


# the modes whose templates query all of a frame's FEs; fe-def only augments training
QUERY_MODES = (TemplateMode.FRAME_DEF, TemplateMode.QUESTION)


@dataclass(frozen=True)
class MarkerOptions:
    """Which special marker tokens to emit.

    `target_markers` applies when the sentence is assembled; `label_markers`
    (the frame-name and role markers) applies when templates are rendered.
    Suppressing markers deletes the tokens and shifts slot spans, leaving
    slot surfaces unchanged.
    """

    target_markers: bool = True
    label_markers: bool = True


DEFAULT_MARKERS = MarkerOptions()


@dataclass(frozen=True)
class Slot:
    """An FE mention span inside a template, 0-based inclusive token indices."""

    fe: str
    start: int
    end: int


@dataclass(frozen=True)
class DefinitionTemplate:
    frame: str
    tokens: tuple[str, ...]
    slots: tuple[Slot, ...]

    @property
    def slot_fes(self) -> tuple[str, ...]:
        return tuple(s.fe for s in self.slots)


class _Builder:
    def __init__(self, opts: MarkerOptions):
        self.opts = opts
        self.tokens: list[str] = []
        self.spans: dict[str, tuple[int, int]] = {}  # fe -> leftmost mention span

    def text(self, text: str) -> None:
        self.tokens.extend(text.split())

    def frame_name(self, name: str) -> None:
        if self.opts.label_markers:
            self.tokens.append(FRAME_OPEN)
        self.tokens.extend(name_tokens(name))
        if self.opts.label_markers:
            self.tokens.append(FRAME_CLOSE)

    def mention(self, fe: str, surface: str) -> None:
        if self.opts.label_markers:
            self.tokens.append(ROLE_OPEN)
        start = len(self.tokens)
        self.tokens.extend(name_tokens(surface))
        end = len(self.tokens) - 1
        if self.opts.label_markers:
            self.tokens.append(ROLE_CLOSE)
        self.spans.setdefault(fe, (start, end))

    def sep(self) -> None:
        self.tokens.append(SEPARATOR)

    def definition(self, marked) -> None:
        for seg in marked.segments:
            if isinstance(seg, MentionSegment):
                self.mention(seg.fe, seg.surface)
            else:
                self.text(seg.text)

    def finish(self, frame: str) -> DefinitionTemplate:
        slots = tuple(
            Slot(fe, s, e) for fe, (s, e) in sorted(self.spans.items(), key=lambda kv: kv[1])
        )
        return DefinitionTemplate(frame, tuple(self.tokens), slots)


def build_frame_template(frame: Frame, opts: MarkerOptions = DEFAULT_MARKERS) -> DefinitionTemplate:
    """Frame-definition template with one slot for every FE of the frame."""
    b = _Builder(opts)
    b.frame_name(frame.name)
    b.sep()
    b.definition(frame.definition)
    b.sep()
    mentioned = set(frame.definition.mentioned_fes())
    first = True
    for fe in frame.fe_order:
        if fe in mentioned:
            continue
        if not first:
            b.tokens.append(LIST_DELIM)
        first = False
        b.mention(fe, fe)
    return b.finish(frame.name)


def build_fe_template(frame: Frame, fe: str, opts: MarkerOptions = DEFAULT_MARKERS) -> DefinitionTemplate:
    """FE-definition template: slots for the focus FE and its related FEs.

    The focus slot is the FE-name header; related FEs are exactly those
    mentioned in the FE's definition, each at its leftmost mention.
    """
    element = frame.fe(fe)
    b = _Builder(opts)
    b.frame_name(frame.name)
    b.sep()
    b.mention(fe, fe)
    b.sep()
    b.definition(element.definition)
    return b.finish(frame.name)


def build_question_template(frame: Frame, fe: str, opts: MarkerOptions = DEFAULT_MARKERS) -> DefinitionTemplate:
    """Role-specific question baseline: one slot, no definition text."""
    frame.fe(fe)  # unknown-FE check
    b = _Builder(opts)
    b.text("What's")
    b.mention(fe, fe)
    b.text("of")
    b.frame_name(frame.name)
    b.text("?")
    return b.finish(frame.name)


def build_template(
    frame: Frame, mode: TemplateMode, fe: str | None = None, opts: MarkerOptions = DEFAULT_MARKERS
) -> DefinitionTemplate:
    if mode is TemplateMode.FRAME_DEF:
        return build_frame_template(frame, opts)
    if fe is None:
        raise CorpusError(f"{mode.value} template needs an FE name")
    if mode is TemplateMode.FE_DEF:
        return build_fe_template(frame, fe, opts)
    return build_question_template(frame, fe, opts)


def query_templates(
    frame: Frame, mode: TemplateMode, opts: MarkerOptions = DEFAULT_MARKERS
) -> list[DefinitionTemplate]:
    """The templates that query all of a frame's FEs, for training and prediction.

    Frame-def mode gives one template with a slot per FE; question mode one
    single-slot question per FE in `fe_order`. FE-definition templates query
    one FE each and serve only to augment training, so fe-def raises
    ValueError.
    """
    if mode not in QUERY_MODES:
        raise ValueError(f"{mode.value} is an augmentation mode, not a query mode")
    if mode is TemplateMode.FRAME_DEF:
        return [build_frame_template(frame, opts)]
    return [build_question_template(frame, fe, opts) for fe in frame.fe_order]


def render_surface(template: DefinitionTemplate) -> str:
    return " ".join(template.tokens)
