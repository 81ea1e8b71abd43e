"""Frame ontology and annotated corpora in the JSONL interchange format.

One frame record per line:

    {"name": str,
     "definition": [segment...],
     "fe_order": [str...],
     "fes": {fe_name: {"core_type": "core"|"noncore", "definition": [segment...]}}}

where a segment is either ``{"text": str}`` or ``{"fe": str, "surface": str}``.
One instance record per line:

    {"tokens": [str...], "target": int, "frame": str,
     "arguments": [{"fe": str, "start": int, "end": int}...]}

Token indices are 1-based and inclusive. Files are UTF-8, one record per
``\n``-terminated line; blank lines hold no record.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """An ontology or instance record violates the interchange schema."""


def _read_jsonl(path: str | Path, parse: Callable[[object, str], object]) -> list:
    """`parse(record, "path:line")` of each non-blank line of a JSONL file, in order.

    Bytes that are not UTF-8, malformed JSON and every CorpusError of `parse`
    raise CorpusError prefixed with `path:line:`. This is the one place that
    maps a record to its line.
    """
    out = []
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
                if line.strip():
                    out.append(parse(json.loads(line), where))
            except UnicodeDecodeError as e:
                raise CorpusError(f"{where}: not UTF-8 ({e.reason})") from None
            except json.JSONDecodeError as e:
                raise CorpusError(f"{where}: malformed JSON ({e.msg})") from None
            except CorpusError as e:
                raise CorpusError(f"{where}: {e}") from None
    return out


def name_tokens(name: str) -> list[str]:
    """Tokenize a frame name, FE name or mention surface; underscores become
    token boundaries."""
    return name.replace("_", " ").split()


def _check_name(what: str, name: str) -> None:
    """Refuse a name that templates would render as no tokens at all."""
    if not name_tokens(name):
        raise CorpusError(f"{what} {name!r} gives no tokens (split at spaces and underscores)")


@dataclass(frozen=True)
class TextSegment:
    text: str


@dataclass(frozen=True)
class MentionSegment:
    fe: str
    surface: str


Segment = TextSegment | MentionSegment


@dataclass(frozen=True)
class MarkedText:
    """Definition text as an ordered list of plain and FE-mention segments.

    Concatenating all segment surfaces reproduces the human-readable text.
    """

    segments: tuple[Segment, ...]

    def mentioned_fes(self) -> tuple[str, ...]:
        """Distinct mentioned FE names, in first-mention order."""
        seen: list[str] = []
        for seg in self.segments:
            if isinstance(seg, MentionSegment) and seg.fe not in seen:
                seen.append(seg.fe)
        return tuple(seen)

    @staticmethod
    def from_json(raw: object) -> "MarkedText":
        if not isinstance(raw, list):
            raise CorpusError("definition must be a list of segments")
        segments: list[Segment] = []
        for seg in raw:
            if not isinstance(seg, dict):
                raise CorpusError(f"segment must be an object, got {type(seg).__name__}")
            if set(seg) not in ({"text"}, {"fe", "surface"}):
                raise CorpusError(f"segment keys must be {{text}} or {{fe, surface}}, got {sorted(seg)}")
            if set(map(type, seg.values())) != {str} or "" in (seg.get("text"), seg.get("surface")):
                raise CorpusError(f"segment {json.dumps(seg)} needs non-empty strings")
            if "surface" in seg:
                _check_name(f"mention of FE '{seg['fe']}': surface", seg["surface"])
            segments.append(TextSegment(**seg) if "text" in seg else MentionSegment(**seg))
        return MarkedText(tuple(segments))


class CoreType(str, Enum):
    CORE = "core"
    NONCORE = "noncore"


@dataclass(frozen=True)
class FrameElement:
    name: str
    core_type: CoreType
    definition: MarkedText


@dataclass(frozen=True)
class Frame:
    name: str
    definition: MarkedText
    fe_order: tuple[str, ...]
    fes: dict[str, FrameElement]

    def fe(self, name: str) -> FrameElement:
        if name not in self.fes:
            raise CorpusError(f"frame '{self.name}' has no FE '{name}'")
        return self.fes[name]


class FrameStore:
    """Name -> Frame mapping, in the order the frames were added."""

    def __init__(self) -> None:
        self._frames: dict[str, Frame] = {}

    def add(self, frame: Frame) -> None:
        if frame.name in self._frames:
            raise CorpusError(f"duplicate frame name '{frame.name}'")
        self._frames[frame.name] = frame

    def __len__(self) -> int:
        return len(self._frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self._frames.values())

    def __contains__(self, name: str) -> bool:
        return name in self._frames

    def frame(self, name: str) -> Frame:
        if name not in self._frames:
            raise CorpusError(f"unknown frame '{name}'")
        return self._frames[name]


@dataclass(frozen=True)
class Argument:
    fe: str
    start: int
    end: int


@dataclass(frozen=True)
class AnnotatedInstance:
    """A sentence with one frame-evoking target and its gold argument spans.

    `origin` is the ``path:line`` of the record it was loaded from, or empty.
    """

    tokens: tuple[str, ...]
    target: int
    frame: str
    arguments: tuple[Argument, ...]
    origin: str = field(default="", compare=False)


def _parse_frame(rec: object) -> Frame:
    if not isinstance(rec, dict):
        raise CorpusError("frame record must be a JSON object")
    name = rec.get("name")
    if not name or not isinstance(name, str):
        raise CorpusError("frame record needs a non-empty 'name'")
    _check_name("frame name", name)
    definition = MarkedText.from_json(rec.get("definition", []))
    fe_order = rec.get("fe_order")
    fes_raw = rec.get("fes")
    if not isinstance(fe_order, list) or set(map(type, fe_order)) - {str} or not isinstance(fes_raw, dict):
        raise CorpusError(f"frame '{name}' needs 'fe_order' (list of strings) and 'fes' (object)")
    if len(set(fe_order)) != len(fe_order):
        raise CorpusError(f"frame '{name}' repeats an FE in fe_order")
    if set(fe_order) != set(fes_raw):
        missing = set(fes_raw) - set(fe_order)
        extra = set(fe_order) - set(fes_raw)
        raise CorpusError(
            f"frame '{name}' fe_order mismatch: missing {sorted(missing)}, undefined {sorted(extra)}"
        )
    fes: dict[str, FrameElement] = {}
    for fe_name, fe_rec in fes_raw.items():
        _check_name(f"frame '{name}': FE name", fe_name)
        if not isinstance(fe_rec, dict):
            raise CorpusError(f"FE '{fe_name}' of '{name}' must be a JSON object, got {fe_rec!r}")
        try:
            core_type = CoreType(fe_rec.get("core_type", ""))
        except ValueError:
            raise CorpusError(
                f"FE '{fe_name}' of '{name}' needs core_type 'core' or 'noncore'"
            ) from None
        fes[fe_name] = FrameElement(fe_name, core_type, MarkedText.from_json(fe_rec.get("definition", [])))
    # Every mention, in the frame definition and in each FE definition, must
    # name an FE of this frame (an FE may mention itself).
    for owner, text in [(name, definition)] + [(f"{name}.{k}", v.definition) for k, v in fes.items()]:
        for fe_name in text.mentioned_fes():
            if fe_name not in fes:
                raise CorpusError(f"definition of '{owner}' mentions unknown FE '{fe_name}'")
    return Frame(name, definition, tuple(fe_order), fes)


def load_ontology(path: str | Path) -> FrameStore:
    """Load and validate a JSONL frame ontology.

    Raises CorpusError naming the offending line for malformed records,
    duplicate frame names, unknown FE mentions, or fe_order mismatches.
    """
    store = FrameStore()
    _read_jsonl(path, lambda rec, where: store.add(_parse_frame(rec)))
    return store


def _parse_instance(rec: object, store: FrameStore, origin: str) -> tuple[AnnotatedInstance, int]:
    """Returns the instance plus the number of collapsed duplicate-FE spans.

    A boolean is not an integer here.
    """
    if not isinstance(rec, dict):
        raise CorpusError("instance record must be a JSON object")
    tokens = rec.get("tokens")
    # set(map(type, ...)) and `in` scan in C; a per-token generator costs ms on long files
    if not isinstance(tokens, list) or set(map(type, tokens)) != {str} or "" in tokens:
        raise CorpusError("instance needs a non-empty 'tokens' list of non-empty strings")
    n = len(tokens)
    target = rec.get("target")
    if type(target) is not int or not 1 <= target <= n:
        raise CorpusError(f"target {target!r} is not an integer in 1..{n}")
    frame_name = rec.get("frame")
    if not isinstance(frame_name, str) or frame_name not in store:
        raise CorpusError(f"unknown frame {frame_name!r}")
    frame = store.frame(frame_name)
    spans_by_fe: dict[str, tuple[int, int]] = {}
    collapsed = 0
    args = rec.get("arguments", [])
    if not isinstance(args, list):
        raise CorpusError(f"'arguments' must be a list, got {args!r}")
    for arg in args:
        if not isinstance(arg, dict):
            raise CorpusError(f"an argument must be a JSON object, got {arg!r}")
        fe, start, end = arg.get("fe"), arg.get("start"), arg.get("end")
        if not isinstance(fe, str) or fe not in frame.fes:
            raise CorpusError(f"unknown FE {fe!r} for frame '{frame_name}'")
        if not (type(start) is int and type(end) is int) or start > end:
            raise CorpusError(f"bad span ({start!r}, {end!r}) for FE '{fe}': need integers start <= end")
        if not (1 <= start and end <= n):
            raise CorpusError(f"span ({start}, {end}) for FE '{fe}' outside 1..{n}")
        if fe in spans_by_fe:
            # One span per FE: keep the leftmost annotation.
            collapsed += 1
            spans_by_fe[fe] = min(spans_by_fe[fe], (start, end))
        else:
            spans_by_fe[fe] = (start, end)
    arguments = tuple(Argument(fe, s, e) for fe, (s, e) in spans_by_fe.items())
    return AnnotatedInstance(tuple(tokens), target, frame_name, arguments, origin), collapsed


def load_instances(path: str | Path, store: FrameStore) -> list[AnnotatedInstance]:
    """Load and validate annotated instances against an already-loaded store.

    Each instance's `origin` is the ``path:line`` of its record.
    """
    parsed = _read_jsonl(path, lambda rec, where: _parse_instance(rec, store, where))
    instances = [inst for inst, _ in parsed]
    collapsed = sum(dup for _, dup in parsed)
    if collapsed:
        logger.warning("kept leftmost span for %d duplicate FE annotation(s) in %s", collapsed, path)
    return instances


def sample_k_shot(
    instances: list[AnnotatedInstance],
    frame_names: set[str],
    k: int,
    seed: int,
) -> list[AnnotatedInstance]:
    """Cap each named frame at k uniformly sampled instances, keeping the rest.

    Deterministic for a fixed seed; frames with at most k instances are left
    untouched. Original instance order is preserved.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    rng = random.Random(seed)
    dropped: set[int] = set()
    for frame in sorted(frame_names):
        idxs = [i for i, inst in enumerate(instances) if inst.frame == frame]
        if len(idxs) > k:
            kept = rng.sample(idxs, k) if k else []
            dropped.update(set(idxs) - set(kept))
    return [inst for i, inst in enumerate(instances) if i not in dropped]


def mini_framenet_path(name: str) -> Path:
    """Path of a bundled mini corpus file: 'frames', 'train', or 'test'."""
    return Path(str(resources.files("aged").joinpath("data", "mini", f"{name}.jsonl")))


def load_mini_framenet() -> tuple[FrameStore, list[AnnotatedInstance], list[AnnotatedInstance]]:
    """The bundled synthetic mini corpus: (store, train instances, test instances)."""
    store = load_ontology(mini_framenet_path("frames"))
    train = load_instances(mini_framenet_path("train"), store)
    test = load_instances(mini_framenet_path("test"), store)
    return store, train, test
