import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aged.corpus import (
    AnnotatedInstance,
    Argument,
    CorpusError,
    load_instances,
    load_ontology,
    sample_k_shot,
)

ATTACK_RECORD = {
    "name": "Attack",
    "definition": [
        {"text": "An "}, {"fe": "Assailant", "surface": "Assailant"},
        {"text": " attacks a "}, {"fe": "Victim", "surface": "Victim"},
        {"text": " for a "}, {"fe": "Purpose", "surface": "Purpose"}, {"text": " ."},
    ],
    "fe_order": ["Assailant", "Victim", "Purpose"],
    "fes": {
        "Assailant": {"core_type": "core", "definition": [{"text": "attacker"}]},
        "Victim": {"core_type": "core", "definition": [{"text": "attacked"}]},
        "Purpose": {"core_type": "noncore", "definition": [{"text": "why"}]},
    },
}


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_load_single_frame(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_lines(path, [ATTACK_RECORD])
    store = load_ontology(path)
    assert len(store) == 1
    frame = store.frame("Attack")
    assert len(frame.fes) == 3
    assert frame.definition.mentioned_fes() == ("Assailant", "Victim", "Purpose")


def test_empty_file_gives_empty_store(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_ontology(path)) == 0


def test_unknown_fe_mention_reports_name_and_line(tmp_path):
    bad = json.loads(json.dumps(ATTACK_RECORD))
    bad["name"] = "Attack2"
    bad["definition"].append({"fe": "Weapon", "surface": "Weapon"})
    path = tmp_path / "frames.jsonl"
    write_lines(path, [ATTACK_RECORD, bad])
    with pytest.raises(CorpusError) as exc:
        load_ontology(path)
    assert "Weapon" in str(exc.value)
    assert ":2:" in str(exc.value)


def test_duplicate_frame_name(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_lines(path, [ATTACK_RECORD, ATTACK_RECORD])
    with pytest.raises(CorpusError) as exc:
        load_ontology(path)
    assert str(exc.value) == f"{path}:2: duplicate frame name 'Attack'"


def test_fe_order_mismatch(tmp_path):
    bad = json.loads(json.dumps(ATTACK_RECORD))
    bad["fe_order"] = ["Assailant", "Victim"]
    path = tmp_path / "frames.jsonl"
    write_lines(path, [bad])
    with pytest.raises(CorpusError, match="fe_order"):
        load_ontology(path)


@pytest.mark.parametrize("line, message", [
    (b"{oops", "malformed JSON"),
    (b'{"name": "Att\xe9ck"}', "not UTF-8 (invalid continuation byte)"),
    (json.dumps(dict(ATTACK_RECORD, fe_order=["Victim"], fes={"Victim": 5})).encode(),
     "FE 'Victim' of 'Attack' must be a JSON object, got 5"),
    (json.dumps(dict(ATTACK_RECORD, fe_order=["Victim"], fes={"Victim": [5]})).encode(),
     "FE 'Victim' of 'Attack' must be a JSON object, got [5]"),
    (json.dumps(dict(ATTACK_RECORD, definition=[{"text": 5}])).encode(),
     'segment {"text": 5} needs non-empty strings'),
    (json.dumps(dict(ATTACK_RECORD, definition=[{"fe": "Victim", "surface": 5}])).encode(),
     'segment {"fe": "Victim", "surface": 5} needs non-empty strings'),
    (json.dumps(dict(ATTACK_RECORD, definition=[{"fe": ["Victim"], "surface": "x"}])).encode(),
     'segment {"fe": ["Victim"], "surface": "x"} needs non-empty strings'),
    (json.dumps(dict(ATTACK_RECORD, fe_order=[["Victim"]])).encode(),
     "frame 'Attack' needs 'fe_order' (list of strings)"),
], ids=["malformed-json", "not-utf-8", "fe-not-an-object", "fe-a-list", "text-not-a-string",
        "surface-not-a-string", "mentioned-fe-not-a-string", "fe-order-not-strings"])
def test_malformed_line_reports_line_number(tmp_path, line, message):
    path = tmp_path / "frames.jsonl"
    path.write_bytes(json.dumps(ATTACK_RECORD).encode() + b"\n" + line + b"\n")
    with pytest.raises(CorpusError, match=re.escape(f"frames.jsonl:2: {message}")):
        load_ontology(path)


def _add_fe(record, fe):
    record["fe_order"].append(fe)
    record["fes"][fe] = {"core_type": "core", "definition": []}


@pytest.mark.parametrize("edit, message", [
    (lambda r: r["definition"][1].update(surface="_"),
     "mention of FE 'Assailant': surface '_' gives no tokens"),
    (lambda r: r["definition"][3].update(surface=" "),
     "mention of FE 'Victim': surface ' ' gives no tokens"),
    (lambda r: r["fes"]["Victim"]["definition"].append({"fe": "Assailant", "surface": "_ _"}),
     "mention of FE 'Assailant': surface '_ _' gives no tokens"),
    (lambda r: _add_fe(r, "__"), "frame 'Attack2': FE name '__' gives no tokens"),
    (lambda r: _add_fe(r, ""), "frame 'Attack2': FE name '' gives no tokens"),
    (lambda r: r.update(name="_"), "frame name '_' gives no tokens"),
], ids=["underscore-surface", "space-surface", "fe-definition-surface", "underscore-fe",
        "empty-fe", "underscore-frame"])
def test_name_that_gives_no_tokens_is_refused(tmp_path, edit, message):
    # such a name would render as no tokens, and its slot end before its start
    bad = json.loads(json.dumps(ATTACK_RECORD))
    bad["name"] = "Attack2"
    edit(bad)
    path = tmp_path / "frames.jsonl"
    write_lines(path, [ATTACK_RECORD, bad])
    with pytest.raises(CorpusError, match=re.escape(f"frames.jsonl:2: {message}")):
        load_ontology(path)


@pytest.fixture
def attack_store(tmp_path):
    path = tmp_path / "frames.jsonl"
    write_lines(path, [ATTACK_RECORD])
    return load_ontology(path)


def test_load_instance(tmp_path, attack_store):
    path = tmp_path / "inst.jsonl"
    write_lines(path, [{
        "tokens": ["he", "was", "INVADING", "Iraq"],
        "target": 3,
        "frame": "Attack",
        "arguments": [
            {"fe": "Assailant", "start": 1, "end": 1},
            {"fe": "Victim", "start": 4, "end": 4},
        ],
    }])
    [inst] = load_instances(path, attack_store)
    assert inst.tokens == ("he", "was", "INVADING", "Iraq")
    assert inst.arguments == (Argument("Assailant", 1, 1), Argument("Victim", 4, 4))


def test_instance_without_arguments_is_accepted(tmp_path, attack_store):
    path = tmp_path / "inst.jsonl"
    write_lines(path, [{"tokens": ["go"], "target": 1, "frame": "Attack", "arguments": []}])
    [inst] = load_instances(path, attack_store)
    assert inst.arguments == ()


@pytest.mark.parametrize(
    "record, message",
    [
        ({"tokens": ["a"], "target": 1, "frame": "Attack",
          "arguments": [{"fe": "Victim", "start": 2, "end": 1}]}, "start <= end"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack",
          "arguments": [{"fe": "Victim", "start": 1, "end": 2}]}, "outside"),
        ({"tokens": ["a"], "target": 1, "frame": "Nope", "arguments": []}, "unknown frame"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack",
          "arguments": [{"fe": "Weapon", "start": 1, "end": 1}]}, "unknown FE"),
        ({"tokens": ["a"], "target": 2, "frame": "Attack", "arguments": []}, "target"),
        ({"tokens": ["a"], "target": True, "frame": "Attack", "arguments": []},
         "target True is not an integer"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack",
          "arguments": [{"fe": "Victim", "start": 1, "end": True}]}, "for FE 'Victim': need integers"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack", "arguments": 5},
         "'arguments' must be a list"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack", "arguments": [5]},
         "an argument must be a JSON object"),
        ({"tokens": ["a"], "target": 1, "frame": "Attack",
          "arguments": [{"fe": ["Victim"], "start": 1, "end": 1}]}, "unknown FE"),
    ],
)
def test_invalid_instances_rejected(tmp_path, attack_store, record, message):
    path = tmp_path / "inst.jsonl"
    write_lines(path, [record])
    with pytest.raises(CorpusError, match=message):
        load_instances(path, attack_store)


@pytest.mark.parametrize("tokens", [
    ["w"] * 100 + [5] + ["w"] * 99,
    ["w"] * 100 + [""] + ["w"] * 99,
    ["w"] * 100 + [None] + ["w"] * 99,
    ["w"] * 100 + [["w"]] + ["w"] * 99,
    [],
    "a b",
], ids=["number", "empty-string", "null", "list", "no-tokens", "not-a-list"])
def test_tokens_must_be_non_empty_strings(tmp_path, attack_store, tokens):
    path = tmp_path / "inst.jsonl"
    good = {"tokens": ["a"], "target": 1, "frame": "Attack", "arguments": []}
    write_lines(path, [good, dict(good, tokens=tokens)])
    with pytest.raises(CorpusError, match=r"inst.jsonl:2: instance needs a non-empty 'tokens' list "
                                          r"of non-empty strings"):
        load_instances(path, attack_store)


def test_duplicate_fe_keeps_leftmost_span_and_warns(tmp_path, attack_store, caplog):
    path = tmp_path / "inst.jsonl"
    write_lines(path, [{
        "tokens": ["a", "b", "c"], "target": 1, "frame": "Attack",
        "arguments": [
            {"fe": "Victim", "start": 3, "end": 3},
            {"fe": "Victim", "start": 2, "end": 2},
        ],
    }])
    with caplog.at_level("WARNING", logger="aged.corpus"):
        [inst] = load_instances(path, attack_store)
    assert inst.arguments == (Argument("Victim", 2, 2),)
    assert "duplicate FE" in caplog.text


def make_instances(frames_counts):
    out = []
    for frame, count in frames_counts.items():
        for i in range(count):
            out.append(AnnotatedInstance((f"w{i}",), 1, frame, ()))
    return out


def test_filter_examples():
    insts = make_instances({"Getting": 2, "Attack": 3})
    assert len(sample_k_shot(insts, {"Getting"}, 0, seed=1)) == 3
    assert sample_k_shot(insts, set(), 0, seed=1) == insts
    assert sample_k_shot(insts, {"Getting", "Attack"}, 0, seed=1) == []


@given(
    frames=st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=0, max_size=30),
    chosen=st.sets(st.sampled_from(["A", "B", "C", "D"])),
)
def test_keep_drop_partition(frames, chosen):
    insts = [AnnotatedInstance((f"w{i}",), 1, f, ()) for i, f in enumerate(frames)]
    kept = [i for i in sample_k_shot(insts, chosen, len(insts), seed=1) if i.frame in chosen]
    dropped = sample_k_shot(insts, chosen, 0, seed=1)
    assert sorted(kept + dropped, key=insts.index) == insts
    assert not set(map(id, kept)) & set(map(id, dropped))


@given(
    frames=st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=0, max_size=30),
    chosen=st.sets(st.sampled_from(["A", "B", "C", "D"])),
)
@example(frames=["Getting"] * 5 + ["Attack"] * 3, chosen={"Getting"})
def test_sample_k_shot_zero_equals_drop(frames, chosen):
    insts = [AnnotatedInstance((f"w{i}",), 1, f, ()) for i, f in enumerate(frames)]
    assert sample_k_shot(insts, chosen, 0, seed=1) == [i for i in insts if i.frame not in chosen]


def test_sample_k_shot_saturation():
    insts = make_instances({"Getting": 5})
    assert sample_k_shot(insts, {"Getting"}, 99, seed=1) == insts


def test_sample_k_shot_deterministic_32_of_100():
    insts = make_instances({"Getting": 100, "Attack": 7})
    first = sample_k_shot(insts, {"Getting"}, 32, seed=42)
    second = sample_k_shot(insts, {"Getting"}, 32, seed=42)
    assert first == second
    assert sum(1 for i in first if i.frame == "Getting") == 32
    assert sum(1 for i in first if i.frame == "Attack") == 7
    # a different seed picks a different subset of this size
    other = sample_k_shot(insts, {"Getting"}, 32, seed=43)
    assert len(other) == len(first)
    assert other != first


@given(
    counts=st.dictionaries(st.sampled_from(["A", "B", "C"]), st.integers(0, 12), min_size=1),
    k=st.integers(0, 6),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=60)
def test_sample_k_shot_caps_named_frames(counts, k, seed):
    insts = make_instances(counts)
    named = set(counts)
    sampled = sample_k_shot(insts, named, k, seed)
    assert sampled == sample_k_shot(insts, named, k, seed)
    for frame, count in counts.items():
        got = sum(1 for i in sampled if i.frame == frame)
        assert got == min(k, count)
