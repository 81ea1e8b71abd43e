import pytest
from hypothesis import given
from hypothesis import strategies as st

from aged.corpus import (
    CoreType,
    CorpusError,
    Frame,
    FrameElement,
    MarkedText,
    MentionSegment,
    TextSegment,
)
from aged.templates import (
    FRAME_CLOSE,
    FRAME_OPEN,
    MarkerOptions,
    ROLE_CLOSE,
    ROLE_OPEN,
    build_fe_template,
    build_frame_template,
    build_question_template,
    render_surface,
)


def make_frame(name, definition, fe_order, fe_defs=None):
    fe_defs = fe_defs or {}
    fes = {
        fe: FrameElement(fe, CoreType.CORE, fe_defs.get(fe, MarkedText((TextSegment("x"),))))
        for fe in fe_order
    }
    return Frame(name, definition, tuple(fe_order), fes)


def test_frame_template_appends_unmentioned_fes(store):
    template = build_frame_template(store.frame("Attack"))
    assert template.slot_fes == ("Assailant", "Victim", "Purpose", "Weapon")
    # Weapon comes after the second separator, i.e. in the FE list part
    sep_positions = [i for i, t in enumerate(template.tokens) if t == "|"]
    weapon_slot = next(s for s in template.slots if s.fe == "Weapon")
    assert weapon_slot.start > sep_positions[1]


def test_frame_template_no_mentions_lists_all_fes():
    frame = make_frame("F", MarkedText((TextSegment("nothing here"),)), ["A", "B"])
    template = build_frame_template(frame)
    assert template.slot_fes == ("A", "B")
    assert render_surface(template).endswith("| <r> A </r> , <r> B </r>")


def test_leftmost_mention_wins(store):
    # the Attack definition mentions Assailant twice
    frame = store.frame("Attack")
    mentions = [
        seg for seg in frame.definition.segments
        if isinstance(seg, MentionSegment) and seg.fe == "Assailant"
    ]
    assert len(mentions) == 2
    template = build_frame_template(frame)
    slots = [s for s in template.slots if s.fe == "Assailant"]
    assert len(slots) == 1
    victim = next(s for s in template.slots if s.fe == "Victim")
    assert slots[0].start < victim.start


def test_empty_definition_still_has_name_and_list():
    frame = make_frame("Empty_def", MarkedText(()), ["A"])
    template = build_frame_template(frame)
    assert render_surface(template) == "<f> Empty def </f> | | <r> A </r>"
    assert template.slot_fes == ("A",)


def test_fe_template_focus_and_related(store):
    template = build_fe_template(store.frame("Attack"), "Assailant")
    assert template.slot_fes == ("Assailant", "Victim")
    # focus slot is the header mention, before the second separator
    sep_positions = [i for i, t in enumerate(template.tokens) if t == "|"]
    assert template.slots[0].start < sep_positions[1]


def test_fe_template_without_related_fes(store):
    template = build_fe_template(store.frame("Getting"), "Theme")
    assert template.slot_fes == ("Theme",)


def test_fe_template_focus_re_mention_keeps_header_slot(store):
    # the Victim definition mentions Victim again in its body
    template = build_fe_template(store.frame("Attack"), "Victim")
    focus_slots = [s for s in template.slots if s.fe == "Victim"]
    assert len(focus_slots) == 1
    sep_positions = [i for i, t in enumerate(template.tokens) if t == "|"]
    assert focus_slots[0].start < sep_positions[1]


def test_fe_template_unknown_fe(store):
    with pytest.raises(CorpusError, match="no FE"):
        build_fe_template(store.frame("Attack"), "Defender")


def test_question_template_surface(store):
    attack = store.frame("Attack")
    q = build_question_template(attack, "Assailant")
    assert render_surface(q) == "What's <r> Assailant </r> of <f> Attack </f> ?"
    assert render_surface(build_question_template(attack, "Victim")) == (
        "What's <r> Victim </r> of <f> Attack </f> ?"
    )
    assert q.slot_fes == ("Assailant",)


def test_question_template_without_markers(store):
    opts = MarkerOptions(label_markers=False)
    q = build_question_template(store.frame("Attack"), "Assailant", opts)
    assert render_surface(q) == "What's Assailant of Attack ?"
    [slot] = q.slots
    assert q.tokens[slot.start : slot.end + 1] == ("Assailant",)


def test_marker_suppression_preserves_slot_surfaces(store):
    opts = MarkerOptions(label_markers=False)
    for frame in store:
        with_markers = build_frame_template(frame)
        without = build_frame_template(frame, opts)
        assert FRAME_OPEN not in without.tokens and ROLE_OPEN not in without.tokens
        surfaces = {
            s.fe: with_markers.tokens[s.start : s.end + 1] for s in with_markers.slots
        }
        for slot in without.slots:
            assert without.tokens[slot.start : slot.end + 1] == surfaces[slot.fe]


def test_templates_are_pure(store):
    frame = store.frame("Arriving")
    assert build_frame_template(frame) == build_frame_template(frame)
    assert build_fe_template(frame, "Goal") == build_fe_template(frame, "Goal")


def test_underscored_names_tokenize_to_words(store):
    template = build_frame_template(store.frame("Transition_to_state"))
    assert "Transition" in template.tokens and "state" in template.tokens
    final = next(s for s in template.slots if s.fe == "Final_state")
    assert template.tokens[final.start : final.end + 1] == ("Final", "state")


def marker_balance(tokens, open_tok, close_tok):
    depth = 0
    for t in tokens:
        if t == open_tok:
            depth += 1
            if depth > 1:
                return False
        elif t == close_tok:
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def all_templates(store):
    for frame in store:
        yield build_frame_template(frame)
        for fe in frame.fe_order:
            yield build_fe_template(frame, fe)
            yield build_question_template(frame, fe)


def test_markers_balanced_and_unnested_everywhere(store):
    for template in all_templates(store):
        assert marker_balance(template.tokens, ROLE_OPEN, ROLE_CLOSE)
        assert marker_balance(template.tokens, FRAME_OPEN, FRAME_CLOSE)


def test_slots_lie_inside_role_markers(store):
    for template in all_templates(store):
        for slot in template.slots:
            assert template.tokens[slot.start - 1] == ROLE_OPEN
            assert template.tokens[slot.end + 1] == ROLE_CLOSE
            span = template.tokens[slot.start : slot.end + 1]
            assert ROLE_OPEN not in span and ROLE_CLOSE not in span


def test_frame_template_completeness_over_store(store):
    # exactly one slot per FE, and never both a definition mention and a list entry
    for frame in store:
        template = build_frame_template(frame)
        assert sorted(template.slot_fes) == sorted(frame.fe_order)
        sep_positions = [i for i, t in enumerate(template.tokens) if t == "|"]
        list_fes = {s.fe for s in template.slots if s.start > sep_positions[1]}
        assert list_fes == set(frame.fe_order) - set(frame.definition.mentioned_fes())


@given(
    mentioned=st.lists(st.sampled_from(["A", "B", "C", "D", "E"]), max_size=8),
    extra=st.sets(st.sampled_from(["A", "B", "C", "D", "E"])),
)
def test_frame_template_slots_match_fe_order_property(mentioned, extra):
    fe_order = sorted(set(mentioned) | extra)
    if not fe_order:
        fe_order = ["A"]
    segments = []
    for fe in mentioned:
        segments.append(TextSegment("the "))
        segments.append(MentionSegment(fe, fe))
    frame = make_frame("F", MarkedText(tuple(segments)), fe_order)
    template = build_frame_template(frame)
    assert sorted(template.slot_fes) == fe_order
    # leftmost rule: slot order of mentioned FEs follows first-mention order
    first_mention = {fe: i for i, fe in reversed(list(enumerate(mentioned)))}
    mentioned_slots = [fe for fe in template.slot_fes if fe in first_mention]
    assert mentioned_slots == sorted(first_mention, key=first_mention.get)
