import pytest

from aged.corpus import AnnotatedInstance, Argument
from aged.encoding import (
    CLS_TOKEN,
    PairTooLongError,
    RESERVED_TOKENS,
    SEP_TOKEN,
    UNK_ID,
    Vocabulary,
    assemble,
    build_vocabulary,
    gold_labels,
)
from aged.corpus import FrameStore
from aged.templates import (
    MarkerOptions,
    build_fe_template,
    build_frame_template,
    build_question_template,
)


def test_empty_corpus_vocabulary_is_reserved_only():
    vocab = build_vocabulary([], FrameStore())
    assert vocab.tokens == list(RESERVED_TOKENS)
    assert len(vocab) == 10


def test_reserved_ids_are_fixed(vocab):
    for i, tok in enumerate(RESERVED_TOKENS):
        assert vocab.index[tok] == i


def test_repeated_token_gets_single_id(store):
    inst = AnnotatedInstance(("hello", "hello"), 1, "Attack", ())
    vocab = build_vocabulary([inst], FrameStore())
    assert vocab.tokens.count("hello") == 1


def test_unseen_token_encodes_to_unk(vocab):
    assert vocab.encode(["zyzzyva"]) == (UNK_ID,)


def test_vocabulary_round_trip(vocab, tmp_path):
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == vocab.tokens


def test_assemble_layout_with_target_markers(store, vocab):
    inst = AnnotatedInstance(("he", "was", "invading", "iraq"), 3, "Attack", ())
    template = build_frame_template(store.frame("Attack"))
    pair = assemble(inst, template, vocab)
    text = [vocab.tokens[i] for i in pair.ids[: len(inst.tokens) + 4]]
    assert text == ["[CLS]", "he", "was", "<t>", "invading", "</t>", "iraq", "[SEP]"]
    assert pair.sentence_pos == (1, 2, 4, 6)


def test_assemble_layout_without_target_markers(store, vocab):
    inst = AnnotatedInstance(("he", "was", "invading", "iraq"), 3, "Attack", ())
    template = build_frame_template(store.frame("Attack"))
    pair = assemble(inst, template, vocab, MarkerOptions(target_markers=False))
    text = [vocab.tokens[i] for i in pair.ids[: len(inst.tokens) + 2]]
    assert text == ["[CLS]", "he", "was", "invading", "iraq", "[SEP]"]
    assert pair.sentence_pos == (1, 2, 3, 4)


@pytest.mark.parametrize("target", [1, 2, 4])
def test_assemble_target_at_either_end(store, vocab, target):
    inst = AnnotatedInstance(("he", "was", "invading", "iraq"), target, "Attack", ())
    template = build_frame_template(store.frame("Attack"))
    pair = assemble(inst, template, vocab)
    words = [vocab.tokens[pair.ids[p]] for p in pair.sentence_pos]
    assert words == list(inst.tokens)
    text = [vocab.tokens[i] for i in pair.ids[: len(inst.tokens) + 4]]
    assert text[pair.sentence_pos[target - 1] - 1 : pair.sentence_pos[target - 1] + 2] == [
        "<t>", inst.tokens[target - 1], "</t>"]
    assert pair.definition_start == 8


def test_assemble_single_token_sentence(store, vocab):
    inst = AnnotatedInstance(("attack",), 1, "Attack", ())
    pair = assemble(inst, build_frame_template(store.frame("Attack")), vocab)
    assert pair.sentence_pos == (2,)  # [CLS] <t> w </t> ...


def test_assemble_has_two_seps_splitting_segments(store, vocab, train_instances):
    template = build_frame_template(store.frame(train_instances[0].frame))
    pair = assemble(train_instances[0], template, vocab)
    sep_id = vocab.index[SEP_TOKEN]
    sep_positions = [i for i, t in enumerate(pair.ids) if t == sep_id]
    assert len(sep_positions) == 2
    assert sep_positions[1] == len(pair.ids) - 1
    assert pair.definition_start == sep_positions[0] + 1


def test_index_maps_point_at_the_right_tokens(store, vocab, train_instances):
    for inst in train_instances:
        frame = store.frame(inst.frame)
        template = build_frame_template(frame)
        pair = assemble(inst, template, vocab)
        for i, w in enumerate(inst.tokens, start=1):
            assert pair.ids[pair.sentence_pos[i - 1]] == vocab.index[w]
        for slot, (start, end) in zip(template.slots, pair.slot_pos):
            expected = [vocab.index[t] for t in template.tokens[slot.start : slot.end + 1]]
            assert list(pair.ids[start : end + 1]) == expected
            assert pair.definition_start <= start


def test_target_markers_balanced_and_adjacent(store, vocab, train_instances):
    from aged.templates import TARGET_CLOSE, TARGET_OPEN

    open_id, close_id = vocab.index[TARGET_OPEN], vocab.index[TARGET_CLOSE]
    for inst in train_instances:
        template = build_frame_template(store.frame(inst.frame))
        marked = assemble(inst, template, vocab)
        assert marked.ids.count(open_id) == 1
        assert marked.ids.count(close_id) == 1
        target_pos = marked.sentence_pos[inst.target - 1]
        assert marked.ids[target_pos - 1] == open_id
        assert marked.ids[target_pos + 1] == close_id
        plain = assemble(inst, template, vocab, MarkerOptions(target_markers=False))
        assert plain.ids.count(open_id) == 0
        assert plain.ids.count(close_id) == 0


def test_frame_mismatch_rejected(store, vocab):
    inst = AnnotatedInstance(("go",), 1, "Attack", ())
    with pytest.raises(ValueError, match="Attack"):
        assemble(inst, build_frame_template(store.frame("Getting")), vocab)


def test_overlong_pair_rejected(store, vocab):
    inst = AnnotatedInstance(("w",) * 50, 1, "Attack", ())
    with pytest.raises(PairTooLongError):
        assemble(inst, build_frame_template(store.frame("Attack")), vocab, max_len=40)


def test_gold_labels_frame_def(store):
    inst = AnnotatedInstance(
        ("he", "was", "INVADING", "Iraq"), 3, "Attack",
        (Argument("Assailant", 1, 1), Argument("Victim", 4, 4)),
    )
    template = build_frame_template(store.frame("Attack"))
    assert gold_labels(inst, template) == [(1, 1), (4, 4), (0, 0), (0, 0)]


def test_gold_labels_all_empty(store):
    inst = AnnotatedInstance(("stop", "attacking"), 2, "Attack", ())
    template = build_frame_template(store.frame("Attack"))
    assert gold_labels(inst, template) == [(0, 0)] * 4


def brute_force_label(instance, fe):
    for arg in instance.arguments:
        if arg.fe == fe:
            return (arg.start, arg.end)
    return (0, 0)


def test_gold_labels_fe_def_matches_scan_oracle(store):
    inst = AnnotatedInstance(
        ("he", "was", "INVADING", "Iraq"), 3, "Attack",
        (Argument("Assailant", 1, 1), Argument("Victim", 4, 4)),
    )
    template = build_fe_template(store.frame("Attack"), "Assailant")
    labels = gold_labels(inst, template)
    assert labels == [(1, 1), (4, 4)]
    assert labels == [brute_force_label(inst, s.fe) for s in template.slots]


def test_gold_labels_total_over_corpus(store, train_instances):
    for inst in train_instances:
        frame = store.frame(inst.frame)
        for template in (
            build_frame_template(frame),
            build_question_template(frame, frame.fe_order[0]),
        ):
            labels = gold_labels(inst, template)
            assert len(labels) == len(template.slots)
            for s, e in labels:
                assert (s, e) == (0, 0) or 1 <= s <= e <= len(inst.tokens)
