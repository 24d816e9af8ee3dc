import json

import pytest

from bioforge.schema import (
    DatasetDescriptor,
    DialogueTurn,
    EntityMention,
    EventFrame,
    Language,
    QAInstance,
    Registry,
    TaskType,
    TextPairInstance,
    TranslationPair,
    UnifiedDocument,
    from_dict,
    to_dict,
    validate_document,
    write_jsonl,
)
from bioforge.synth import (
    make_ner_docs,
    make_qa_mc_docs,
    make_re_docs,
    make_tc_docs,
    ner_descriptor,
)


def test_task_taxonomy_has_exactly_15_types():
    assert len(TaskType) == 15


def test_unknown_task_tag_rejected():
    with pytest.raises(ValueError):
        TaskType("summarization")


def make_ner_doc(text="Title of doc", entities=()):
    return UnifiedDocument(
        doc_id="d1", dataset_id="ds", language=Language.EN, text=text,
        entities=tuple(entities),
    )


@pytest.fixture
def ner_desc():
    return DatasetDescriptor(
        id="ds", name="ds", task=TaskType.NER_NEN, language=Language.EN,
        label_vocab=("Disease",),
    )


def test_validate_ok_with_correct_span(ner_desc):
    doc = make_ner_doc("Title of doc", [EntityMention("Title", "Disease", 0, 5)])
    assert validate_document(doc, ner_desc).ok


def test_validate_rejects_out_of_bounds_span(ner_desc):
    doc = make_ner_doc("short", [EntityMention("shortish", "Disease", 0, 8)])
    result = validate_document(doc, ner_desc)
    assert not result.ok
    assert any("out of bounds" in v for v in result.violations)


def test_validate_rejects_surface_mismatch(ner_desc):
    doc = make_ner_doc("Title of doc", [EntityMention("Другой", "Disease", 0, 6)])
    result = validate_document(doc, ner_desc)
    assert not result.ok


def test_validate_rejects_payload_task_mismatch(ner_desc):
    doc = UnifiedDocument(
        doc_id="d1", dataset_id="ds", language=Language.EN, text="x",
        qa=QAInstance(question="q", options=(("A", "a"),), answer_keys=("A",)),
    )
    result = validate_document(doc, ner_desc)
    assert any("payload/task mismatch" in v for v in result.violations)


def test_validate_qa_mc_answer_keys_must_be_option_keys():
    desc = DatasetDescriptor(id="qa", name="qa", task=TaskType.QA_MC, language=Language.EN)
    doc = UnifiedDocument(
        doc_id="d1", dataset_id="qa", language=Language.EN, text="",
        qa=QAInstance(question="q", options=(("A", "x"), ("B", "y")), answer_keys=("C",)),
    )
    result = validate_document(doc, desc)
    assert any("answer key" in v for v in result.violations)


def test_validate_is_deterministic(ner_desc):
    doc = make_ner_doc("Title of doc", [EntityMention("Title", "Disease", 0, 5)])
    assert validate_document(doc, ner_desc) == validate_document(doc, ner_desc)


PAYLOADS = ("events", "dialogue", "pair", "translation")


def make_payload_docs(n, seed=0):
    """Documents carrying the ``PAYLOADS[seed]`` payload."""
    docs = []
    for i in range(n):
        base = dict(doc_id=f"d{i}", dataset_id="ds", language=Language.ZH if i % 2 else Language.EN,
                    text=f"aspirin treats gout {i}")
        kind = PAYLOADS[seed]
        if kind == "events":
            events = (EventFrame("Treatment", "treats", (("Drug", "aspirin"), ("Disease", "gout"))),
                      EventFrame("Other", "", ()))
            docs.append(UnifiedDocument(**base, entities=(EntityMention("aspirin", "Chemical", 0, 7, "D001"),),
                                        events=events))
        elif kind == "dialogue":
            turns = tuple(DialogueTurn("user" if j % 2 == 0 else "assistant", f"turn {j}") for j in range(i % 4 + 1))
            docs.append(UnifiedDocument(**base, dialogue=turns))
        elif kind == "pair":
            docs.append(UnifiedDocument(**base, pair=TextPairInstance("a", "b", None if i % 3 else "similar")))
        else:
            docs.append(UnifiedDocument(**base, translation=TranslationPair(
                "aspirin", "阿司匹林", Language.ZH if i % 3 else Language.EN, Language.EN)))
    return None, docs


@pytest.mark.parametrize("maker,seed", [
    (make_ner_docs, 0), (make_re_docs, 1), (make_tc_docs, 2), (make_qa_mc_docs, 3),
    (make_payload_docs, 0), (make_payload_docs, 1), (make_payload_docs, 2), (make_payload_docs, 3),
])
def test_document_json_round_trip(maker, seed):
    _, docs = maker(25, seed=seed)
    for doc in docs:
        assert from_dict(UnifiedDocument, json.loads(json.dumps(to_dict(doc)))) == doc


def test_zh_offsets_are_code_points():
    desc = ner_descriptor("zh-ner", Language.ZH)
    doc = UnifiedDocument(
        doc_id="d1", dataset_id="zh-ner", language=Language.ZH,
        text="患者服用青霉素后好转",
        entities=(EntityMention("青霉素", "药物", 4, 7),),
    )
    assert validate_document(doc, desc).ok


def test_descriptor_round_trip_and_negative_counts():
    desc = DatasetDescriptor(
        id="x", name="X", task=TaskType.RE, language=Language.ZH,
        split_counts={"train": 10, "test": 2}, label_vocab=("并发症",),
        re_untyped=True, prompted_relation="并发症",
    )
    assert from_dict(DatasetDescriptor, to_dict(desc)) == desc
    bad = to_dict(desc)
    bad["split_counts"]["train"] = -1
    with pytest.raises(ValueError):
        Registry([from_dict(DatasetDescriptor, bad)])


def test_registry_rejects_duplicate_ids():
    desc = DatasetDescriptor(id="x", name="X", task=TaskType.TC, language=Language.EN)
    registry = Registry([desc])
    with pytest.raises(ValueError):
        registry.add(desc)


def test_registry_file_round_trip(tmp_path):
    desc = DatasetDescriptor(
        id="x", name="X", task=TaskType.TC, language=Language.EN,
        split_counts={"train": 3}, label_vocab=("A", "B"),
    )
    registry = Registry([desc])
    path = tmp_path / "registry.jsonl"
    registry.save(path)
    assert list(Registry.load(path)) == [desc]


def test_write_jsonl_failing_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"n": 0}])
    before = path.read_bytes()

    def records():
        yield {"n": 1}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_jsonl(path, records())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
