import ast
import json
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from bioforge.evaluation import PredictionRecord
from bioforge.schema import (
    DatasetDescriptor,
    DialogueTurn,
    EntityMention,
    EventFrame,
    InstructionInstance,
    Language,
    QAInstance,
    Registry,
    RelationTriple,
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
from bioforge.templates import InstructionTemplate


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


def conforms(value, hint) -> bool:
    """Whether ``value`` is exactly of the type ``hint`` describes, walked
    independently of the codec: a record's fields recursively, each tuple
    item and dict value, and no bool where an int belongs."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]
        return value is None or conforms(value, args[0])
    if origin is tuple and args[-1] is Ellipsis:
        return type(value) is tuple and all(conforms(x, args[0]) for x in value)
    if origin is tuple:
        return type(value) is tuple and len(value) == len(args) and all(map(conforms, value, args))
    if origin is dict:
        return type(value) is dict and all(type(k) is str and conforms(v, args[1]) for k, v in value.items())
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        return type(value) is hint and all(conforms(getattr(value, f.name), hints[f.name]) for f in fields(hint))
    return type(value) is hint  # str, int, float, bool or an enum


# every record class read from a file, then those nested in a document
DECODED = (UnifiedDocument, InstructionInstance, PredictionRecord, DatasetDescriptor, InstructionTemplate,
           EntityMention, RelationTriple, EventFrame, QAInstance, DialogueTurn, TextPairInstance, TranslationPair)
FIELD_NAMES = sorted({f.name for cls in DECODED for f in fields(cls)})
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(FIELD_NAMES), kids, max_size=4),
    max_leaves=10,
)


# Fields whose record checks a rule beyond the field's type, drawn within
# that rule: the record rejects a well-typed value outside it by design.
WITHIN_RULES = {
    DatasetDescriptor: {"split_counts": st.dictionaries(st.text(max_size=3), st.integers(0, 30), max_size=3),
                        "stage_override": st.sampled_from([None, "Type1", "Type2"])},
}


def json_for(hint, noise: bool):
    """JSON values of the type ``hint``; with ``noise``, each record field may
    instead hold any JSON value, and a fixed-size tuple any number of items."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return st.none() | json_for(args[0], noise)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(json_for(args[0], noise), max_size=3)
    if origin is tuple:
        items = st.tuples(*(json_for(a, noise) for a in args)).map(list)
        return items | st.lists(json_for(args[0], noise), max_size=3) if noise else items
    if origin is dict:
        return st.dictionaries(st.text(max_size=3), json_for(args[1], noise), max_size=3)
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        ruled = WITHIN_RULES.get(hint, {})
        value = {f.name: ruled[f.name] if f.name in ruled else json_for(hints[f.name], noise)
                 for f in fields(hint)}
        if noise:
            value = {name: typed | ANY_JSON for name, typed in value.items()}
        required = [f.name for f in fields(hint) if f.default is MISSING and f.default_factory is MISSING]
        return st.fixed_dictionaries({name: value[name] for name in required},
                                     optional={n: v for n, v in value.items() if n not in required})
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from([m.value for m in hint])
    return {str: st.text(max_size=5), int: st.integers(-3, 30), bool: st.booleans()}[hint]


@pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_decoding_any_json_gives_a_well_typed_record_or_value_error(cls, data):
    kind = data.draw(st.sampled_from(["well_typed", "noisy", "any"]))
    value = data.draw(ANY_JSON if kind == "any" else json_for(cls, noise=kind == "noisy"))
    try:
        record = from_dict(cls, value)
    except ValueError:
        assert kind != "well_typed"
        return
    assert conforms(record, cls)
    assert from_dict(cls, json.loads(json.dumps(to_dict(record)))) == record


@pytest.mark.parametrize("cls,value,message", [
    (UnifiedDocument, [], "expected UnifiedDocument, got []"),
    (DialogueTurn, {"speaker": "user"}, "DialogueTurn.text: required key missing"),
    (EntityMention, {"surface": "a", "etype": "X", "start": True, "end": 1},
     "EntityMention.start: expected int, got True"),
    (QAInstance, {"question": "q", "options": [["A", "a"], ["B"]]},
     "QAInstance.options: expected list of 2, got ['B']"),
    (QAInstance, {"question": "q", "answer_keys": "AB"}, "QAInstance.answer_keys: expected list, got 'AB'"),
    (TranslationPair, {"text_a": "a", "text_b": "b", "source_lang": "fr"},
     "TranslationPair.source_lang: expected Language, got 'fr'"),
    (EventFrame, {"event_type": "E", "trigger": "t", "arguments": [["r", 1]]},
     "EventFrame.arguments: expected str, got 1"),
])
def test_mistyped_value_is_named_by_class_and_field(cls, value, message):
    with pytest.raises(ValueError) as exc:
        from_dict(cls, value)
    assert str(exc.value) == message


def test_absent_factory_default_is_not_shared_between_records():
    row = {"id": "x", "name": "X", "task": "TC", "language": "en"}
    a, b = from_dict(DatasetDescriptor, row), from_dict(DatasetDescriptor, row)
    assert a.split_counts == {} and a.split_counts is not b.split_counts


SRC = Path(__file__).resolve().parent.parent / "src" / "bioforge"


def codec_references(tree: ast.AST, scope=None):
    """The innermost enclosing function's name (None at module level) for
    each reference to ``from_dict`` or ``_decoder`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from codec_references(node, node.name)
            continue
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in ("from_dict", "_decoder"):
            yield scope
        yield from codec_references(node, scope)


def test_records_are_decoded_only_by_the_schema_readers_and_jsonl_ingest():
    """Every record file is read through ``schema.read_jsonl`` or
    ``read_json``, whose errors name the file and line; only generic JSONL
    ingest decodes a row itself, so that a bad row costs only that row."""
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in codec_references(ast.parse(path.read_text(encoding="utf-8")))}
    assert {name for name, _ in found} == {"schema.py", "ingest.py"}
    assert {scope for name, scope in found if name == "ingest.py"} == {"_parse_jsonl"}
