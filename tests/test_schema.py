import __future__
import ast
import collections.abc
import dataclasses
import importlib
import inspect
import json
import pkgutil
import sys
import textwrap
from array import array
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path
from types import FunctionType
from typing import Optional, Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import bioforge
from bioforge.evaluation import PredictionRecord
from bioforge.schema import (
    DatasetDescriptor,
    DialogueTurn,
    EntityMention,
    EventFrame,
    InstructionInstance,
    Language,
    LineSpans,
    QAInstance,
    Registry,
    RelationTriple,
    TaskType,
    TextPairInstance,
    TranslationPair,
    UnifiedDocument,
    asdict,
    atomic_writer,
    copy_lines,
    first_rows,
    from_dict,
    read_jsonl,
    replace,
    to_dict,
    validate_document,
    write_jsonl,
    write_records,
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


def test_validate_rejects_an_empty_doc_id(ner_desc):
    doc = UnifiedDocument(doc_id="", dataset_id="ds", language=Language.EN, text="x")
    assert validate_document(doc, ner_desc).violations == ("doc_id: must be non-empty",)


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


@pytest.mark.parametrize("task, options, answer_keys, violation", [
    (TaskType.QA_MC, (("A", "x"), ("B", "y")), ("C",), "qa: answer key 'C' not among option keys"),
    # no answer key: the gold output would be empty, and every prediction would score incorrect
    (TaskType.QA_MC, (("A", "x"), ("B", "y")), (), "qa: answer_keys must be non-empty"),
    (TaskType.QA_SQA, None, (), "qa: answer_keys must be non-empty"),
    (TaskType.QA_CQA, None, (), "qa: answer_keys must be non-empty"),
    (TaskType.QA_SQA, None, ("yes", ""), "qa: answer key '' is blank"),
    (TaskType.QA_CQA, None, (" \t",), "qa: answer key ' \\t' is blank"),
])
def test_validate_qa_mc_answer_keys_must_be_option_keys(task, options, answer_keys, violation):
    desc = DatasetDescriptor(id="qa", name="qa", task=task, language=Language.EN)
    doc = UnifiedDocument(
        doc_id="d1", dataset_id="qa", language=Language.EN, text="",
        qa=QAInstance(question="q", options=options, answer_keys=answer_keys),
    )
    assert validate_document(doc, desc).violations == (violation,)


USER_ONLY = (DialogueTurn("user", "hi"),)


@pytest.mark.parametrize("task, payload, violation", [
    # a task's gold output: the last assistant turn, the pair's label
    (TaskType.MRD, dict(dialogue=USER_ONLY), "dialogue: needs at least one assistant turn"),
    (TaskType.MRD, dict(dialogue=()), "dialogue: needs at least one assistant turn"),
    (TaskType.TP_SS, dict(pair=TextPairInstance("a", "b")), "pair: label must be non-blank for task TP-ss"),
    (TaskType.TP_TE, dict(pair=TextPairInstance("a", "b", label=" ")), "pair: label must be non-blank for task TP-te"),
    # the prompt: the question, after the context if one is given
    (TaskType.QA_SQA, dict(qa=QAInstance(question="", answer_keys=("yes",))),
     "qa: question must be non-blank unless a context is given"),
    (TaskType.QA_MC, dict(qa=QAInstance(question=" ", options=(("A", "a"),), answer_keys=("A",), context="")),
     "qa: question must be non-blank unless a context is given"),
])
def test_validate_rejects_a_document_without_gold_output_or_prompt(task, payload, violation):
    desc = DatasetDescriptor(id="ds", name="ds", task=task, language=Language.EN)
    doc = UnifiedDocument(doc_id="d1", dataset_id="ds", language=Language.EN, text="", **payload)
    assert validate_document(doc, desc).violations == (violation,)


@pytest.mark.parametrize("task, payload", [
    (TaskType.MRD, dict(dialogue=(*USER_ONLY, DialogueTurn("assistant", "hello"), *USER_ONLY))),
    (TaskType.TT_DS, dict(pair=TextPairInstance("a", "b"))),  # a text-to-text pair has no label
    (TaskType.QA_CQA, dict(qa=QAInstance(question="", answer_keys=("yes",), context="c"))),
])
def test_validate_accepts_a_document_with_gold_output_and_prompt(task, payload):
    desc = DatasetDescriptor(id="ds", name="ds", task=task, language=Language.EN)
    doc = UnifiedDocument(doc_id="d1", dataset_id="ds", language=Language.EN, text="", **payload)
    assert validate_document(doc, desc).violations == ()


@pytest.mark.parametrize("task, doc_fields, violation", [
    (TaskType.NER_NEN, dict(dataset_id="other"), "dataset_id: 'other' does not match registry row 'ds'"),
    (TaskType.NER_NEN, dict(language=Language.ZH), "language: document zh vs dataset en"),
    (TaskType.NER_NEN, dict(entities=(EntityMention("", "Disease", 3, 3),)),
     "entities: span [3,3) is not a valid range"),
    (TaskType.RE, dict(relations=(RelationTriple("", "gout", "treats"),)),
     "relations: head and tail must be non-empty"),
    (TaskType.RE, dict(relations=(RelationTriple("aspirin", "fever", "treats"),)),
     "relations: argument 'fever' not among entity surfaces or in text"),
    (TaskType.EE, dict(events=(EventFrame("Treat", "eases", (("Theme", "gout"),)),)),
     "events: role 'Theme' not in declared role vocabulary"),
])
def test_validate_names_the_rule_a_document_breaks(task, doc_fields, violation):
    desc = DatasetDescriptor(id="ds", name="ds", task=task, language=Language.EN, role_vocab=("Agent",))
    doc = UnifiedDocument(**{"doc_id": "d1", "dataset_id": "ds", "language": Language.EN,
                             "text": "aspirin eases gout", **doc_fields})
    assert validate_document(doc, desc).violations == (violation,)


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


@pytest.mark.parametrize("vocab, bad", [
    (("A", ""), "''"),
    (("A", " B"), "' B'"),
    (("A", "B\t"), "'B\\t'"),
    (("a", "B", "A"), "'a', 'A'"),
    (("B", "B"), "'B', 'B'"),
    (("x", " X"), "'x', ' X'"),
])
def test_label_vocab_entries_must_read_back_as_themselves(vocab, bad):
    """The parsers look an entry up by its trimmed, lower-cased text: an
    empty entry, one with edge whitespace, or two equal that way would read
    back as another entry, or never."""
    for task in (TaskType.NER_NEN, TaskType.RE, TaskType.TC):
        with pytest.raises(ValueError) as exc:
            DatasetDescriptor(id="x", name="X", task=task, language=Language.EN, label_vocab=vocab)
        assert str(exc.value) == ("dataset 'x': label_vocab entries must be non-empty, trimmed and distinct "
                                  f"ignoring case, got {bad}")
    DatasetDescriptor(id="x", name="X", task=TaskType.TC, language=Language.EN, label_vocab=("a b", "A c", "ß"))


def test_untyped_re_row_needs_an_implied_relation():
    """An untyped pair takes the prompted relation, else the vocabulary's
    only entry; a row with neither would forge gold that eval cannot read."""
    row = dict(id="x", name="X", task=TaskType.RE, language=Language.EN, re_untyped=True)
    for vocab in ((), ("CID", "treats")):
        with pytest.raises(ValueError) as exc:
            DatasetDescriptor(**row, label_vocab=vocab)
        assert str(exc.value) == ("dataset 'x': re_untyped needs a prompted_relation or one label_vocab "
                                  f"entry, got {len(vocab)}")
        DatasetDescriptor(**row, label_vocab=vocab, prompted_relation="CID")
        DatasetDescriptor(**{**row, "task": TaskType.NER_NEN}, label_vocab=vocab)  # no pairs to type
    DatasetDescriptor(**row, label_vocab=("CID",))


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


def test_atomic_writer_failing_removes_the_directories_it_made(tmp_path):
    (tmp_path / "kept").mkdir()
    with pytest.raises(RuntimeError):
        with atomic_writer(tmp_path / "kept" / "a" / "b" / "out.jsonl") as f:
            f.write("partial")
            raise RuntimeError("interrupted")
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == ["kept"]


def test_atomic_writer_failing_keeps_a_made_directory_another_file_is_in(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_writer(tmp_path / "a" / "b" / "out.jsonl"):
            (tmp_path / "a" / "other.txt").write_text("x")
            raise RuntimeError("interrupted")
    assert [p.relative_to(tmp_path).as_posix() for p in sorted(tmp_path.rglob("*"))] == ["a", "a/other.txt"]


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
    # re_untyped: an untyped RE row also needs a prompted relation or a one-entry vocabulary;
    # label_vocab: entries non-empty, trimmed and distinct ignoring case
    DatasetDescriptor: {"split_counts": st.dictionaries(st.text(max_size=3), st.integers(0, 30), max_size=3),
                        "stage_override": st.sampled_from([None, "Type1", "Type2"]),
                        "re_untyped": st.just(False),
                        "label_vocab": st.lists(st.text(max_size=5).map(str.strip).filter(bool), max_size=3,
                                                unique_by=str.lower)},
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


# every decoded class without a rule check, so with a projection
PROJECTABLE = tuple(cls for cls in DECODED if not hasattr(cls, "__post_init__"))


@pytest.mark.parametrize("cls", PROJECTABLE, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_projection_checks_every_field_and_gives_the_named_values(tmp_path_factory, cls, data):
    """A projection raises the error the record's decode raises, whichever
    field it names; otherwise it gives the named fields of that record."""
    value = data.draw(json_for(cls, noise=data.draw(st.booleans())))
    keep = tuple(data.draw(st.lists(st.sampled_from([f.name for f in fields(cls)]), min_size=1, unique=True)))
    path = tmp_path_factory.getbasetemp() / "projection.jsonl"
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")
    try:
        record = from_dict(cls, value)
    except ValueError as exc:
        with pytest.raises(ValueError) as projected:
            list(read_jsonl(path, cls, fields=keep))
        assert str(projected.value) == f"{path}:1: {exc}"
        return
    assert list(read_jsonl(path, cls, fields=keep)) == [tuple(getattr(record, name) for name in keep)]


def test_projection_tuple_follows_the_order_of_fields(tmp_path):
    inst = InstructionInstance(instance_id="i", dataset_id="ds", task=TaskType.TC, language=Language.ZH,
                               template_id="t", instruction="q", input="x", output="o", source_doc_id="d")
    path = tmp_path / "forged.jsonl"
    write_records(path, [inst])
    assert list(read_jsonl(path, InstructionInstance, fields=("output", "instance_id", "task"))) == \
        [("o", "i", TaskType.TC)]
    spans = LineSpans()
    assert list(read_jsonl(path, InstructionInstance, spans=spans, fields=["dataset_id"])) == [("ds",)]
    assert spans == LineSpans([str(path)], [1], array("q", [0]), array("q", [path.stat().st_size - 1]))


@pytest.mark.parametrize("cls,keep,message", [
    (DatasetDescriptor, ("id",), "DatasetDescriptor checks rules in __post_init__: it has no projection"),
    (InstructionInstance, ("instance_id", "id"), "InstructionInstance has no field 'id'"),
])
def test_projection_that_cannot_keep_every_check_raises_type_error(tmp_path, cls, keep, message):
    path = tmp_path / "rows.jsonl"
    path.write_text("")
    with pytest.raises(TypeError, match=f"^{message}$"):
        list(read_jsonl(path, cls, fields=keep))


def copy_per_row(source: Path, spans) -> bytes:
    """What ``copy_lines`` writes, copied one row at a time."""
    data = source.read_bytes()
    return b"".join(data[start:start + length] + b"\n" for start, length in spans)


@pytest.mark.parametrize("first", [65_536, 65_537])
def test_copy_lines_writes_the_bytes_of_a_per_row_copy(tmp_path, first):
    """The first rows' copies sum to ``first`` bytes: one 64 KiB block, or
    one byte past it; more rows follow, then all of them again in reverse.
    The source has a line with edge blanks, a CRLF line and a last line
    without a newline."""
    head = ['  {"a": 1}\t \n', '{"b": "é"}\r\n']
    rest = first - sum(len(line.strip().encode("utf-8")) + 1 for line in head)
    fill = [1001] * (rest // 1002 - 1)  # rows of 1,001 bytes, each copied with a newline
    fill.append(rest - 1002 * len(fill) - 1)  # the last takes the remainder
    source = tmp_path / "source.jsonl"
    source.write_text("".join([*head, *(json.dumps("x" * (n - 2)) + "\n" for n in fill), "[1]\n", "[2]"]),
                      encoding="utf-8")
    read = LineSpans()
    list(read_jsonl(source, spans=read))
    spans = list(zip(read.starts, read.lengths))
    assert sum(length + 1 for _, length in spans[:-2]) == first
    spans += spans[::-1]
    out = tmp_path / "out.jsonl"
    assert copy_lines(out, ((str(source), *span) for span in spans)) == len(spans)
    assert out.read_bytes() == copy_per_row(source, spans)


def test_line_spans_give_each_row_the_bytes_of_its_line_in_its_own_file(tmp_path):
    """Blank lines, edge whitespace, a CRLF line and a last line without a
    newline, in two files with an empty one between them."""
    texts = ['\n  {"a": 1}\t \n\n{"b": "é"}\r\n', "", ' [2] \n\r\n[3]']
    paths = [tmp_path / f"{n}.jsonl" for n in range(len(texts))]
    spans = LineSpans()
    for path, text in zip(paths, texts):
        path.write_bytes(text.encode("utf-8"))
        list(read_jsonl(path, spans=spans))
    assert (spans.sources, spans.file_ends) == ([str(p) for p in paths], [2, 2, 4])
    lines = [b'{"a": 1}', '{"b": "é"}'.encode("utf-8"), b"[2]", b"[3]"]
    rows = [3, 0, 2, 1]
    assert [Path(source).read_bytes()[start:start + length]
            for source, start, length in spans.lines(rows)] == [lines[r] for r in rows]


@settings(deadline=None)
@given(keys=st.lists(st.integers(0, 9), max_size=60), hashes=st.lists(st.integers(), min_size=1, max_size=2))
def test_first_rows_gives_each_key_its_first_row_whatever_the_hash(keys, hashes):
    """Each key's hash is one of one or two values, so keys collide; rows
    given last first find each key's last row.  Afterwards a probe, which
    inserts nothing, passes each key's row and no row of a key not given."""
    first_index = {key: row for row, key in reversed(list(enumerate(keys)))}
    last_index = {key: row for row, key in enumerate(keys)}
    rows = range(len(keys))
    for order, oracle in ((rows, first_index), (rows[::-1], last_index)):
        first = first_rows(len(keys), lambda a, b: keys[a] == keys[b])
        assert [first(row, hashes[keys[row] % len(hashes)]) for row in order] == \
            [oracle[keys[row]] for row in order]
        for key in range(11):  # 10 is never given
            assert [row for row in first.probe(hashes[key % len(hashes)]) if keys[row] == key] == \
                ([oracle[key]] if key in oracle else [])


def plain(value):
    """A record as JSON-ready values, walked independently of the codec."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {k: plain(x) for k, x in value.items()}
    return value.value if isinstance(value, Enum) else value


NON_ASCII = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5) | st.sampled_from(
    ["阿司匹林", "é\u2028\u3000", "\x00\"\\", "😀"])
UNSORTED_COUNTS = st.sampled_from([{"train": 3, "dev": 1, "test": 2}, {"zh": 0, "en": 5, "": 1}])


@pytest.mark.parametrize("cls", DECODED, ids=lambda cls: cls.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_record_line_is_the_sorted_json_dump_of_the_record(tmp_path_factory, cls, data):
    value = data.draw(json_for(cls, noise=False))
    texts = [f.name for f in fields(cls) if get_type_hints(cls)[f.name] in (str, Optional[str])
             and f.name not in WITHIN_RULES.get(cls, {})]
    value.update({name: data.draw(NON_ASCII) for name in texts if data.draw(st.booleans())})
    if cls is DatasetDescriptor and data.draw(st.booleans()):
        value["split_counts"] = data.draw(UNSORTED_COUNTS)
    record = from_dict(cls, value)
    path = tmp_path_factory.getbasetemp() / "records.jsonl"
    assert write_records(path, [record, record]) == 2
    line = json.dumps(plain(record), ensure_ascii=False, sort_keys=True)
    assert line == json.dumps(to_dict(record), ensure_ascii=False, sort_keys=True)
    assert path.read_bytes() == 2 * (line + "\n").encode("utf-8")


def test_a_value_not_of_its_fields_class_is_written_as_json_writes_it(tmp_path):
    """A record built in code may hold a value of another class than its
    field's: a bool or float where an int belongs (``int.__repr__(True)`` is
    ``1``, but JSON writes ``true``), an enum or int where a str belongs, a
    list where a tuple belongs.  Each is written as ``json`` writes it."""
    rows = [EntityMention(surface=TaskType.RE, etype="X", start=True, end=2.5, norm_id=7),
            QAInstance(question="q", options=[["A", "a"]], answer_keys=["A", Language.ZH]),
            DatasetDescriptor(id="x", name="X", task=TaskType.TC, language=Language.EN,
                              split_counts={"train": False}, re_untyped=1)]
    path = tmp_path / "rows.jsonl"
    assert write_records(path, rows) == 3
    assert path.read_text(encoding="utf-8").splitlines() == [
        '{"end": 2.5, "etype": "X", "norm_id": 7, "start": true, "surface": "RE"}',
        '{"answer_keys": ["A", "zh"], "context": null, "options": [["A", "a"]], "question": "q"}',
        '{"description": "", "general_dialogue": false, "id": "x", "label_vocab": [], "language": "en", '
        '"name": "X", "prompted_relation": null, "re_untyped": 1, "role_vocab": [], "source_url": null, '
        '"split_counts": {"train": false}, "stage_override": null, "task": "TC"}']
    assert [json.dumps(plain(row), ensure_ascii=False, sort_keys=True) for row in rows] == \
        path.read_text(encoding="utf-8").splitlines()


def loads_per_line(path: Path):
    """What reading ``path`` gives with one ``json.loads`` per stripped
    line: the values up to the first bad line, and that line's error."""
    values = []
    for n, raw in enumerate(path.read_bytes().split(b"\n"), 1):
        line = raw.decode("utf-8").strip()
        if line:
            try:
                values.append(json.loads(line))
            except json.JSONDecodeError as exc:
                return values, f"{path}:{n}: {exc.msg} (column {exc.colno})"
    return values, None


JSON_LINE = st.sampled_from([
    '{"a": 1, "b": [true, null, "é"]}', "[1, 2]", '"x"', "NaN", '{"a": NaN, "b": -Infinity}',
    "1 2", '{"a": 1}x', '{"a": 1} {"b": 2}', '{"a": 1}\r{"b": 2}', "{", '{"a": }', "",
    "\ufeff{\"a\": 1}", '"\u3000"', '{"a": "\u0085"}', "tru", "[1,]",
]) | st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=3),
                  lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
                  max_leaves=6).map(lambda v: json.dumps(v, ensure_ascii=False))
EDGE = st.sampled_from(["", " ", "\t", "\r", "\u3000", "\u0085", "\ufeff", " \u3000 "])


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(EDGE, JSON_LINE, EDGE, st.sampled_from(["\n", "\r\n"])), max_size=6))
def test_read_jsonl_gives_the_values_or_error_of_one_json_loads_per_line(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "in.jsonl"
    path.write_bytes("".join("".join(parts) for parts in lines).encode("utf-8"))
    values, error = [], None
    try:
        for value in read_jsonl(path):
            values.append(value)
    except ValueError as exc:
        error = str(exc)
    expected_values, expected_error = loads_per_line(path)
    assert (json.dumps(values), error) == (json.dumps(expected_values), expected_error)


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
    (DatasetDescriptor, {"id": "x", "name": "X", "task": "TC", "language": "en", "split_counts": {"train": "3"}},
     "DatasetDescriptor.split_counts: expected int, got '3'"),
    (DialogueTurn, {"speaker": "user", "text": None}, "DialogueTurn.text: expected str, got None"),
    (UnifiedDocument, {"doc_id": "d", "dataset_id": "ds", "language": "en", "text": "t", "qa": 3},
     "UnifiedDocument.qa: expected QAInstance, got 3"),
    (UnifiedDocument, {"doc_id": "d", "dataset_id": "ds", "language": "en", "text": "t",
                       "entities": [{"surface": "a", "etype": "X", "start": "0", "end": 1}]},
     "UnifiedDocument.entities: EntityMention.start: expected int, got '0'"),
    (QAInstance, {"question": "q", "options": [["A", 1]]}, "QAInstance.options: expected str, got 1"),
    (UnifiedDocument, {"doc_id": "d", "dataset_id": "ds", "language": "en", "text": "t", "dialogue": [["user", "hi"]]},
     "UnifiedDocument.dialogue: expected DialogueTurn, got ['user', 'hi']"),
    (DatasetDescriptor, {"id": "x", "name": "X", "task": "TC", "language": "en", "label_vocab": None},
     "DatasetDescriptor.label_vocab: expected list, got None"),
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
    """Every record file is read through ``schema.read_jsonl`` (or a span
    of a file it read), whose errors name the file and line; only generic
    JSONL ingest decodes a row itself, so that a bad row costs only that row.
    ``records`` is the codec itself."""
    found = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope in codec_references(ast.parse(path.read_text(encoding="utf-8")))}
    assert {name for name, _ in found} == {"records.py", "schema.py", "ingest.py"}
    assert {scope for name, scope in found if name == "ingest.py"} == {"_parse_jsonl"}


def record_classes() -> list[type]:
    """Every class that ``records.record`` made, in every module of the package."""
    modules = [importlib.import_module(f"bioforge.{info.name}") for info in pkgutil.iter_modules(bioforge.__path__)]
    return [cls for module in modules for cls in vars(module).values()
            if isinstance(cls, type) and "__record_fields__" in vars(cls) and cls.__module__ == module.__name__]


RECORD_CLASSES = record_classes()


def reference_dataclass(cls) -> type:
    """``cls`` made again from its own source lines, with
    ``dataclasses.dataclass`` as ``record`` and a ``field(default_factory=)``
    as ``Factory``, in its module's namespace and on its own line numbers."""
    module = sys.modules[cls.__module__]
    lines, first = inspect.getsourcelines(cls)
    source = "\n" * (first - 1) + textwrap.dedent("".join(lines))
    namespace = {**vars(module), "record": dataclasses.dataclass,
                 "Factory": lambda make: dataclasses.field(default_factory=make)}
    exec(compile(source, module.__file__, "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True),
         namespace)
    return namespace[cls.__name__]


def sample(hint, k: int):
    """A value of the type ``hint``, one of two unequal ones (``k`` 1 or 2);
    None for ``Optional[X]``, which a rule check may restrict."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return None
    if origin is tuple and args[-1] is Ellipsis:
        return (sample(args[0], k),)
    if origin is tuple:
        return tuple(sample(a, k) for a in args)
    if origin is dict:
        return {sample(args[0], k): sample(args[1], k)}
    if origin is frozenset:
        return frozenset({sample(args[0], k)})
    if origin is collections.abc.Callable:
        return (str.upper, str.lower)[k - 1]
    if "__record_fields__" in vars(hint):
        hints = get_type_hints(hint)
        return hint(**{name: sample(hints[name], k) for name, _ in hint.__record_fields__})
    if issubclass(hint, Enum):
        return list(hint)[k]
    return {str: f"s{k}", int: k, float: k / 4, bool: k == 1, list: [k], array: array("q", [k])}[hint]


def same(a, b) -> bool:
    """Equal, or two functions of the same code (a default made twice from one source line)."""
    return a == b or (isinstance(a, FunctionType) and isinstance(b, FunctionType) and a.__code__ == b.__code__)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda cls: cls.__name__)
def test_record_class_behaves_as_the_dataclass_of_its_source(cls):
    ref = reference_dataclass(cls)
    mine, theirs = fields(cls), fields(ref)
    assert [(f.name, f.type) for f in mine] == [(f.name, f.type) for f in theirs]
    for f, g in zip(mine, theirs):
        assert same(f.default, g.default), f.name
        assert (f.default_factory is MISSING) == (g.default_factory is MISSING), f.name
        if f.default_factory is not MISSING:
            assert f.default_factory() == g.default_factory(), f.name
    assert is_dataclass(cls)

    hints = get_type_hints(cls)
    values = {name: sample(hints[name], 1) for name, _ in cls.__record_fields__}
    obj, twin, other = cls(**values), ref(**values), sample(hints[mine[0].name], 2)
    assert is_dataclass(obj)
    assert repr(obj) == repr(twin)
    assert dataclasses.asdict(obj) == asdict(obj) == dataclasses.asdict(twin)
    changed = dataclasses.replace(obj, **{mine[0].name: other})
    assert type(changed) is cls and repr(changed) == repr(dataclasses.replace(twin, **{mine[0].name: other}))
    assert replace(obj, **{mine[0].name: other}) == changed

    assert obj == cls(**values) and obj != changed
    assert obj.__eq__(twin) is NotImplemented and obj != twin  # a record equals only a record of its class

    required = {f.name: values[f.name] for f in mine if f.default is MISSING and f.default_factory is MISSING}
    defaults, again = cls(**required), cls(**required)
    for f in mine:
        if f.default_factory is not MISSING:
            assert getattr(defaults, f.name) == f.default_factory()
            assert getattr(defaults, f.name) is not getattr(again, f.name)
        elif f.default is not MISSING:
            assert getattr(defaults, f.name) is f.default

    if ref.__dataclass_params__.frozen:
        field_tuple = tuple(values.values())
        try:
            expected = hash(field_tuple)
        except TypeError:  # a dict or array field: no hash either way
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == expected == hash(twin)
        with pytest.raises(AttributeError):
            setattr(obj, mine[0].name, other)
        with pytest.raises(AttributeError):
            delattr(obj, mine[0].name)
    else:
        assert cls.__hash__ is None and ref.__hash__ is None
        setattr(obj, mine[0].name, other)
        assert obj == changed
    assert hasattr(obj, "__dict__") == hasattr(twin, "__dict__")
    assert getattr(cls, "__slots__", None) == getattr(ref, "__slots__", None)


def test_only_the_two_slots_records_have_no_instance_dict():
    assert {cls.__name__ for cls in RECORD_CLASSES if "__slots__" in vars(cls)} == {"PredictionRecord", "ParseOutcome"}


def test_record_init_is_compiled_when_first_looked_up():
    """``inspect.signature`` gives a record class's parameters before any
    record of it is made; the lookup compiles ``__init__`` in place."""
    @bioforge.records.record(frozen=True)
    class Point:
        x: int
        y: int = 0
        tags: tuple[str, ...] = ()

    assert not isinstance(vars(Point)["__init__"], FunctionType)
    assert str(inspect.signature(Point)) == "(x, y=0, tags=())"
    assert isinstance(vars(Point)["__init__"], FunctionType)
    assert Point.__init__.__qualname__ == "test_record_init_is_compiled_when_first_looked_up.<locals>.Point.__init__"
    assert Point(1) == Point(x=1, y=0)
