import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bioforge.fixtures import reference_registry
from bioforge.ingest import IngestConfig, ingest_dataset, parse_documents
from bioforge.schema import (
    DatasetDescriptor,
    Language,
    Registry,
    TaskType,
)

CFG = IngestConfig(dataset_id="ds", format="pubtator")


class TestPubTator:
    def test_minimal_document(self):
        docs = parse_documents("1|t|Abc\n1|a|xy\n1\t0\t3\tAbc\tDisease\n\n", CFG)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.text == "Abc\nxy"
        assert len(doc.entities) == 1
        e = doc.entities[0]
        assert (e.surface, e.etype, e.start, e.end) == ("Abc", "Disease", 0, 3)

    def test_empty_stream(self):
        assert parse_documents("", CFG) == []

    def test_offset_mismatch_raises(self):
        with pytest.raises(ValueError, match=r"^doc 1: mention surface 'Xyz' != text span 'Abc'$"):
            parse_documents("1|t|Abc\n1|a|xy\n1\t0\t3\tXyz\tDisease\n\n", CFG)

    def test_norm_id_is_kept(self):
        docs = parse_documents("1|t|Abc\n1|a|xy\n1\t0\t3\tAbc\tDisease\tD001\n\n", CFG)
        assert docs[0].entities[0].norm_id == "D001"

    def test_malformed_line(self):
        with pytest.raises(ValueError, match=r"^malformed line 3: 'not a mention line'$"):
            parse_documents("1|t|Abc\n1|a|xy\nnot a mention line\n", CFG)

    def test_pipe_code_inside_a_mention_is_not_a_title(self):
        docs = parse_documents("1|t|gout|a|flare\n1\t0\t12\tgout|a|flare\tDisease\n", CFG)
        assert [d.doc_id for d in docs] == ["1"]
        assert docs[0].entities[0].surface == "gout|a|flare"

    def test_offset_that_is_not_an_integer_is_malformed(self):
        with pytest.raises(ValueError, match=r"^malformed line 2: '1\\tx\\t3\\tAbc\\tDisease'$"):
            parse_documents("1|t|Abc\n1\tx\t3\tAbc\tDisease\n", CFG)

    def test_second_pmid_in_one_block_is_malformed(self):
        with pytest.raises(ValueError, match="^malformed line 2: "):
            parse_documents("1|t|One\n2|t|Two\n", CFG)

    def test_multiple_documents_preserve_order(self):
        stream = "1|t|One\n1|a|a\n\n2|t|Two\n2|a|b\n\n"
        docs = parse_documents(stream, CFG)
        assert [d.doc_id for d in docs] == ["1", "2"]


BIOC_TWO_PASSAGES = """<?xml version="1.0"?>
<collection>
  <document>
    <id>doc1</id>
    <passage><text>Hello</text></passage>
    <passage>
      <text>abc</text>
      <annotation id="a1">
        <infon key="type">Chem</infon>
        <location offset="1" length="2"/>
        <text>bc</text>
      </annotation>
    </passage>
  </document>
</collection>
"""


class TestBioC:
    def test_minimal_annotation(self):
        xml = """<collection><document><id>d</id><passage>
          <text>Tree grows</text>
          <annotation id="a1"><infon key="type">Plant</infon>
            <location offset="0" length="4"/><text>Tree</text>
          </annotation>
        </passage></document></collection>"""
        docs = parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))
        assert len(docs) == 1
        assert docs[0].entities[0].surface == "Tree"

    def test_offset_rebased_across_passages(self):
        # passage lengths 5 and 3, one separator char: local offset 1 -> 5+1+1
        docs = parse_documents(BIOC_TWO_PASSAGES, IngestConfig(dataset_id="ds", format="bioc_xml"))
        doc = docs[0]
        assert doc.text == "Hello\nabc"
        e = doc.entities[0]
        assert (e.start, e.end) == (7, 9)
        assert doc.text[e.start:e.end] == e.surface == "bc"

    def test_surface_mismatch_raises(self):
        xml = """<collection><document><id>d</id><passage><text>Tree grows</text>
          <annotation id="a1"><location offset="0" length="4"/><text>Root</text></annotation>
        </passage></document></collection>"""
        with pytest.raises(ValueError, match=r"^doc d: mention surface 'Root' != text span 'Tree'$"):
            parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))

    def test_dangling_relation_ref(self):
        xml = """<collection><document><id>d</id><passage>
          <text>Tree</text>
          <annotation id="a1"><infon key="type">Plant</infon>
            <location offset="0" length="4"/><text>Tree</text>
          </annotation>
        </passage>
        <relation id="r1"><infon key="relation">grows</infon>
          <node refid="a1"/><node refid="missing"/>
        </relation></document></collection>"""
        with pytest.raises(ValueError, match=r"^relation 'r1' references unknown annotation 'missing'$"):
            parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))

    def test_relation_becomes_triple(self):
        xml = """<collection><document><id>d</id><passage>
          <text>aspirin gout</text>
          <annotation id="a1"><infon key="type">Chem</infon>
            <location offset="0" length="7"/><text>aspirin</text></annotation>
          <annotation id="a2"><infon key="type">Dis</infon>
            <location offset="8" length="4"/><text>gout</text></annotation>
        </passage>
        <relation id="r1"><infon key="relation">treats</infon>
          <node refid="a1"/><node refid="a2"/>
        </relation></document></collection>"""
        docs = parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))
        r = docs[0].relations[0]
        assert (r.head, r.tail, r.rtype) == ("aspirin", "gout", "treats")


    def test_error_in_a_document_before_a_syntax_error_raises_first(self):
        """Documents are parsed as the pull parser yields them."""
        xml = """<collection><document><id>d</id><relation id="r1"><node refid="gone"/></relation>
        </document><document></collection>"""
        with pytest.raises(ValueError, match=r"^relation 'r1' references unknown annotation 'gone'$"):
            parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))
        with pytest.raises(ValueError, match=r"^not well-formed XML: mismatched tag: line 2, column 31$"):
            parse_documents(xml.replace('<node refid="gone"/>', ""), IngestConfig(dataset_id="ds", format="bioc_xml"))

    def test_documents_are_read_in_document_order_nested_ones_after_their_parent(self):
        xml = """<collection><document><id>a</id><passage><text>x</text></passage>
          <document><id>b</id><passage><text>y</text></passage></document></document>
          <group><document><id>c</id></document></group></collection>"""
        docs = parse_documents(xml, IngestConfig(dataset_id="ds", format="bioc_xml"))
        assert [(d.doc_id, d.text) for d in docs] == [("a", "x\ny"), ("b", "y"), ("c", "")]


class TestConll:
    def cfg(self):
        return IngestConfig(dataset_id="ds", format="conll")

    def test_single_entity(self):
        docs = parse_documents("aspirin\tB-Chem\nworks\tO\n", self.cfg())
        doc = docs[0]
        assert doc.text == "aspirin works"
        e = doc.entities[0]
        assert (e.surface, e.etype, e.start, e.end) == ("aspirin", "Chem", 0, 7)

    def test_multi_token_entity(self):
        docs = parse_documents("New\tB-Dis\nYork\tI-Dis\n", self.cfg())
        e = docs[0].entities[0]
        assert (e.surface, e.start, e.end) == ("New York", 0, 8)

    def test_illegal_i_tag_repaired_with_warning(self):
        warnings = []
        docs = parse_documents("x\tI-Dis\n", self.cfg(), warnings=warnings)
        assert docs[0].entities[0].surface == "x"
        assert len(warnings) == 1

    def test_type_switch_closes_run(self):
        docs = parse_documents("a\tB-Dis\nb\tI-Chem\n", self.cfg())
        assert [e.etype for e in docs[0].entities] == ["Dis", "Chem"]

    def test_blank_line_separates_documents(self):
        docs = parse_documents("a\tO\n\nb\tO\n", self.cfg())
        assert len(docs) == 2

    def test_empty_token_raises(self):
        with pytest.raises(ValueError, match=r"^empty token at line 2$"):
            parse_documents("a\tO\n\tO\n", self.cfg())

    def test_spans_match_surfaces(self):
        docs = parse_documents("alpha\tB-X\nbeta\tI-X\ngamma\tO\ndelta\tB-Y\n", self.cfg())
        doc = docs[0]
        for e in doc.entities:
            assert doc.text[e.start:e.end] == e.surface


class TestIngestDataset:
    def registry(self):
        return Registry([
            DatasetDescriptor(id="ds", name="ds", task=TaskType.NER_NEN,
                              language=Language.EN, label_vocab=("Disease",))
        ])

    def test_clean_file(self, tmp_path):
        path = tmp_path / "f.pubtator"
        path.write_text(
            "1|t|Abc\n1|a|xy\n1\t0\t3\tAbc\tDisease\n\n"
            "2|t|Def\n2|a|xy\n\n"
            "3|t|Ghi\n3|a|xy\n\n",
            encoding="utf-8",
        )
        docs, report = ingest_dataset(path, CFG, self.registry())
        docs = list(docs)
        assert report.loaded == 3
        assert report.violations == 0
        assert len(docs) == 3

    def test_bad_mention_drops_only_its_document(self, tmp_path):
        path = tmp_path / "f.pubtator"
        path.write_text(
            "1|t|Abc\n1|a|xy\n\n"
            "2|t|Def\n2|a|xy\n2\t0\t3\tWRONG\tDisease\n\n"
            "3|t|Ghi\n3|a|xy\n\n",
            encoding="utf-8",
        )
        docs, report = ingest_dataset(path, CFG, self.registry())
        docs = list(docs)
        assert report.loaded == 2
        assert report.violations == 1
        assert [d.doc_id for d in docs] == ["1", "3"]

    def test_jsonl_row_missing_key_drops_only_its_row(self, tmp_path):
        rows = [
            {"doc_id": "1", "dataset_id": "ds", "language": "en", "text": "Abc"},
            {"doc_id": "2", "dataset_id": "ds", "language": "en"},
            {"doc_id": "3", "dataset_id": "ds", "language": "en", "text": "Ghi"},
        ]
        path = tmp_path / "f.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        cfg = IngestConfig(dataset_id="ds", format="generic_jsonl")
        docs, report = ingest_dataset(path, cfg, self.registry())
        docs = list(docs)
        assert report.loaded == 2
        assert report.violations == 1
        assert [d.doc_id for d in docs] == ["1", "3"]
        assert "text" in report.violation_details[0]["violations"][0]

    def test_jsonl_mistyped_scalars_drop_only_their_rows(self, tmp_path):
        rows = [
            {"doc_id": "1", "dataset_id": "ds", "language": "en", "text": "Abc"},
            {"doc_id": "2", "dataset_id": "ds", "language": "en", "text": None},
            {"doc_id": "3", "dataset_id": "ds", "language": "en", "text": "Ghi",
             "entities": [{"surface": "Ghi", "etype": "Disease", "start": "0", "end": 3}]},
            {"doc_id": "4", "dataset_id": "ds", "language": "en", "text": "Jkl"},
        ]
        path = tmp_path / "f.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        cfg = IngestConfig(dataset_id="ds", format="generic_jsonl")
        docs, report = ingest_dataset(path, cfg, self.registry())
        assert [d.doc_id for d in docs] == ["1", "4"]
        assert [(r["index"], r["doc_id"], r["violations"][0].split(":")[0])
                for r in report.violation_details] == [(1, None, "UnifiedDocument.text"),
                                                       (2, None, "UnifiedDocument.entities")]

    def test_bad_block_keeps_conll_ids_and_warnings_by_block(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("a\tO\n\nb\tBAD\n\nc\tI-Disease\n", encoding="utf-8")
        cfg = IngestConfig(dataset_id="ds", format="conll")
        docs, report = ingest_dataset(path, cfg, self.registry())
        assert [d.doc_id for d in docs] == ["ds-0", "ds-2"]
        assert [w["warning"] for w in report.warning_details] == [
            "doc 2: I-Disease without open Disease run, treated as B-Disease"]
        assert report.violation_details == [
            {"index": 1, "doc_id": None, "violations": ["malformed line 3: 'b\\tBAD'"]}]

    def test_repeated_doc_id_is_rejected_naming_the_kept_document(self, tmp_path):
        rows = [{"doc_id": d, "dataset_id": "ds", "language": "en", "text": t}
                for d, t in (("1", "a"), ("2", None), ("2", "b"), ("1", "c"), ("2", "d"))]
        path = tmp_path / "f.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        docs, report = ingest_dataset(path, IngestConfig(dataset_id="ds", format="generic_jsonl"),
                                      self.registry())
        assert [(d.doc_id, d.text) for d in docs] == [("1", "a"), ("2", "b")]
        assert [(r["index"], r["doc_id"], r["violations"]) for r in report.violation_details[1:]] == [
            (3, "1", ["doc_id: '1' repeats the id of document 0"]),
            (4, "2", ["doc_id: '2' repeats the id of document 2"])]

    def test_empty_doc_id_is_rejected(self, tmp_path):
        path = tmp_path / "f.xml"
        path.write_text("<collection><document><passage><text>a</text></passage></document>"
                        "<document><id>d</id></document></collection>", encoding="utf-8")
        docs, report = ingest_dataset(path, IngestConfig(dataset_id="ds", format="bioc_xml"), self.registry())
        assert [d.doc_id for d in docs] == ["d"]
        assert report.violation_details == [{"index": 0, "doc_id": "", "violations": ["doc_id: must be non-empty"]}]

    def test_nothing_is_read_before_the_documents_are_drawn(self, tmp_path):
        path = tmp_path / "f.pubtator"
        path.write_text("1|t|Abc\n\n1|t|Def\n", encoding="utf-8")
        docs, report = ingest_dataset(path, CFG, self.registry())
        assert (report.loaded, report.violations) == (0, 0)
        assert next(docs).text == "Abc"
        assert (report.loaded, report.violations) == (1, 0)
        assert list(docs) == [] and (report.loaded, report.violations) == (1, 1)

    def test_documents_take_the_language_of_the_registry_row(self, tmp_path):
        path = tmp_path / "f.conll"
        path.write_text("阿\tB-药物\n司\tI-药物\n治\tO\n", encoding="utf-8")
        docs, report = ingest_dataset(path, IngestConfig(dataset_id="ner-zh", format="conll"), reference_registry())
        assert [(d.language, d.text, d.entities[0].surface) for d in docs] == [(Language.ZH, "阿司治", "阿司")]
        assert (report.loaded, report.violations) == (1, 0)

    def test_missing_file_raises_before_the_documents_are_drawn(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_dataset(tmp_path / "nope", CFG, self.registry())

    def test_unknown_dataset(self, tmp_path):
        path = tmp_path / "f.pubtator"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^dataset id 'nope' not in registry$"):
            ingest_dataset(path, IngestConfig(dataset_id="nope", format="pubtator"), self.registry())


def test_parsing_is_deterministic():
    stream = "1|t|Abc\n1|a|xy\n1\t0\t3\tAbc\tDisease\n\n"
    assert parse_documents(stream, CFG) == parse_documents(stream, CFG)


NER_REGISTRY = Registry([DatasetDescriptor(id="ds", name="ds", task=TaskType.NER_NEN, language=Language.EN)])
FORMATS = ["pubtator", "bioc_xml", "conll", "generic_jsonl"]


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.text())
def test_ingest_is_total(tmp_path, fmt, text):
    path = tmp_path / "f"
    path.write_text(text, encoding="utf-8")
    try:
        docs, report = ingest_dataset(path, IngestConfig(dataset_id="ds", format=fmt), NER_REGISTRY)
        docs = list(docs)
    except ValueError as exc:
        assert fmt == "bioc_xml" and str(exc).startswith(f"{path}: not well-formed XML: ")
    else:
        assert report.loaded == len(docs)


# Any JSON value where the schema wants a string, an int or a record.
_FIELDS = ["text", "entities", "relations", "events", "labels", "qa", "dialogue", "pair", "translation",
           "surface", "etype", "start", "end", "head", "tail", "rtype", "event_type", "trigger",
           "arguments", "question", "options", "answer_keys", "speaker", "text_a", "text_b"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(_FIELDS), kids, max_size=4),
    max_leaves=12,
)
_ROW = st.fixed_dictionaries(
    {"doc_id": st.just("d"), "dataset_id": st.just("ds"), "language": st.just("en")},
    optional={name: _JSON for name in _FIELDS[:9]},
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_ROW, max_size=3), task=st.sampled_from(list(TaskType)))
def test_jsonl_ingest_is_total_over_json_rows(tmp_path, rows, task):
    path = tmp_path / "f.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    registry = Registry([DatasetDescriptor(id="ds", name="ds", task=task, language=Language.EN)])
    docs, report = ingest_dataset(path, IngestConfig(dataset_id="ds", format="generic_jsonl"), registry)
    docs = list(docs)
    assert report.loaded + report.violations == len(rows)
