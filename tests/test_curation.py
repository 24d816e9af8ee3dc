import re
import unicodedata

import pytest
from hypothesis import given, strategies as st

from bioforge.curation import (
    KeyedRows,
    SubtaskPlan,
    corpus_stats,
    decompose_subtasks,
    dedup_and_filter_overlap,
    normalize_for_hash,
    read_keyed_rows,
)
from bioforge.fixtures import reference_registry
from bioforge.schema import Language, Registry, UnifiedDocument, write_documents
from bioforge.synth import make_ner_docs, make_re_docs, make_tc_docs, ner_descriptor


def doc(text, doc_id="d", dataset_id="ds"):
    return UnifiedDocument(doc_id=doc_id, dataset_id=dataset_id,
                           language=Language.EN, text=text)


class TestNormalizeForHash:
    def test_whitespace_and_case(self):
        assert normalize_for_hash("  Aspirin\tworks ") == "aspirin works"

    def test_empty(self):
        assert normalize_for_hash("") == ""

    def test_fullwidth_nfkc(self):
        # oracle: NFKC maps U+FF21..U+FF23 to their ASCII compatibility forms
        expected = unicodedata.normalize("NFKC", "ＡＢＣ").lower()
        assert expected == "abc"
        assert normalize_for_hash("ＡＢＣ") == "abc"

    @given(st.text(max_size=50))
    def test_idempotent(self, s):
        once = normalize_for_hash(s)
        assert normalize_for_hash(once) == once


def brute_force_dedup(train, test):
    """Independent oracle: O(n^2) pairwise comparison, keep-first."""
    kept = []
    dups = overlap = 0
    for d in train:
        if any(normalize_for_hash(d.text) == normalize_for_hash(t.text) for t in test):
            overlap += 1
        elif any(normalize_for_hash(d.text) == normalize_for_hash(k.text) for k in kept):
            dups += 1
        else:
            kept.append(d)
    return kept, dups, overlap


class TestDedupAndOverlap:
    def test_two_exact_duplicates(self):
        train = [doc("A", "1"), doc("B", "2"), doc("A", "3"), doc("C", "4"), doc("A", "5")]
        kept, report = dedup_and_filter_overlap(train, [])
        oracle_kept, oracle_dups, _ = brute_force_dedup(train, [])
        assert [d.doc_id for d in kept] == [d.doc_id for d in oracle_kept]
        assert report.duplicates_removed == oracle_dups == 2
        assert len(kept) == 3

    def test_whitespace_variant_counts_as_overlap(self):
        train = [doc("aspirin  works", "1")]
        test = [doc("Aspirin works", "t1")]
        kept, report = dedup_and_filter_overlap(train, test)
        assert kept == []
        assert report.overlap_removed == 1

    def test_disjoint_sets_untouched(self):
        train = [doc("A", "1"), doc("B", "2")]
        kept, report = dedup_and_filter_overlap(train, [doc("C", "t")])
        assert kept == train
        assert report.duplicates_removed == report.overlap_removed == 0

    def test_report_arithmetic(self):
        train = [doc(t, str(i)) for i, t in enumerate("AABBCCD")]
        kept, report = dedup_and_filter_overlap(train, [doc("D", "t")])
        assert report.output_count == report.input_count - report.duplicates_removed - report.overlap_removed
        for stats in report.per_dataset.values():
            assert stats["output_count"] == (
                stats["input_count"] - stats["duplicates_removed"] - stats["overlap_removed"]
            )

    def test_idempotent(self):
        train = [doc(t, str(i)) for i, t in enumerate("AABAC")]
        once, _ = dedup_and_filter_overlap(train, [])
        twice, report = dedup_and_filter_overlap(once, [])
        assert twice == once
        assert report.duplicates_removed == 0

    @given(st.lists(st.sampled_from(["a", "b", "c", "a ", " A"]), max_size=12))
    def test_matches_brute_force_oracle(self, texts):
        train = [doc(t, str(i)) for i, t in enumerate(texts)]
        test = [doc("b", "t")]
        kept, report = dedup_and_filter_overlap(train, test)
        oracle_kept, oracle_dups, oracle_overlap = brute_force_dedup(train, test)
        assert [d.doc_id for d in kept] == [d.doc_id for d in oracle_kept]
        assert (report.duplicates_removed, report.overlap_removed) == (oracle_dups, oracle_overlap)

    def test_never_removes_first_occurrence(self):
        train = [doc("X", "first"), doc("X", "second")]
        kept, _ = dedup_and_filter_overlap(train, [])
        assert kept[0].doc_id == "first"


class TestKeyedRows:
    @pytest.mark.parametrize("dataset_id", ["", ".", "..", "a/b", "/abs", "a\0b"])
    def test_a_dataset_id_that_is_not_one_path_component_is_named_by_its_line(self, tmp_path, dataset_id):
        path = tmp_path / "train.jsonl"
        write_documents(path, [doc("A", "1", "ok"), doc("B", "2", dataset_id)])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: dataset id .* is not a directory name$"):
            read_keyed_rows([path])

    def test_dotted_dataset_ids_are_directory_names(self, tmp_path):
        path = tmp_path / "train.jsonl"
        write_documents(path, [doc("A", "1", "..a"), doc("B", "2", "a.b"), doc("C", "3", "...")])
        assert list(read_keyed_rows([path]).dataset_numbers) == ["..a", "a.b", "..."]

    def test_dataset_numbers_past_65535_widen_the_column(self):
        rows = KeyedRows()
        for n in range(0x10002):
            rows.add(bytes(16), f"d{n}")
        assert list(rows.datasets[-3:]) == [0xFFFF, 0x10000, 0x10001]


class TestDecomposeSubtasks:
    def fixture(self):
        return make_ner_docs(20, seed=11)

    def test_per_type_plan_emits_original_plus_two(self):
        desc, docs = self.fixture()
        out = decompose_subtasks(docs, desc, SubtaskPlan.per_label(desc.label_vocab))
        assert len(out) == 3
        assert out[0][0] is desc
        assert out[0][1] == list(docs)

    def test_empty_plan_is_identity(self):
        desc, docs = self.fixture()
        out = decompose_subtasks(docs, desc, SubtaskPlan())
        assert len(out) == 1

    def test_filtered_doc_keeps_negatives(self):
        desc, docs = self.fixture()
        out = decompose_subtasks(docs, desc, SubtaskPlan.per_label(("Chemical",)))
        _, chem_docs = out[1]
        assert len(chem_docs) == len(docs)
        for original, filtered in zip(docs, chem_docs):
            expected = tuple(e for e in original.entities if e.etype == "Chemical")
            assert filtered.entities == expected

    def test_annotation_conservation(self):
        desc, docs = self.fixture()
        out = decompose_subtasks(docs, desc, SubtaskPlan.per_label(desc.label_vocab))
        for i, original in enumerate(docs):
            union = [e for _, subset_docs in out[1:] for e in subset_docs[i].entities]
            assert sorted(union, key=lambda e: (e.start, e.etype)) == sorted(
                original.entities, key=lambda e: (e.start, e.etype)
            )

    def test_re_subtasks_keep_the_entities_and_the_relations_of_their_type(self):
        desc, docs = make_re_docs(20, seed=11)
        out = decompose_subtasks(docs, desc, SubtaskPlan.per_label(desc.label_vocab))
        assert [d.id for d, _ in out] == [desc.id, *(f"{desc.id}__{label}" for label in desc.label_vocab)]
        for (virtual, subset_docs), label in zip(out[1:], desc.label_vocab):
            assert virtual.label_vocab == (label,)
            assert subset_docs == [
                UnifiedDocument(doc_id=d.doc_id, dataset_id=virtual.id, language=d.language, text=d.text,
                                entities=d.entities, relations=tuple(r for r in d.relations if r.rtype == label))
                for d in docs]
        assert any(d.relations for _, subset_docs in out[1:] for d in subset_docs)

    def test_a_task_that_is_neither_ner_nor_re_is_refused(self):
        desc, docs = make_tc_docs(5, seed=11)
        with pytest.raises(ValueError, match=r"^subtask decomposition applies to NER/RE, not TC$"):
            decompose_subtasks(docs, desc, SubtaskPlan())

    def test_unknown_label(self):
        desc, docs = self.fixture()
        with pytest.raises(ValueError, match=r"^subset label 'Gene' absent from corpus label vocabulary$"):
            decompose_subtasks(docs, desc, SubtaskPlan.per_label(("Gene",)))


class TestCorpusStats:
    def test_reference_registry_grand_total(self):
        table = corpus_stats(reference_registry())
        assert table.total == 1_114_315

    def test_stage1_groups_sum(self):
        # hand sum of the stage-1 rows
        table = corpus_stats(reference_registry())
        stage1_groups = {"Named Entity Recognition", "Relation Extraction", "Event Extraction",
                         "Text Classification", "Text Pair Task", "Machine Translation", "Other Additional Tasks"}
        stage1 = sum(n for (group, _), n in table.rows.items() if group in stage1_groups)
        assert stage1 == 73_270 + 43_885 + 5_014 + 77_963 + 56_785 + 74_113 + 9_370 == 340_400

    def test_empty_registry(self):
        table = corpus_stats(Registry())
        assert table.total == 0
        assert table.rows == {}

    def test_materialized_counts_override_metadata(self):
        registry = reference_registry()
        table = corpus_stats(registry, corpus_counts={"ner-en": 1})
        assert table.total == 1_114_315 - 28_603 + 1
