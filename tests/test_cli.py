import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import bioforge
from bioforge import cli, curation, schema
from bioforge.cli import main
from bioforge.forge import read_instances
from bioforge.schema import DatasetDescriptor, Language, Registry, TaskType, to_dict, write_documents
from bioforge.synth import (
    make_ner_docs,
    make_qa_mc_docs,
    make_re_docs,
    make_tc_docs,
    ner_descriptor,
    re_descriptor,
    tc_descriptor,
)


@pytest.fixture
def workspace(tmp_path):
    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = Registry([ner_desc, qa_desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    corpus_root = tmp_path / "corpus"
    write_documents(corpus_root / ner_desc.id / "train.jsonl", ner_docs)
    write_documents(corpus_root / qa_desc.id / "train.jsonl", qa_docs)
    return tmp_path, registry_path, corpus_root


def test_stats_prints_reference_total(tmp_path, capsys):
    code = main(["stats", "--out", str(tmp_path)])
    assert code == 0
    assert "1,114,315" in capsys.readouterr().out


def test_ingest_command(tmp_path, capsys):
    desc = ner_descriptor("synth-ner-en")
    registry = Registry([desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    src = tmp_path / "raw.pubtator"
    src.write_text("1|t|aspirin\n1|a|x\n1\t0\t7\taspirin\tChemical\n\n", encoding="utf-8")
    code = main([
        "ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--format", "pubtator", "--input", str(src), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "corpus" / "synth-ner-en" / "train.jsonl").exists()
    assert (tmp_path / "out" / "corpus" / "synth-ner-en" / "train.rejects.jsonl").read_text() == ""
    assert (tmp_path / "out" / "corpus" / "synth-ner-en" / "train.warnings.jsonl").read_text() == ""
    assert "loaded=1" in capsys.readouterr().out



def test_each_ingest_into_one_out_keeps_its_own_run_log(tmp_path):
    Registry([ner_descriptor("synth-ner-en")]).save(tmp_path / "registry.jsonl")
    src = tmp_path / "raw.pubtator"
    src.write_text("1|t|aspirin\n1|a|x\n1\t0\t7\taspirin\tChemical\n\n", encoding="utf-8")
    out = tmp_path / "out"
    for split in ("train", "test"):
        assert main(["ingest", "--registry", str(tmp_path / "registry.jsonl"), "--dataset", "synth-ner-en",
                     "--format", "pubtator", "--input", str(src), "--split", split, "--out", str(out)]) == 0
    logs = sorted(p.name for p in out.glob("run_log.*"))
    assert logs == ["run_log.ingest.synth-ner-en.test.json", "run_log.ingest.synth-ner-en.train.json"]
    assert json.loads((out / logs[0]).read_text())["config"]["split"] == "test"

MRD_DESC = DatasetDescriptor(id="mrd-en", name="mrd-en", task=TaskType.MRD, language=Language.EN)


def _jsonl_docs(dataset_id: str, good: dict, corrupt: dict) -> str:
    """Three JSONL documents of ``dataset_id`` with the payload ``good``,
    except the second, which has ``corrupt``."""
    return "".join(json.dumps({"doc_id": f"j{k}", "dataset_id": dataset_id, "language": "en", "text": "abc",
                               **(corrupt if k == 1 else good)}) + "\n" for k in range(3))


# Per case, keyed ``<format>`` or ``<format>/<dataset>`` (default dataset
# synth-ner-en): three documents of which the second is corrupt, its doc id in
# the reject row (None when it did not parse) and a fragment of the reason.
REJECT_CASES = {
    "pubtator": (
        "1|t|Abc\n1\t0\t3\tAbc\tDisease\n\n2|t|Def\n2\t0\t3\tXyz\tDisease\n\n3|t|Ghi\n",
        None, "'Xyz'",
    ),
    "conll": ("a\tB-Disease\n\nb\tX-Disease\n\nc\tO\n", None, "malformed line 3"),
    "bioc_xml": (
        "<collection>"
        "<document><id>d0</id><passage><text>a</text></passage></document>"
        "<document><id>d1</id><passage><text>abc</text><annotation>"
        '<location offset="x" length="1"/></annotation></passage></document>'
        "<document><id>d2</id><passage><text>c</text></passage></document>"
        "</collection>",
        None, "'x'",
    ),
    "generic_jsonl": (
        "".join(json.dumps({"doc_id": f"j{k}", "dataset_id": "synth-ner-en", "language": "en",
                            "text": None if k == 1 else "abc"}) + "\n" for k in range(3)),
        None, "UnifiedDocument.text: expected str, got None",
    ),
    # mistyped values that used to load, and then crashed or corrupted forge
    "generic_jsonl/tc-en": (_jsonl_docs("tc-en", {"labels": ["A"]}, {"labels": [3]}), None,
                            "UnifiedDocument.labels: expected str, got 3"),
    "generic_jsonl/mrd-en": (
        _jsonl_docs("mrd-en",
                    {"dialogue": [{"speaker": "user", "text": "hi"}, {"speaker": "assistant", "text": "ok"}]},
                    {"dialogue": [{"speaker": "user", "text": "hi"}, {"speaker": "assistant", "text": 5}]}),
        None, "UnifiedDocument.dialogue: DialogueTurn.text: expected str, got 5",
    ),
}


@pytest.mark.parametrize("fmt", sorted(REJECT_CASES))
def test_ingest_writes_a_reject_row_per_dropped_document(tmp_path, fmt):
    raw, doc_id, reason = REJECT_CASES[fmt]
    fmt, _, dataset = fmt.partition("/")
    dataset = dataset or "synth-ner-en"
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("synth-ner-en"), tc_descriptor("tc-en"), MRD_DESC]).save(registry_path)
    src = tmp_path / "raw.txt"
    src.write_text(raw, encoding="utf-8")
    assert main(["ingest", "--registry", str(registry_path), "--dataset", dataset,
                 "--format", fmt, "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    corpus = tmp_path / "out" / "corpus" / dataset
    assert len((corpus / "train.jsonl").read_text(encoding="utf-8").splitlines()) == 2
    rejects = [json.loads(line) for line in (corpus / "train.rejects.jsonl").read_text().splitlines()]
    assert [(r["index"], r["doc_id"]) for r in rejects] == [(1, doc_id)]
    assert reason in rejects[0]["violations"][0]


def test_ingest_rejects_a_repeated_doc_id_naming_the_kept_document(tmp_path):
    """Two PubTator documents with one PMID used to load both, and forge
    then wrote two rows with one instance id."""
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("synth-ner-en")]).save(registry_path)
    src = tmp_path / "raw.pubtator"
    src.write_text("1|t|Aspirin treats pain.\n\n1|t|Ibuprofen cures fever.\n", encoding="utf-8")
    assert main(["ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en",
                 "--format", "pubtator", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    corpus = tmp_path / "out" / "corpus" / "synth-ner-en"
    assert [json.loads(line)["text"] for line in (corpus / "train.jsonl").read_text().splitlines()] == \
        ["Aspirin treats pain."]
    assert [json.loads(line) for line in (corpus / "train.rejects.jsonl").read_text().splitlines()] == [
        {"index": 1, "doc_id": "1", "violations": ["doc_id: '1' repeats the id of document 0"]}]


def test_ingest_writes_a_warning_row_per_conll_repair(tmp_path):
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("synth-ner-en")]).save(registry_path)
    src = tmp_path / "raw.conll"
    # the third block is repaired and then dropped: its warning row has no doc id
    src.write_text("a\tI-Disease\nb\tI-Chemical\n\nc\tO\n\nd\tI-Disease\ne\tBAD\n", encoding="utf-8")
    assert main(["ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en",
                 "--format", "conll", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    corpus = tmp_path / "out" / "corpus" / "synth-ner-en"
    rows = [json.loads(line) for line in (corpus / "train.warnings.jsonl").read_text().splitlines()]
    assert [(r["index"], r["doc_id"]) for r in rows] == [(0, "synth-ner-en-0"), (0, "synth-ner-en-0"), (2, None)]
    assert rows[0]["warning"] == "doc 0: I-Disease without open Disease run, treated as B-Disease"
    log = json.loads((tmp_path / "out" / "run_log.ingest.synth-ner-en.train.json").read_text())
    assert log["counts"] == {"loaded": 2, "violations": 1, "warnings": 3}


BIOC_GOOD_THEN_BROKEN = (
    "<collection>"
    + "".join(f"<document><id>d{k}</id><passage><text>text {k}</text></passage></document>" for k in range(3))
    + "<document><id>d3</id><passage><text>cut</passage></document></collection>"
)


def test_bioc_syntax_error_after_good_documents_writes_nothing(tmp_path, capsys):
    """The pull parser meets the error after three documents have been read:
    the ingest still fails whole, and an earlier corpus is left as it was."""
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("synth-ner-en")]).save(registry_path)
    good, bad = tmp_path / "good.xml", tmp_path / "bad.xml"
    good.write_text(BIOC_GOOD_THEN_BROKEN.replace("<text>cut</passage>", "<text>cut</text></passage>"),
                    encoding="utf-8")
    bad.write_text(BIOC_GOOD_THEN_BROKEN, encoding="utf-8")

    def ingest(src, out):
        return main(["ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en",
                     "--format", "bioc_xml", "--input", str(src), "--out", str(out)])

    assert ingest(bad, tmp_path / "fresh") == 2
    assert capsys.readouterr().err == f"config error: {bad}: not well-formed XML: mismatched tag: line 1, column 263\n"
    assert not (tmp_path / "fresh").exists()
    out = tmp_path / "out"
    assert ingest(good, out) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(before) == 4 and b'"doc_id": "d3"' in (out / "corpus" / "synth-ner-en" / "train.jsonl").read_bytes()
    assert ingest(bad, out) == 2
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_ingest_language_defaults_to_the_registry_rows(tmp_path):
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("ner-zh", Language.ZH)]).save(registry_path)
    src = tmp_path / "raw.conll"
    src.write_bytes(INGEST_INPUTS[("conll", "ner-zh", "zh")].encode("utf-8"))
    written = []
    for flag in ([], ["--language", "zh"]):
        out = tmp_path / f"out{len(flag)}"
        assert main(["ingest", "--registry", str(registry_path), "--dataset", "ner-zh", "--format", "conll",
                     "--input", str(src), *flag, "--out", str(out)]) == 0
        assert (out / "corpus" / "ner-zh" / "train.rejects.jsonl").read_text() == ""
        written.append((out / "corpus" / "ner-zh" / "train.jsonl").read_text())
    assert written[0] == written[1] and len(written[0].splitlines()) == 2


def test_ingest_unknown_dataset_exits_2(tmp_path, capsys):
    src = tmp_path / "raw.pubtator"
    src.write_text("", encoding="utf-8")
    code = main(["ingest", "--dataset", "nope", "--format", "pubtator", "--input", str(src),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: dataset id 'nope' not in registry\n"


def test_eval_task_without_metric_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    code = main(["eval", "--dataset", "mrd-en", "--gold", str(empty), "--predictions", str(empty),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: no automatic metric defined for task 'MRD'\n"


# Invocations that must end in one stderr line with exit 1 (missing input) or
# 2 (configuration error): the exit code and a fragment of that line.  "{tmp}"
# is the test's directory, which the ``bad_inputs`` fixture fills.
ERROR_CASES = {
    "ingest_latin1": (2, "ingest --dataset synth-ner-en --format pubtator --input {tmp}/latin1.txt",
                      "config error: {tmp}/latin1.txt: not UTF-8 text ("),
    "ingest_language_contradicts_registry": (2, "ingest --dataset synth-ner-en --format pubtator "
                                             "--input {tmp}/latin1.txt --language zh",
                                             "config error: --language zh contradicts dataset 'synth-ner-en', "
                                             "whose registry row says en\n"),
    "ingest_directory": (1, "ingest --dataset synth-ner-en --format pubtator --input {tmp}/corpus",
                         "missing input: {tmp}/corpus"),
    "eval_row_without_raw_text": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                                  "--predictions {tmp}/no_raw_text.jsonl", "raw_text"),
    "eval_bad_gold_json": (2, "eval --dataset synth-ner-en --gold {tmp}/bad.jsonl "
                           "--predictions {tmp}/no_raw_text.jsonl", "{tmp}/bad.jsonl:2: "),
    "eval_bad_predictions_json": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                                  "--predictions {tmp}/bad.jsonl", "{tmp}/bad.jsonl:2: "),
    "plan_bad_forged_json": (2, "plan --forged {tmp}/bad.jsonl", "{tmp}/bad.jsonl:2: "),
    # a directory is a missing input, not a file that is not regular
    "plan_forged_directory": (1, "plan --forged {tmp}/corpus", "missing input: {tmp}/corpus\n"),
    "eval_predictions_directory": (1, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                                   "--predictions {tmp}/corpus", "missing input: {tmp}/corpus\n"),
    "forge_bad_templates_json": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/bad.jsonl",
                                 "{tmp}/bad.jsonl:2: "),
    "eval_negative_sample_n": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                               "--predictions {tmp}/forged/forged.jsonl --sample-n -1", "sample size"),
    # registry rows that decode but break a rule, named by file (and line)
    "stats_negative_count": (2, "stats --registry {tmp}/negative.jsonl",
                             "config error: {tmp}/negative.jsonl:1: dataset 'synth-ner-en': "
                             "split_counts['train'] must be >= 0, got -1\n"),
    "stats_duplicate_id": (2, "stats --registry {tmp}/duplicate.jsonl",
                           "config error: {tmp}/duplicate.jsonl:2: duplicate dataset id 'synth-ner-en' "
                           "in registry\n"),
    "forge_duplicate_template_id": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/duplicate_template.jsonl",
                                    "config error: {tmp}/duplicate_template.jsonl:3: duplicate template id 't'\n"),
    # an untyped RE row whose relation neither a prompt nor a one-entry vocabulary implies
    "stats_untyped_re_two_relations": (2, "stats --registry {tmp}/untyped_re.jsonl",
                                       "config error: {tmp}/untyped_re.jsonl:1: dataset 're-en': re_untyped needs "
                                       "a prompted_relation or one label_vocab entry, got 2\n"),
    # stats counts documents: a row that is not one is named by file and line
    "stats_corpus_row_not_a_document": (2, "stats --corpus-root {tmp}/not_a_doc_corpus",
                                        "config error: {tmp}/not_a_doc_corpus/synth-ner-en/train.jsonl:2: "
                                        "UnifiedDocument.doc_id: required key missing\n"),
    # vocabulary entries that the parsers would read back as one
    "stats_vocab_equal_ignoring_case": (2, "stats --registry {tmp}/vocab_case.jsonl",
                                        "config error: {tmp}/vocab_case.jsonl:1: dataset 'synth-ner-en': label_vocab "
                                        "entries must be non-empty, trimmed and distinct ignoring case, "
                                        "got 'Disease', 'disease'\n"),
    "plan_unknown_stage_override": (2, "plan --forged {tmp}/forged/forged.jsonl "
                                    "--registry {tmp}/stage_override.jsonl",
                                    "config error: {tmp}/stage_override.jsonl:1: dataset 'synth-ner-en': "
                                    "stage_override must be 'Type1' or 'Type2', got 'type1'\n"),
    "stats_missing_corpus_root": (1, "stats --corpus-root {tmp}/nope",
                                  "missing input: {tmp}/nope/*/train.jsonl"),
    "forge_unregistered_dataset": (2, "forge --corpus-root {tmp}/corpus --registry {tmp}/ner_only.jsonl",
                                   "config error: dataset id 'synth-qamc-en' not in registry"),
    # a value that is not a string where eval reads one (a null raw_text is scored instead)
    "eval_raw_text_number": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                             "--predictions {tmp}/raw_text_number.jsonl",
                             "config error: {tmp}/raw_text_number.jsonl:1: PredictionRecord.raw_text: "
                             "expected str, got 3\n"),
    "eval_raw_text_list": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                           "--predictions {tmp}/raw_text_list.jsonl",
                           "config error: {tmp}/raw_text_list.jsonl:1: PredictionRecord.raw_text: "
                           "expected str, got ['x']\n"),
    "eval_prediction_id_list": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                                "--predictions {tmp}/id_list.jsonl",
                                "config error: {tmp}/id_list.jsonl:1: PredictionRecord.instance_id: "
                                "expected str, got ['a']\n"),
    "eval_gold_output_null": (2, "eval --dataset synth-ner-en --gold {tmp}/null_output.jsonl "
                              "--predictions {tmp}/no_raw_text.jsonl",
                              "config error: {tmp}/null_output.jsonl:2: InstructionInstance.output: "
                              "expected str, got None\n"),
    "eval_gold_dataset_id_number": (2, "eval --dataset synth-ner-en --gold {tmp}/number_dataset_id.jsonl "
                                    "--predictions {tmp}/no_raw_text.jsonl",
                                    "config error: {tmp}/number_dataset_id.jsonl:1: "
                                    "InstructionInstance.dataset_id: expected str, got 3\n"),
    # a mistyped value in any record file, named by file, line and field
    "forge_tc_label_number": (2, "forge --corpus-root {tmp}/tc_corpus --registry {tmp}/tc_mrd.jsonl",
                              "config error: {tmp}/tc_corpus/tc-en/train.jsonl:2: UnifiedDocument.labels: "
                              "expected str, got 3\n"),
    "forge_mrd_turn_text_number": (2, "forge --corpus-root {tmp}/mrd_corpus --registry {tmp}/tc_mrd.jsonl",
                                   "config error: {tmp}/mrd_corpus/mrd-en/train.jsonl:2: "
                                   "UnifiedDocument.dialogue: DialogueTurn.text: expected str, got 5\n"),
    "stats_split_count_string": (2, "stats --registry {tmp}/split_count_string.jsonl",
                                 "config error: {tmp}/split_count_string.jsonl:1: "
                                 "DatasetDescriptor.split_counts: expected int, got '5'\n"),
    "eval_label_vocab_number": (2, "eval --dataset synth-ner-en --gold {tmp}/forged/forged.jsonl "
                                "--predictions {tmp}/one_prediction.jsonl --registry {tmp}/vocab_number.jsonl",
                                "config error: {tmp}/vocab_number.jsonl:1: DatasetDescriptor.label_vocab: "
                                "expected str, got 3\n"),
    "stats_label_vocab_string": (2, "stats --registry {tmp}/vocab_string.jsonl",
                                 "config error: {tmp}/vocab_string.jsonl:1: DatasetDescriptor.label_vocab: "
                                 "expected list, got 'AB'\n"),
    "plan_general_dialogue_string": (2, "plan --forged {tmp}/forged/forged.jsonl "
                                     "--registry {tmp}/dialogue_string.jsonl",
                                     "config error: {tmp}/dialogue_string.jsonl:1: "
                                     "DatasetDescriptor.general_dialogue: expected bool, got 'false'\n"),
    "forge_pattern_number": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/pattern_number.jsonl",
                             "config error: {tmp}/pattern_number.jsonl:1: "
                             "InstructionTemplate.instruction_pattern: expected str, got 3\n"),
    "plan_unknown_task": (2, "plan --forged {tmp}/unknown_task.jsonl",
                          "config error: {tmp}/unknown_task.jsonl:2: InstructionInstance.task: "
                          "expected TaskType, got 'XYZ'\n"),
    # plan keeps two fields of a forged row, and still checks the others
    "plan_input_number": (2, "plan --forged {tmp}/input_number.jsonl",
                          "config error: {tmp}/input_number.jsonl:2: InstructionInstance.input: "
                          "expected str, got 3\n"),
    "plan_template_id_null": (2, "plan --forged {tmp}/template_id_null.jsonl",
                              "config error: {tmp}/template_id_null.jsonl:2: InstructionInstance.template_id: "
                              "expected str, got None\n"),
    "plan_output_missing": (2, "plan --forged {tmp}/output_missing.jsonl",
                            "config error: {tmp}/output_missing.jsonl:2: InstructionInstance.output: "
                            "required key missing\n"),
    # eval drops the rows of other datasets, and still checks them
    "eval_other_dataset_input_number": (2, "eval --dataset synth-ner-en --gold {tmp}/other_input_number.jsonl "
                                        "--predictions {tmp}/no_raw_text.jsonl",
                                        "config error: {tmp}/other_input_number.jsonl:2: InstructionInstance.input: "
                                        "expected str, got 3\n"),
    # eval streams the gold file but still reports its fault before one of the predictions file
    "eval_bad_gold_missing_predictions": (2, "eval --dataset synth-ner-en --gold {tmp}/bad.jsonl "
                                          "--predictions {tmp}/nope.jsonl", "config error: {tmp}/bad.jsonl:2: "),
    "eval_missing_gold_bad_predictions": (1, "eval --dataset synth-ner-en --gold {tmp}/nope.jsonl "
                                          "--predictions {tmp}/bad.jsonl", "missing input: {tmp}/nope.jsonl\n"),
    "eval_missing_gold_unscored_task": (1, "eval --dataset mrd-en --registry {tmp}/tc_mrd.jsonl "
                                        "--gold {tmp}/nope.jsonl --predictions {tmp}/one_prediction.jsonl",
                                        "missing input: {tmp}/nope.jsonl\n"),
    # a forged row of a dataset the registry lacks, or bytes that are not UTF-8, named by file and line
    "plan_unregistered_dataset": (2, "plan --forged {tmp}/unregistered.jsonl",
                                  "config error: {tmp}/unregistered.jsonl:2: dataset id 'nope' not in registry\n"),
    "plan_latin1_forged": (2, "plan --forged {tmp}/latin1_forged.jsonl",
                           "config error: {tmp}/latin1_forged.jsonl:3: not UTF-8 text (invalid continuation byte)\n"),
    "stats_unregistered_corpus_dir": (2, "stats --corpus-root {tmp}/corpus --registry {tmp}/ner_only.jsonl",
                                      "config error: dataset id 'synth-qamc-en' not in registry\n"),
    # a row that decodes but breaks a rule of validate_document, or a pattern slot that names no data,
    # named by the corpus file and line of the row
    "forge_mt_without_translation": (2, "forge --corpus-root {tmp}/MT_corpus --registry {tmp}/tasks.jsonl",
                                     "config error: {tmp}/MT_corpus/MT/train.jsonl:2: "
                                     "translation: required payload missing for task MT\n"),
    "forge_tp_without_pair": (2, "forge --corpus-root {tmp}/TP-ss_corpus --registry {tmp}/tasks.jsonl",
                              "config error: {tmp}/TP-ss_corpus/TP-ss/train.jsonl:2: "
                              "pair: required payload missing for task TP-ss\n"),
    "forge_qa_mc_answer_not_an_option": (2, "forge --corpus-root {tmp}/QA-mc_corpus --registry {tmp}/tasks.jsonl",
                                         "config error: {tmp}/QA-mc_corpus/QA-mc/train.jsonl:2: "
                                         "qa: answer key 'C' not among option keys\n"),
    "forge_mrd_unknown_speaker": (2, "forge --corpus-root {tmp}/MRD_corpus --registry {tmp}/tasks.jsonl",
                                  "config error: {tmp}/MRD_corpus/MRD/train.jsonl:2: "
                                  "dialogue: turn 0 has unknown speaker 'doctor'\n"),
    "forge_mrd_trailing_unknown_speaker": (2, "forge --corpus-root {tmp}/MRD_trailing_corpus "
                                           "--registry {tmp}/tasks.jsonl",
                                           "config error: {tmp}/MRD_trailing_corpus/MRD/train.jsonl:2: "
                                           "dialogue: turn 2 has unknown speaker 'doctor'\n"),
    "forge_mrd_empty_turn_text": (2, "forge --corpus-root {tmp}/MRD_empty_turn_corpus --registry {tmp}/tasks.jsonl",
                                  "config error: {tmp}/MRD_empty_turn_corpus/MRD/train.jsonl:2: "
                                  "dialogue: turn 0 has empty text\n"),
    "forge_mt_empty_texts": (2, "forge --corpus-root {tmp}/MT_empty_corpus --registry {tmp}/tasks.jsonl",
                             "config error: {tmp}/MT_empty_corpus/MT/train.jsonl:2: "
                             "translation: both texts must be non-empty\n"),
    "forge_positional_pattern_slot": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/positional.jsonl",
                                      "config error: {tmp}/corpus/synth-ner-en/train.jsonl:1: "
                                      "template 't': unsupported field '{{0}}'\n"),
    # a pattern that is no format string for a document's slots: the field, or else the whole pattern
    "forge_format_spec_pattern_slot": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/format_spec.jsonl",
                                       "config error: {tmp}/corpus/synth-ner-en/train.jsonl:1: "
                                       "template 't': unsupported field '{{text:d}}'\n"),
    "forge_lone_brace_pattern": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/lone_brace.jsonl",
                                 "config error: {tmp}/corpus/synth-ner-en/train.jsonl:1: "
                                 "template 't': unsupported field 'a {{ b'\n"),
    "forge_unclosed_field_pattern": (2, "forge --corpus-root {tmp}/corpus --templates {tmp}/unclosed.jsonl",
                                     "config error: {tmp}/corpus/synth-ner-en/train.jsonl:1: "
                                     "template 't': unsupported field '{{text'\n"),
    # an argument that a command puts in an output path must be one path component
    "ingest_split_outside_out": (2, "ingest --dataset synth-ner-en --format generic_jsonl "
                                 "--input {tmp}/corpus/synth-ner-en/train.jsonl --split ../../../escaped",
                                 "config error: --split '../../../escaped' is not a directory name\n"),
    "ingest_dataset_outside_out": (2, "ingest --dataset ../../evil --format generic_jsonl "
                                   "--input {tmp}/corpus/synth-ner-en/train.jsonl --registry {tmp}/escaping_ids.jsonl",
                                   "config error: --dataset '../../evil' is not a directory name\n"),
    "eval_dataset_outside_out": (2, "eval --dataset /../../escaped2 --gold {tmp}/forged/forged.jsonl "
                                 "--predictions {tmp}/one_prediction.jsonl --registry {tmp}/escaping_ids.jsonl",
                                 "config error: --dataset '/../../escaped2' is not a directory name\n"),
    # a dataset id names curate's output directory, so it must be one path component
    "curate_absolute_dataset_id": (2, "curate --corpus-root {tmp}/absolute_id_corpus",
                                   "config error: {tmp}/absolute_id_corpus/ner-en/train.jsonl:2: "
                                   "dataset id '{tmp}/escaped' is not a directory name\n"),
    "curate_parent_dataset_id": (2, "curate --corpus-root {tmp}/parent_id_corpus",
                                 "config error: {tmp}/parent_id_corpus/ner-en/train.jsonl:2: "
                                 "dataset id '../../outside' is not a directory name\n"),
    "curate_empty_dataset_id": (2, "curate --corpus-root {tmp}/empty_id_corpus",
                                "config error: {tmp}/empty_id_corpus/ner-en/train.jsonl:2: "
                                "dataset id '' is not a directory name\n"),
    # every train row is read before any test row, though a-en's test file sorts before b-en's train file
    "curate_train_fault_before_test_fault": (2, "curate --corpus-root {tmp}/fault_order_corpus",
                                             "config error: {tmp}/fault_order_corpus/b-en/train.jsonl:2: "),
}

# Per task, a good payload and one that forge cannot render, for the
# ``forge_*`` cases above.
UNFORGEABLE = {
    "MT": ({"translation": {"text_a": "a", "text_b": "b"}}, {}),
    "TP-ss": ({"pair": {"text_a": "a", "text_b": "b", "label": "1"}}, {}),
    "QA-mc": ({"qa": {"question": "q", "options": [["A", "a"], ["B", "b"]], "answer_keys": ["A"]}},
              {"qa": {"question": "q", "options": [["A", "a"], ["B", "b"]], "answer_keys": ["C"]}}),
    "MRD": ({"dialogue": [{"speaker": "user", "text": "hi"}, {"speaker": "assistant", "text": "ok"}]},
            {"dialogue": [{"speaker": "doctor", "text": "hi"}, {"speaker": "assistant", "text": "ok"}]}),
}
# More corpora of one faulty row, keyed by corpus name: the row's task and payload.
MORE_UNFORGEABLE = {
    # a speaker after the last assistant turn, which the prompt does not show
    "MRD_trailing": ("MRD", {"dialogue": [{"speaker": "user", "text": "hi"}, {"speaker": "assistant", "text": "ok"},
                                          {"speaker": "doctor", "text": "bye"}]}),
    "MRD_empty_turn": ("MRD", {"dialogue": [{"speaker": "user", "text": ""}, {"speaker": "assistant", "text": "ok"}]}),
    "MT_empty": ("MT", {"translation": {"text_a": "", "text_b": ""}}),
}


@pytest.fixture
def bad_inputs(workspace):
    tmp_path, registry_path, corpus_root = workspace
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(tmp_path / "forged")]) == 0
    (tmp_path / "latin1.txt").write_bytes("1|t|caf\xe9\n".encode("latin-1"))
    (tmp_path / "bad.jsonl").write_text('\n{"instance_id":\n')
    (tmp_path / "no_raw_text.jsonl").write_text('{"instance_id": "x"}\n')
    row = to_dict(ner_descriptor("synth-ner-en"))
    (tmp_path / "duplicate.jsonl").write_text(2 * (json.dumps(row) + "\n"))
    (tmp_path / "negative.jsonl").write_text(json.dumps({**row, "split_counts": {"train": -1}}) + "\n")
    qa_row = registry_path.read_text().splitlines(keepends=True)[1]
    for name, change in {"split_count_string": {"split_counts": {"train": "5"}},
                         "vocab_number": {"label_vocab": ["A", 3]},
                         "vocab_string": {"label_vocab": "AB"},
                         "dialogue_string": {"general_dialogue": "false"},
                         "stage_override": {"stage_override": "type1"},
                         "vocab_case": {"label_vocab": ["Chemical", "Disease", "disease"]}}.items():
        (tmp_path / f"{name}.jsonl").write_text(json.dumps({**row, **change}) + "\n" + qa_row)
    Registry([ner_descriptor("synth-ner-en")]).save(tmp_path / "ner_only.jsonl")
    for name, row in {"raw_text_number": {"instance_id": "x", "raw_text": 3},
                      "raw_text_list": {"instance_id": "x", "raw_text": ["x"]},
                      "id_list": {"instance_id": ["a"], "raw_text": "x"},
                      "one_prediction": {"instance_id": "x", "raw_text": "x"}}.items():
        (tmp_path / f"{name}.jsonl").write_text(json.dumps(row) + "\n")
    gold = [json.loads(line) for line in (tmp_path / "forged" / "forged.jsonl").read_text().splitlines()]
    (tmp_path / "null_output.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in (gold[0], {**gold[1], "output": None})))
    (tmp_path / "number_dataset_id.jsonl").write_text(json.dumps({**gold[0], "dataset_id": 3}) + "\n")
    (tmp_path / "unknown_task.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in (gold[0], {**gold[1], "task": "XYZ"})))
    qa_gold = next(row for row in gold if row["dataset_id"] == "synth-qamc-en")
    for name, row in {"input_number": {**gold[1], "input": 3},
                      "template_id_null": {**gold[1], "template_id": None},
                      "output_missing": {k: v for k, v in gold[1].items() if k != "output"},
                      "other_input_number": {**qa_gold, "input": 3}}.items():
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in (gold[0], row)))
    (tmp_path / "unregistered.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in (gold[0], {**gold[1], "dataset_id": "nope"})))
    (tmp_path / "latin1_forged.jsonl").write_bytes("".join(
        json.dumps(row, ensure_ascii=False) + "\n" for row in (gold[0], gold[1], {**gold[2], "output": "caf\xe9"})
    ).encode("latin-1"))
    (tmp_path / "pattern_number.jsonl").write_text(json.dumps(
        {"template_id": "t", "task": "NER/NEN", "language": "en", "instruction_pattern": 3}) + "\n")
    Registry([tc_descriptor("tc-en"), MRD_DESC]).save(tmp_path / "tc_mrd.jsonl")
    for corpus, dataset_id in (("tc_corpus", "tc-en"), ("mrd_corpus", "mrd-en")):
        (tmp_path / corpus / dataset_id).mkdir(parents=True)
        (tmp_path / corpus / dataset_id / "train.jsonl").write_text(REJECT_CASES[f"generic_jsonl/{dataset_id}"][0])
    Registry([DatasetDescriptor(id=task, name=task, task=TaskType(task), language=Language.EN)
              for task in UNFORGEABLE]).save(tmp_path / "tasks.jsonl")
    for task, (good, bad) in UNFORGEABLE.items():
        (tmp_path / f"{task}_corpus" / task).mkdir(parents=True)
        (tmp_path / f"{task}_corpus" / task / "train.jsonl").write_text(_jsonl_docs(task, good, bad))
    for corpus, (task, bad) in MORE_UNFORGEABLE.items():
        (tmp_path / f"{corpus}_corpus" / task).mkdir(parents=True)
        (tmp_path / f"{corpus}_corpus" / task / "train.jsonl").write_text(
            _jsonl_docs(task, UNFORGEABLE[task][0], bad))
    for name, pattern in {"positional": "{0}", "format_spec": "{text:d}", "lone_brace": "a { b",
                          "unclosed": "{text"}.items():
        (tmp_path / f"{name}.jsonl").write_text(json.dumps(
            {"template_id": "t", "task": "NER/NEN", "language": "en", "instruction_pattern": pattern}) + "\n")
    Registry([ner_descriptor("../../evil"), ner_descriptor("/../../escaped2")]).save(tmp_path / "escaping_ids.jsonl")
    (tmp_path / "duplicate_template.jsonl").write_text("".join(json.dumps(
        {"template_id": template_id, "task": "NER/NEN", "language": "en", "instruction_pattern": "{text}"}) + "\n"
        for template_id in ("t", "u", "t")))
    (tmp_path / "untyped_re.jsonl").write_text(json.dumps(
        {"id": "re-en", "name": "re-en", "task": "RE", "language": "en", "label_vocab": ["CID", "treats"],
         "re_untyped": True}) + "\n")
    good = (tmp_path / "corpus" / "synth-ner-en" / "train.jsonl").read_text().splitlines(keepends=True)[0]
    with_id = lambda dataset_id: good + json.dumps({**json.loads(good), "dataset_id": dataset_id}) + "\n"  # noqa: E731
    for corpus, files in {"absolute_id": {"ner-en/train.jsonl": with_id(str(tmp_path / "escaped"))},
                          "parent_id": {"ner-en/train.jsonl": with_id("../../outside")},
                          "empty_id": {"ner-en/train.jsonl": with_id("")},
                          "fault_order": {"a-en/train.jsonl": good, "a-en/test.jsonl": good + '{"text":\n',
                                          "b-en/train.jsonl": good + '{"text":\n'},
                          "not_a_doc": {"synth-ner-en/train.jsonl": good + '{}\n[1, 2]\n"x"\n'}}.items():
        for name, text in files.items():
            (tmp_path / f"{corpus}_corpus" / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / f"{corpus}_corpus" / name).write_text(text)
    return tmp_path, registry_path


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_failed_command_prints_one_line_and_writes_nothing(bad_inputs, capsys, case):
    tmp_path, registry_path = bad_inputs
    code, argv, fragment = ERROR_CASES[case]
    argv = argv.format(tmp=tmp_path).split()
    if "--registry" not in argv:
        argv += ["--registry", str(registry_path)]
    out = tmp_path / "out"
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert fragment.format(tmp=tmp_path) in err
    assert not out.exists()
    assert sorted(tmp_path.rglob("*")) == before  # nor anywhere else


def test_output_path_that_is_a_directory_exits_2(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "fo"
    (out / "forged.jsonl").mkdir(parents=True)
    code = main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {out}/forged.jsonl: output path is a directory\n"
    assert sorted(p.name for p in out.iterdir()) == ["forged.jsonl"]


@pytest.mark.parametrize("command", ["curate", "forge"])
def test_empty_corpus_root_exits_1_naming_the_glob(tmp_path, capsys, command):
    code = main([command, "--corpus-root", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"missing input: {tmp_path}/*/train.jsonl\n"


def test_forge_is_idempotent_and_seed_sensitive(workspace):
    tmp_path, registry_path, corpus_root = workspace
    digests = []
    for out_name in ("out1", "out2"):
        code = main([
            "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
            "--seed", "7", "--out", str(tmp_path / out_name),
        ])
        assert code == 0
        log = json.loads((tmp_path / out_name / "run_log.forge.json").read_text())
        digests.append(log["counts"]["output_digest"])
    assert digests[0] == digests[1]
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "8", "--out", str(tmp_path / "out3"),
    ])
    log = json.loads((tmp_path / "out3" / "run_log.forge.json").read_text())
    assert log["counts"]["output_digest"] != digests[0]


def test_plan_command(workspace):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    code = main([
        "plan", "--registry", str(registry_path),
        "--forged", str(tmp_path / "out" / "forged.jsonl"),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "plan" / "stage1.manifest.json").read_text())
    assert manifest["epochs"] == 5
    assert manifest["batch_size_per_gpu"] == 12


def test_plan_lists_every_copy_of_a_duplicated_id_with_the_last_rows_content(workspace):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)]) == 0
    forged = out / "forged.jsonl"
    lines = forged.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])  # a NER row, so it is in both stages
    last = json.dumps({**first, "output": "changed"}, ensure_ascii=False, sort_keys=True)
    forged.write_text("\n".join([*lines, last]) + "\n", encoding="utf-8")
    assert main(["plan", "--registry", str(registry_path), "--forged", str(forged),
                 "--out", str(out)]) == 0
    for stage in (1, 2):
        rows = (out / "plan" / f"stage{stage}.jsonl").read_text(encoding="utf-8").splitlines()
        copies = [row for row in rows if json.loads(row)["instance_id"] == first["instance_id"]]
        assert copies == [last, last]
    assert len(rows) == len(lines) + 1


def test_plan_copies_a_non_canonical_forged_line_verbatim(workspace):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)]) == 0
    forged = out / "forged.jsonl"
    lines = forged.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[0])  # a NER row, so it is in both stages
    odd = json.dumps({"extra": ["é", 2], **row}, separators=(" ,  ", " :  "))  # unknown key, \u escape
    forged.write_text("\n".join([f"  {odd}\t ", *lines[1:]]) + "\n", encoding="utf-8")
    assert main(["plan", "--registry", str(registry_path), "--forged", str(forged),
                 "--out", str(out)]) == 0
    for stage in (1, 2):
        rows = (out / "plan" / f"stage{stage}.jsonl").read_text(encoding="utf-8").splitlines()
        assert odd in rows
        assert sorted(rows) == sorted(line for line in [odd, *lines[1:]]
                                      if stage == 2 or json.loads(line)["dataset_id"] == row["dataset_id"])


def test_plan_peak_memory_is_below_half_the_forged_file(workspace):
    """Plan holds byte offsets and row numbers, not decoded rows."""
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "forged.jsonl").read_text(encoding="utf-8").splitlines()]
    forged = tmp_path / "big.jsonl"
    forged.write_text("".join(
        json.dumps({**rows[n % len(rows)], "instance_id": f"i{n}", "input": f"{n} " + "x" * 1024},
                   sort_keys=True) + "\n"
        for n in range(2000)), encoding="utf-8")
    size = forged.stat().st_size
    tracemalloc.start()
    try:
        assert main(["plan", "--registry", str(registry_path), "--forged", str(forged),
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)


def test_eval_peak_memory_is_below_a_quarter_of_the_gold_file(workspace):
    """Eval scores each gold row as it reads it: it holds each prediction
    row's span, id hash and looked-up mark, and running counts, not gold
    rows, predictions or gold ids."""
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)]) == 0
    rows = [row for row in map(json.loads, (out / "forged.jsonl").read_text(encoding="utf-8").splitlines())
            if row["dataset_id"] == "synth-ner-en"]
    gold, predictions = tmp_path / "gold.jsonl", tmp_path / "predictions.jsonl"
    gold.write_text("".join(
        json.dumps({**rows[n % len(rows)], "instance_id": f"i{n}", "input": f"{n} " + "x" * 1024},
                   sort_keys=True) + "\n"
        for n in range(2000)), encoding="utf-8")
    predictions.write_text("".join(
        json.dumps({"instance_id": f"i{n}", "raw_text": rows[n % len(rows)]["output"]}) + "\n"
        for n in range(0, 2000, 4)), encoding="utf-8")
    peak = _peak_bytes(["eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
                        "--gold", str(gold), "--predictions", str(predictions), "--out", str(out)])
    assert json.loads((out / "eval.synth-ner-en.json").read_text())["total"] == 2000
    assert peak < gold.stat().st_size / 4, (peak, gold.stat().st_size)


def test_eval_missing_predictions_exits_1(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    missing = tmp_path / "nope.jsonl"
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(missing), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_eval_unknown_dataset_exits_2(workspace, tmp_path_factory, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    preds = tmp_path / "preds.jsonl"
    preds.write_text("", encoding="utf-8")
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "not-a-dataset",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(preds), "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_eval_oracle_round_trip(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    from bioforge.forge import read_instances
    instances = read_instances(tmp_path / "out" / "forged.jsonl")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "\n".join(
            json.dumps({"instance_id": i.instance_id, "raw_text": i.output})
            for i in instances if i.dataset_id == "synth-ner-en"
        ),
        encoding="utf-8",
    )
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(preds), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "out" / "eval.synth-ner-en.json").read_text())
    assert report["f1"] == 1.0


def test_eval_counts_duplicate_and_unknown_prediction_ids(workspace):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    gold = [i for i in read_instances(out / "forged.jsonl") if i.dataset_id == "synth-ner-en"]
    rows = [{"instance_id": i.instance_id, "raw_text": i.output} for i in gold]
    # a junk copy of the first row that the verbatim one after it overrides,
    # a stray id, and a row of the other dataset in the same gold file
    rows[1:1] = [{"instance_id": gold[0].instance_id, "raw_text": "junk"},
                 {"instance_id": "stray", "raw_text": "x"},
                 {"instance_id": gold[0].instance_id, "raw_text": gold[0].output}]
    qa_id = next(i.instance_id for i in read_instances(out / "forged.jsonl")
                 if i.dataset_id == "synth-qamc-en")
    rows.append({"instance_id": qa_id, "raw_text": "A"})
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert main(["eval", "--dataset", "synth-ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), "--sample-n", "3", *common]) == 0
    counts = json.loads((out / "run_log.eval.synth-ner-en.json").read_text())["counts"]
    assert counts["duplicate_prediction_ids"] == 1
    assert counts["unknown_prediction_ids"] == 2
    assert counts["instances"] == 3
    # last wins: the verbatim copy, so every sampled row scores as gold
    assert json.loads((out / "eval.synth-ner-en.json").read_text())["f1"] == 1.0


@pytest.mark.parametrize("sample_n, strays", [(None, 1), (None, 2), ("3", 2)])
def test_eval_counts_a_repeated_stray_id_once_as_duplicate_and_once_as_unknown(workspace, sample_n, strays):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    forged = read_instances(out / "forged.jsonl")
    gold = [i for i in forged if i.dataset_id == "synth-ner-en"]
    rows = [{"instance_id": i.instance_id, "raw_text": i.output} for i in gold]
    rows[1:1] = [{"instance_id": gold[0].instance_id, "raw_text": "junk"},
                 *({"instance_id": "stray", "raw_text": f"x{k}"} for k in range(strays)),
                 {"instance_id": gold[0].instance_id, "raw_text": gold[0].output}]
    rows.append({"instance_id": next(i.instance_id for i in forged if i.dataset_id == "synth-qamc-en"),
                 "raw_text": "A"})
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    sample = [] if sample_n is None else ["--sample-n", sample_n]
    assert main(["eval", "--dataset", "synth-ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *sample, *common]) == 0
    counts = json.loads((out / "run_log.eval.synth-ner-en.json").read_text())["counts"]
    assert counts["duplicate_prediction_ids"] == strays
    assert counts["unknown_prediction_ids"] == 2
    assert counts["instances"] == (len(gold) if sample_n is None else 3)
    assert json.loads((out / "eval.synth-ner-en.json").read_text())["f1"] == 1.0


def test_every_prediction_id_hash_equal_writes_the_same_eval(workspace, monkeypatch):
    """With one hash for every id, each row probes every later id and each
    lookup every id, and only the re-read row's id tells two ids apart."""
    tmp_path, registry_path, corpus_root = workspace
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(tmp_path / "out")]) == 0
    forged = read_instances(tmp_path / "out" / "forged.jsonl")
    rows = []
    for n, inst in enumerate(forged):
        if n % 5 == 2:  # missing
            continue
        rows.append({"instance_id": inst.instance_id,
                     "raw_text": None if n % 7 == 3 else inst.output if n % 3 else "junk"})
        if n % 4 == 1:  # given again, and the later row wins
            rows.append({"instance_id": inst.instance_id, "raw_text": inst.output if n % 8 == 1 else None})
    rows[10:10] = [{"instance_id": "stray", "raw_text": "x"}, {"instance_id": "stray 2", "raw_text": None},
                   {"instance_id": "stray", "raw_text": "y"}]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")

    def evals(out):
        results = []
        for dataset in ("synth-ner-en", "synth-qamc-en"):
            assert main(["eval", "--registry", str(registry_path), "--dataset", dataset,
                         "--gold", str(tmp_path / "out" / "forged.jsonl"), "--predictions", str(preds),
                         "--out", str(out)]) == 0
            results.append(((out / f"eval.{dataset}.json").read_bytes(), (out / f"eval.{dataset}.txt").read_bytes(),
                            json.loads((out / f"run_log.eval.{dataset}.json").read_text())["counts"]))
        return results

    hashed = evals(tmp_path / "hashed")
    ids = [r["instance_id"] for r in rows]
    for (*_, counts), dataset in zip(hashed, ("synth-ner-en", "synth-qamc-en")):
        assert counts["duplicate_prediction_ids"] == sum(1 for i in set(ids) if ids.count(i) > 1) == 12
        assert counts["unknown_prediction_ids"] == len(set(ids) - {i.instance_id for i in forged
                                                                   if i.dataset_id == dataset})
    hashed_ids = []
    monkeypatch.setattr(schema, "_id_hash", lambda instance_id: hashed_ids.append(instance_id) or 7)
    assert evals(tmp_path / "colliding") == hashed
    assert len(hashed_ids) == 2 * len(rows) + len(forged)  # each row once an eval, each gold row once


def test_eval_of_predictions_changed_after_they_were_read_exits_2(workspace, monkeypatch, capsys):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    gold = [i for i in read_instances(out / "forged.jsonl") if i.dataset_id == "synth-ner-en"]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
                             for i in gold), encoding="utf-8")
    read_predictions = cli.read_predictions

    def read_then_truncate(path):
        predictions = read_predictions(path)
        with open(path, "r+b") as f:
            f.truncate(preds.stat().st_size // 2)
        return predictions
    monkeypatch.setattr(cli, "read_predictions", read_then_truncate)
    capsys.readouterr()
    assert main(["eval", "--dataset", "synth-ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *common]) == 2
    assert capsys.readouterr().err == f"config error: {preds}: file changed since it was read\n"
    assert not (out / "eval.synth-ner-en.json").exists()
    assert not (out / "run_log.eval.synth-ner-en.json").exists()


def test_eval_of_predictions_from_a_pipe_exits_2(workspace, capsys):
    """Eval reads prediction rows again by their byte spans, which a pipe
    cannot give: it fails before it reads a row."""
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    read, write = os.pipe()
    pipe = f"/dev/fd/{read}"
    try:
        os.write(write, b'{"instance_id": "x", "raw_text": "y"}\n')
        os.close(write)
        capsys.readouterr()
        assert main(["eval", "--dataset", "synth-ner-en", "--gold", str(out / "forged.jsonl"),
                     "--predictions", pipe, *common]) == 2
    finally:
        os.close(read)
    assert capsys.readouterr().err == f"config error: {pipe}: not a regular file\n"
    assert not (out / "eval.synth-ner-en.json").exists()


@pytest.mark.parametrize("command", ["plan", "curate"])
def test_plan_and_curate_of_a_pipe_exit_2(workspace, capsys, command):
    """Plan and curate read rows again by their byte spans, as eval does, and
    refuse a pipe the same way (curate's train file here is a link to one).
    The pipe's row fits neither record, so the pipe is refused before any
    row is read."""
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    read, write = os.pipe()
    pipe = f"/dev/fd/{read}"
    if command == "plan":
        argv, named = ["--forged", pipe], pipe
    else:
        named = tmp_path / "piped" / "synth-ner-en" / "train.jsonl"
        named.parent.mkdir(parents=True)
        named.symlink_to(pipe)
        argv = ["--corpus-root", str(tmp_path / "piped")]
    try:
        os.write(write, b'{"instance_id": "x"}\n')
        os.close(write)
        assert main([command, *argv, "--registry", str(registry_path), "--out", str(out)]) == 2
    finally:
        os.close(read)
    assert capsys.readouterr().err == f"config error: {named}: not a regular file\n"
    assert not out.exists()


PROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(bioforge.__file__).resolve().parent.parent)}


@pytest.mark.parametrize("command", ["plan", "eval", "curate"])
def test_named_pipe_without_a_writer_exits_2_at_once(workspace, command):
    """Opening a named pipe with no writer blocks, so plan, eval and curate
    refuse one before they open it.  Each runs in a process of its own,
    killed after a timeout, so that a hang fails the test, not the suite."""
    tmp_path, registry_path, corpus_root = workspace
    fifo = tmp_path / "fifo" / "synth-ner-en" / "train.jsonl"
    fifo.parent.mkdir(parents=True)
    os.mkfifo(fifo)
    gold = tmp_path / "gold.jsonl"
    gold.write_text("")
    argv = {"plan": ["--forged", str(fifo)],
            "eval": ["--dataset", "synth-ner-en", "--gold", str(gold), "--predictions", str(fifo)],
            "curate": ["--corpus-root", str(tmp_path / "fifo")]}[command]
    proc = subprocess.run([sys.executable, "-m", "bioforge.cli", command, *argv, "--registry", str(registry_path),
                           "--out", str(tmp_path / "out")],
                          env=PROCESS_ENV, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, f"config error: {fifo}: not a regular file\n")
    assert not (tmp_path / "out").exists()


def test_eval_scores_a_null_prediction_as_unparseable(workspace):
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    gold = [i for i in read_instances(out / "forged.jsonl") if i.dataset_id == "synth-ner-en"]
    rows = [{"instance_id": i.instance_id, "raw_text": None if n == 0 else i.output}
            for n, i in enumerate(gold)]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    assert main(["eval", "--dataset", "synth-ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *common]) == 0
    report = json.loads((out / "eval.synth-ner-en.json").read_text())
    assert report["unparseable_count"] == 1
    assert report["fn"] > 0 and report["fp"] == 0


def test_curate_command(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    # duplicate one training doc into a test split to force one overlap removal
    from bioforge.schema import read_documents
    docs = read_documents(corpus_root / "synth-ner-en" / "train.jsonl")
    write_documents(corpus_root / "synth-ner-en" / "test.jsonl", docs[:1])
    code = main([
        "curate", "--corpus-root", str(corpus_root), "--out", str(tmp_path / "cur"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "cur" / "curation_report.json").read_text())
    assert report["overlap_removed"] >= 1
    assert report["output_count"] == (
        report["input_count"] - report["duplicates_removed"] - report["overlap_removed"]
    )


def _curate_corpus(root: Path) -> Path:
    """A corpus for ``curate``: exact and case- or space-variant duplicates
    in train, a tc-en row inside ner-en's directory, and test rows that
    overlap ner-en and tc-en."""
    _, ner = make_ner_docs(20, seed=31, desc=ner_descriptor("ner-en"))
    _, zh = make_ner_docs(12, seed=32, desc=ner_descriptor("ner-zh", Language.ZH))
    _, tc = make_tc_docs(20, seed=33, desc=tc_descriptor("tc-en"))
    corpus = root / "corpus"
    write_documents(corpus / "ner-en" / "train.jsonl", [
        *ner[:10], replace(ner[2], doc_id="dup"), replace(ner[4], doc_id="upper", text=ner[4].text.upper()),
        replace(tc[15], doc_id="stray"), *ner[10:]])
    write_documents(corpus / "ner-en" / "test.jsonl", [replace(ner[6], doc_id="t1", text=f" {ner[6].text}\t")])
    write_documents(corpus / "ner-zh" / "train.jsonl", [*zh, replace(zh[0], doc_id="dup")])
    write_documents(corpus / "tc-en" / "train.jsonl", [*tc, replace(tc[15], doc_id="dup")])
    write_documents(corpus / "tc-en" / "test.jsonl", [replace(tc[3], doc_id="t1"), replace(ner[9], doc_id="t2")])
    return corpus


# SHA-256 of what ``curate`` writes from ``_curate_corpus``, computed before
# curate copied kept lines instead of re-encoding them.
PINNED_CURATE_DIGESTS = {
    "curated/ner-en/train.jsonl": "e253ac48508d98fa60fd4fd1052845b04161a20f3a14f7f2795d800796704600",
    "curated/ner-zh/train.jsonl": "1ee82a1d06adcf584cdac0af190b11f0c75f8e5dc070e4af9b2af1be21fbb42f",
    "curated/tc-en/train.jsonl": "c244380a4686b890253ad80a3639cbd8f62b6be0a70b61ac578f9b274f31c3c9",
    "curation_report.json": "be302f6943e7acd4b75f4be16218a8f4100e10b2d765f5e52c11e307205b1eb3",
}


def test_pinned_curate_digests(tmp_path):
    corpus = _curate_corpus(tmp_path)
    out = tmp_path / "cur"
    assert main(["curate", "--corpus-root", str(corpus), "--out", str(out)]) == 0
    written = [*sorted((out / "curated").glob("*/train.jsonl")), out / "curation_report.json"]
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == PINNED_CURATE_DIGESTS


def test_curate_copies_a_non_canonical_train_line_verbatim(tmp_path):
    _, docs = make_ner_docs(6, seed=3)
    corpus = tmp_path / "corpus"
    train = corpus / "synth-ner-en" / "train.jsonl"
    write_documents(train, docs)
    lines = train.read_text(encoding="utf-8").splitlines()
    odd = json.dumps({"extra": ["é", 2], **json.loads(lines[2])}, separators=(" ,  ", " :  "))
    train.write_text("\n".join([*lines[:2], f" {odd}\t", *lines[3:]]) + "\n", encoding="utf-8")
    out = tmp_path / "cur"
    assert main(["curate", "--corpus-root", str(corpus), "--out", str(out)]) == 0
    assert (out / "curated" / "synth-ner-en" / "train.jsonl").read_text(encoding="utf-8").splitlines() == \
        [*lines[:2], odd, *lines[3:]]


def test_every_key_hash_equal_writes_the_same_curated_files(tmp_path, monkeypatch):
    """With one hash for every key, each row probes every earlier distinct
    key, and only the full comparison of two keys tells them apart."""
    corpus = _curate_corpus(tmp_path)

    def curated(out):
        assert main(["curate", "--corpus-root", str(corpus), "--out", str(out)]) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in [*sorted((out / "curated").glob("*/train.jsonl")), out / "curation_report.json"]}

    hashed = curated(tmp_path / "hashed")
    hashed_keys = []
    monkeypatch.setattr(curation, "_key_hash", lambda key: hashed_keys.append(key) or 7)
    assert curated(tmp_path / "colliding") == hashed
    report = json.loads(hashed["curation_report.json"])
    assert report["duplicates_removed"] > 0 and report["overlap_removed"] > 0
    assert len(hashed_keys) == report["input_count"] - report["overlap_removed"]


def _long_docs(n: int, dataset_id: str):
    """``n`` distinct TC documents of about 1.2 KB each."""
    _, docs = make_tc_docs(n, seed=5, desc=tc_descriptor(dataset_id))
    return [replace(d, text=f"{i} {d.text} " + "x" * 1024) for i, d in enumerate(docs)]


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curate_peak_memory_is_below_half_the_train_file(tmp_path):
    """Curate holds a key, dataset id and byte span per row, not documents."""
    docs = _long_docs(2000, "synth-tc-en")
    train = tmp_path / "corpus" / "synth-tc-en" / "train.jsonl"
    write_documents(train, [*docs, *docs[:100]])
    write_documents(train.with_name("test.jsonl"), docs[100:110])
    peak = _peak_bytes(["curate", "--corpus-root", str(tmp_path / "corpus"), "--out", str(tmp_path / "cur")])
    assert peak < train.stat().st_size / 2, (peak, train.stat().st_size)


def test_curate_memory_grows_by_under_48_bytes_a_row(tmp_path):
    """Curate holds machine words per train row in columns: a key, a
    dataset number, a byte span, a slot of the first-row table and a kept
    mark."""
    _, docs = make_tc_docs(1, seed=5, desc=tc_descriptor("synth-tc-en"))
    row = to_dict(docs[0])
    peaks = {}
    for n in (10_000, 40_000):
        train = tmp_path / f"corpus{n}" / "synth-tc-en" / "train.jsonl"
        train.parent.mkdir(parents=True)
        train.write_text("".join(json.dumps({**row, "doc_id": f"d{k}", "text": f"t{k}"}) + "\n"
                                 for k in range(n)), encoding="utf-8")
        train.with_name("test.jsonl").write_text("".join(json.dumps({**row, "doc_id": f"e{k}", "text": f"e{k}"})
                                                         + "\n" for k in range(50)), encoding="utf-8")
        peaks[n] = _peak_bytes(["curate", "--corpus-root", str(train.parent.parent),
                                "--out", str(tmp_path / f"cur{n}")])
    slope = (peaks[40_000] - peaks[10_000]) / 30_000
    assert slope < 48, peaks


def test_eval_memory_grows_by_under_48_bytes_a_prediction_row(workspace):
    """Eval holds machine words per prediction row in columns: a byte span,
    an id hash, a slot of the last-row table and a looked-up mark."""
    tmp_path, registry_path, corpus_root = workspace
    out = tmp_path / "out"
    assert main(["forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
                 "--out", str(out)]) == 0
    gold = "".join(json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
                   for i in read_instances(out / "forged.jsonl") if i.dataset_id == "synth-ner-en")
    peaks = {}
    for n in (10_000, 40_000):
        preds = tmp_path / f"preds{n}.jsonl"
        preds.write_text(gold + "".join(json.dumps({"instance_id": f"s{k}", "raw_text": "x"}) + "\n"
                                        for k in range(n)), encoding="utf-8")
        peaks[n] = _peak_bytes(["eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
                                "--gold", str(out / "forged.jsonl"), "--predictions", str(preds),
                                "--out", str(tmp_path / f"eval{n}")])
        counts = json.loads((tmp_path / f"eval{n}" / "run_log.eval.synth-ner-en.json").read_text())["counts"]
        assert counts["unknown_prediction_ids"] == n
    slope = (peaks[40_000] - peaks[10_000]) / 30_000
    assert slope < 48, peaks


def test_forge_peak_memory_is_below_half_the_corpus_file(tmp_path):
    """Forge renders and writes each row as it reads it."""
    registry_path = tmp_path / "registry.jsonl"
    Registry([tc_descriptor("synth-tc-en")]).save(registry_path)
    train = tmp_path / "corpus" / "synth-tc-en" / "train.jsonl"
    write_documents(train, _long_docs(2000, "synth-tc-en"))
    peak = _peak_bytes(["forge", "--registry", str(registry_path), "--corpus-root", str(tmp_path / "corpus"),
                        "--out", str(tmp_path / "out")])
    assert peak < train.stat().st_size / 2, (peak, train.stat().st_size)


def _ner_source(fmt: str, docs) -> str:
    """``docs`` in source format ``fmt`` (CoNLL tokens all tagged O)."""
    if fmt == "pubtator":
        return "".join(f"{k}|t|{d.text}\n" + "".join(f"{k}\t{e.start}\t{e.end}\t{e.surface}\t{e.etype}\n"
                                                     for e in d.entities) + "\n"
                       for k, d in enumerate(docs))
    if fmt == "conll":
        return "\n".join("".join(f"{token}\tO\n" for token in d.text.split()) for d in docs)
    if fmt == "bioc_xml":
        return "<collection>" + "".join(
            f"<document><id>{d.doc_id}</id><passage><text>{escape(d.text)}</text>"
            + "".join(f'<annotation><infon key="type">{e.etype}</infon>'
                      f'<location offset="{e.start}" length="{e.end - e.start}"/>'
                      f"<text>{escape(e.surface)}</text></annotation>" for e in d.entities)
            + "</passage></document>\n" for d in docs) + "</collection>\n"
    return "".join(json.dumps(to_dict(d)) + "\n" for d in docs)


@pytest.mark.parametrize("fmt", ["pubtator", "conll", "bioc_xml", "generic_jsonl"])
def test_ingest_peak_memory_is_below_half_the_source_file(tmp_path, fmt):
    """Ingest parses, validates and writes each document before it reads the
    next.  A first ingest of ten documents loads the modules the measured one
    runs."""
    registry_path = tmp_path / "registry.jsonl"
    Registry([ner_descriptor("synth-ner-en")]).save(registry_path)
    _, docs = make_ner_docs(1000, seed=5)
    docs = [replace(d, text=f"{d.text} " + "x" * 1024) for d in docs]
    warm, src = tmp_path / "warm", tmp_path / "raw"
    warm.write_text(_ner_source(fmt, docs[:10]), encoding="utf-8")
    src.write_text(_ner_source(fmt, docs), encoding="utf-8")
    argv = ["ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en", "--format", fmt]
    assert main([*argv, "--input", str(warm), "--out", str(tmp_path / "warm_out")]) == 0
    peak = _peak_bytes([*argv, "--input", str(src), "--out", str(tmp_path / "out")])
    corpus = tmp_path / "out" / "corpus" / "synth-ner-en" / "train.jsonl"
    assert len(corpus.read_text(encoding="utf-8").splitlines()) == 1000
    assert peak < src.stat().st_size / 2, (peak, src.stat().st_size)


def test_seed_env_var(workspace, monkeypatch, capsys):
    tmp_path, registry_path, corpus_root = workspace
    monkeypatch.setenv("BIOFORGE_SEED", "99")
    from bioforge.cli import build_parser
    args = build_parser().parse_args(["stats"])
    assert args.seed == 99
    args = build_parser().parse_args(["stats", "--seed", "5"])
    assert args.seed == 5
    monkeypatch.setenv("BIOFORGE_SEED", "abc")
    assert build_parser().parse_args(["stats", "--seed", "5"]).seed == 5
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err


# One small source file per ingest format, keyed by (format, dataset, language).
# They cover a title-only PubTator document, a norm id, CRLF line ends, runs of
# blank and whitespace-only lines, a repaired I- tag, rebased BioC passages with
# a relation, and a blank JSONL line.
INGEST_INPUTS = {
    ("pubtator", "ner-en", "en"): (
        "10001|t|Valproic acid and blood ammonia.\n"
        "10001|a|Acute changes of blood ammonia may predict adverse effects.\n"
        "10001\t0\t13\tValproic acid\tChemical\tD014635\n"
        "10001\t24\t31\tammonia\tChemical\n"
        "10001\t50\t63\tblood ammonia\tChemical\n"
        "\n \n"
        "10002|t|Gout flares\n"
        "10002\t0\t4\tGout\tDisease\n"
    ),
    ("conll", "ner-zh", "zh"): (
        "阿\tB-药物\r\n司\tI-药物\r\n匹\tI-药物\r\n林\tI-药物\r\n治\tO\r\n痛\tB-疾病\r\n风\tI-疾病\r\n"
        "\r\n\t\r\n\r\n"
        "头\tI-疾病\r\n痛\tI-疾病\r\n"
    ),
    ("bioc_xml", "re-en", "en"): (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        "<collection><source>test</source>\n"
        "<document><id>b1</id>\n"
        '  <passage><offset>0</offset><text>Aspirin intake</text>\n'
        '    <annotation id="a1"><infon key="type">Chemical</infon>\n'
        '      <location offset="0" length="7"/><text>Aspirin</text></annotation>\n'
        "  </passage>\n"
        '  <passage><offset>15</offset><text>reduced gout flares</text>\n'
        '    <annotation id="a2"><infon key="type">Disease</infon>\n'
        '      <location offset="8" length="4"/><text>gout</text></annotation>\n'
        "  </passage>\n"
        '  <relation id="r1"><infon key="relation">treats</infon>\n'
        '    <node refid="a1"/><node refid="a2"/></relation>\n'
        "</document>\n"
        "<document><id>b2</id><passage><text>No annotations here.</text></passage></document>\n"
        "</collection>\n"
    ),
    ("generic_jsonl", "tc-en", "en"): (
        '{"doc_id": "t1", "dataset_id": "tc-en", "language": "en", '
        '"text": "Hand washing limits spread.", "labels": ["Prevention", "Transmission"]}\n'
        "\n"
        '{"doc_id": "t2", "dataset_id": "tc-en", "language": "en", '
        '"text": "A case of measles.", "labels": ["Case Report"]}\n'
    ),
}


# SHA-256 of every file the ingest and forge -> plan -> eval chains below write
# from a fixed-seed input.  The constants pin the on-disk bytes: a codec or grammar
# change that alters any output fails here even when two runs still agree.
PINNED_DIGESTS = {
    "registry.jsonl": "5d43b91665e547954903c809d8628bb09d3e27becf2925c37ea58aa27ccb156a",
    "corpus/ner-en/train.jsonl": "42d58cc51a117018de482c97969c6c58d35cf88955b3bbb6e9de59d6e71001e4",
    "corpus/ner-zh/train.jsonl": "b8d6a9a8bc4bc279d372632e67a25c79cd0256f471175b5a4c180e50228f4a8b",
    "corpus/re-en/train.jsonl": "e832f830e8e269e8d5373e57600a6dc9a351e70c3879a584069e41c865adfdb2",
    "corpus/re-untyped-en/train.jsonl": "5f9aff848d9d828ffb0b274fa4003a95c3f5cb083bdc3013827efed3a192b38e",
    "corpus/synth-qamc-en/train.jsonl": "7aac9ca6f63624c50f300f95b7f5bc63e8f45082f5b89cef7d82752cc6e2d06b",
    "corpus/tc-en/train.jsonl": "2468c2e39d8f7898e8c031968094ba20412a26110d1b2b094dfc3de7555041a8",
    "ingest/corpus/ner-en/train.jsonl": "b3d0ca4fa709b70d8a92d4f0583ecf20c38ae48af5e040ce3fdd86b1a8b32882",
    "ingest/corpus/ner-zh/train.jsonl": "feb1fe7e85a5191eed8453a2404306070ac092a44135de21dd444eea6b24b588",
    "ingest/corpus/re-en/train.jsonl": "200b0c4afeb2275d99ebf3a4d16e3e8513b6551620b9559ad9c9976d1325626d",
    "ingest/corpus/tc-en/train.jsonl": "3cf311ab825da8fb08ed8bd338f1dbc6c8c25ee41908338582a2745a545d131c",
    "out/forged.jsonl": "bd773290cfcc63157b6e32282caeb781ac46f515fa30e788326af9a654866fe3",
    "out/plan/stage1.jsonl": "ef626f143906e5126f28c368f38fd1f92621ac623c9515c6993b5814182799e9",
    "out/plan/stage2.jsonl": "cb3555effa64c4beccd082171d55d882f0c1de2497a751bff86db8e120ec0395",
    "out/eval.ner-en.json": "b4b322b05ce4572773d523d332c05c26208a58ff5d116e32ea2509dddf2807f3",
}


def test_pinned_output_digests(tmp_path):
    corpora = [
        make_ner_docs(40, seed=11, desc=ner_descriptor("ner-en")),
        make_ner_docs(40, seed=12, desc=ner_descriptor("ner-zh", Language.ZH)),
        make_re_docs(40, seed=13, desc=re_descriptor("re-en")),
        make_re_docs(40, seed=14, desc=re_descriptor("re-untyped-en", untyped=True)),
        make_tc_docs(40, seed=15, desc=tc_descriptor("tc-en")),
        make_qa_mc_docs(40, seed=16),
    ]
    registry_path = tmp_path / "registry.jsonl"
    Registry([desc for desc, _ in corpora]).save(registry_path)
    corpus_root = tmp_path / "corpus"
    for desc, docs in corpora:
        write_documents(corpus_root / desc.id / "train.jsonl", docs)
    for (fmt, dataset_id, language), raw in INGEST_INPUTS.items():
        src = tmp_path / f"raw.{fmt}"
        src.write_bytes(raw.encode("utf-8"))
        assert main(["ingest", "--registry", str(registry_path), "--dataset", dataset_id,
                     "--format", fmt, "--input", str(src), "--language", language,
                     "--out", str(tmp_path / "ingest")]) == 0
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--seed", "7", "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    assert main(["plan", "--forged", str(out / "forged.jsonl"), *common]) == 0
    # every third NER prediction is missing, so the report has fn > 0
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
        for n, i in enumerate(read_instances(out / "forged.jsonl"))
        if i.dataset_id == "ner-en" and n % 3
    ), encoding="utf-8")
    assert main(["eval", "--dataset", "ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *common]) == 0
    written = [registry_path, *sorted(corpus_root.glob("*/train.jsonl")),
               *sorted((tmp_path / "ingest" / "corpus").glob("*/train.jsonl")), out / "forged.jsonl",
               out / "plan" / "stage1.jsonl", out / "plan" / "stage2.jsonl", out / "eval.ner-en.json"]
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
    assert digests == PINNED_DIGESTS


def test_zh_conll_ingests_unspaced_and_its_oracle_predictions_score_one(tmp_path):
    """A character-per-line zh CoNLL file ingests as the unspaced text, so its
    forged gold names the surfaces a model writes, and that gold, given back
    as the predictions, scores F1 1.0."""
    registry_path = tmp_path / "registry.jsonl"
    Registry([DatasetDescriptor(id="ner-zh", name="ner-zh", task=TaskType.NER_NEN, language=Language.ZH,
                                label_vocab=("药物", "疾病"))]).save(registry_path)
    src, out = tmp_path / "raw.conll", tmp_path / "out"
    src.write_bytes(INGEST_INPUTS[("conll", "ner-zh", "zh")].encode("utf-8"))
    common = ["--registry", str(registry_path), "--out", str(out)]
    assert main(["ingest", "--dataset", "ner-zh", "--format", "conll", "--input", str(src), *common]) == 0
    docs = schema.read_documents(out / "corpus" / "ner-zh" / "train.jsonl")
    assert [(d.text, [e.surface for e in d.entities]) for d in docs] == [
        ("阿司匹林治痛风", ["阿司匹林", "痛风"]), ("头痛", ["头痛"])]
    assert main(["forge", "--corpus-root", str(out / "corpus"), *common]) == 0
    instances = read_instances(out / "forged.jsonl")
    assert ["阿司匹林" in i.output and "痛风" in i.output for i in instances] == [True, False]
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
                             for i in instances), encoding="utf-8")
    assert main(["eval", "--dataset", "ner-zh", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *common]) == 0
    report = json.loads((out / "eval.ner-zh.json").read_text(encoding="utf-8"))
    assert (report["f1"], report["tp"], report["total"]) == (1.0, 3, 2)


# Half- and full-width separators, swapped both ways: model outputs drift
# between the two whatever the language of the prompt.
_SWAP_WIDTH = str.maketrans(":;,()：；，（）", "：；，（）:;,()")


def _drifted(n: int, gold: str) -> str:
    """The n-th prediction: the gold verbatim, its headers upper-cased with
    separators swapped in width, wrapped in chatter lines, or case-swapped."""
    kind = n % 4
    if kind == 0:
        return gold
    if kind == 1:
        return re.sub(r"^[^:：\n]*(?=[:：])", lambda m: m.group(0).upper(), gold,
                      flags=re.MULTILINE).translate(_SWAP_WIDTH)
    if kind == 2:
        return f"Sure, here is the answer.\n{gold}\nI hope that helps!"
    return gold.swapcase()


# SHA-256 of eval.<ds>.json and eval.<ds>.txt for every scored task kind, on
# the drifted predictions of ``_drifted`` with the first row missing and the
# second row's id given twice (the first copy is junk: the last one wins).
PINNED_EVAL_DIGESTS = {
    "eval.ner-zh.json": "8891a211280b26485b88430de1d90e63e11d243b092d29b9eaa16c415edd129d",
    "eval.ner-zh.txt": "e8cbc0aa9d611cded6faf294436228d153847688797a091de385430d7a4d145e",
    "eval.re-en.json": "99367987f4dd75c83a1da3a67ac5255471a18e389fa8f409ce8c48a74fef5518",
    "eval.re-en.txt": "d72b35bdd3ee5eb8706cbbb1e01787d56f04bc4889232ff50faa8b12d35b4928",
    "eval.re-untyped-en.json": "656e094d0f16e0cfc26999420949ced3fd1c732d09af13d27e5b11e01218b55a",
    "eval.re-untyped-en.txt": "8202628a262ed2ce2f3d38ec88830c248c64a485b93f8a6fb4fb3ce78efb27a8",
    "eval.tc-en.json": "accd717f63162c3f9d7a2441cbeb536e033da6100b1a6013f446cde96f4fb54c",
    "eval.tc-en.txt": "d22dc91fcaf8ccef70407c58eccadfc842081297cef5463858be5f43d655409f",
    "eval.synth-qamc-en.json": "d5ff38ee60f2b3a2ee596de2ecd7d559241bcb343973aec2b02554d6cf64badf",
    "eval.synth-qamc-en.txt": "8d4b1182d8216133e98a252a58772329968bb7c4923c8218959b8893e4c13913",
}


def test_pinned_eval_digests(tmp_path):
    corpora = [
        make_ner_docs(40, seed=12, desc=ner_descriptor("ner-zh", Language.ZH)),
        make_re_docs(40, seed=13, desc=re_descriptor("re-en")),
        make_re_docs(40, seed=14, desc=re_descriptor("re-untyped-en", untyped=True)),
        make_tc_docs(40, seed=15, desc=tc_descriptor("tc-en")),
        make_qa_mc_docs(40, seed=16),
    ]
    registry_path = tmp_path / "registry.jsonl"
    Registry([desc for desc, _ in corpora]).save(registry_path)
    for desc, docs in corpora:
        write_documents(tmp_path / "corpus" / desc.id / "train.jsonl", docs)
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--seed", "7", "--out", str(out)]
    assert main(["forge", "--corpus-root", str(tmp_path / "corpus"), *common]) == 0
    instances = read_instances(out / "forged.jsonl")
    written = []
    for desc, _ in corpora:
        rows = [{"instance_id": "stray", "raw_text": "x"}]
        for n, inst in enumerate(i for i in instances if i.dataset_id == desc.id):
            if n == 1:
                rows.append({"instance_id": inst.instance_id, "raw_text": "junk"})
            if n:
                rows.append({"instance_id": inst.instance_id, "raw_text": _drifted(n, inst.output)})
        preds = tmp_path / f"preds.{desc.id}.jsonl"
        preds.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                         encoding="utf-8")
        assert main(["eval", "--dataset", desc.id, "--gold", str(out / "forged.jsonl"),
                     "--predictions", str(preds), *common]) == 0
        written += [out / f"eval.{desc.id}.json", out / f"eval.{desc.id}.txt"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == PINNED_EVAL_DIGESTS
