"""The program as its users start it: each CLI command in a process of its
own, the package's public names, and each demo script run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bioforge
from bioforge.schema import Registry, write_documents
from bioforge.synth import make_ner_docs, make_qa_mc_docs

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(Path(bioforge.__file__).resolve().parent.parent)}

# What every command loads (``bioforge.cli`` itself runs as ``__main__``),
# and what each command loads beside it.  No command here loads ``xml``:
# ingest imports it only to read a BioC file, and the ingest run is PubTator.
# ``bioforge.fixtures`` holds the reference registry, which a command loads
# only when it is given no ``--registry``.  No command loads ``dataclasses``
# or ``inspect``, whose import would add milliseconds to every start.
COMMON_MODULES = {"bioforge", "bioforge.schema"}
COMMAND_MODULES = {
    "ingest": {"bioforge.ingest"},
    "curate": {"bioforge.curation"},
    "forge": {"bioforge.forge", "bioforge.templates", "bioforge.evaluation"},
    "plan": {"bioforge.staging"},
    "eval": {"bioforge.evaluation"},
    "stats": {"bioforge.curation"},
}

# Every name ``bioforge/__init__.py`` has exported since it first did.
PUBLIC_NAMES = """
    CurationReport SubtaskPlan corpus_stats decompose_subtasks dedup_and_filter_overlap normalize_for_hash
    EvalReport ParseOutcome PredictionRecord evaluate_dataset parse_ner_output parse_qa_choice parse_re_output
    parse_tc_output sample_subset score_accuracy score_micro_f1
    reference_registry
    InstructionInstance build_corpus render_instance serialize_gold
    IngestConfig IngestReport ingest_dataset parse_documents
    DatasetDescriptor DialogueTurn EntityMention EventFrame Language QAInstance Registry RelationTriple TaskType
    TextPairInstance TranslationPair UnifiedDocument validate_document
    StagePlan TrainingManifest assign_stage build_stage_plan emit_training_manifest registry_stage_counts
    InstructionTemplate TemplateBank default_template_bank
""".split()


def loaded_modules(argv: list, cwd: Path) -> set:
    """The ``bioforge``, ``xml``, ``dataclasses`` and ``inspect`` modules one
    ``python -m bioforge.cli`` process holds when it exits, which it prints
    last on stderr."""
    probe = ("import atexit, runpy, sys; atexit.register(lambda: print(*(m for m in sys.modules "
             "if m.split('.')[0] in ('bioforge', 'xml', 'dataclasses', 'inspect')), file=sys.stderr)); "
             "runpy.run_module('bioforge.cli', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stderr.split())


def test_each_command_process_loads_only_the_layers_it_runs(tmp_path):
    ner_desc, ner_docs = make_ner_docs(12, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(8, seed=2)
    Registry([ner_desc, qa_desc]).save(tmp_path / "registry.jsonl")
    write_documents(tmp_path / "corpus" / ner_desc.id / "train.jsonl", ner_docs)
    write_documents(tmp_path / "corpus" / qa_desc.id / "train.jsonl", qa_docs)
    (tmp_path / "raw.pubtator").write_text("1|t|aspirin\n1|a|x\n1\t0\t7\taspirin\tChemical\n\n",
                                           encoding="utf-8")
    (tmp_path / "predictions.jsonl").write_text('{"instance_id": "x", "raw_text": "x"}\n', encoding="utf-8")
    common = ["--registry", "registry.jsonl", "--out", "out"]
    steps = [
        ("ingest", ["--dataset", ner_desc.id, "--format", "pubtator", "--input", "raw.pubtator"]),
        ("curate", ["--corpus-root", "corpus"]),
        ("forge", ["--corpus-root", "corpus"]),
        ("plan", ["--forged", "out/forged.jsonl"]),
        ("eval", ["--dataset", ner_desc.id, "--gold", "out/forged.jsonl", "--predictions", "predictions.jsonl"]),
        ("stats", []),
    ]
    loaded = {command: loaded_modules([command, *argv, *common], tmp_path) for command, argv in steps}
    expected = {command: COMMON_MODULES | COMMAND_MODULES[command] for command, _ in steps}
    loaded["stats, no --registry"] = loaded_modules(["stats", "--out", "out"], tmp_path)
    expected["stats, no --registry"] = COMMON_MODULES | COMMAND_MODULES["stats"] | {"bioforge.fixtures"}
    assert {command: modules & {"dataclasses", "inspect"} for command, modules in loaded.items()} == {
        command: set() for command in loaded}
    assert loaded == expected


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_imports_from_the_package(name):
    namespace = {}
    exec(f"from bioforge import {name}", namespace)
    assert namespace[name].__module__.startswith("bioforge.")
    assert name in dir(bioforge)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'bioforge' has no attribute 'no_such_name'"):
        bioforge.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from bioforge import no_such_name", {})


@pytest.mark.parametrize("path", sorted(ROOT.glob("demos/*.py")), ids=lambda p: p.name)
def test_demo_runs_to_completion(path, tmp_path):
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
