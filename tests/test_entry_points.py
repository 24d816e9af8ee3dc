"""The program as its users start it: each CLI command in a process of its
own, the package's public names, and each demo script run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bioforge
from bioforge.cli import build_parser, main
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
COMMON_MODULES = {"bioforge", "bioforge.records", "bioforge.schema"}
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


# Each command's argv (beside ``COMMON_ARGV``) over the corpus ``command_runs`` writes.
NER_ID = make_ner_docs(1, seed=1)[0].id
STEPS = [
    ("ingest", ["--dataset", NER_ID, "--format", "pubtator", "--input", "raw.pubtator"]),
    ("curate", ["--corpus-root", "corpus"]),
    ("forge", ["--corpus-root", "corpus"]),
    ("plan", ["--forged", "out/forged.jsonl"]),
    ("eval", ["--dataset", NER_ID, "--gold", "out/forged.jsonl", "--predictions", "predictions.jsonl"]),
    ("stats", []),
]
COMMON_ARGV = ["--registry", "registry.jsonl", "--out", "out"]


def command_process(argv: list, cwd: Path) -> dict:
    """What one ``python -m bioforge.cli`` process did, which it prints last
    on stderr as JSON: ``modules``, the ``bioforge``, ``xml``,
    ``dataclasses`` and ``inspect`` modules it holds when it exits;
    ``compiled``, the ``<Class>.<function>`` of each piece of record code
    that ``records._compile`` compiled (seen by the ``compile`` audit event);
    and ``type_hints``, its number of ``typing.get_type_hints`` calls."""
    probe = ("import atexit, json, runpy, sys, typing\n"
             "compiled, hints, get_type_hints = [], [], typing.get_type_hints\n"
             "sys.addaudithook(lambda event, args: event == 'compile' and str(args[1]).startswith('<record ')"
             " and compiled.append(str(args[1])[8:-1]))\n"
             "typing.get_type_hints = lambda *a, **k: hints.append(1) or get_type_hints(*a, **k)\n"
             "atexit.register(lambda: print(json.dumps({'modules': [m for m in sys.modules if m.split('.')[0] in "
             "('bioforge', 'xml', 'dataclasses', 'inspect')], 'compiled': compiled, 'type_hints': len(hints)}),"
             " file=sys.stderr))\n"
             "runpy.run_module('bioforge.cli', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=cwd, env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def command_runs(tmp_path_factory) -> dict:
    """``command_process`` of each of ``STEPS`` in turn, and of ``stats``
    without ``--registry``, over a small NER and QA-mc corpus."""
    tmp_path = tmp_path_factory.mktemp("commands")
    ner_desc, ner_docs = make_ner_docs(12, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(8, seed=2)
    Registry([ner_desc, qa_desc]).save(tmp_path / "registry.jsonl")
    write_documents(tmp_path / "corpus" / ner_desc.id / "train.jsonl", ner_docs)
    write_documents(tmp_path / "corpus" / qa_desc.id / "train.jsonl", qa_docs)
    (tmp_path / "raw.pubtator").write_text("1|t|aspirin\n1|a|x\n1\t0\t7\taspirin\tChemical\n\n",
                                           encoding="utf-8")
    (tmp_path / "predictions.jsonl").write_text('{"instance_id": "x", "raw_text": "x"}\n', encoding="utf-8")
    runs = {command: command_process([command, *argv, *COMMON_ARGV], tmp_path) for command, argv in STEPS}
    runs["stats, no --registry"] = command_process(["stats", "--out", "out"], tmp_path)
    return runs


def test_each_command_process_loads_only_the_layers_it_runs(command_runs):
    loaded = {command: set(run["modules"]) for command, run in command_runs.items()}
    expected = {command: COMMON_MODULES | COMMAND_MODULES[command] for command, _ in STEPS}
    expected["stats, no --registry"] = COMMON_MODULES | COMMAND_MODULES["stats"] | {"bioforge.fixtures"}
    assert {command: modules & {"dataclasses", "inspect"} for command, modules in loaded.items()} == {
        command: set() for command in loaded}
    assert loaded == expected


def test_each_command_process_compiles_only_the_record_code_it_runs(command_runs):
    """Record code is compiled on first use: the PubTator ingest, whose NER
    documents hold no events, QA, dialogue, text pair or translation, compiles
    no code of those records, and the six commands compile at most 50
    functions in all (44 when this test was written).  No command resolves annotations by
    ``typing.get_type_hints``."""
    compiled = {command: run["compiled"] for command, run in command_runs.items()}
    assert {command: run["type_hints"] for command, run in command_runs.items()} == {
        command: 0 for command in command_runs}
    unused = {"EventFrame", "DialogueTurn", "QAInstance", "TextPairInstance", "TranslationPair"}
    assert [name for name in compiled["ingest"] if name.partition(".")[0] in unused] == []
    assert {"UnifiedDocument.write", "EntityMention.write"} <= set(compiled["ingest"])
    assert all(len(names) == len(set(names)) for names in compiled.values()), compiled  # each compiled once
    assert sum(len(compiled[command]) for command, _ in STEPS) <= 50, compiled


@pytest.mark.parametrize("command,argv", STEPS, ids=[command for command, _ in STEPS])
def test_one_command_parser_parses_its_argv_as_the_whole_parser_does(command, argv):
    argv = [command, *argv, *COMMON_ARGV]
    assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [["-h"], ["nope"], [], ["ingest", "-h"], ["ingest"],
                                  ["plan", "--forged", "f", "--bogus"], ["plan", "--forged", "f", "--stage", "3"],
                                  ["stats", "--seed", "x"]], ids=" ".join)
def test_main_prints_what_the_whole_parser_prints(argv, capsys):
    """``main`` builds one subcommand's parser for an argv that names it; its
    help, usage and error text and exit code are the whole parser's (an
    unrecognized argument prints the top usage, which names all six)."""
    outcomes = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        outcomes.append((exc.value.code, capsys.readouterr()))
    assert outcomes[0] == outcomes[1]


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
