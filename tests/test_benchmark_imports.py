"""The benchmark (``perfbench/``) and the demos import program names by path,
and the benchmark's tracer patches names in ``bioforge.cli``.  A refactor that
moves one of those names fails here, in the fast suite, rather than only in
the slow ``perfbench/test_smoke.py``."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import bioforge.cli
from bioforge.forge import build_corpus, write_instances
from bioforge.schema import Registry
from bioforge.synth import make_ner_docs, make_qa_mc_docs
from bioforge.templates import default_template_bank

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])

# The names perfbench/tracing.py (Tracer.layer_patches) swaps in the
# bioforge.cli namespace to time each layer a command calls.
TRACED_CLI_NAMES = (
    "ingest_dataset",
    "read_documents",
    "write_documents",
    "dedup_and_filter_overlap",
    "default_template_bank",
    "build_corpus",
    "write_instances",
    "read_instances",
    "build_stage_plan",
    "emit_training_manifest",
    "read_predictions",
    "evaluate_dataset",
)


def bioforge_imports(source: str):
    """``(module, name)`` for each ``from bioforge... import name`` in the
    source, including code held in string constants (the benchmark's set-up
    code); ``name`` is None for ``import bioforge...``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "bioforge":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bioforge":
                    yield alias.name, None
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "import" in node.value:
            try:
                yield from bioforge_imports(node.value)
            except SyntaxError:  # a string that is not code
                pass


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_bioforge_name_imported_by_the_benchmark_and_demos_resolves(path):
    for module, name in bioforge_imports(path.read_text(encoding="utf-8")):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name) or importlib.util.find_spec(f"{module}.{name}"), (
            f"{path.name}: from {module} import {name}")


def test_bioforge_imports_are_found():
    found = set(bioforge_imports((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")))
    assert ("bioforge.cli", "main") in found  # from the set-up code string
    assert ("bioforge.schema", "Registry") in found  # from a function body


def test_cli_binds_every_name_the_benchmark_traces():
    assert [n for n in TRACED_CLI_NAMES if not callable(getattr(bioforge.cli, n, None))] == []


def test_plan_records_the_staging_spans_the_benchmark_reads(tmp_path, monkeypatch):
    """The benchmark's per-layer plan metrics are read from these spans: a
    staging refactor that stops calling the traced names would zero them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = tmp_path / "registry.jsonl"
    Registry([ner_desc, qa_desc]).save(registry)
    forged = tmp_path / "forged.jsonl"
    write_instances(forged, build_corpus([(ner_desc, ner_docs), (qa_desc, qa_docs)],
                                         default_template_bank(), seed=7))
    tracer = tracing.Tracer()
    with tracer.layer_patches():
        assert bioforge.cli.main(["plan", "--registry", str(registry), "--forged", str(forged),
                                  "--out", str(tmp_path / "out")]) == 0
    spans = {s["name"]: s for s in tracer.spans}
    assert {"staging.build_stage_plan", "staging.emit_training_manifest.stage1",
            "staging.emit_training_manifest.stage2"} <= set(spans)
    assert spans["staging.build_stage_plan"]["attrs"] == {"stage1": 30, "stage2": 50}
