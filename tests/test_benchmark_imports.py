"""The benchmark (``perfbench/``) and the demos import program names by path,
and the benchmark's tracer patches names in ``bioforge.cli``.  A refactor that
moves one of those names fails here, in the fast suite, rather than only in
the slow ``perfbench/test_smoke.py``."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import bioforge.cli
from bioforge.forge import build_corpus, write_instances
from bioforge.schema import Registry, write_documents
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


def test_curate_and_forge_record_the_spans_the_benchmark_reads(tmp_path, monkeypatch):
    """Curate still reports through the traced ``dedup_and_filter_overlap``
    and forge writes through the traced ``write_instances``, with the result
    shapes the tracer reads."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = tmp_path / "registry.jsonl"
    Registry([ner_desc, qa_desc]).save(registry)
    for desc, docs in ((ner_desc, ner_docs), (qa_desc, qa_docs)):
        write_documents(tmp_path / "corpus" / desc.id / "train.jsonl", docs)
    tracer = tracing.Tracer()
    with tracer.layer_patches():
        assert bioforge.cli.main(["curate", "--corpus-root", str(tmp_path / "corpus"),
                                  "--out", str(tmp_path / "cur")]) == 0
        assert bioforge.cli.main(["forge", "--registry", str(registry), "--corpus-root",
                                  str(tmp_path / "cur" / "curated"), "--out", str(tmp_path / "forged")]) == 0
    spans = {s["name"]: s for s in tracer.spans}
    report = spans["curation.dedup_and_filter_overlap"]["attrs"]
    assert report["rows"] == 50 and report["report"]["input_count"] == 50
    assert spans["forge.write_instances"]["attrs"]["rows"] == report["report"]["output_count"]


def test_ingest_records_the_spans_the_benchmark_reads(tmp_path, monkeypatch):
    """Ingest still calls the traced ``ingest_dataset`` and ``write_documents``.
    Its documents stream into the writer, so the ``schema.write_documents``
    span counts every kept document, and the ingest span (which ends when the
    lazy iterator is returned) counts none."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    ner_desc, _ = make_ner_docs(1, seed=1)
    registry = tmp_path / "registry.jsonl"
    Registry([ner_desc]).save(registry)
    src = tmp_path / "raw.pubtator"
    src.write_text("1|t|aspirin\n1\t0\t7\taspirin\tChemical\n\n2|t|gout\n\n2|t|again\n", encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.layer_patches():
        assert bioforge.cli.main(["ingest", "--registry", str(registry), "--dataset", ner_desc.id,
                                  "--format", "pubtator", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["ingest.pubtator"]["attrs"] == {"rows": 0, "rejected": 0}
    assert spans["schema.write_documents"]["attrs"] == {"rows": 2}
    log = json.loads((tmp_path / "out" / f"run_log.ingest.{ner_desc.id}.train.json").read_text())
    assert log["counts"]["loaded"] == spans["schema.write_documents"]["attrs"]["rows"]
