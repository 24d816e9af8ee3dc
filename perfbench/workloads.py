"""The three benchmark workloads.

Each workload writes its inputs under ``<work>/in`` in ``setup``, names the
timed command sequence in ``steps`` (bioforge CLI argument lists, run one at
a time), and checks one sequence's outputs under ``<work>/out`` in
``check``.  ``check`` also returns digests of the outputs that must not
change between runs of one seed.

``setup`` imports bioforge and holds whole corpora in memory, so it runs in
a process of its own:

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD SEED SCALE WORK

writes the inputs and ``WORK/manifest.json``, from which ``Workload.load``
rebuilds the workload in the measuring process.  This module imports
bioforge only inside ``setup``, and ``check`` streams the outputs, so the
measuring process stays smaller than every command it measures: on Linux a
child's ``ru_maxrss`` starts from its parent's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import inputs

# The program seed is fixed: the workload seed shapes the inputs only.
PROGRAM_SEED = "42"


@dataclass(frozen=True)
class Step:
    command: str
    argv: tuple


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _write_registry(path: Path, descs) -> None:
    inputs.write_jsonl(path, (inputs.plain(d) for d in descs))


@dataclass
class Workload:
    scale: float
    steps: list = field(default_factory=list)
    rows: int = 0
    sizes: dict = field(default_factory=dict)
    setup_checks: list = field(default_factory=list)
    facts: dict = field(default_factory=dict)  # what ``check`` needs, JSON-ready

    def n(self, full: float) -> int:
        return max(4, round(full * self.scale))

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(dataclasses.asdict(self), ensure_ascii=False), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Workload":
        workload = cls(**_json(path))
        workload.steps = [Step(s["command"], tuple(s["argv"])) for s in workload.steps]
        workload.setup_checks = [Check(**c) for c in workload.setup_checks]
        return workload


class BuildMixed(Workload):
    """ingest -> curate -> forge -> plan on a bilingual corpus in every
    source format.  Ingest, schema codecs, curation, forge and staging do
    the work; evaluation does none.  The only write-heavy workload."""

    name = "build-mixed"
    # Train documents are the bundled reference registry's train count for
    # the same dataset id times REFERENCE_SCALE; the registry has no QA-mc
    # row, so QA-mc gets a small fixed share.  The test split and the
    # curation shares are chosen, not measured (see README.md).
    REFERENCE_SCALE = 1 / 10
    QA_MC_TRAIN = 600
    TEST_SHARE = 0.1
    WRITERS = {
        "pubtator": lambda docs, split: inputs.pubtator(docs, 1_000_000 if split == "train" else 2_000_000),
        "conll": lambda docs, split: inputs.conll(docs),
        "bioc_xml": lambda docs, split: inputs.bioc_xml(docs),
        "generic_jsonl": lambda docs, split: inputs.canonical_jsonl(docs),
    }

    def setup(self, root: Path, work: Path, seed: int) -> None:
        from bioforge import synth
        from bioforge.fixtures import reference_registry
        from bioforge.schema import Language

        datasets = (  # dataset id, source format, generator, descriptor
            ("ner-en", "pubtator", synth.make_ner_docs, synth.ner_descriptor("ner-en")),
            ("ner-zh", "conll", synth.make_ner_docs, synth.ner_descriptor("ner-zh", Language.ZH)),
            ("re-en", "bioc_xml", synth.make_re_docs, synth.re_descriptor("re-en")),
            ("tc-en", "generic_jsonl", synth.make_tc_docs, synth.tc_descriptor("tc-en")),
            ("tc-zh", "generic_jsonl", synth.make_tc_docs, synth.tc_descriptor("tc-zh", Language.ZH)),
            ("qa-mc-en", "generic_jsonl", synth.make_qa_mc_docs, synth.qa_mc_descriptor("qa-mc-en")),
        )
        reference = reference_registry()
        src, out = work / "in", work / "out"
        registry = src / "registry.jsonl"
        _write_registry(registry, (d[3] for d in datasets))
        expected = {}
        for k, (dataset_id, fmt, make, desc) in enumerate(datasets):
            if dataset_id in reference:
                n_train = self.n(reference.get(dataset_id).split_counts["train"] * self.REFERENCE_SCALE)
            else:
                n_train = self.n(self.QA_MC_TRAIN)
            n_test = max(1, round(n_train * self.TEST_SHARE))
            _, docs = make(n_train + n_test, seed=seed * 16 + k, desc=desc)
            train, test = inputs.split_with_repeats(docs, n_test, f"{seed}:{dataset_id}")
            for split, part in (("train", train), ("test", test)):
                part = inputs.with_ids(part, f"{split}-")
                raw = src / f"{dataset_id}.{split}.{fmt}"
                raw.write_text(self.WRITERS[fmt](part, split), encoding="utf-8")
                expected[f"{dataset_id}/{split}"] = len(part)
                self.steps.append(Step("ingest", (
                    "ingest", "--registry", str(registry), "--dataset", dataset_id,
                    "--format", fmt, "--input", str(raw), "--split", split,
                    "--language", desc.language.value, "--out", str(out))))
        # The README chain does not compose: each step nests its output one
        # directory deeper than the next step's --corpus-root expects.
        self.steps += [
            Step("curate", ("curate", "--corpus-root", str(out / "corpus"),
                            "--out", str(out / "curated"))),
            Step("forge", ("forge", "--registry", str(registry), "--seed", PROGRAM_SEED,
                           "--corpus-root", str(out / "curated" / "curated"),
                           "--out", str(out / "forged"))),
            Step("plan", ("plan", "--registry", str(registry), "--seed", PROGRAM_SEED,
                          "--forged", str(out / "forged" / "forged.jsonl"),
                          "--out", str(out / "plan"))),
        ]
        self.rows = sum(expected.values())
        self.sizes = dict(expected)
        self.facts = {"expected": expected,
                      "type2": sorted(d[0] for d in datasets if inputs.is_type2(d[3].task.value))}

    def check(self, out: Path):
        expected, type2 = self.facts["expected"], set(self.facts["type2"])
        checks = []
        missing = [f"{key}: {inputs.count_lines(p) if p.exists() else 'missing'} of {n}"
                   for key, n in expected.items()
                   for p in [out / "corpus" / f"{key}.jsonl"]
                   if not p.exists() or inputs.count_lines(p) != n]
        checks.append(Check("ingest loads every document", not missing, "; ".join(missing)))

        report = _json(out / "curated" / "curation_report.json")
        rows = [report] + list(report["per_dataset"].values())
        arithmetic = all(r["output_count"] == r["input_count"] - r["duplicates_removed"]
                         - r["overlap_removed"] for r in rows)
        train_in = sum(n for key, n in expected.items() if key.endswith("/train"))
        checks.append(Check("curation output == input - dups - overlap",
                            arithmetic and report["input_count"] == train_in, json.dumps(report)))
        curated = sum(inputs.count_lines(p) for p in (out / "curated" / "curated").glob("*/train.jsonl"))

        forged_path = out / "forged" / "forged.jsonl"
        forged = type1 = 0
        with forged_path.open(encoding="utf-8") as f:
            for line in f:
                if line.strip():
                    forged += 1
                    type1 += json.loads(line)["dataset_id"] not in type2
        checks.append(Check("forged rows == curated rows",
                            forged == curated == report["output_count"],
                            f"forged={forged} curated={curated}"))

        plan = out / "plan" / "plan"
        stage1, stage2 = (inputs.count_lines(plan / f"stage{k}.jsonl") for k in (1, 2))
        checks.append(Check("stage 1 == Type1 rows, stage 2 == all rows",
                            stage1 == type1 and stage2 == forged,
                            f"stage1={stage1} type1={type1} stage2={stage2} all={forged}"))
        digests = {"forged": sha256(forged_path),
                   "stage1": sha256(plan / "stage1.jsonl"), "stage2": sha256(plan / "stage2.jsonl")}
        return checks, digests


class EvalSweep(Workload):
    """``bioforge eval`` of three prediction files against six gold files.
    Evaluation parsers and scoring do the work, schema only reads."""

    name = "eval-sweep"
    HOLDOUT = (Path("data_diverse_holdout_v2") / "train.jsonl",
               Path("data_diverse_holdout_v2") / "test.jsonl")

    def _datasets(self, root: Path, seed: int):
        from bioforge import synth
        from bioforge.schema import DatasetDescriptor, Language, TaskType

        holdout = [doc for path in self.HOLDOUT for doc in inputs.read_span_jsonl(root / path, "pii-en")]
        labels = tuple(sorted({e.etype for d in holdout for e in d.entities}))
        pii = DatasetDescriptor(id="pii-en", name="Holdout PII NER", task=TaskType.NER_NEN,
                                language=Language.EN, label_vocab=labels)
        yield pii, holdout[:self.n(len(holdout))]
        for k, (make, desc, full) in enumerate((
            (synth.make_ner_docs, synth.ner_descriptor("ner-en"), 6000),
            (synth.make_re_docs, synth.re_descriptor("re-en"), 3000),
            (synth.make_re_docs, synth.re_descriptor("re-untyped-en", untyped=True), 3000),
            (synth.make_tc_docs, synth.tc_descriptor("tc-en"), 6000),
            (synth.make_qa_mc_docs, synth.qa_mc_descriptor("qa-mc-en"), 3000),
        )):
            yield make(self.n(full), seed=seed * 16 + k, desc=desc)

    def setup(self, root: Path, work: Path, seed: int) -> None:
        from bioforge.forge import build_corpus, write_instances
        from bioforge.schema import TaskType, validate_document
        from bioforge.templates import default_template_bank

        src, out = work / "in", work / "out"
        datasets = list(self._datasets(root, seed))
        pii, holdout = datasets[0]
        invalid = [d.doc_id for d in holdout if not validate_document(d, pii).ok]
        self.setup_checks.append(Check("holdout rows are valid documents", not invalid,
                                       ", ".join(invalid[:5])))
        registry = src / "registry.jsonl"
        _write_registry(registry, (desc for desc, _ in datasets))
        bank = default_template_bank()
        expected = {}
        for desc, docs in datasets:
            gold = build_corpus([(desc, docs)], bank, int(PROGRAM_SEED))
            write_instances(src / "gold" / f"{desc.id}.jsonl", gold)
            rows = [{"instance_id": i.instance_id, "output": i.output, "task": i.task.value}
                    for i in gold]
            for kind in inputs.PREDICTION_FILES:
                preds = inputs.predictions(rows, kind, seed, desc.id)
                inputs.write_jsonl(src / "pred" / kind / f"{desc.id}.jsonl", preds)
            kept_ids = {p["instance_id"] for p in inputs.predictions(rows, "drop30", seed, desc.id)}
            if desc.task is TaskType.QA_MC:
                kept = sum(1 for i in gold if i.instance_id in kept_ids)
                expected[desc.id] = ("accuracy", len(gold), kept / len(gold))
            else:
                items = [inputs.gold_items(d, desc.task.value) for d in docs]
                total = sum(items)
                kept = sum(n for i, n in zip(gold, items) if i.instance_id in kept_ids)
                expected[desc.id] = ("micro_f1", total, kept / total)
            self.sizes[desc.id] = len(gold)
        for kind in inputs.PREDICTION_FILES:
            for desc, _ in datasets:
                self.steps.append(Step("eval", (
                    "eval", "--registry", str(registry), "--seed", PROGRAM_SEED,
                    "--dataset", desc.id, "--gold", str(src / "gold" / f"{desc.id}.jsonl"),
                    "--predictions", str(src / "pred" / kind / f"{desc.id}.jsonl"),
                    "--out", str(out / kind))))
        self.rows = len(inputs.PREDICTION_FILES) * sum(self.sizes.values())
        self.facts = {"expected": expected, "registry": str(registry)}

    def check(self, out: Path):
        oracle_bad, drop_bad = [], []
        for dataset_id, (metric, total, kept) in self.facts["expected"].items():
            oracle = _json(out / "oracle" / f"eval.{dataset_id}.json")
            drop = _json(out / "drop30" / f"eval.{dataset_id}.json")
            if metric == "accuracy":
                if oracle["accuracy"] != 1.0:
                    oracle_bad.append(f"{dataset_id}: accuracy={oracle['accuracy']}")
                if drop["accuracy"] != kept:
                    drop_bad.append(f"{dataset_id}: accuracy={drop['accuracy']} expected {kept}")
            else:
                if oracle["f1"] != 1.0 or oracle["tp"] != total:
                    oracle_bad.append(f"{dataset_id}: f1={oracle['f1']} tp={oracle['tp']} of {total}")
                if drop["precision"] != 1.0 or drop["recall"] != kept:
                    drop_bad.append(f"{dataset_id}: P={drop['precision']} R={drop['recall']} "
                                    f"expected R={kept}")
        checks = [
            Check("oracle scores 1.0", not oracle_bad, "; ".join(oracle_bad)),
            Check("drop30 precision 1.0, recall == kept fraction", not drop_bad, "; ".join(drop_bad)),
        ]
        digests = {f"{kind}/{d}": sha256(out / kind / f"eval.{d}.json")
                   for kind in inputs.PREDICTION_FILES for d in self.facts["expected"]}
        return checks, digests


class PlanReference(Workload):
    """``bioforge plan`` of a forged corpus in the bundled reference
    registry's proportions, Type2-heavy with long general-dialogue rows.
    Staging and large sequential instance reads and writes do the work."""

    name = "plan-reference"
    REFERENCE_SCALE = 1 / 20  # of the reference registry's 1,114,315 train rows

    def setup(self, root: Path, work: Path, seed: int) -> None:
        from bioforge.fixtures import reference_registry

        src, out = work / "in", work / "out"
        registry = reference_registry()
        forged = src / "forged.jsonl"
        rows = list(inputs.reference_rows(registry, seed, self.REFERENCE_SCALE * self.scale))
        inputs.write_jsonl(forged, rows)
        general = {d.id for d in registry if d.general_dialogue}
        type1 = sum(1 for r in rows if not inputs.is_type2(r["task"], r["dataset_id"] in general))
        self.rows = len(rows)
        self.sizes = {"forged_rows": len(rows), "type1_rows": type1}
        self.facts = {"type1": type1}
        self.steps = [Step("plan", ("plan", "--seed", PROGRAM_SEED, "--forged", str(forged),
                                    "--out", str(out)))]

    def check(self, out: Path):
        plan, type1 = out / "plan", self.facts["type1"]
        stage1, stage2 = (inputs.count_lines(plan / f"stage{k}.jsonl") for k in (1, 2))
        checks = [Check("stage 1 == Type1 rows, stage 2 == all rows",
                        stage1 == type1 and stage2 == self.rows,
                        f"stage1={stage1} type1={type1} stage2={stage2} all={self.rows}")]
        return checks, {"stage1": sha256(plan / "stage1.jsonl"), "stage2": sha256(plan / "stage2.jsonl")}


WORKLOADS = {w.name: w for w in (BuildMixed, EvalSweep, PlanReference)}


def main(argv: list[str]) -> int:
    """Write one workload's inputs and manifest: WORKLOAD SEED SCALE WORK."""
    name, seed, scale, work = argv
    workload = WORKLOADS[name](scale=float(scale))
    workload.setup(Path.cwd(), Path(work), int(seed))
    workload.save(Path(work) / "manifest.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
