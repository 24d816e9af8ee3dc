"""In-process tracing for the per-layer breakdown.

Spans are recorded by the benchmark around the public functions each
``cmd_*`` in ``bioforge.cli`` calls, by swapping those names in the
``bioforge.cli`` namespace for the length of one traced sequence.  No
program code is changed.  Spans live in memory and are written once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from pathlib import Path
from time import perf_counter
from unittest import mock

import bioforge.cli as cli
import inputs
from bioforge.evaluation import (
    PARTIAL,
    UNPARSEABLE,
    parse_ner_output,
    parse_qa_choice,
    parse_re_output,
    parse_tc_output,
    read_predictions,
    score_accuracy,
    score_micro_f1,
)
from bioforge.forge import read_instances

COMMANDS = ("ingest", "curate", "forge", "plan", "eval")
FORMATS = ("pubtator", "conll", "bioc_xml", "generic_jsonl")
EVAL_TASKS = {"NER/NEN": "ner", "RE": "re", "TC": "tc", "QA-mc": "qa_mc"}
MIXED_DATASETS = ("ner-en", "ner-zh", "re-en", "tc-en", "tc-zh", "qa-mc-en")


class Tracer:
    """Spans with name, start, end, parent span and run id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": perf_counter(), "end": None, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counts=None):
        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name) as attrs:
                result = fn(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(result))
                return result
        return traced

    @contextlib.contextmanager
    def layer_patches(self):
        """Trace the layer entry points ``bioforge.cli`` calls, while open."""
        rows = lambda r: {"rows": len(r)}  # noqa: E731
        written = lambda n: {"rows": n}  # noqa: E731
        wrappers = {
            "ingest_dataset": (lambda path, cfg, registry: f"ingest.{cfg.format}",
                               lambda r: {"rows": r[1].loaded, "rejected": r[1].violations}),
            "read_documents": ("schema.read_documents", rows),
            "write_documents": ("schema.write_documents", written),
            "dedup_and_filter_overlap": ("curation.dedup_and_filter_overlap",
                                         lambda r: {"rows": r[1].input_count, "report": r[1].to_dict()}),
            "default_template_bank": ("templates.default_template_bank", None),
            "build_corpus": ("forge.build_corpus", rows),
            "write_instances": ("forge.write_instances", written),
            "read_instances": ("forge.read_instances", rows),
            "build_stage_plan": ("staging.build_stage_plan",
                                 lambda p: {"stage1": p.stage1_count, "stage2": p.stage2_count}),
            "emit_training_manifest": (lambda plan, stage, *_: f"staging.emit_training_manifest.stage{stage}",
                                       None),
            "read_predictions": ("evaluation.read_predictions", rows),
            "evaluate_dataset": (lambda gold, preds, desc:
                                 f"evaluation.evaluate_dataset.{EVAL_TASKS[desc.task.value]}",
                                 lambda r: {"rows": r.total}),
        }
        with contextlib.ExitStack() as stack:
            for attr, (name, counts) in wrappers.items():
                stack.enter_context(mock.patch.object(cli, attr, self.wrap(getattr(cli, attr), name, counts)))
            yield

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            for rec in self.spans:
                f.write(json.dumps(rec, ensure_ascii=False, default=str) + "\n")


def self_times(spans: list[dict]) -> list[tuple[dict, float]]:
    """Each span with its duration minus the part its children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return [(s, s["end"] - s["start"] - child_time.get(s["id"], 0.0)) for s in spans]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _per_layer() -> dict:
    """Per-layer metric names and units, in report order."""
    m = {}
    for c in COMMANDS:
        m[f"cli.{c}.s"] = "s"
        m[f"cli.{c}.rss_mb"] = "MiB"
    m["templates.default_template_bank.s"] = "s"
    m.update({f"ingest.{f}.s": "s" for f in FORMATS})
    m.update({"ingest.docs_per_s": "rows/s", "ingest.rejected": "count"})
    for name in ("schema.read_documents", "schema.write_documents", "curation.dedup_and_filter_overlap"):
        m.update({f"{name}.s": "s", f"{name}.rows_per_s": "rows/s"})
    m.update({f"curation.{r}": "ratio" for r in ("keep_ratio", "duplicate_ratio", "overlap_ratio")})
    m.update({f"curation.keep_ratio.{d}": "ratio" for d in MIXED_DATASETS})
    m.update({"forge.build_corpus.s": "s", "forge.build_corpus.rows_per_s": "rows/s",
              "forge.write_instances.s": "s",
              "forge.read_instances.s": "s", "forge.read_instances.rows_per_s": "rows/s"})
    m.update({"staging.build_stage_plan.s": "s", "staging.emit_training_manifest.stage1.s": "s",
              "staging.emit_training_manifest.stage2.s": "s",
              "staging.stage1_rows": "count", "staging.stage2_rows": "count"})
    m["evaluation.read_predictions.s"] = "s"
    m.update({f"evaluation.evaluate_dataset.{t}.s": "s" for t in EVAL_TASKS.values()})
    m["evaluation.evaluate_dataset.rows_per_s"] = "rows/s"
    m.update({f"evaluation.{n}.s": "s" for n in ("parse_gold", "parse_pred", "score")})
    for k in inputs.PREDICTION_FILES:
        m.update({f"evaluation.unparseable_ratio.{k}": "ratio", f"evaluation.partial_ratio.{k}": "ratio"})
    m.update({"trace.overhead_s": "s", "trace.unattributed_ratio": "ratio"})
    return m


PER_LAYER = _per_layer()


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def sequence_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced command sequence."""
    time: dict[str, float] = {}
    rows: dict[str, int] = {}
    for s, t in self_times(spans):
        time[s["name"]] = time.get(s["name"], 0.0) + t
        rows[s["name"]] = rows.get(s["name"], 0) + s["attrs"].get("rows", 0)
    m = {}

    def timed(name: str, with_rate: bool = False):
        m[f"{name}.s"] = time.get(name, 0.0)
        if with_rate:
            m[f"{name}.rows_per_s"] = _ratio(rows.get(name, 0), time.get(name, 0.0))

    for f in FORMATS:
        timed(f"ingest.{f}")
    ingest_names = [f"ingest.{f}" for f in FORMATS]
    m["ingest.docs_per_s"] = _ratio(sum(rows.get(n, 0) for n in ingest_names),
                                    sum(time.get(n, 0.0) for n in ingest_names))
    m["ingest.rejected"] = sum(s["attrs"].get("rejected", 0) for s in spans if s["name"] in ingest_names)
    for name in ("schema.read_documents", "schema.write_documents", "curation.dedup_and_filter_overlap",
                 "forge.build_corpus", "forge.read_instances"):
        timed(name, with_rate=True)
    for name in ("forge.write_instances", "staging.build_stage_plan",
                 "staging.emit_training_manifest.stage1", "staging.emit_training_manifest.stage2",
                 "evaluation.read_predictions"):
        timed(name)

    reports = [s["attrs"]["report"] for s in spans if s["name"] == "curation.dedup_and_filter_overlap"]
    total = {k: sum(r[k] for r in reports)
             for k in ("input_count", "output_count", "duplicates_removed", "overlap_removed")}
    m["curation.keep_ratio"] = _ratio(total["output_count"], total["input_count"])
    m["curation.duplicate_ratio"] = _ratio(total["duplicates_removed"], total["input_count"])
    m["curation.overlap_ratio"] = _ratio(total["overlap_removed"], total["input_count"])
    for d in MIXED_DATASETS:
        per = [r["per_dataset"][d] for r in reports if d in r["per_dataset"]]
        m[f"curation.keep_ratio.{d}"] = _ratio(sum(p["output_count"] for p in per),
                                               sum(p["input_count"] for p in per))

    plans = [s["attrs"] for s in spans if s["name"] == "staging.build_stage_plan"]
    m["staging.stage1_rows"] = sum(p["stage1"] for p in plans)
    m["staging.stage2_rows"] = sum(p["stage2"] for p in plans)

    eval_names = [f"evaluation.evaluate_dataset.{t}" for t in EVAL_TASKS.values()]
    for name in eval_names:
        timed(name)
    m["evaluation.evaluate_dataset.rows_per_s"] = _ratio(sum(rows.get(n, 0) for n in eval_names),
                                                         sum(time.get(n, 0.0) for n in eval_names))
    return m


def covered_time(spans: list[dict]) -> float:
    """Time inside layer spans directly under the ``cli.*`` command spans."""
    commands = {s["id"] for s in spans if s["name"].startswith("cli.")}
    return sum(s["end"] - s["start"] for s in spans if s["parent"] in commands)


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# ---------------------------------------------------------------------------
# Decomposed evaluation pass
# ---------------------------------------------------------------------------


def _options(instruction: str) -> list[tuple]:
    """Option ``(key, text)`` pairs of a rendered multiple-choice prompt."""
    options = []
    for line in instruction.split("\n"):
        key, dot, text = line.partition(". ")
        if dot and key.isalnum():
            options.append((key, text.strip()))
    return options


def _parser(desc):
    task = desc.task.value
    if task == "NER/NEN":
        return lambda raw: parse_ner_output(raw, desc.language, desc.label_vocab), lambda o: o.ner
    if task == "RE":
        return (lambda raw: parse_re_output(raw, desc.language, desc.label_vocab, desc.prompted_relation),
                lambda o: o.re_triples)
    return lambda raw: parse_tc_output(raw, desc.language, desc.label_vocab), lambda o: o.tc


def decomposed_eval(tracer: Tracer, steps, registry) -> tuple[dict, dict]:
    """Re-run every eval step's work through the public parse and score
    functions, timing gold parsing, prediction parsing and scoring apart.
    Returns the metrics and the ``(prediction file, dataset) -> report``
    scores, to compare with what ``bioforge eval`` wrote."""
    statuses = {k: {"n": 0, UNPARSEABLE: 0, PARTIAL: 0} for k in inputs.PREDICTION_FILES}
    scores = {}
    first = len(tracer.spans)
    with tracer.span("evaluation.decomposed"):
        for step in steps:
            _decompose_step(tracer, step, registry, statuses, scores)
    m = {}
    for name in ("parse_gold", "parse_pred", "score"):
        m[f"evaluation.{name}.s"] = sum(t for s, t in self_times(tracer.spans[first:])
                                        if s["name"] == f"evaluation.{name}")
    for kind, tally in statuses.items():
        m[f"evaluation.unparseable_ratio.{kind}"] = _ratio(tally[UNPARSEABLE], tally["n"])
        m[f"evaluation.partial_ratio.{kind}"] = _ratio(tally[PARTIAL], tally["n"])
    return m, scores


def _decompose_step(tracer: Tracer, step, registry, statuses: dict, scores: dict) -> None:
    args = dict(zip(step.argv[1::2], step.argv[2::2]))
    desc = registry.get(args["--dataset"])
    kind = Path(args["--predictions"]).parent.name
    gold = [i for i in read_instances(args["--gold"]) if i.dataset_id == desc.id]
    by_id = {p.instance_id: p.raw_text for p in read_predictions(args["--predictions"])}
    raws = [by_id.get(i.instance_id, "") for i in gold]
    if desc.task.value == "QA-mc":
        options = [_options(i.instruction) for i in gold]
        with tracer.span("evaluation.parse_gold"):
            keys = [parse_qa_choice(i.output, o).qa_choice or "" for i, o in zip(gold, options)]
        with tracer.span("evaluation.parse_pred"):
            outcomes = [parse_qa_choice(r, o) for r, o in zip(raws, options)]
        with tracer.span("evaluation.score"):
            report = score_accuracy(keys, outcomes, dataset_id=desc.id)
    else:
        parse, payload = _parser(desc)
        with tracer.span("evaluation.parse_gold"):
            gold_sets = [payload(parse(i.output)) for i in gold]
        with tracer.span("evaluation.parse_pred"):
            outcomes = [parse(r) for r in raws]
        type_key = (lambda item: None) if desc.task.value == "TC" else None
        with tracer.span("evaluation.score"):
            kwargs = {"type_key": type_key} if type_key else {}
            report = score_micro_f1(gold_sets, [payload(o) for o in outcomes],
                                    dataset_id=desc.id, **kwargs)
        report.unparseable_count = sum(1 for o in outcomes if o.status == UNPARSEABLE)
    scores[(kind, desc.id)] = report
    tally = statuses[kind]
    tally["n"] += len(outcomes)
    for o in outcomes:
        if o.status in (UNPARSEABLE, PARTIAL):
            tally[o.status] += 1
