"""Command-line surface: one binary, one subcommand per pipeline stage.

Every command is idempotent given identical inputs and seed, writes only
under the output root, and records a run log (config, seed, input digests,
counts) sufficient to reproduce its artifacts.  Exit codes: 1 for missing
inputs (single-line diagnostic), 2 for configuration errors, which include
every :class:`~bioforge.errors.BioforgeError` a stage raises.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .curation import corpus_stats, dedup_and_filter_overlap
from .errors import BioforgeError
from .evaluation import evaluate_dataset, read_predictions, sample_subset
from .fixtures import reference_registry
from .forge import build_corpus, read_instances, write_instances
from .ingest import IngestConfig, ingest_dataset
from .schema import Language, Registry, read_documents, write_documents, write_jsonl
from .staging import build_stage_plan, emit_training_manifest
from .templates import TemplateBank, default_template_bank


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise CliError(f"missing {what}: {path}", 1)
    return path


def _load_registry(args) -> Registry:
    if args.registry is None:
        return reference_registry()
    return Registry.load(_require(args.registry, "registry file"))


def _load_bank(args) -> TemplateBank:
    if args.templates is None:
        return default_template_bank()
    return TemplateBank.load(_require(args.templates, "template bank"))


def _write_run_log(out_root: Path, command: str, args, inputs: list[Path], counts: dict) -> None:
    out_root.mkdir(parents=True, exist_ok=True)
    log = {
        "tool": f"bioforge {__version__}",
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "input_digests": {str(p): _digest(p) for p in inputs if p.is_file()},
        "counts": counts,
    }
    with (out_root / f"run_log.{command}.json").open("w", encoding="utf-8") as f:
        json.dump(log, f, indent=2, ensure_ascii=False, default=str)
        f.write("\n")


def cmd_ingest(args) -> int:
    registry = _load_registry(args)
    src = _require(args.input, "input file")
    out_root = Path(args.out)
    cfg = IngestConfig(
        dataset_id=args.dataset,
        format=args.format,
        split=args.split,
        language=Language(args.language),
    )
    docs, report = ingest_dataset(src, cfg, registry)
    dest = out_root / "corpus" / args.dataset / f"{args.split}.jsonl"
    write_documents(dest, docs)
    write_jsonl(dest.with_name(f"{args.split}.rejects.jsonl"), report.violation_details)
    counts = {"loaded": report.loaded, "violations": report.violations,
              "warnings": len(report.warnings)}
    _write_run_log(out_root, "ingest", args, [src], counts)
    print(f"ingest {args.dataset}/{args.split}: loaded={report.loaded} "
          f"violations={report.violations} -> {dest}")
    return 0


def _corpus_files(corpus_root: Path, split: str) -> list[Path]:
    return sorted(corpus_root.glob(f"*/{split}.jsonl"))


def cmd_curate(args) -> int:
    corpus_root = _require(args.corpus_root, "corpus root")
    train_files = _corpus_files(corpus_root, "train")
    if not train_files:
        raise CliError(f"missing input: no */train.jsonl under {corpus_root}", 1)
    test_files = _corpus_files(corpus_root, "test")
    train = [doc for path in train_files for doc in read_documents(path)]
    test = [doc for path in test_files for doc in read_documents(path)]
    kept, report = dedup_and_filter_overlap(train, test)
    out_root = Path(args.out)
    for dataset_id in sorted({doc.dataset_id for doc in kept}):
        write_documents(
            out_root / "curated" / dataset_id / "train.jsonl",
            [d for d in kept if d.dataset_id == dataset_id],
        )
    report_path = out_root / "curation_report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    _write_run_log(out_root, "curate", args, train_files + test_files, report.to_dict())
    print(f"curate: input={report.input_count} dups={report.duplicates_removed} "
          f"overlap={report.overlap_removed} output={report.output_count}")
    return 0


def cmd_forge(args) -> int:
    registry = _load_registry(args)
    bank = _load_bank(args)
    corpus_root = _require(args.corpus_root, "corpus root")
    files = _corpus_files(corpus_root, args.split)
    if not files:
        raise CliError(f"missing input: no */{args.split}.jsonl under {corpus_root}", 1)
    corpora = []
    for path in files:
        dataset_id = path.parent.name
        desc = registry.get(dataset_id)
        if desc is None:
            raise CliError(f"config error: dataset {dataset_id!r} not in registry", 2)
        corpora.append((desc, read_documents(path)))
    instances = build_corpus(corpora, bank, args.seed)
    out_root = Path(args.out)
    dest = out_root / "forged.jsonl"
    write_instances(dest, instances)
    _write_run_log(out_root, "forge", args, files,
                   {"instances": len(instances), "output_digest": _digest(dest)})
    print(f"forge: {len(instances)} instances (seed={args.seed}) -> {dest}")
    return 0


def cmd_plan(args) -> int:
    registry = _load_registry(args)
    forged = _require(args.forged, "forged corpus")
    instances = read_instances(forged)
    plan = build_stage_plan(instances, registry, seed=args.seed)
    out_root = Path(args.out)
    stages = [args.stage] if args.stage else [1, 2]
    for stage in stages:
        manifest = emit_training_manifest(plan, stage, instances, out_root / "plan")
        print(f"plan stage {stage}: {plan.stage1_count if stage == 1 else plan.stage2_count} "
              f"instances, epochs={manifest.epochs} -> {manifest.data_path}")
    _write_run_log(out_root, "plan", args, [forged],
                   {"stage1_count": plan.stage1_count, "stage2_count": plan.stage2_count})
    return 0


def cmd_eval(args) -> int:
    registry = _load_registry(args)
    gold_path = _require(args.gold, "gold corpus")
    pred_path = _require(args.predictions, "predictions file")
    desc = registry.get(args.dataset)
    if desc is None:
        raise CliError(f"config error: dataset {args.dataset!r} not in registry", 2)
    gold = [i for i in read_instances(gold_path) if i.dataset_id == args.dataset]
    if args.sample_n is not None:
        gold = sample_subset(gold, args.sample_n, args.seed)
    predictions = read_predictions(pred_path)
    report = evaluate_dataset(gold, predictions, desc)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / f"eval.{args.dataset}.json").write_text(
        json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    (out_root / f"eval.{args.dataset}.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    _write_run_log(out_root, "eval", args, [gold_path, pred_path],
                   {"instances": len(gold), "metric": report.metric_name})
    print(report.to_text())
    return 0


def cmd_stats(args) -> int:
    registry = _load_registry(args)
    corpus_counts = None
    if args.corpus_root:
        corpus_root = Path(args.corpus_root)
        if corpus_root.exists():
            corpus_counts = {
                path.parent.name: sum(1 for _ in path.open(encoding="utf-8") if _.strip())
                for path in _corpus_files(corpus_root, "train")
            }
    table = corpus_stats(registry, corpus_counts)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "stats.json").write_text(
        json.dumps(table.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    _write_run_log(out_root, "stats", args, [], {"total": table.total})
    print(table.to_text())
    return 0


def _default_seed() -> int:
    return int(os.environ.get("BIOFORGE_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioforge",
        description="Bilingual biomedical corpus pipeline: ingest, curate, forge, plan, eval, stats.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--registry", help="registry JSONL (default: bundled reference registry)")
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="pipeline seed (env BIOFORGE_SEED, overridable by this flag)")
        p.add_argument("--out", default="out", help="output root directory")

    p = sub.add_parser("ingest", help="parse a source-format file into canonical JSONL")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", required=True,
                   choices=["pubtator", "bioc_xml", "conll", "generic_jsonl"])
    p.add_argument("--input", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--language", default="en", choices=["en", "zh"])
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("curate", help="dedup and filter train/test overlap")
    common(p)
    p.add_argument("--corpus-root", required=True)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("forge", help="render instruction instances from curated corpora")
    common(p)
    p.add_argument("--corpus-root", required=True)
    p.add_argument("--templates", help="template bank JSONL (default: bundled bank)")
    p.add_argument("--split", default="train")
    p.set_defaults(func=cmd_forge)

    p = sub.add_parser("plan", help="partition a forged corpus into the two training stages")
    common(p)
    p.add_argument("--forged", required=True)
    p.add_argument("--stage", type=int, choices=[1, 2])
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("eval", help="score free-text predictions against forged gold")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--gold", required=True, help="forged gold corpus JSONL")
    p.add_argument("--predictions", required=True, help="JSONL of {instance_id, raw_text}")
    p.add_argument("--sample-n", type=int, default=None,
                   help="evaluate a seeded subset of this size (default: full set)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="corpus statistics per task group and language")
    common(p)
    p.add_argument("--corpus-root", help="count materialized corpora instead of registry metadata")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except FileNotFoundError as exc:
        print(f"missing input: {exc.filename}", file=sys.stderr)
        return 1
    except BioforgeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
