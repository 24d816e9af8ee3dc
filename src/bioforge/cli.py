"""Command-line surface: one binary, one subcommand per pipeline stage.

Every command is idempotent given identical inputs and seed, writes only
under the output root, and returns its input paths and counts; :func:`main`
then records a run log (config, seed, input digests, counts) sufficient to
reproduce its artifacts.  Before a command runs, :func:`main` checks that
each argument it puts in an output file name is one path component.
:func:`main` alone maps errors to exit codes: 1 for a missing input (a
``FileNotFoundError`` or ``IsADirectoryError`` from the open that needs it),
2 for a configuration error (any ``ValueError``, the one type every stage
raises, or other ``OSError``), each with a one-line diagnostic on stderr.
A failed command writes no run log, and every output file is written whole
or not at all.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import os
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .schema import (
    InstructionInstance,
    Registry,
    UnifiedDocument,
    atomic_writer,
    copy_lines,
    is_directory_name,
    read_documents,  # noqa: F401 (bound for the benchmark's tracer, see below)
    read_instances,  # noqa: F401 (bound for the benchmark's tracer, see below)
    read_jsonl,
    write_documents,
    write_instances,
    write_json,
    write_jsonl,
)


def _deferred(module: str, name: str):
    """A stand-in for ``bioforge.<module>.<name>`` that imports the module
    when called (after the first call, a ``sys.modules`` lookup), so that each
    command loads only the layers it runs.  The name stays a callable
    attribute of this module, which the benchmark's tracer can swap.
    ``__import__``, unlike ``importlib.import_module``, shows in
    ``python -X importtime``."""
    def call(*args, **kwargs):
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(*args, **kwargs)
    call.__name__ = call.__qualname__ = name
    return call


ingest_dataset = _deferred("ingest", "ingest_dataset")
dedup_and_filter_overlap = _deferred("curation", "dedup_and_filter_overlap")
default_template_bank = _deferred("templates", "default_template_bank")
# No command calls ``read_documents``, ``build_corpus`` or ``read_instances``
# (curate, forge and eval stream their rows); all three stay bound because the
# benchmark's tracer swaps them, which tests/test_benchmark_imports.py
# (TRACED_CLI_NAMES) checks.
build_corpus = _deferred("forge", "build_corpus")
forge_instances = _deferred("forge", "forge_instances")
build_stage_plan = _deferred("staging", "build_stage_plan")
emit_training_manifest = _deferred("staging", "emit_training_manifest")
# an index of the predictions file: row spans and id hashes, not records
read_predictions = _deferred("evaluation", "read_predictions")
evaluate_dataset = _deferred("evaluation", "evaluate_dataset")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_registry(args) -> Registry:
    if args.registry is None:
        from .fixtures import reference_registry
        return reference_registry()
    return Registry.load(args.registry)


# The arguments that name a command's run log beside its command name, so
# that each ingest of a split and each eval of a dataset into one ``--out``
# keeps its own log.  They name its other output files too, so each must be
# a directory name.
RUN_LOG_SCOPE = {"ingest": ("dataset", "split"), "eval": ("dataset",)}


def _write_run_log(args, inputs: list[Path], counts: dict) -> None:
    log = {
        "tool": f"bioforge {__version__}",
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "input_digests": {str(p): _digest(p) for p in inputs if p.is_file()},
        "counts": counts,
    }
    name = ".".join([args.command, *(getattr(args, k) for k in RUN_LOG_SCOPE.get(args.command, ()))])
    write_json(Path(args.out) / f"run_log.{name}.json", log)


def _corpus_files(corpus_root: str, split: str) -> list[Path]:
    files = sorted(Path(corpus_root).glob(f"*/{split}.jsonl"))
    if not files:
        raise FileNotFoundError(errno.ENOENT, "no corpus files",
                                str(Path(corpus_root) / "*" / f"{split}.jsonl"))
    return files


def cmd_ingest(args) -> tuple[list[Path], dict]:
    from .ingest import IngestConfig
    registry = _load_registry(args)
    src = Path(args.input)
    language = registry[args.dataset].language
    if args.language not in (None, language.value):
        raise ValueError(f"--language {args.language} contradicts dataset {args.dataset!r}, "
                         f"whose registry row says {language.value}")
    cfg = IngestConfig(dataset_id=args.dataset, format=args.format)
    docs, report = ingest_dataset(src, cfg, registry)
    dest = Path(args.out) / "corpus" / args.dataset / f"{args.split}.jsonl"
    write_documents(dest, docs)
    write_jsonl(dest.with_name(f"{args.split}.rejects.jsonl"), report.violation_details)
    write_jsonl(dest.with_name(f"{args.split}.warnings.jsonl"), report.warning_details)
    print(f"ingest {args.dataset}/{args.split}: loaded={report.loaded} "
          f"violations={report.violations} -> {dest}")
    return [src], {"loaded": report.loaded, "violations": report.violations,
                   "warnings": len(report.warning_details)}


def cmd_curate(args) -> tuple[list[Path], dict]:
    from .curation import read_keyed_rows, read_keys
    train_files = _corpus_files(args.corpus_root, "train")
    test_files = sorted(Path(args.corpus_root).glob("*/test.jsonl"))
    train = read_keyed_rows(train_files)  # before any test row, so a train fault is reported first
    keep, report = dedup_and_filter_overlap(train, read_keys(test_files))
    out_root = Path(args.out)
    for dataset_id, lines in train.kept_lines(keep):
        copy_lines(out_root / "curated" / dataset_id / "train.jsonl", lines)
    write_json(out_root / "curation_report.json", report.to_dict())
    print(f"curate: input={report.input_count} dups={report.duplicates_removed} "
          f"overlap={report.overlap_removed} output={report.output_count}")
    return train_files + test_files, report.to_dict()


def cmd_forge(args) -> tuple[list[Path], dict]:
    from .templates import TemplateBank
    registry = _load_registry(args)
    bank = default_template_bank() if args.templates is None else TemplateBank.load(args.templates)
    files = _corpus_files(args.corpus_root, args.split)
    # each instance is rendered and written as its row is read
    corpora = ((registry[path.parent.name], read_jsonl(path, UnifiedDocument)) for path in files)
    dest = Path(args.out) / "forged.jsonl"
    n = write_instances(dest, forge_instances(corpora, bank, args.seed))
    print(f"forge: {n} instances (seed={args.seed}) -> {dest}")
    return files, {"instances": n, "output_digest": _digest(dest)}


def cmd_plan(args) -> tuple[list[Path], dict]:
    registry = _load_registry(args)
    forged = Path(args.forged)
    plan = build_stage_plan(forged, registry, seed=args.seed)
    stages = [args.stage] if args.stage else [1, 2]
    for stage in stages:
        manifest = emit_training_manifest(plan, stage, Path(args.out) / "plan")
        print(f"plan stage {stage}: {plan.stage1_count if stage == 1 else plan.stage2_count} "
              f"instances, epochs={manifest.epochs} -> {manifest.data_path}")
    return [forged], {"stage1_count": plan.stage1_count, "stage2_count": plan.stage2_count}


def cmd_eval(args) -> tuple[list[Path], dict]:
    from .evaluation import GOLD_FIELDS, sample_subset
    registry = _load_registry(args)
    desc = registry[args.dataset]
    gold_path, pred_path = Path(args.gold), Path(args.predictions)
    # scored as read; other datasets' rows are checked, then dropped
    gold = (row for row in read_jsonl(gold_path, InstructionInstance, fields=GOLD_FIELDS) if row[1] == args.dataset)
    rows = None
    if args.sample_n is not None:  # a sample needs the row count
        rows = list(gold)
        gold = sample_subset(rows, args.sample_n, args.seed)
    try:
        predictions = read_predictions(pred_path)
        report = evaluate_dataset(gold, predictions, desc)
        if rows is not None:  # the id of a row left out of the sample is no unknown id
            with predictions.texts() as text_of:
                for row in rows:
                    text_of(row[0])
    except (ValueError, OSError):
        for _ in gold:  # a fault of the gold file is reported first
            pass
        raise
    out_root = Path(args.out)
    write_json(out_root / f"eval.{args.dataset}.json", report.to_dict())
    with atomic_writer(out_root / f"eval.{args.dataset}.txt") as f:
        f.write(report.to_text() + "\n")
    print(report.to_text())
    # ids given more than once (the last is scored), and ids that name no gold row (not scored)
    return [gold_path, pred_path], {"instances": report.total, "metric": report.metric_name,
                                    "duplicate_prediction_ids": predictions.duplicate_ids,
                                    "unknown_prediction_ids": predictions.unknown_ids}


def cmd_stats(args) -> tuple[list[Path], dict]:
    from .curation import corpus_stats
    registry = _load_registry(args)
    corpus_counts = None
    if args.corpus_root:
        corpus_counts = {
            # the key raises if unregistered; each row is checked as a document
            registry[path.parent.name].id: sum(1 for _ in read_jsonl(path, UnifiedDocument, fields=("dataset_id",)))
            for path in _corpus_files(args.corpus_root, "train")
        }
    table = corpus_stats(registry, corpus_counts)
    write_json(Path(args.out) / "stats.json", table.to_dict())
    print(table.to_text())
    return [], {"total": table.total}


def _ingest_arguments(p) -> None:
    p.add_argument("--dataset", required=True)
    p.add_argument("--format", required=True,
                   choices=["pubtator", "bioc_xml", "conll", "generic_jsonl"])
    p.add_argument("--input", required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--language", choices=["en", "zh"], help="the registry row's language (any other exits 2)")


def _curate_arguments(p) -> None:
    p.add_argument("--corpus-root", required=True)


def _forge_arguments(p) -> None:
    p.add_argument("--corpus-root", required=True)
    p.add_argument("--templates", help="template bank JSONL (default: bundled bank)")
    p.add_argument("--split", default="train")


def _plan_arguments(p) -> None:
    p.add_argument("--forged", required=True)
    p.add_argument("--stage", type=int, choices=[1, 2])


def _eval_arguments(p) -> None:
    p.add_argument("--dataset", required=True)
    p.add_argument("--gold", required=True, help="forged gold corpus JSONL")
    p.add_argument("--predictions", required=True, help="JSONL of {instance_id, raw_text}")
    p.add_argument("--sample-n", type=int, default=None,
                   help="evaluate a seeded subset of this size (default: full set)")


def _stats_arguments(p) -> None:
    p.add_argument("--corpus-root", help="count materialized corpora instead of registry metadata")


# Each subcommand: its help line, the function it runs and its own arguments.
COMMANDS = {
    "ingest": ("parse a source-format file into canonical JSONL", cmd_ingest, _ingest_arguments),
    "curate": ("dedup and filter train/test overlap", cmd_curate, _curate_arguments),
    "forge": ("render instruction instances from curated corpora", cmd_forge, _forge_arguments),
    "plan": ("partition a forged corpus into the two training stages", cmd_plan, _plan_arguments),
    "eval": ("score free-text predictions against forged gold", cmd_eval, _eval_arguments),
    "stats": ("corpus statistics per task group and language", cmd_stats, _stats_arguments),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``bioforge`` parser.  Given one of the :data:`COMMANDS`, it has
    only that subcommand's parser, which is all that an argv starting with
    it needs: it parses that argv as the whole parser does, and its usage
    still names every subcommand.  Any other ``command``, or none, builds all
    six, so that ``-h`` and a bad first argument give the whole text."""
    parser = argparse.ArgumentParser(
        prog="bioforge",
        description="Bilingual biomedical corpus pipeline: ingest, curate, forge, plan, eval, stats.",
    )
    one = command in COMMANDS
    # one subcommand's usage names the six as the whole parser's does
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        if one and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--registry", help="registry JSONL (default: bundled reference registry)")
        p.add_argument("--seed", type=int, default=os.environ.get("BIOFORGE_SEED", "0"),
                       help="pipeline seed (env BIOFORGE_SEED, overridable by this flag)")
        p.add_argument("--out", default="out", help="output root directory")
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        for key in RUN_LOG_SCOPE.get(args.command, ()):
            if not is_directory_name(value := getattr(args, key)):
                raise ValueError(f"--{key} {value!r} is not a directory name")
        inputs, counts = args.func(args)
        _write_run_log(args, inputs, counts)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"missing input: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
