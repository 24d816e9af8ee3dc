"""Two-stage SFT data orchestration.

Stage 1 trains on Type1 tasks (extraction, classification, text pairs,
translation, text-to-text); stage 2 re-includes all stage-1 data as
retrospective data and mixes in the Type2 tasks (QA, dialogue) for
incremental training.  The stage-2 order is one global seeded shuffle over
retrospective plus Type2 instances; one fixed order per seed.

A plan holds row numbers and the forged file's ``schema.LineSpans``, not
ids or records: each stage row is the forged line copied verbatim, without
its edge whitespace, plus a newline (``schema.copy_lines``).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import UnknownDataset
from .schema import (
    TASKS,
    TYPE1,
    TYPE2,
    DatasetDescriptor,
    InstructionInstance,
    LineSpans,
    Registry,
    copy_lines,
    last_rows,
    read_json,
    read_jsonl,
    write_json,
)

# Free-text note carried on manifests: checkpoint selection between stages is
# a human-in-the-loop protocol, not an executable step.
CHECKPOINT_NOTE = (
    "Select the stage-1 checkpoint for stage 2 by combining human evaluation "
    "with automated metrics on the development sets."
)


def assign_stage(desc: DatasetDescriptor) -> str:
    """Map a dataset to Type1 or Type2; a registry override wins over the
    task-based partition (stage membership was assigned manually upstream)."""
    if desc.stage_override is not None:
        return desc.stage_override
    if desc.general_dialogue or TASKS[desc.task].type2:
        return TYPE2
    return TYPE1


@dataclass(frozen=True)
class StagePlan:
    stage1_rows: array  # 'q' row numbers of the forged file, in stage order
    stage2_rows: array
    spans: LineSpans  # by row number: the forged line copied for it

    @property
    def stage1_count(self) -> int:
        return len(self.stage1_rows)

    @property
    def stage2_count(self) -> int:
        return len(self.stage2_rows)


def build_stage_plan(forged: Path | str, registry: Registry, seed: int = 0) -> StagePlan:
    """Partition the forged corpus in the file ``forged`` into the two
    training stages.

    Stage 1 holds every Type1 instance; stage 2 holds everything (stage-1
    data re-included as retrospective data).  Ordering within each stage is a
    deterministic shuffle of the seed.  Every row is decoded and type-checked
    as an ``InstructionInstance``, but none is built: only its id and dataset
    id are read (a ``read_jsonl`` projection), and each dataset's stage is
    looked up once.  The plan holds machine words per row: the stages' row
    numbers and the rows' spans.  An id given twice is listed twice, each
    copy the last row with that id (``schema.last_rows``).
    """
    type1 = {desc.id: assign_stage(desc) == TYPE1 for desc in registry}
    spans, stage1_rows = LineSpans(), array("q")
    rows = read_jsonl(forged, InstructionInstance, spans=spans, fields=("instance_id", "dataset_id"))

    def instance_ids():
        for instance_id, dataset_id in rows:
            in_stage1 = type1.get(dataset_id)
            if in_stage1 is None:  # named by the forged file's path and line
                rows.throw(ValueError(str(UnknownDataset(dataset_id))))
            if in_stage1:
                stage1_rows.append(len(spans.starts) - 1)
            yield instance_id
    # its hashes and table are freed as it returns, before the stage-2 rows are made, which bounds the peak
    last_rows(forged, InstructionInstance, ("instance_id",), spans, instance_ids())
    random.Random(f"stage1:{seed}").shuffle(stage1_rows)
    stage2_rows = array("q", range(len(spans.starts)))
    random.Random(f"stage2:{seed}").shuffle(stage2_rows)
    return StagePlan(stage1_rows=stage1_rows, stage2_rows=stage2_rows, spans=spans)


def registry_stage_counts(registry: Registry) -> tuple[int, int]:
    """(stage1, stage2) train instance counts from registry metadata alone."""
    stage1 = stage2 = 0
    for desc in registry:
        n = desc.split_counts.get("train", 0)
        stage2 += n
        if assign_stage(desc) == TYPE1:
            stage1 += n
    return stage1, stage2


@dataclass(frozen=True)
class TrainingManifest:
    stage: int
    epochs: int
    batch_size_per_gpu: int = 12
    learning_rate: float = 0.0002
    warmup_ratio: float = 0.1
    max_length: int = 1024
    lora_rank: int = 64
    lora_alpha: int = 16
    lora_dropout: float = 0.05
    data_path: str = ""
    checkpoint_selection: str = CHECKPOINT_NOTE

    def __post_init__(self):
        for name in ("epochs", "batch_size_per_gpu", "learning_rate",
                     "warmup_ratio", "max_length", "lora_rank", "lora_alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0 <= self.lora_dropout < 1:
            raise ValueError("lora_dropout must be in [0, 1)")


STAGE_EPOCHS = {1: 5, 2: 3}


def emit_training_manifest(plan: StagePlan, stage: int, out_dir: Path | str) -> TrainingManifest:
    """Write ``plan/stage<k>.manifest.json`` and ``plan/stage<k>.jsonl``.

    The data file holds the stage's rows in plan order, each copied from the
    plan's forged file; the manifest carries the fixed hyperparameter block
    (only epochs differs per stage).
    """
    if stage not in STAGE_EPOCHS:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    out_dir = Path(out_dir)
    ordered = plan.stage1_rows if stage == 1 else plan.stage2_rows
    data_path = out_dir / f"stage{stage}.jsonl"
    copy_lines(data_path, plan.spans.lines(ordered), since="planned")
    manifest = TrainingManifest(
        stage=stage, epochs=STAGE_EPOCHS[stage], data_path=str(data_path)
    )
    write_json(out_dir / f"stage{stage}.manifest.json", asdict(manifest))
    return manifest


def load_manifest(path: Path | str) -> TrainingManifest:
    return read_json(path, TrainingManifest)
