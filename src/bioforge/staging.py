"""Two-stage SFT data orchestration.

Stage 1 trains on Type1 tasks (extraction, classification, text pairs,
translation, text-to-text); stage 2 re-includes all stage-1 data as
retrospective data and mixes in the Type2 tasks (QA, dialogue) for
incremental training.  The stage-2 order is one global seeded shuffle over
retrospective plus Type2 instances; one fixed order per seed.

A plan holds row numbers and byte offsets in ``array`` columns, not ids or
records: each stage row is the forged line copied verbatim, without its edge
whitespace, plus a newline, and the rows are written in blocks of about
64 KiB (``schema.copy_lines``).
"""

from __future__ import annotations

import json
import os
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
    Registry,
    copy_lines,
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
    source: str  # the forged file that stage rows are copied from
    starts: array  # 'q', by row number: byte start of the row copied for it
    lengths: array  # 'q', by row number: its byte length

    @property
    def stage1_count(self) -> int:
        return len(self.stage1_rows)

    @property
    def stage2_count(self) -> int:
        return len(self.stage2_rows)


# The hash that finds an id's other rows; equal hashes are confirmed by
# re-reading both rows' ids, so a collision never merges two ids.
_id_hash = hash


def _id_at(fd: int, start: int, length: int) -> str:
    """The instance id of the forged row at a byte span, read again."""
    return json.loads(os.pread(fd, length, start).decode("utf-8").strip())["instance_id"]


def _copy_last_rows(forged: Path | str, starts: array, lengths: array, hashes: array) -> None:
    """Give each row whose id is given more than once the span of the last
    row with that id.  Each id's first row is found through an
    open-addressing table of row numbers, sized once for the row count (at
    most 2/3 full, linear probing) and keyed by ``hashes``."""
    size = 16
    while 3 * len(hashes) > 2 * size:
        size *= 2
    mask = size - 1
    table = array("i", [-1]) * size  # slot -> the first row of an id, or -1
    first_of, last_of = {}, {}  # of repeated ids: each row -> first row, first row -> last row
    with open(forged, "rb") as f:
        fd = f.fileno()
        for row, h in enumerate(hashes):
            slot = h & mask
            while (first := table[slot]) >= 0:
                if hashes[first] == h and (_id_at(fd, starts[first], lengths[first])
                                           == _id_at(fd, starts[row], lengths[row])):
                    first_of[row] = first_of[first] = first
                    last_of[first] = row
                    break
                slot = (slot + 1) & mask
            else:
                table[slot] = row
    for row, first in first_of.items():
        last = last_of[first]
        starts[row], lengths[row] = starts[last], lengths[last]


def build_stage_plan(forged: Path | str, registry: Registry, seed: int = 0) -> StagePlan:
    """Partition the forged corpus in the file ``forged`` into the two
    training stages.

    Stage 1 holds every Type1 instance; stage 2 holds everything (stage-1
    data re-included as retrospective data).  Ordering within each stage is a
    deterministic shuffle of the seed.  Every row is decoded and type-checked
    as an ``InstructionInstance``, but none is built: only its id and dataset
    id are read (a ``read_jsonl`` projection), and each dataset's stage is
    looked up once.  The plan holds machine words per row, in ``array``
    columns: the byte start and length of the row to copy, and the row
    numbers of each stage.  An id given twice is listed twice, each copy the
    last row with that id; while the file is read, a row also keeps the hash
    of its id, which finds those repeats.
    """
    type1 = {desc.id: assign_stage(desc) == TYPE1 for desc in registry}
    starts, lengths, hashes, stage1_rows = array("q"), array("q"), array("q"), array("q")
    rows = read_jsonl(forged, InstructionInstance, spans=True, fields=("instance_id", "dataset_id"))
    for (instance_id, dataset_id), start, length in rows:
        in_stage1 = type1.get(dataset_id)
        if in_stage1 is None:  # named by the forged file's path and line
            rows.throw(ValueError(str(UnknownDataset(dataset_id))))
        if in_stage1:
            stage1_rows.append(len(starts))
        starts.append(start)
        lengths.append(length)
        hashes.append(_id_hash(instance_id))
    _copy_last_rows(forged, starts, lengths, hashes)
    del hashes  # before the stage-2 rows are made, which bounds the peak
    random.Random(f"stage1:{seed}").shuffle(stage1_rows)
    stage2_rows = array("q", range(len(starts)))
    random.Random(f"stage2:{seed}").shuffle(stage2_rows)
    return StagePlan(stage1_rows=stage1_rows, stage2_rows=stage2_rows, source=str(forged),
                     starts=starts, lengths=lengths)


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
    starts, lengths = plan.starts, plan.lengths
    data_path = out_dir / f"stage{stage}.jsonl"
    copy_lines(data_path, ((plan.source, starts[r], lengths[r]) for r in ordered), since="planned")
    manifest = TrainingManifest(
        stage=stage, epochs=STAGE_EPOCHS[stage], data_path=str(data_path)
    )
    write_json(out_dir / f"stage{stage}.manifest.json", asdict(manifest))
    return manifest


def load_manifest(path: Path | str) -> TrainingManifest:
    return read_json(path, TrainingManifest)
