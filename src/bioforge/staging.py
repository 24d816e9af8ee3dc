"""Two-stage SFT data orchestration.

Stage 1 trains on Type1 tasks (extraction, classification, text pairs,
translation, text-to-text); stage 2 re-includes all stage-1 data as
retrospective data and mixes in the Type2 tasks (QA, dialogue) for
incremental training.  The stage-2 order is one global seeded shuffle over
retrospective plus Type2 instances; one fixed order per seed.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from .schema import TASKS, DatasetDescriptor, InstructionInstance, Registry, read_json, write_instances, write_json

TYPE1 = "Type1"
TYPE2 = "Type2"

# Free-text note carried on manifests: checkpoint selection between stages is
# a human-in-the-loop protocol, not an executable step.
CHECKPOINT_NOTE = (
    "Select the stage-1 checkpoint for stage 2 by combining human evaluation "
    "with automated metrics on the development sets."
)


def assign_stage(desc: DatasetDescriptor) -> str:
    """Map a dataset to Type1 or Type2; a registry override wins over the
    task-based partition (stage membership was assigned manually upstream)."""
    if desc.stage_override in (TYPE1, TYPE2):
        return desc.stage_override
    if desc.general_dialogue or TASKS[desc.task].type2:
        return TYPE2
    return TYPE1


@dataclass(frozen=True)
class StagePlan:
    stage1_instances: tuple[str, ...]  # ordered instance ids
    stage2_instances: tuple[str, ...]
    stage1_count: int
    stage2_count: int


def build_stage_plan(
    instances: Sequence[InstructionInstance], registry: Registry, seed: int = 0
) -> StagePlan:
    """Partition a forged corpus into the two training stages.

    Stage 1 holds every Type1 instance; stage 2 holds everything (stage-1
    data re-included as retrospective data).  Ordering within each stage is a
    deterministic shuffle of the seed.
    """
    stage1_ids = []
    stage2_ids = []
    for inst in instances:
        desc = registry[inst.dataset_id]
        stage2_ids.append(inst.instance_id)
        if assign_stage(desc) == TYPE1:
            stage1_ids.append(inst.instance_id)
    random.Random(f"stage1:{seed}").shuffle(stage1_ids)
    random.Random(f"stage2:{seed}").shuffle(stage2_ids)
    return StagePlan(
        stage1_instances=tuple(stage1_ids),
        stage2_instances=tuple(stage2_ids),
        stage1_count=len(stage1_ids),
        stage2_count=len(stage2_ids),
    )


def registry_stage_counts(registry: Registry, split: str = "train") -> tuple[int, int]:
    """(stage1, stage2) instance counts from registry metadata alone."""
    stage1 = stage2 = 0
    for desc in registry:
        n = desc.split_counts.get(split, 0)
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


def emit_training_manifest(
    plan: StagePlan,
    stage: int,
    instances: Sequence[InstructionInstance],
    out_dir: Path | str,
) -> TrainingManifest:
    """Write ``plan/stage<k>.manifest.json`` and ``plan/stage<k>.jsonl``.

    The data file holds the stage's instances in plan order; the manifest
    carries the fixed hyperparameter block (only epochs differs per stage).
    """
    if stage not in STAGE_EPOCHS:
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    out_dir = Path(out_dir)
    by_id = {inst.instance_id: inst for inst in instances}
    ordered_ids = plan.stage1_instances if stage == 1 else plan.stage2_instances
    data_path = out_dir / f"stage{stage}.jsonl"
    write_instances(data_path, (by_id[i] for i in ordered_ids))
    manifest = TrainingManifest(
        stage=stage, epochs=STAGE_EPOCHS[stage], data_path=str(data_path)
    )
    write_json(out_dir / f"stage{stage}.manifest.json", asdict(manifest))
    return manifest


def load_manifest(path: Path | str) -> TrainingManifest:
    return read_json(path, TrainingManifest)
