"""Walkthrough: partitioning a forged corpus into the two training stages
and emitting the training manifests.

Run: python3 demos/04_plan_two_stage.py
"""

import tempfile
from pathlib import Path

from bioforge import (
    Registry,
    assign_stage,
    build_corpus,
    build_stage_plan,
    default_template_bank,
    emit_training_manifest,
    reference_registry,
    registry_stage_counts,
)
from bioforge.forge import write_instances
from bioforge.synth import make_ner_docs, make_qa_mc_docs


def main():
    print("stage assignment over the reference registry:")
    for desc in reference_registry():
        print(f"  {desc.id:<22} {desc.task.value:<8} -> {assign_stage(desc)}")
    stage1, stage2 = registry_stage_counts(reference_registry())
    print(f"\nstage-1 instances: {stage1:,}   stage-2 (with retrospective data): {stage2:,}\n")

    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = Registry([ner_desc, qa_desc])
    instances = build_corpus([(ner_desc, ner_docs), (qa_desc, qa_docs)],
                             default_template_bank(), seed=7)

    with tempfile.TemporaryDirectory() as tmp:
        # plan reads the forged file, and copies each stage row from it
        forged = Path(tmp) / "forged.jsonl"
        write_instances(forged, instances)
        plan = build_stage_plan(forged, registry, seed=0)
        print(f"synthetic corpus: stage1={plan.stage1_count} stage2={plan.stage2_count}")
        print("stage1 subset of stage2:",
              set(plan.stage1_rows) <= set(plan.stage2_rows))
        for stage in (1, 2):
            manifest = emit_training_manifest(plan, stage, Path(tmp))
            print(f"stage {stage} manifest: epochs={manifest.epochs} "
                  f"batch={manifest.batch_size_per_gpu} lr={manifest.learning_rate} "
                  f"lora r={manifest.lora_rank}/a={manifest.lora_alpha}")


if __name__ == "__main__":
    main()
