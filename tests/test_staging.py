import json
import re
import tracemalloc
from dataclasses import asdict, replace

import pytest

from bioforge import schema
from bioforge.fixtures import reference_registry
from bioforge.forge import build_corpus, read_instances, write_instances
from bioforge.schema import DatasetDescriptor, Language, Registry, TaskType
from bioforge.staging import (
    TYPE1,
    TYPE2,
    TrainingManifest,
    assign_stage,
    build_stage_plan,
    emit_training_manifest,
    registry_stage_counts,
)
from bioforge.synth import make_ner_docs, make_qa_mc_docs
from bioforge.templates import default_template_bank


def desc_for(task, **kwargs):
    return DatasetDescriptor(id="x", name="x", task=task, language=Language.EN, **kwargs)


class TestAssignStage:
    @pytest.mark.parametrize("task", [
        TaskType.NER_NEN, TaskType.RE, TaskType.CRE, TaskType.EE, TaskType.COREF,
        TaskType.TC, TaskType.TP_SS, TaskType.TP_TE, TaskType.MT,
        TaskType.TT_DS, TaskType.TT_TS,
    ])
    def test_type1_tasks(self, task):
        assert assign_stage(desc_for(task)) == TYPE1

    @pytest.mark.parametrize("task", [
        TaskType.QA_MC, TaskType.QA_SQA, TaskType.QA_CQA, TaskType.MRD,
    ])
    def test_type2_tasks(self, task):
        assert assign_stage(desc_for(task)) == TYPE2

    def test_general_dialogue_flag(self):
        assert assign_stage(desc_for(TaskType.TT_TS, general_dialogue=True)) == TYPE2

    def test_override_wins(self):
        assert assign_stage(desc_for(TaskType.NER_NEN, stage_override="Type2")) == TYPE2
        assert assign_stage(desc_for(TaskType.QA_MC, stage_override="Type1")) == TYPE1

    @pytest.mark.parametrize("override", ["type1", "Type3", ""])
    def test_unknown_override_rejected(self, override):
        with pytest.raises(ValueError, match="dataset 'x': stage_override must be 'Type1' or 'Type2'"):
            desc_for(TaskType.NER_NEN, stage_override=override)

    def test_total_over_task_types(self):
        for task in TaskType:
            assert assign_stage(desc_for(task)) in (TYPE1, TYPE2)


def small_forged_corpus(tmp_path):
    """A forged file of 30 NER and 20 QA-mc instances, and their registry."""
    bank = default_template_bank()
    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = Registry([ner_desc, qa_desc])
    forged = tmp_path / "forged.jsonl"
    write_instances(forged, build_corpus([(ner_desc, ner_docs), (qa_desc, qa_docs)], bank, seed=7))
    return forged, registry


class TestBuildStagePlan:
    def test_retrospective_subset_invariant(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        assert set(plan.stage1_rows) <= set(plan.stage2_rows)
        assert plan.stage1_count == 30
        assert plan.stage2_count == 50

    def test_reproducible_per_seed(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        assert build_stage_plan(forged, registry, seed=3) == build_stage_plan(
            forged, registry, seed=3
        )
        assert build_stage_plan(forged, registry, seed=3) != build_stage_plan(
            forged, registry, seed=4
        )

    def test_zero_type2_degenerate(self, tmp_path):
        bank = default_template_bank()
        desc, docs = make_ner_docs(10, seed=1)
        registry = Registry([desc])
        forged = tmp_path / "forged.jsonl"
        write_instances(forged, build_corpus([(desc, docs)], bank, seed=7))
        plan = build_stage_plan(forged, registry, seed=0)
        assert set(plan.stage1_rows) == set(plan.stage2_rows)

    def test_unregistered_dataset(self, tmp_path):
        forged, _ = small_forged_corpus(tmp_path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(forged))}:1: dataset id 'synth-ner-en' not in registry$"):
            build_stage_plan(forged, Registry(), seed=0)

    def test_every_id_hash_equal_writes_the_same_stage_files(self, tmp_path, monkeypatch):
        """With one hash for every id, each new row probes every earlier id,
        and only the re-read of that row's id tells two ids apart."""
        forged, registry = small_forged_corpus(tmp_path)
        lines = forged.read_text(encoding="utf-8").splitlines()
        repeats = [json.dumps({**json.loads(lines[n]), "output": f"changed {k}"},
                              ensure_ascii=False, sort_keys=True)
                   for k, n in enumerate((0, 31, 0, 7))]  # row 0's id three times in all
        forged.write_text("\n".join([*lines, *repeats]) + "\n", encoding="utf-8")

        def stage_files(out):
            plan = build_stage_plan(forged, registry, seed=3)
            for stage in (1, 2):
                emit_training_manifest(plan, stage, out)
            return [(out / f"stage{stage}.jsonl").read_bytes() for stage in (1, 2)]

        hashed = stage_files(tmp_path / "hashed")
        hashed_ids = []
        monkeypatch.setattr(schema, "_id_hash", lambda instance_id: hashed_ids.append(instance_id) or 7)
        assert stage_files(tmp_path / "colliding") == hashed
        assert len(hashed_ids) == len(lines) + len(repeats)
        rows = hashed[1].decode("utf-8").splitlines()
        assert len(rows) == len(lines) + len(repeats)
        for n, last in ((0, repeats[2]), (31, repeats[1]), (7, repeats[3])):
            instance_id = json.loads(lines[n])["instance_id"]
            copies = [row for row in rows if json.loads(row)["instance_id"] == instance_id]
            assert copies == [last] * (3 if n == 0 else 2)

    def test_plan_memory_grows_by_under_48_bytes_a_row(self, tmp_path):
        """The plan holds machine words per row in ``array`` columns: offsets,
        an id hash, a slot of the first-row table and stage row numbers."""
        desc, docs = make_ner_docs(1, seed=1)  # Type1, so every row is in both stages
        registry = Registry([desc])
        one = tmp_path / "one.jsonl"
        write_instances(one, build_corpus([(desc, docs)], default_template_bank(), seed=7))
        row = {**json.loads(one.read_text(encoding="utf-8")), "instruction": "i", "input": "x", "output": "y"}
        peaks = {}
        for n in (10_000, 40_000):
            forged = tmp_path / f"forged{n}.jsonl"
            forged.write_text("".join(json.dumps({**row, "instance_id": f"i{k}"}) + "\n" for k in range(n)),
                              encoding="utf-8")
            tracemalloc.start()
            try:
                assert build_stage_plan(forged, registry, seed=3).stage2_count == n
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        slope = (peaks[40_000] - peaks[10_000]) / 30_000
        assert slope < 48, peaks

    def test_reference_registry_counts(self):
        stage1, stage2 = registry_stage_counts(reference_registry())
        assert stage1 == 340_400
        assert stage2 == 1_114_315


EXPECTED_SHARED = {
    "batch_size_per_gpu": 12,
    "learning_rate": 0.0002,
    "warmup_ratio": 0.1,
    "max_length": 1024,
    "lora_rank": 64,
    "lora_alpha": 16,
    "lora_dropout": 0.05,
}


class TestManifests:
    def test_stage1_hyperparameters(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        manifest = emit_training_manifest(plan, 1, tmp_path)
        assert manifest.epochs == 5
        for name, value in EXPECTED_SHARED.items():
            assert getattr(manifest, name) == value

    def test_stage2_differs_only_in_epochs(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        m1 = emit_training_manifest(plan, 1, tmp_path)
        m2 = emit_training_manifest(plan, 2, tmp_path)
        assert m2.epochs == 3
        for name in EXPECTED_SHARED:
            assert getattr(m1, name) == getattr(m2, name)

    def test_manifest_file_round_trip(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        manifest = emit_training_manifest(plan, 2, tmp_path)
        assert json.loads((tmp_path / "stage2.manifest.json").read_text(encoding="utf-8")) == asdict(manifest)

    def test_unknown_stage_rejected(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        with pytest.raises(ValueError, match=r"^stage must be 1 or 2, got 3$"):
            emit_training_manifest(plan, 3, tmp_path / "plan")
        assert not (tmp_path / "plan").exists()

    def test_stage_file_in_plan_order(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        emit_training_manifest(plan, 1, tmp_path)
        written = read_instances(tmp_path / "stage1.jsonl")
        ids = [i.instance_id for i in read_instances(forged)]
        assert [i.instance_id for i in written] == [ids[r] for r in plan.stage1_rows]

    def test_forged_file_cut_after_planning_writes_no_stage_file(self, tmp_path):
        forged, registry = small_forged_corpus(tmp_path)
        plan = build_stage_plan(forged, registry, seed=3)
        forged.write_bytes(forged.read_bytes()[:100])
        with pytest.raises(ValueError, match="file changed since it was planned"):
            emit_training_manifest(plan, 2, tmp_path / "plan")
        assert not (tmp_path / "plan" / "stage2.jsonl").exists()

    def test_forged_file_cut_after_a_block_was_written_writes_no_stage_file(self, tmp_path):
        """The forged file is cut once the rows copied so far fill a 64 KiB
        block, which is then on disk in the temp file."""
        bank = default_template_bank()
        ner_desc, ner_docs = make_ner_docs(400, seed=1)
        forged = tmp_path / "forged.jsonl"
        write_instances(forged, build_corpus([(ner_desc, ner_docs)], bank, seed=7))
        plan = build_stage_plan(forged, Registry([ner_desc]), seed=3)
        out = tmp_path / "plan"

        class CutOnceABlockIsWritten:
            """The plan's span length column, read as ``copy_lines`` takes each row."""
            given = 0  # bytes of the rows given so far, each with its newline
            cut = False

            def __init__(self, lengths):
                self.lengths = lengths

            def __getitem__(self, row):
                if self.given >= 1 << 16 and not self.cut:
                    assert (out / "stage2.jsonl.tmp").stat().st_size == self.given
                    forged.write_bytes(forged.read_bytes()[:100])
                    self.cut = True
                length = self.lengths[row]
                self.given += length + 1
                return length

        lengths = CutOnceABlockIsWritten(plan.spans.lengths)
        with pytest.raises(ValueError, match="file changed since it was planned"):
            emit_training_manifest(replace(plan, spans=replace(plan.spans, lengths=lengths)), 2, out)
        assert lengths.cut
        assert not (out / "stage2.jsonl").exists()
        assert not (out / "stage2.jsonl.tmp").exists()

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValueError):
            TrainingManifest(stage=1, epochs=0)
        with pytest.raises(ValueError):
            TrainingManifest(stage=1, epochs=5, lora_dropout=1.0)
