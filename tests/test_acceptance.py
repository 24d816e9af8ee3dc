"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import json
import random
import time

import pytest

from bioforge.cli import main
from bioforge.curation import SubtaskPlan, corpus_stats, decompose_subtasks, dedup_and_filter_overlap
from bioforge.evaluation import (
    PredictionRecord,
    evaluate_dataset,
    parse_ner_output,
    parse_qa_choice,
    parse_re_output,
    parse_tc_output,
    sample_subset,
    score_micro_f1,
)
from bioforge.fixtures import reference_registry
from bioforge.forge import build_corpus, read_instances, write_instances
from bioforge.schema import (
    DatasetDescriptor,
    Language,
    Registry,
    TaskType,
    UnifiedDocument,
    write_documents,
)
from bioforge.staging import build_stage_plan, emit_training_manifest, registry_stage_counts
from bioforge.synth import (
    make_ner_docs,
    make_qa_mc_docs,
    make_re_docs,
    make_tc_docs,
    re_descriptor,
)
from bioforge.templates import default_template_bank

BANK = default_template_bank()


def ok(name):
    print(f"ACCEPTANCE {name}: PASS")


def oracle_preds(instances):
    return [PredictionRecord(i.instance_id, i.output) for i in instances]


def relation_descriptor(task, label_vocab):
    """A CRE or COREF dataset; both share RE's documents and output grammar."""
    return DatasetDescriptor(id=f"{task.value.lower()}-en", name=task.value, task=task,
                             language=Language.EN, label_vocab=label_vocab)


def test_reference_count_reproduction():
    start = time.perf_counter()
    table = corpus_stats(reference_registry())
    stage1, stage2 = registry_stage_counts(reference_registry())
    elapsed = time.perf_counter() - start
    assert table.total == 1_114_315
    assert stage1 == 340_400
    assert elapsed < 1.0
    ok("reference-count-reproduction")


def test_round_trip_suite():
    start = time.perf_counter()
    fixtures = [
        make_ner_docs(1000, seed=0),
        make_re_docs(1000, seed=1),
        make_re_docs(1000, seed=2, desc=re_descriptor("re-un", untyped=True)),
        make_tc_docs(1000, seed=3),
        make_qa_mc_docs(1000, seed=4),
        make_re_docs(1000, seed=5, desc=relation_descriptor(TaskType.CRE, ("causes", "prevents"))),
        make_re_docs(1000, seed=6, desc=relation_descriptor(TaskType.COREF, ("coref",))),
    ]
    for desc, docs in fixtures:
        instances = build_corpus([(desc, docs)], BANK, seed=7)
        report = evaluate_dataset(instances, oracle_preds(instances), desc)
        score = report.accuracy if report.metric_name == "accuracy" else report.f1
        assert score == 1.0, (desc.id, score)
    assert time.perf_counter() - start < 10.0
    ok("round-trip-suite")


def test_metric_oracle_equivalence():
    rng = random.Random(42)
    universe = [(f"e{i}", t) for i in range(12) for t in ("X", "Y", "Z")]
    for _ in range(100):
        n = rng.randint(1, 8)
        gold = [frozenset(rng.sample(universe, rng.randint(0, 10))) for _ in range(n)]
        pred = [frozenset(rng.sample(universe, rng.randint(0, 10))) for _ in range(n)]
        report = score_micro_f1(gold, pred)
        tp = fp = fn = 0
        for g, p in zip(gold, pred):
            for item in p:
                if item in g:
                    tp += 1
                else:
                    fp += 1
            for item in g:
                if item not in p:
                    fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert abs(report.precision - precision) <= 1e-12
        assert abs(report.recall - recall) <= 1e-12
        assert abs(report.f1 - f1) <= 1e-12
    # CRE and COREF through bioforge's own parse + score path: predictions
    # keep ~70 % of the gold triples and sometimes add a spurious one.
    for task, vocab in ((TaskType.CRE, ("causes", "prevents")), (TaskType.COREF, ("coref",))):
        desc, docs = make_re_docs(200, seed=13, desc=relation_descriptor(task, vocab))
        instances = build_corpus([(desc, docs)], BANK, seed=7)
        preds = []
        tp = fp = fn = 0
        for inst, doc in zip(instances, docs):
            gold = {(r.head, r.tail, r.rtype) for r in doc.relations}
            pred = {t for t in sorted(gold) if rng.random() < 0.7}
            if rng.random() < 0.3:
                pred.add(("heparin", "sepsis", vocab[0]))
            tp += len(pred & gold)
            fp += len(pred - gold)
            fn += len(gold - pred)
            raw = "; ".join(f"({h}, {t}, {r})" for h, t, r in sorted(pred)) or "No relations found."
            preds.append(PredictionRecord(inst.instance_id, raw))
        report = evaluate_dataset(instances, preds, desc)
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn), task
        precision, recall = tp / (tp + fp), tp / (tp + fn)
        assert abs(report.f1 - 2 * precision * recall / (precision + recall)) <= 1e-12
    ok("metric-oracle-equivalence")


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_corruption_calibration(p):
    desc, docs = make_ner_docs(200, seed=9)
    instances = build_corpus([(desc, docs)], BANK, seed=7)
    gold_sets = [
        parse_ner_output(i.output, desc.language, desc.label_vocab).ner for i in instances
    ]
    indexed = [(i, item) for i, s in enumerate(gold_sets) for item in sorted(s)]
    rng = random.Random(f"corrupt:{p}")
    n_delete = int(p * len(indexed))
    deleted = set(rng.sample(range(len(indexed)), n_delete))
    kept_sets = [set() for _ in gold_sets]
    for j, (i, item) in enumerate(indexed):
        if j not in deleted:
            kept_sets[i].add(item)
    preds = []
    for inst, kept in zip(instances, kept_sets):
        if not kept:
            preds.append(PredictionRecord(inst.instance_id, "No entities found."))
            continue
        by_type = {}
        for surface, etype in sorted(kept):
            by_type.setdefault(etype, []).append(surface)
        raw = "\n".join(f"{t}: " + "; ".join(ss) for t, ss in by_type.items())
        preds.append(PredictionRecord(inst.instance_id, raw))
    report = evaluate_dataset(instances, preds, desc)
    kept_fraction = (len(indexed) - n_delete) / len(indexed)
    assert report.precision == 1.0
    assert report.recall == kept_fraction
    assert abs(report.f1 - 2 * kept_fraction / (1 + kept_fraction)) <= 1e-12
    ok(f"corruption-calibration p={p}")


def test_curation_properties():
    desc, clean = make_tc_docs(40, seed=6)
    k, m = 5, 3
    duplicates = [clean[i] for i in range(k)]
    overlapping = clean[10:10 + m]
    test_docs = [
        UnifiedDocument(doc_id=f"t{j}", dataset_id=desc.id, language=Language.EN,
                        text=d.text, labels=d.labels)
        for j, d in enumerate(overlapping)
    ]
    train = list(clean) + duplicates
    kept, report = dedup_and_filter_overlap(train, test_docs)
    assert len(kept) == len(train) - k - m
    assert report.duplicates_removed == k
    assert report.overlap_removed == m
    assert report.output_count == report.input_count - report.duplicates_removed - report.overlap_removed
    again, report2 = dedup_and_filter_overlap(kept, test_docs)
    assert again == kept
    assert report2.duplicates_removed == report2.overlap_removed == 0
    ok("curation-properties")


def test_determinism(tmp_path):
    desc, docs = make_ner_docs(100, seed=3)
    registry = Registry([desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    corpus_root = tmp_path / "corpus"
    write_documents(corpus_root / desc.id / "train.jsonl", docs)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["forge", "--registry", str(registry_path),
                     "--corpus-root", str(corpus_root), "--seed", "7",
                     "--out", str(out)]) == 0
        assert main(["plan", "--registry", str(registry_path),
                     "--forged", str(out / "forged.jsonl"), "--seed", "7",
                     "--out", str(out)]) == 0
        blobs.append((
            (out / "forged.jsonl").read_bytes(),
            (out / "plan" / "stage1.jsonl").read_bytes(),
            (out / "plan" / "stage2.jsonl").read_bytes(),
        ))
    assert blobs[0] == blobs[1]
    seed7 = build_corpus([(desc, docs)], BANK, seed=7)
    seed8 = build_corpus([(desc, docs)], BANK, seed=8)
    assert any(x.template_id != y.template_id for x, y in zip(seed7, seed8))
    ok("determinism")


def test_subtask_decomposition():
    desc, docs = make_ner_docs(60, seed=12)
    out = decompose_subtasks(docs, desc, SubtaskPlan.per_label(desc.label_vocab))
    assert len(out) == 3
    assert out[0][0] is desc and out[0][1] == list(docs)
    for i, original in enumerate(docs):
        union = sorted(
            (e for _, subset in out[1:] for e in subset[i].entities),
            key=lambda e: (e.start, e.etype),
        )
        assert union == sorted(original.entities, key=lambda e: (e.start, e.etype))
    for (virtual, subset), label in zip(out[1:], desc.label_vocab):
        assert all(e.etype == label for doc in subset for e in doc.entities)
    ok("subtask-decomposition")


def test_parser_robustness_fuzz():
    rng = random.Random(2024)
    seeds = [
        "Chemical: valproic acid; Ammonia\nDisease: epileptic",
        "(13-三体综合征, 泌尿系畸形, 并发症); (a, b, c)",
        "[Phenobarbital, dyskinesia]; [x, y]",
        "Result: Prevention; Treatment",
        "The answer is B.",
        "上述文本被分类为: 治疗或手术",
        "",
    ]
    alphabet = "abcXYZ:;()[]{},.；：（）【】\n\t ÿ中﻿"
    options = (("A", "aspirin"), ("B", "colchicine"), ("C", "heparin"), ("D", "insulin"))
    unparseable = 0
    total = 10_000
    for _ in range(total):
        s = list(rng.choice(seeds))
        for _ in range(rng.randint(0, 8)):
            op = rng.randint(0, 2)
            pos = rng.randint(0, max(len(s) - 1, 0))
            if op == 0 and s:
                del s[pos]
            elif op == 1:
                s.insert(pos, rng.choice(alphabet))
            elif s:
                s[pos] = rng.choice(alphabet)
        raw = "".join(s)
        outcomes = [
            parse_ner_output(raw, Language.EN, ["Chemical", "Disease"]),
            parse_re_output(raw, Language.ZH, ["并发症"], prompted_relation="并发症"),
            parse_tc_output(raw, Language.EN, ["Prevention", "Treatment"]),
            parse_qa_choice(raw, options),
        ]
        unparseable += sum(1 for o in outcomes if o.status == "unparseable")
    rate = unparseable / (4 * total)
    print(f"  fuzz unparseable rate: {rate:.3f}")
    ok("parser-robustness-fuzz")


def test_manifest_fidelity(tmp_path):
    desc, docs = make_ner_docs(10, seed=1)
    registry = Registry([desc])
    forged = tmp_path / "forged.jsonl"
    write_instances(forged, build_corpus([(desc, docs)], BANK, seed=7))
    plan = build_stage_plan(forged, registry, seed=0)
    m1 = emit_training_manifest(plan, 1, tmp_path)
    m2 = emit_training_manifest(plan, 2, tmp_path)
    expected = {
        "epochs": 5, "batch_size_per_gpu": 12, "learning_rate": 0.0002,
        "warmup_ratio": 0.1, "max_length": 1024, "lora_rank": 64,
        "lora_alpha": 16, "lora_dropout": 0.05,
    }
    for field_name, value in expected.items():
        assert getattr(m1, field_name) == value, field_name
    for field_name in expected:
        if field_name == "epochs":
            assert m2.epochs == 3
        else:
            assert getattr(m2, field_name) == expected[field_name]
    ok("manifest-fidelity")


def test_200_sample_protocol(tmp_path):
    desc, docs = make_qa_mc_docs(500, seed=8)
    instances = build_corpus([(desc, docs)], BANK, seed=7)
    subset_a = sample_subset(instances, 200, seed=1)
    subset_b = sample_subset(instances, 200, seed=1)
    assert subset_a == subset_b
    assert len(subset_a) == 200
    registry = Registry([desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    gold_path = tmp_path / "forged.jsonl"
    write_instances(gold_path, instances)
    preds_path = tmp_path / "preds.jsonl"
    preds_path.write_text(
        "\n".join(
            json.dumps({"instance_id": i.instance_id, "raw_text": i.output})
            for i in instances
        ),
        encoding="utf-8",
    )
    assert main([
        "eval", "--registry", str(registry_path), "--dataset", desc.id,
        "--gold", str(gold_path), "--predictions", str(preds_path),
        "--sample-n", "200", "--seed", "1", "--out", str(tmp_path / "out"),
    ]) == 0
    report = json.loads((tmp_path / "out" / f"eval.{desc.id}.json").read_text())
    assert report["total"] == 200
    assert report["accuracy"] == 1.0
    ok("200-sample-protocol")
