import hashlib
import json

import pytest

from bioforge.cli import main
from bioforge.forge import read_instances
from bioforge.schema import Language, Registry, write_documents
from bioforge.synth import (
    make_ner_docs,
    make_qa_mc_docs,
    make_re_docs,
    make_tc_docs,
    ner_descriptor,
    re_descriptor,
    tc_descriptor,
)


@pytest.fixture
def workspace(tmp_path):
    ner_desc, ner_docs = make_ner_docs(30, seed=1)
    qa_desc, qa_docs = make_qa_mc_docs(20, seed=2)
    registry = Registry([ner_desc, qa_desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    corpus_root = tmp_path / "corpus"
    write_documents(corpus_root / ner_desc.id / "train.jsonl", ner_docs)
    write_documents(corpus_root / qa_desc.id / "train.jsonl", qa_docs)
    return tmp_path, registry_path, corpus_root


def test_stats_prints_reference_total(tmp_path, capsys):
    code = main(["stats", "--out", str(tmp_path)])
    assert code == 0
    assert "1,114,315" in capsys.readouterr().out


def test_ingest_command(tmp_path, capsys):
    desc = ner_descriptor("synth-ner-en")
    registry = Registry([desc])
    registry_path = tmp_path / "registry.jsonl"
    registry.save(registry_path)
    src = tmp_path / "raw.pubtator"
    src.write_text("1|t|aspirin\n1|a|x\n1\t0\t7\taspirin\tChemical\n\n", encoding="utf-8")
    code = main([
        "ingest", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--format", "pubtator", "--input", str(src), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "corpus" / "synth-ner-en" / "train.jsonl").exists()
    assert "loaded=1" in capsys.readouterr().out


def test_forge_is_idempotent_and_seed_sensitive(workspace):
    tmp_path, registry_path, corpus_root = workspace
    digests = []
    for out_name in ("out1", "out2"):
        code = main([
            "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
            "--seed", "7", "--out", str(tmp_path / out_name),
        ])
        assert code == 0
        log = json.loads((tmp_path / out_name / "run_log.forge.json").read_text())
        digests.append(log["counts"]["output_digest"])
    assert digests[0] == digests[1]
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "8", "--out", str(tmp_path / "out3"),
    ])
    log = json.loads((tmp_path / "out3" / "run_log.forge.json").read_text())
    assert log["counts"]["output_digest"] != digests[0]


def test_plan_command(workspace):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    code = main([
        "plan", "--registry", str(registry_path),
        "--forged", str(tmp_path / "out" / "forged.jsonl"),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "plan" / "stage1.manifest.json").read_text())
    assert manifest["epochs"] == 5
    assert manifest["batch_size_per_gpu"] == 12


def test_eval_missing_predictions_exits_1(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    missing = tmp_path / "nope.jsonl"
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(missing), "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_eval_unknown_dataset_exits_2(workspace, tmp_path_factory, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    preds = tmp_path / "preds.jsonl"
    preds.write_text("", encoding="utf-8")
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "not-a-dataset",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(preds), "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_eval_oracle_round_trip(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    main([
        "forge", "--registry", str(registry_path), "--corpus-root", str(corpus_root),
        "--seed", "7", "--out", str(tmp_path / "out"),
    ])
    from bioforge.forge import read_instances
    instances = read_instances(tmp_path / "out" / "forged.jsonl")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(
        "\n".join(
            json.dumps({"instance_id": i.instance_id, "raw_text": i.output})
            for i in instances if i.dataset_id == "synth-ner-en"
        ),
        encoding="utf-8",
    )
    code = main([
        "eval", "--registry", str(registry_path), "--dataset", "synth-ner-en",
        "--gold", str(tmp_path / "out" / "forged.jsonl"),
        "--predictions", str(preds), "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "out" / "eval.synth-ner-en.json").read_text())
    assert report["f1"] == 1.0


def test_curate_command(workspace, capsys):
    tmp_path, registry_path, corpus_root = workspace
    # duplicate one training doc into a test split to force one overlap removal
    from bioforge.schema import read_documents
    docs = read_documents(corpus_root / "synth-ner-en" / "train.jsonl")
    write_documents(corpus_root / "synth-ner-en" / "test.jsonl", docs[:1])
    code = main([
        "curate", "--corpus-root", str(corpus_root), "--out", str(tmp_path / "cur"),
    ])
    assert code == 0
    report = json.loads((tmp_path / "cur" / "curation_report.json").read_text())
    assert report["overlap_removed"] >= 1
    assert report["output_count"] == (
        report["input_count"] - report["duplicates_removed"] - report["overlap_removed"]
    )


def test_seed_env_var(workspace, monkeypatch):
    tmp_path, registry_path, corpus_root = workspace
    monkeypatch.setenv("BIOFORGE_SEED", "99")
    from bioforge.cli import build_parser
    args = build_parser().parse_args(["stats"])
    assert args.seed == 99
    args = build_parser().parse_args(["stats", "--seed", "5"])
    assert args.seed == 5


# SHA-256 of every file the forge -> plan -> eval chain below writes from a
# fixed-seed input.  The constants pin the on-disk bytes: a codec or grammar
# change that alters any output fails here even when two runs still agree.
PINNED_DIGESTS = {
    "registry.jsonl": "5d43b91665e547954903c809d8628bb09d3e27becf2925c37ea58aa27ccb156a",
    "corpus/ner-en/train.jsonl": "42d58cc51a117018de482c97969c6c58d35cf88955b3bbb6e9de59d6e71001e4",
    "corpus/ner-zh/train.jsonl": "b8d6a9a8bc4bc279d372632e67a25c79cd0256f471175b5a4c180e50228f4a8b",
    "corpus/re-en/train.jsonl": "e832f830e8e269e8d5373e57600a6dc9a351e70c3879a584069e41c865adfdb2",
    "corpus/re-untyped-en/train.jsonl": "5f9aff848d9d828ffb0b274fa4003a95c3f5cb083bdc3013827efed3a192b38e",
    "corpus/synth-qamc-en/train.jsonl": "7aac9ca6f63624c50f300f95b7f5bc63e8f45082f5b89cef7d82752cc6e2d06b",
    "corpus/tc-en/train.jsonl": "2468c2e39d8f7898e8c031968094ba20412a26110d1b2b094dfc3de7555041a8",
    "out/forged.jsonl": "bd773290cfcc63157b6e32282caeb781ac46f515fa30e788326af9a654866fe3",
    "out/plan/stage1.jsonl": "ef626f143906e5126f28c368f38fd1f92621ac623c9515c6993b5814182799e9",
    "out/plan/stage2.jsonl": "cb3555effa64c4beccd082171d55d882f0c1de2497a751bff86db8e120ec0395",
    "out/eval.ner-en.json": "b4b322b05ce4572773d523d332c05c26208a58ff5d116e32ea2509dddf2807f3",
}


def test_pinned_output_digests(tmp_path):
    corpora = [
        make_ner_docs(40, seed=11, desc=ner_descriptor("ner-en")),
        make_ner_docs(40, seed=12, desc=ner_descriptor("ner-zh", Language.ZH)),
        make_re_docs(40, seed=13, desc=re_descriptor("re-en")),
        make_re_docs(40, seed=14, desc=re_descriptor("re-untyped-en", untyped=True)),
        make_tc_docs(40, seed=15, desc=tc_descriptor("tc-en")),
        make_qa_mc_docs(40, seed=16),
    ]
    registry_path = tmp_path / "registry.jsonl"
    Registry([desc for desc, _ in corpora]).save(registry_path)
    corpus_root = tmp_path / "corpus"
    for desc, docs in corpora:
        write_documents(corpus_root / desc.id / "train.jsonl", docs)
    out = tmp_path / "out"
    common = ["--registry", str(registry_path), "--seed", "7", "--out", str(out)]
    assert main(["forge", "--corpus-root", str(corpus_root), *common]) == 0
    assert main(["plan", "--forged", str(out / "forged.jsonl"), *common]) == 0
    # every third NER prediction is missing, so the report has fn > 0
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
        for n, i in enumerate(read_instances(out / "forged.jsonl"))
        if i.dataset_id == "ner-en" and n % 3
    ), encoding="utf-8")
    assert main(["eval", "--dataset", "ner-en", "--gold", str(out / "forged.jsonl"),
                 "--predictions", str(preds), *common]) == 0
    written = [registry_path, *sorted(corpus_root.glob("*/train.jsonl")), out / "forged.jsonl",
               out / "plan" / "stage1.jsonl", out / "plan" / "stage2.jsonl", out / "eval.ner-en.json"]
    digests = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
    assert digests == PINNED_DIGESTS
