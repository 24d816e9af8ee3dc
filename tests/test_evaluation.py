import dataclasses
import json
import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from bioforge.evaluation import (
    GOLD_FIELDS,
    GRAMMARS,
    PARSED,
    UNPARSEABLE,
    PredictionRecord,
    _options_from_instruction,
    evaluate_dataset,
    parse_ner_output,
    parse_qa_choice,
    parse_re_output,
    parse_tc_output,
    read_predictions,
    sample_subset,
    score_accuracy,
    score_micro_f1,
)
from bioforge.forge import build_corpus, render_instance, serialize_gold
from bioforge.schema import (
    PAYLOAD_FIELDS,
    TASKS,
    DatasetDescriptor,
    DialogueTurn,
    EntityMention,
    EventFrame,
    Language,
    QAInstance,
    RelationTriple,
    TaskType,
    TextPairInstance,
    TranslationPair,
    UnifiedDocument,
    to_dict,
    validate_document,
)
from bioforge.synth import (
    make_ner_docs,
    make_qa_mc_docs,
    make_re_docs,
    make_tc_docs,
    ner_descriptor,
    re_descriptor,
    tc_descriptor,
)
from bioforge.templates import InstructionTemplate, default_template_bank


class TestParseNer:
    def test_canonical_two_type_output(self):
        out = parse_ner_output(
            "Chemical: valproic acid; Ammonia\nDisease: epileptic",
            Language.EN, ["Chemical", "Disease"],
        )
        assert out.ner == {
            ("valproic acid", "Chemical"), ("Ammonia", "Chemical"), ("epileptic", "Disease"),
        }

    def test_no_header_is_unparseable(self):
        out = parse_ner_output("The answer is unclear.", Language.EN, ["Chemical"])
        assert out.status == UNPARSEABLE
        assert out.ner == frozenset()

    def test_empty_vocabulary_is_unparseable(self):
        assert parse_ner_output("Chemical: aspirin", Language.EN, []).status == UNPARSEABLE

    def test_tolerant_casing_whitespace_dedup(self):
        out = parse_ner_output("chemical:  Aspirin ;Aspirin", Language.EN, ["Chemical"])
        assert out.ner == {("Aspirin", "Chemical")}

    def test_inline_zh_headers(self):
        out = parse_ner_output(
            "疾病：成人 SARS 临床表现：细胞下降", Language.ZH, ["疾病", "临床表现"]
        )
        assert ("细胞下降", "临床表现") in out.ner
        assert any(e == "疾病" for _, e in out.ner)

    def test_chatter_after_newline_not_swallowed(self):
        out = parse_ner_output(
            "Chemical: aspirin\nI hope that helps!", Language.EN, ["Chemical"]
        )
        assert out.ner == {("aspirin", "Chemical")}

    def test_header_whose_lowercase_names_no_type_is_skipped(self):
        # "ſ" matches "s" case-insensitively, but "diſeaſe" is no vocabulary key
        out = parse_ner_output("Diſeaſe: x\nChemical: y", Language.EN, ["Chemical", "Disease"])
        assert out.ner == {("y", "Chemical")}

    def test_totality_on_adversarial_vocab(self):
        # vocabulary entries with regex metacharacters must not break the scanner
        out = parse_ner_output("a(b: x", Language.EN, ["a(b", "c[d"])
        assert out.status in (PARSED, UNPARSEABLE)


class TestParseRe:
    def test_untyped_pairs_with_prompted_relation(self):
        out = parse_re_output(
            "[Phenobarbital, dyskinesia]; [phenobarbital, dyskinesia]",
            Language.EN, ["CID"], prompted_relation="CID",
        )
        assert out.re_triples == {
            RelationTriple("Phenobarbital", "dyskinesia", "CID"),
            RelationTriple("phenobarbital", "dyskinesia", "CID"),
        }

    def test_zh_typed_triple(self):
        out = parse_re_output("(13-三体综合征, 泌尿系畸形, 并发症)", Language.ZH, ["并发症"])
        assert out.re_triples == {RelationTriple("13-三体综合征", "泌尿系畸形", "并发症")}

    def test_no_bracket_structure_unparseable(self):
        out = parse_re_output("no relations.", Language.EN, ["CID"])
        assert out.status == UNPARSEABLE

    def test_single_vocab_entry_implies_relation_for_pairs(self):
        out = parse_re_output("[a, b]", Language.EN, ["treats"])
        assert out.re_triples == {RelationTriple("a", "b", "treats")}

    def test_relation_casing_canonicalized(self):
        out = parse_re_output("(a, b, cid)", Language.EN, ["CID"])
        assert out.re_triples == {RelationTriple("a", "b", "CID")}


class TestParseTc:
    def test_en_result_marker(self):
        out = parse_tc_output("Result: Prevention", Language.EN, ["Prevention", "Treatment"])
        assert out.tc == {"Prevention"}
        assert out.status == PARSED

    def test_zh_marker(self):
        out = parse_tc_output("上述文本被分类为: 治疗或手术", Language.ZH, ["治疗或手术", "疾病"])
        assert out.tc == {"治疗或手术"}

    def test_fallback_substring_scan(self):
        out = parse_tc_output(
            "It is about prevention and treatment", Language.EN, ["Prevention", "Treatment"]
        )
        assert out.tc == {"Prevention", "Treatment"}

    def test_nothing_matches(self):
        out = parse_tc_output("no idea", Language.EN, ["Prevention"])
        assert out.status == UNPARSEABLE

    def test_multi_label_split(self):
        out = parse_tc_output("Result: Prevention; Treatment", Language.EN,
                              ["Prevention", "Treatment", "Diagnosis"])
        assert out.tc == {"Prevention", "Treatment"}


OPTIONS = (("A", "aspirin"), ("B", "colchicine"), ("C", "heparin"), ("D", "insulin"))


class TestParseQa:
    def test_standalone_key(self):
        assert parse_qa_choice("The answer is B.", OPTIONS).qa_choice == "B"

    def test_parenthesized_key(self):
        assert parse_qa_choice("(C)", OPTIONS).qa_choice == "C"

    def test_unique_option_text(self):
        assert parse_qa_choice("I would pick colchicine here", OPTIONS).qa_choice == "B"

    def test_two_option_texts_ambiguous(self):
        out = parse_qa_choice("either aspirin or heparin", OPTIONS)
        assert out.status == UNPARSEABLE
        assert out.qa_choice is None

    def test_empty_string(self):
        assert parse_qa_choice("", OPTIONS).status == UNPARSEABLE


def brute_force_micro_f1(gold, pred):
    """Independent oracle: naive set loops, no pooling shortcuts."""
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
    return precision, recall, f1


class TestScoreMicroF1:
    def test_identical_sets_score_one(self):
        sets = [frozenset({("a", "X")}), frozenset({("b", "Y"), ("c", "X")})]
        report = score_micro_f1(sets, sets)
        assert report.f1 == 1.0

    def test_hand_computed_counts(self):
        gold = [frozenset({("a", "X"), ("b", "X"), ("c", "X"), ("d", "X")})]
        pred = [frozenset({("a", "X"), ("b", "X"), ("e", "X")})]
        report = score_micro_f1(gold, pred)
        assert (report.tp, report.fp, report.fn) == (2, 1, 2)
        assert report.precision == pytest.approx(2 / 3, abs=1e-15)
        assert report.recall == pytest.approx(1 / 2, abs=1e-15)
        assert report.f1 == pytest.approx(4 / 7, abs=1e-15)

    def test_empty_predictions_zero_by_rule(self):
        gold = [frozenset({("a", "X")})]
        pred = [frozenset()]
        report = score_micro_f1(gold, pred)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^gold/pred length mismatch: 1 vs 0$"):
            score_micro_f1([frozenset()], [])

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(123)
        items = [(chr(97 + i), t) for i in range(10) for t in ("X", "Y")]
        for _ in range(100):
            n = rng.randint(1, 10)
            gold = [frozenset(rng.sample(items, rng.randint(0, 10))) for _ in range(n)]
            pred = [frozenset(rng.sample(items, rng.randint(0, 10))) for _ in range(n)]
            report = score_micro_f1(gold, pred)
            p, r, f1 = brute_force_micro_f1(gold, pred)
            assert abs(report.precision - p) <= 1e-12
            assert abs(report.recall - r) <= 1e-12
            assert abs(report.f1 - f1) <= 1e-12
            for etype in ("X", "Y"):  # the breakdown is the same score over one type's items
                gold_t, pred_t = ([frozenset(i for i in s if i[1] == etype) for s in sets] for sets in (gold, pred))
                if not any(gold_t) and not any(pred_t):
                    assert etype not in report.per_type
                    continue
                stats = report.per_type[etype]
                for got, want in zip((stats["precision"], stats["recall"], stats["f1"]),
                                     brute_force_micro_f1(gold_t, pred_t)):
                    assert abs(got - want) <= 1e-12

    # Per case: gold and predicted item sets, the type_key (None: the
    # default), and the counts by hand: overall (tp, fp, fn), then each
    # per_type row's, in the report's (sorted) order.
    COUNTED = {
        "ner-pairs": ([{("a", "Y"), ("b", "X"), ("c", "X")}, {("d", "Z")}, set()],
                      [{("a", "Y"), ("b", "X"), ("e", "X")}, {("d", "Y")}, {("f", "X")}], None,
                      (2, 3, 2), {"X": (1, 2, 1), "Y": (1, 1, 0), "Z": (0, 0, 1)}),
        "relations": ([{RelationTriple("h", "t", "treats"), RelationTriple("h", "u", "CID")},
                       {RelationTriple("h", "t", "CID")}],
                      [{RelationTriple("h", "t", "treats"), RelationTriple("h", "u", "treats")},
                       {RelationTriple("h", "t", "CID"), RelationTriple("t", "h", "CID")}], None,
                      (2, 2, 1), {"CID": (1, 1, 1), "treats": (1, 1, 0)}),
        "labels": ([{"Prevention", "Treatment"}, {"Diagnosis"}], [{"Prevention"}, {"Treatment"}], None,
                   (1, 1, 2), {}),
        # a custom key: by surface initial; None (no type) for surfaces "b..."
        "custom-key": ([{("ab", "X"), ("ac", "Y"), ("ba", "X")}], [{("ab", "X"), ("ad", "X"), ("bb", "Y")}],
                       lambda item: None if item[0][0] == "b" else item[0][0].upper() + item[1],
                       (1, 2, 2), {"AX": (1, 1, 0), "AY": (0, 0, 1)}),
    }

    @pytest.mark.parametrize("case", sorted(COUNTED))
    def test_per_type_counts_match_counts_by_hand(self, case):
        gold, pred, type_key, overall, per_type = self.COUNTED[case]
        gold, pred = [frozenset(g) for g in gold], [frozenset(p) for p in pred]
        report = score_micro_f1(gold, pred, **({} if type_key is None else {"type_key": type_key}))
        assert (report.tp, report.fp, report.fn) == overall
        assert list(report.per_type) == list(per_type)
        assert {t: (s["tp"], s["fp"], s["fn"]) for t, s in report.per_type.items()} == per_type
        for stats in report.per_type.values():
            assert all(type(stats[k]) is int for k in ("tp", "fp", "fn"))

    def test_per_type_breakdown(self):
        gold = [frozenset({("a", "X"), ("b", "Y")})]
        pred = [frozenset({("a", "X"), ("c", "Y")})]
        report = score_micro_f1(gold, pred)
        assert report.per_type["X"]["f1"] == 1.0
        assert report.per_type["Y"]["f1"] == 0.0

    def test_monotonicity(self):
        gold = [frozenset({("a", "X"), ("b", "X")})]
        base = score_micro_f1(gold, [frozenset({("a", "X")})])
        better = score_micro_f1(gold, [frozenset({("a", "X"), ("b", "X")})])
        spurious = score_micro_f1(gold, [frozenset({("a", "X"), ("z", "X")})])
        assert better.f1 >= base.f1
        assert spurious.precision <= base.precision


class TestScoreAccuracy:
    def out(self, key):
        from bioforge.evaluation import ParseOutcome
        if key is None:
            return ParseOutcome(status=UNPARSEABLE)
        return ParseOutcome(status=PARSED, qa_choice=key)

    def test_all_correct(self):
        report = score_accuracy(["A", "B"], [self.out("A"), self.out("B")])
        assert report.accuracy == 1.0

    def test_mixed_with_unparseable(self):
        report = score_accuracy(
            ["A", "B", "C", "D"],
            [self.out("A"), self.out("C"), self.out(None), self.out("A")],
        )
        assert report.accuracy == 0.25
        assert report.unparseable_count == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"^gold/pred length mismatch: 2 vs 1$"):
            score_accuracy(["A", "B"], [self.out("A")])

    def test_empty_set_reports_zero_total(self):
        report = score_accuracy([], [])
        assert report.accuracy == 0.0
        assert report.total == 0


class TestSampleSubset:
    def test_deterministic(self):
        items = list(range(500))
        assert sample_subset(items, 200, seed=1) == sample_subset(items, 200, seed=1)
        assert len(sample_subset(items, 200, seed=1)) == 200

    def test_zero(self):
        assert sample_subset([1, 2, 3], 0, seed=1) == []

    def test_n_equals_len_preserves_order(self):
        items = [3, 1, 2]
        assert sample_subset(items, 3, seed=9) == items

    def test_different_seeds_differ(self):
        items = list(range(500))
        assert sample_subset(items, 200, seed=1) != sample_subset(items, 200, seed=2)


# The tasks the paper's evaluation scores, and how.
SCORED = {
    TaskType.NER_NEN: "micro_f1",
    TaskType.RE: "micro_f1",
    TaskType.CRE: "micro_f1",
    TaskType.COREF: "micro_f1",
    TaskType.TC: "micro_f1",
    TaskType.QA_MC: "accuracy",
}
UNSCORED = [t for t in TaskType if t not in SCORED]


def test_grammars_hold_one_row_per_task_type():
    assert len(GRAMMARS) == len(TaskType) and set(GRAMMARS) == set(TaskType)
    assert {task: g.metric for task, g in GRAMMARS.items() if g.metric is not None} == SCORED


def oracle_predictions(instances):
    return [PredictionRecord(i.instance_id, i.output) for i in instances]


class TestEvaluateDataset:
    def forged(self, maker, n=50, seed=5, desc=None):
        desc, docs = maker(n, seed) if desc is None else maker(n, seed, desc)
        instances = build_corpus([(desc, docs)], default_template_bank(), seed=7)
        return desc, instances

    def test_oracle_predictions_score_one(self):
        desc, instances = self.forged(make_ner_docs)
        report = evaluate_dataset(instances, oracle_predictions(instances), desc)
        assert report.f1 == 1.0

    def test_null_predictions_score_zero(self):
        desc, instances = self.forged(make_ner_docs)
        preds = [PredictionRecord(i.instance_id, "") for i in instances]
        report = evaluate_dataset(instances, preds, desc)
        assert report.f1 == 0.0
        assert report.unparseable_count == report.total

    def test_missing_predictions_score_as_empty(self):
        desc, instances = self.forged(make_qa_mc_docs)
        report = evaluate_dataset(instances, [], desc)
        assert report.accuracy == 0.0
        assert report.unparseable_count == report.total

    @pytest.mark.parametrize("task", UNSCORED, ids=lambda t: t.name)
    def test_unknown_task_metric(self, task):
        desc = DatasetDescriptor(id="x", name="x", task=task, language=Language.ZH)
        with pytest.raises(ValueError, match=f"^no automatic metric defined for task {re.escape(repr(task.value))}$"):
            evaluate_dataset([], [], desc)

    def test_untyped_re_round_trip(self):
        desc = re_descriptor("re-un", untyped=True)
        desc, instances = self.forged(make_re_docs, desc=desc)
        report = evaluate_dataset(instances, oracle_predictions(instances), desc)
        assert report.f1 == 1.0


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parsers_are_total(raw):
    parse_ner_output(raw, Language.EN, ["Chemical", "Disease"])
    parse_re_output(raw, Language.EN, ["CID"], prompted_relation="CID")
    parse_tc_output(raw, Language.EN, ["Prevention", "Treatment"])
    parse_qa_choice(raw, OPTIONS)


def reference_evaluation(gold, predictions, desc):
    """``evaluate_dataset`` spelled out with no memo: the public parser
    called once per gold output and once per prediction, then the scorer.
    The last row of an id wins, and a ``raw_text`` of None reads as ``""``."""
    by_id = {p.instance_id: p.raw_text or "" for p in predictions}
    raws = [by_id.get(i.instance_id, "") for i in gold]
    if desc.task is TaskType.QA_MC:
        options = [_options_from_instruction(i.instruction) for i in gold]
        keys = [parse_qa_choice(i.output, o).qa_choice or "" for i, o in zip(gold, options)]
        outcomes = [parse_qa_choice(r, o) for r, o in zip(raws, options)]
        return score_accuracy(keys, outcomes, dataset_id=desc.id)
    if desc.task is TaskType.NER_NEN:
        parse, items = (lambda raw: parse_ner_output(raw, desc.language, desc.label_vocab)), "ner"
    elif desc.task is TaskType.TC:
        parse, items = (lambda raw: parse_tc_output(raw, desc.language, desc.label_vocab)), "tc"
    else:
        parse, items = (lambda raw: parse_re_output(raw, desc.language, desc.label_vocab,
                                                    desc.prompted_relation)), "re_triples"
    outcomes = [parse(r) for r in raws]
    report = score_micro_f1([getattr(parse(i.output), items) for i in gold],
                            [getattr(o, items) for o in outcomes], dataset_id=desc.id)
    report.unparseable_count = sum(1 for o in outcomes if o.status == UNPARSEABLE)
    return report


def _forged(maker, desc, n=12, seed=5):
    desc, docs = maker(n, seed, desc)
    return desc, build_corpus([(desc, docs)], default_template_bank(), seed=7)


FORGED = [
    _forged(make_ner_docs, ner_descriptor("ner-en")),
    _forged(make_ner_docs, ner_descriptor("ner-zh", Language.ZH)),
    _forged(make_re_docs, re_descriptor("re-en")),
    _forged(make_re_docs, re_descriptor("re-untyped-en", untyped=True)),
    _forged(make_tc_docs, tc_descriptor("tc-en")),
    _forged(make_qa_mc_docs, None),
]
EMPTY_MARKERS = sorted({m for grammar in GRAMMARS.values() for m in grammar.empty.values()})
_WIDTH = str.maketrans(":;,()：；，（）", "：；，（）:;,()")
MUTATIONS = [
    str.swapcase,
    str.upper,
    lambda s: s.translate(_WIDTH),
    lambda s: f"Sure.\n{s}\nHope that helps!",
    lambda s: s[: len(s) // 2],
    lambda s: s.replace("\n", " "),
    lambda s: s.partition(". ")[2],  # a QA answer's option text without its key
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_evaluate_dataset_equals_one_parse_per_instance(tmp_path_factory, data):
    desc, gold = data.draw(st.sampled_from(FORGED))
    outputs = [i.output for i in gold]

    def text(own):  # mostly the instance's own gold output, verbatim or mutated
        return st.one_of(
            st.just(own),
            st.sampled_from(MUTATIONS).map(lambda f: f(own)),
            st.sampled_from(outputs),
            st.sampled_from(MUTATIONS).flatmap(lambda f: st.sampled_from(outputs).map(f)),
            st.sampled_from(["", *EMPTY_MARKERS]),
            st.text(max_size=40),
        )

    rows = [PredictionRecord(i.instance_id, data.draw(text(i.output)))
            for i in gold if data.draw(st.integers(0, 9))]  # about one row in ten missing
    ids = st.sampled_from([i.instance_id for i in gold] + ["stray"])
    rows += data.draw(st.lists(st.builds(PredictionRecord, ids, text("")), max_size=4))
    predictions = data.draw(st.permutations(rows))
    expected = reference_evaluation(gold, predictions, desc)
    assert evaluate_dataset(gold, predictions, desc) == expected
    path = tmp_path_factory.mktemp("predictions") / "predictions.jsonl"
    path.write_text("".join(json.dumps(to_dict(p)) + "\n" for p in predictions), encoding="utf-8")
    assert list(read_predictions(path)) == predictions
    assert evaluate_dataset(gold, read_predictions(path), desc) == expected


@pytest.mark.parametrize("case", [FORGED[0], FORGED[-1]], ids=["ner-f1", "qa-mc-accuracy"])
def test_evaluate_dataset_reads_gold_once_from_a_generator(case):
    desc, gold = case
    predictions = [PredictionRecord(i.instance_id, i.output if n % 3 else "x") for n, i in enumerate(gold) if n % 4]
    rows = (inst for inst in gold)
    report = evaluate_dataset(rows, predictions, desc)
    assert next(rows, None) is None
    assert report == evaluate_dataset(gold, predictions, desc) == reference_evaluation(gold, predictions, desc)
    assert report.total == len(gold) and 0 < report.unparseable_count < report.total


def _prediction_files(gold):
    """Prediction rows in the orders and shapes a lookup meets, each with
    its expected ``(duplicate_ids, unknown_ids)``."""
    in_order = [PredictionRecord(i.instance_id, i.output) for i in gold]
    ids = [p.instance_id for p in in_order]
    shuffled = list(in_order)
    random.Random(3).shuffle(shuffled)
    long_text = in_order[4].raw_text + "\n" + "x" * (3 << 16)  # past a 64 KiB block from any start
    return {
        "gaps": ([p for n, p in enumerate(in_order) if n % 3 != 1 and n != 0], (0, 0)),
        # the later rows win: ids[2] scores "junk", ids[5] its output again
        "later-repeats": ([*in_order[:7], PredictionRecord(ids[2], "junk"), *in_order[7:],
                           PredictionRecord(ids[5], in_order[5].raw_text)], (2, 0)),
        "strays": ([*in_order[:3], PredictionRecord("stray", "x"), *in_order[3:], PredictionRecord("stray 2", None)],
                   (0, 2)),
        "null-raw-text": ([PredictionRecord(p.instance_id, None if n % 4 == 1 else p.raw_text)
                           for n, p in enumerate(in_order)], (0, 0)),
        "long-row": ([*in_order[:4], PredictionRecord(ids[4], long_text), *in_order[5:]], (0, 0)),
        "shuffled": (shuffled, (0, 0)),
        "all": ([PredictionRecord("stray", "x"), *in_order[1:3], PredictionRecord(ids[4], long_text),
                 *in_order[5:8], PredictionRecord(ids[1], None), *reversed(in_order[5:9])], (4, 1)),
    }


@pytest.mark.parametrize("case", [FORGED[0], FORGED[2], FORGED[4], FORGED[-1]], ids=lambda c: c[0].id)
def test_predictions_file_lookups_score_as_the_rows_say(tmp_path, case):
    """Rows in gold order are found by the in-order read, the others by the
    table's probe; either way the scores are the reference's, an id's last
    row is scored and marked as found."""
    desc, gold = case
    projected = [tuple(getattr(i, f) for f in GOLD_FIELDS) for i in gold]
    for name, (rows, (duplicates, unknown)) in _prediction_files(gold).items():
        path = tmp_path / f"{name}.jsonl"
        path.write_text("".join(json.dumps(to_dict(p)) + "\n" for p in rows), encoding="utf-8")
        predictions = read_predictions(path)
        expected = reference_evaluation(gold, rows, desc)
        assert evaluate_dataset(gold, predictions, desc) == expected, name
        assert (predictions.duplicate_ids, predictions.unknown_ids) == (duplicates, unknown), name
        # gold rows, looked up again in the other order: each by the probe, which finds the same rows
        assert evaluate_dataset(reversed(projected), predictions, desc) == expected, name
        assert (predictions.duplicate_ids, predictions.unknown_ids) == (duplicates, unknown), name


def test_predictions_lines_with_unicode_edge_whitespace_are_read_again(tmp_path):
    """The reader strips the decoded line of edge whitespace that is not
    ASCII too, and a line's span is the stripped line, which is read again."""
    desc, gold = FORGED[0]
    rows = [PredictionRecord(i.instance_id, i.output) for i in gold]
    path = tmp_path / "predictions.jsonl"
    path.write_text("".join(f"\u3000{json.dumps(to_dict(p))}\u2028 \n" for p in rows), encoding="utf-8")
    predictions = read_predictions(path)
    assert evaluate_dataset(gold, predictions, desc) == reference_evaluation(gold, rows, desc)
    assert evaluate_dataset(gold[::-1], predictions, desc).f1 == 1.0  # by the probe


@pytest.mark.parametrize("case", [FORGED[0], FORGED[-1]], ids=["ner-f1", "qa-mc-accuracy"])
def test_predictions_file_cut_after_it_was_read_raises_naming_it(tmp_path, case):
    desc, gold = case
    path = tmp_path / "predictions.jsonl"
    path.write_text("".join(json.dumps({"instance_id": i.instance_id, "raw_text": i.output}) + "\n"
                            for i in gold), encoding="utf-8")
    predictions = read_predictions(path)
    assert len(predictions) == len(gold)
    with path.open("r+b") as f:
        f.truncate(path.stat().st_size // 2)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: file changed since it was read$"):
        evaluate_dataset(gold, predictions, desc)


def test_ner_vocabularies_evaluated_alternately_keep_their_own_results():
    full, gold = _forged(make_ner_docs, ner_descriptor("ner-full"), n=30)
    narrow = dataclasses.replace(full, id="ner-narrow", label_vocab=("Disease",))
    lower = dataclasses.replace(full, id="ner-lower", label_vocab=("chemical", "disease"))
    predictions = oracle_predictions(gold)
    first = {}
    for desc in (full, narrow, lower, full, narrow, lower):
        report = evaluate_dataset(gold, predictions, desc)
        assert report == first.setdefault(desc.id, report)
        assert report == reference_evaluation(gold, predictions, desc)
    assert list(first["ner-full"].per_type) == ["Chemical", "Disease"]
    assert list(first["ner-narrow"].per_type) == ["Disease"]
    assert list(first["ner-lower"].per_type) == ["chemical", "disease"]
    assert first["ner-narrow"].tp == first["ner-full"].per_type["Disease"]["tp"] < first["ner-full"].tp


def test_qa_answer_text_is_resolved_against_each_instance_options():
    desc, gold = FORGED[-1]
    # answers given as option text alone: one text sits under different keys
    # in different instances, so the same string must resolve per instance
    keys_by_text = {}
    for inst in gold:
        key, _, text = inst.output.partition(". ")
        keys_by_text.setdefault(text, set()).add(key)
    assert any(len(keys) > 1 for keys in keys_by_text.values())
    predictions = [PredictionRecord(i.instance_id, i.output.partition(". ")[2]) for i in gold]
    report = evaluate_dataset(gold, predictions, desc)
    assert report == reference_evaluation(gold, predictions, desc)
    assert report.accuracy == 1.0


# The grammar's reserved characters, which no rendered item may contain.
RESERVED = {
    ";": "item separator",
    "；": "item separator (zh)",
    ",": "relation field and TC label separator",
    "，": "relation field and TC label separator (zh)",
    ":": "NER header and TC marker separator",
    "：": "NER header separator (zh)",
    "(": "typed relation bracket",
    ")": "typed relation bracket",
    "（": "typed relation bracket (full width)",
    "）": "typed relation bracket (full width)",
    "[": "untyped relation bracket",
    "]": "untyped relation bracket",
    "\n": "line break between NER types and between QA-mc options",
}
ITEM = st.text(st.characters(exclude_characters="".join(RESERVED), exclude_categories=("Cs",)),
               min_size=1, max_size=6)
# A vocabulary DatasetDescriptor accepts: trimmed, non-empty entries, distinct ignoring case.
VOCAB = st.lists(ITEM.map(str.strip).filter(bool), min_size=1, max_size=4, unique_by=str.lower).map(tuple)
OPTION_KEY = st.text(string.ascii_letters + string.digits, min_size=1, max_size=2)  # the option-line key


# Documents the grammar cannot carry, each recorded as a FOUND line in
# CHANGES.md; output bytes are pinned, so the grammar keeps them for now.  A
# round trip may miss the gold structure only for a document of one of these.
def _blank(*fields: str) -> bool:
    """A whitespace-only field is trimmed to nothing."""
    return any(not f.strip() for f in fields)


def _qa_ambiguous(qa: QAInstance) -> bool:
    """The answer's line names another option's key, or a prompt line reads as an option."""
    answer = qa.answer_keys[0]
    line = f"{answer}. {dict(qa.options)[answer]}"
    named = any(re.search(rf"(?<![A-Za-z0-9]){re.escape(k)}(?![A-Za-z0-9])", line)
                for k, _ in qa.options if k != answer)
    return named or any(re.match(r"\s*[A-Za-z0-9]+\.\s", p) for p in (qa.question, qa.context or ""))


@st.composite
def scored_cases(draw, task, language):
    """A document of ``task``, its descriptor, the gold structure its output
    must parse back to (fields whitespace-trimmed, as every parser documents)
    and whether it is a document the grammar cannot carry."""
    vocab = draw(VOCAB)
    desc = DatasetDescriptor(id="ds", name="ds", task=task, language=language, label_vocab=vocab)
    doc = UnifiedDocument(doc_id="d", dataset_id="ds", language=language, text="")
    if task is TaskType.NER_NEN:
        pairs = draw(st.lists(st.tuples(ITEM, st.sampled_from(vocab)), max_size=5))
        doc = dataclasses.replace(doc, entities=tuple(EntityMention(s, t, 0, len(s)) for s, t in pairs))
        return desc, doc, frozenset((s.strip(), t) for s, t in pairs), _blank(*(s for s, _ in pairs))
    if task is TaskType.TC:
        labels = draw(st.lists(st.sampled_from(vocab), max_size=3))
        return desc, dataclasses.replace(doc, labels=tuple(labels)), frozenset(labels), False
    if task is TaskType.QA_MC:
        keys = draw(st.lists(OPTION_KEY, min_size=1, max_size=5, unique=True))
        options = tuple(zip(keys, draw(st.lists(ITEM, min_size=len(keys), max_size=len(keys)))))
        answer = draw(st.sampled_from(keys))
        context = draw(st.none() | ITEM)  # without a non-blank one, validate_document needs a question
        question = draw(ITEM if (context or "").strip() else ITEM.filter(str.strip))
        qa = QAInstance(question, options, (answer,), context)
        return desc, dataclasses.replace(doc, qa=qa), answer, _qa_ambiguous(qa)
    if task is TaskType.RE and draw(st.booleans()):  # untyped: the prompt implies vocab[0]
        desc = dataclasses.replace(desc, re_untyped=True, prompted_relation=vocab[0])
        vocab = vocab[:1]
    triples = draw(st.lists(st.builds(RelationTriple, ITEM, ITEM, st.sampled_from(vocab)), max_size=5))
    gold = frozenset(RelationTriple(r.head.strip(), r.tail.strip(), r.rtype) for r in triples)
    lossy = _blank(*(f for r in triples for f in (r.head, r.tail)))
    return desc, dataclasses.replace(doc, relations=tuple(triples)), gold, lossy


@settings(max_examples=300, deadline=None)
@given(data=st.data(), task=st.sampled_from(sorted(SCORED)), language=st.sampled_from(Language))
def test_parse_inverts_render_for_every_scored_row(data, task, language):
    desc, doc, gold, lossy = data.draw(scored_cases(task, language))
    grammar = GRAMMARS[task]
    inst = render_instance(doc, None, desc) if task is TaskType.QA_MC else None
    raw = inst.output if inst else serialize_gold(doc, desc)
    outcome = grammar.parse(raw, desc, inst and inst.instruction)
    assert getattr(outcome, grammar.items) == gold or lossy


TEXT = st.text(max_size=8)
ANY_DOC = st.builds(
    UnifiedDocument, doc_id=st.just("d"), dataset_id=st.just("ds"), language=st.sampled_from(Language),
    text=TEXT,
    events=st.lists(st.builds(EventFrame, TEXT, TEXT, st.lists(st.tuples(TEXT, TEXT)).map(tuple)),
                    max_size=3).map(tuple),
    qa=st.none() | st.builds(QAInstance, TEXT, st.none() | st.lists(st.tuples(TEXT, TEXT)).map(tuple),
                             st.lists(TEXT, max_size=2).map(tuple)),
    dialogue=st.none() | st.lists(st.builds(DialogueTurn, st.sampled_from(["user", "assistant", "doctor"]), TEXT),
                                  max_size=4).map(tuple),
    pair=st.none() | st.builds(TextPairInstance, TEXT, TEXT, st.none() | TEXT),
    translation=st.none() | st.builds(TranslationPair, TEXT, TEXT, st.sampled_from(Language),
                                      st.sampled_from(Language)),
)
# Template patterns built from every slot forge fills, a slot it never fills,
# positional slots, which name no data, a slot's index and attribute, a format
# spec that a string takes no value of, and a lone brace, which no format
# string has.
PATTERN = st.lists(st.sampled_from(["{text}", "{entity_types}", "{labels}", "{source_lang}", "{target_lang}",
                                    "{nope}", "{0}", "{}", "{text[3]}", "{labels[x]}", "{text.x}", "{text:d}",
                                    "{", " x "]),
                   max_size=4).map("".join)
# What rendering a valid document may raise: a slot without data, a field
# the template names that no slot fills, or a task without gold output.
RENDER_ERRORS = re.compile(r"no data available to fill template slot \{\w+\}|template 't': unsupported field '.*'"
                           r"|document has no gold output for task '.*'", re.S)


# The empty value of each payload field, which no task's payload rule objects to.
EMPTY_PAYLOADS = {f.name: f.default for f in dataclasses.fields(UnifiedDocument) if f.name in PAYLOAD_FIELDS}


@settings(max_examples=600, deadline=None)
@given(task=st.sampled_from(TaskType), doc=ANY_DOC,
       vocab=st.lists(TEXT.map(str.strip).filter(bool), max_size=2, unique_by=str.lower).map(tuple), pattern=PATTERN,
       fit=st.booleans())
def test_every_row_renders_or_raises_a_bioforge_error(task, doc, vocab, pattern, fit):
    """Gold output raises only its no-gold-output error, and a whole
    instance only one of :data:`RENDER_ERRORS`; an instance carries the gold
    output.  validate_document is forge's one rule set: an invalid document
    raises its first violation, and a valid one never does."""
    if fit:  # empty the payloads the task may not populate, so that the other rules decide
        doc = dataclasses.replace(doc, **{name: empty for name, empty in EMPTY_PAYLOADS.items()
                                           if name not in TASKS[task].payloads})
    desc = DatasetDescriptor(id="ds", name="ds", task=task, language=doc.language, label_vocab=vocab)
    try:
        output = serialize_gold(doc, desc)
        assert isinstance(output, str)
    except ValueError as exc:
        assert str(exc) == f"document has no gold output for task {task.value!r}"
        output = None
    violations = validate_document(doc, desc).violations
    try:
        inst = render_instance(doc, InstructionTemplate("t", task, doc.language, pattern), desc)
    except ValueError as exc:
        assert str(exc) == violations[0] if violations else RENDER_ERRORS.fullmatch(str(exc))
        return
    assert not violations
    assert isinstance(inst.instruction, str) and inst.output == output
