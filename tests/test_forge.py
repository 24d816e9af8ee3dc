import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from bioforge.forge import (
    build_corpus,
    forge_instances,
    render_instance,
    serialize_gold,
    read_instances,
    write_instances,
)
from bioforge.schema import (
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
)
from bioforge.synth import make_ner_docs, make_qa_mc_docs, make_tc_docs, tc_descriptor
from bioforge.templates import InstructionTemplate, TemplateBank, default_template_bank
from bioforge.evaluation import GRAMMARS, parse_ner_output


def ner_doc_from_surfaces(pairs):
    """Build a doc whose text is the surfaces joined by spaces."""
    entities = []
    pos = 0
    parts = []
    for surface, etype in pairs:
        entities.append(EntityMention(surface, etype, pos, pos + len(surface)))
        parts.append(surface)
        pos += len(surface) + 1
    return UnifiedDocument(doc_id="d", dataset_id="ds", language=Language.EN,
                           text=" ".join(parts), entities=tuple(entities))


def row(task, language, **settings):
    """The registry row ``ds`` of ``task`` in ``language``."""
    return DatasetDescriptor(id="ds", name="ds", task=task, language=language, **settings)


class TestSerializeGold:
    def test_ner_en_grammar(self):
        pairs = [(s, "Chemical") for s in
                 ["valproic acid", "Ammonia", "NH3", "ammonia", "VPA", "Valproic acid"]]
        pairs += [(s, "Disease") for s in ["epileptic", "drowsiness"]]
        doc = ner_doc_from_surfaces(pairs)
        assert serialize_gold(doc, row(TaskType.NER_NEN, Language.EN)) == (
            "Chemical: valproic acid; Ammonia; NH3; ammonia; VPA; Valproic acid\n"
            "Disease: epileptic; drowsiness"
        )

    def test_re_zh_grammar(self):
        doc = UnifiedDocument(
            doc_id="d", dataset_id="ds", language=Language.ZH,
            text="13-三体综合征 泌尿系畸形 双肾",
            relations=(
                RelationTriple("13-三体综合征", "泌尿系畸形", "并发症"),
                RelationTriple("13-三体综合征", "双肾", "并发症"),
            ),
        )
        assert serialize_gold(doc, row(TaskType.RE, Language.ZH)) == (
            "(13-三体综合征, 泌尿系畸形, 并发症); (13-三体综合征, 双肾, 并发症)"
        )

    def test_re_untyped_pairs(self):
        doc = UnifiedDocument(
            doc_id="d", dataset_id="ds", language=Language.EN,
            text="Phenobarbital dyskinesia",
            relations=(RelationTriple("Phenobarbital", "dyskinesia", "CID"),),
        )
        assert serialize_gold(doc, row(TaskType.RE, Language.EN, re_untyped=True, prompted_relation="CID")) == (
            "[Phenobarbital, dyskinesia]"
        )

    def test_ner_empty_markers_invert_to_empty_set(self):
        doc = UnifiedDocument(doc_id="d", dataset_id="ds", language=Language.EN, text="x")
        for lang in (Language.EN, Language.ZH):
            marker = serialize_gold(doc, row(TaskType.NER_NEN, lang))
            assert marker == GRAMMARS[TaskType.NER_NEN].empty[lang]
            outcome = parse_ner_output(marker, lang, ["Chemical"])
            assert outcome.status == "parsed"
            assert outcome.ner == frozenset()

    def test_tc_en_grammar(self):
        doc = UnifiedDocument(doc_id="d", dataset_id="ds", language=Language.EN,
                              text="x", labels=("Prevention",))
        assert serialize_gold(doc, row(TaskType.TC, Language.EN)) == "Result: Prevention"

    def test_tc_zh_grammar(self):
        doc = UnifiedDocument(doc_id="d", dataset_id="ds", language=Language.ZH,
                              text="x", labels=("治疗或手术",))
        assert serialize_gold(doc, row(TaskType.TC, Language.ZH)) == "上述文本被分类为: 治疗或手术"

    def test_ee_grammar(self):
        from bioforge.schema import EventFrame
        doc = UnifiedDocument(
            doc_id="d", dataset_id="ds", language=Language.EN,
            text="Contaminated drinking water is responsible for diarrheal diseases",
            events=(EventFrame("Cause of disease", "responsible",
                               (("Theme", "diarrheal diseases"),
                                ("Cause", "Contaminated drinking water"))),),
        )
        assert serialize_gold(doc, row(TaskType.EE, Language.EN)) == (
            "Cause of disease: (Trigger: responsible, Theme: diarrheal diseases, "
            "Cause: Contaminated drinking water)"
        )

    def test_injective_on_distinct_entity_sets(self):
        a = ner_doc_from_surfaces([("aspirin", "Chemical")])
        b = ner_doc_from_surfaces([("aspirin", "Disease")])
        desc = row(TaskType.NER_NEN, Language.EN)
        assert serialize_gold(a, desc) != serialize_gold(b, desc)


class TestRenderInstance:
    def test_tc_instance(self):
        desc = tc_descriptor()
        doc = UnifiedDocument(doc_id="d", dataset_id=desc.id, language=Language.EN,
                              text="some covid text", labels=("Prevention",))
        template = InstructionTemplate(
            "t0", TaskType.TC, Language.EN,
            "Classify the following text into the specified text label: {text} Text Labels: {labels}",
        )
        inst = render_instance(doc, template, desc)
        assert inst.output == "Result: Prevention"
        assert "some covid text" in inst.instruction
        assert "Case Report, Prevention" in inst.instruction  # vocab in registry order

    def test_qa_mc_instruction_is_question_plus_options(self):
        desc = DatasetDescriptor(id="qa", name="qa", task=TaskType.QA_MC, language=Language.EN)
        doc = UnifiedDocument(
            doc_id="d", dataset_id="qa", language=Language.EN, text="",
            qa=QAInstance(question="Which drug treats gout?",
                          options=(("A", "aspirin"), ("B", "colchicine")),
                          answer_keys=("B",)),
        )
        inst = render_instance(doc, None, desc)
        assert inst.instruction.startswith("Which drug treats gout?")
        assert "A. aspirin" in inst.instruction and "B. colchicine" in inst.instruction
        assert inst.output == "B. colchicine"
        assert inst.template_id == ""

    def test_missing_vocabulary_raises(self):
        desc = DatasetDescriptor(id="ner", name="ner", task=TaskType.NER_NEN,
                                 language=Language.EN)  # no label_vocab
        doc = UnifiedDocument(doc_id="d", dataset_id="ner", language=Language.EN, text="x")
        template = InstructionTemplate(
            "t0", TaskType.NER_NEN, Language.EN,
            "Identify {entity_types} entities from the text: {text}",
        )
        with pytest.raises(ValueError, match=r"^no data available to fill template slot \{entity_types\}$"):
            render_instance(doc, template, desc)


class TestBuildCorpus:
    def test_deterministic_given_seed(self):
        desc, docs = make_ner_docs(100, seed=4)
        bank = default_template_bank()
        first = build_corpus([(desc, docs)], bank, seed=7)
        second = build_corpus([(desc, docs)], bank, seed=7)
        assert first == second

    def test_seed_changes_assignments(self):
        desc, docs = make_ner_docs(100, seed=4)
        bank = default_template_bank()
        a = build_corpus([(desc, docs)], bank, seed=7)
        b = build_corpus([(desc, docs)], bank, seed=8)
        assert any(x.template_id != y.template_id for x, y in zip(a, b))

    def test_single_template_bank(self):
        desc, docs = make_tc_docs(20, seed=1)
        bank = TemplateBank([InstructionTemplate(
            "only", TaskType.TC, Language.EN, "Classify: {text} Labels: {labels}"
        )])
        instances = build_corpus([(desc, docs)], bank, seed=7)
        assert {i.template_id for i in instances} == {"only"}

    def test_missing_pair_raises(self):
        desc, docs = make_tc_docs(1, seed=1)
        with pytest.raises(ValueError, match=r"^template bank has no template for \(TC, en\)$"):
            build_corpus([(desc, docs)], TemplateBank(), seed=7)

    def test_template_usage_within_binomial_bounds(self):
        desc, docs = make_ner_docs(10_000, seed=4)
        bank = default_template_bank()
        assert len(bank.for_pair(TaskType.NER_NEN, Language.EN)) == 15
        instances = build_corpus([(desc, docs)], bank, seed=7)
        usage = Counter(i.template_id for i in instances)
        assert len(usage) == 15
        for count in usage.values():
            assert 500 <= count <= 850

    def test_output_count_is_one_to_one(self):
        desc, docs = make_qa_mc_docs(37, seed=2)
        instances = build_corpus([(desc, docs)], default_template_bank(), seed=1)
        assert len(instances) == 37

    def test_instance_jsonl_round_trip(self, tmp_path):
        desc, docs = make_tc_docs(10, seed=1)
        instances = build_corpus([(desc, docs)], default_template_bank(), seed=7)
        path = tmp_path / "forged.jsonl"
        write_instances(path, instances)
        assert read_instances(path) == instances


def test_default_bank_has_15_per_pair():
    bank = default_template_bank()
    from bioforge.templates import _EN_BASES
    for task in _EN_BASES:
        for lang in (Language.EN, Language.ZH):
            templates = bank.for_pair(task, lang)
            assert len(templates) == 15
            assert len({t.instruction_pattern for t in templates}) == 15


def test_template_bank_file_round_trip(tmp_path):
    bank = default_template_bank()
    path = tmp_path / "bank.jsonl"
    assert bank.save(path) == len(bank)
    loaded = TemplateBank.load(path)
    assert len(loaded) == len(bank)
    for task in TaskType:
        for lang in Language:
            assert loaded.for_pair(task, lang) == bank.for_pair(task, lang)


def _task_docs(task: TaskType, language: Language) -> tuple[UnifiedDocument, UnifiedDocument]:
    """One document of ``task`` with its payload and one without annotations
    (where the task needs a payload, the least the payload can carry)."""
    zh = language is Language.ZH
    text = "阿司匹林缓解头痛" if zh else "aspirin relieves headache"
    drug, pain = ("阿司匹林", "头痛") if zh else ("aspirin", "headache")
    doc = UnifiedDocument(doc_id="full", dataset_id="ds", language=language, text=text)
    bare = replace(doc, doc_id="bare")
    entities = (EntityMention(drug, "Chemical", 0, len(drug)),
                EntityMention(pain, "Disease", text.index(pain), len(text)))
    relations = (RelationTriple(drug, pain, "treats"), RelationTriple(pain, drug, "caused_by"))
    if task is TaskType.NER_NEN:
        return replace(doc, entities=entities), bare
    if task in (TaskType.RE, TaskType.CRE, TaskType.COREF):
        return replace(doc, entities=entities, relations=relations), bare
    if task is TaskType.EE:
        event = EventFrame("Treatment", drug, (("Theme", pain), ("Agent", drug)))
        return replace(doc, entities=entities, events=(event,)), bare
    if task is TaskType.TC:
        return replace(doc, labels=("Treatment", "Prevention")), bare
    if task in (TaskType.QA_MC, TaskType.QA_SQA, TaskType.QA_CQA):
        options = (("A", drug), ("B", pain)) if task is TaskType.QA_MC else None
        answer = ("A",) if options else (drug,)
        qa = QAInstance(f"{pain}?", options, answer, context=text)
        return replace(doc, qa=qa), replace(bare, qa=replace(qa, context=None, options=options and options[:1]))
    if task is TaskType.MRD:
        turns = (DialogueTurn("user", pain), DialogueTurn("assistant", drug),
                 DialogueTurn("user", text), DialogueTurn("assistant", text))
        return replace(doc, dialogue=turns), replace(bare, dialogue=turns[1:2])
    if task is TaskType.MT:
        pair = TranslationPair(text, "aspirin relieves headache", Language.ZH, Language.EN)
        return replace(doc, translation=pair), replace(bare, translation=TranslationPair(drug, pain))
    if task in (TaskType.TP_SS, TaskType.TP_TE):
        return replace(doc, pair=TextPairInstance(text, drug, "entailment")), replace(
            bare, pair=TextPairInstance(pain, pain, "0"))
    return replace(doc, pair=TextPairInstance(text, drug)), replace(bare, pair=TextPairInstance(pain, pain))


# SHA-256 of the forged file of every task in both languages, typed and
# untyped, each with one annotated and one bare document: the prompt and gold
# output of every task, pinned to the byte.
PINNED_ALL_TASKS_DIGEST = "cfde0b9db5776eba6541c29963f5de8dc5464e905ab42d6630dc002c56ad7425"


def test_pinned_forge_digest_of_every_task(tmp_path):
    corpora = []
    for task in TaskType:
        for language in Language:
            for untyped in (False, True):
                desc = DatasetDescriptor(id=f"{task.value}-{language.value}-{untyped:d}", name="ds", task=task,
                                         language=language, label_vocab=("Chemical", "Disease", "treats"),
                                         re_untyped=untyped, prompted_relation="treats" if untyped else None)
                corpora.append((desc, [replace(d, dataset_id=desc.id) for d in _task_docs(task, language)]))
    path = tmp_path / "forged.jsonl"
    assert write_instances(path, forge_instances(corpora, default_template_bank(), seed=3)) == 120
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ALL_TASKS_DIGEST
