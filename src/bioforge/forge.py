"""Instruction-record forging: gold-output serialization and template
rendering.

The gold output grammars are frozen here and inverted by the evaluation
parsers; ``parse(serialize_gold(doc))`` recovers exactly the
scoring-relevant structure.  Canonical separators: English uses "; "
between items, ": " after headers, newline between entity-type lines;
Chinese uses "；" and "：".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from .errors import MissingSlotData, NoTemplate, UnsupportedTask
from .schema import (
    TASKS,
    DatasetDescriptor,
    Language,
    TaskType,
    UnifiedDocument,
    from_dict,
    read_jsonl,
    to_dict,
    write_jsonl,
)
from .templates import InstructionTemplate, TemplateBank

TC_MARKER = {Language.EN: "Result: ", Language.ZH: "上述文本被分类为: "}

_LANG_NAMES = {
    Language.EN: {"en": "English", "zh": "Chinese"},
    Language.ZH: {"en": "英语", "zh": "中文"},
}


@dataclass(frozen=True)
class InstructionInstance:
    instance_id: str
    dataset_id: str
    task: TaskType
    language: Language
    template_id: str
    instruction: str
    input: str
    output: str
    source_doc_id: str


def write_instances(path: Path | str, instances: Iterable[InstructionInstance]) -> int:
    return write_jsonl(path, map(to_dict, instances))


def read_instances(path: Path | str) -> list[InstructionInstance]:
    return [from_dict(InstructionInstance, d) for d in read_jsonl(path)]


def _dedup_keep_order(items):
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def serialize_gold(
    doc: UnifiedDocument, task: TaskType, language: Language, re_untyped: bool = False
) -> str:
    """Render the document's gold annotations as the canonical output string.

    Entity order is first-occurrence order; triple order is document order.
    ``re_untyped`` selects the binary ``[head, tail]`` relation grammar, in
    which the relation type is implied by the prompt.  A document without
    annotations renders as its task's empty marker (``TASKS[task].empty``),
    which the evaluation parsers invert to the empty set.
    """
    zh = language is Language.ZH
    item_sep = "；" if zh else "; "
    header_sep = "：" if zh else ": "

    if task is TaskType.NER_NEN:
        if not doc.entities:
            return TASKS[task].empty[language]
        by_type: dict[str, list[str]] = {}
        for e in doc.entities:
            by_type.setdefault(e.etype, []).append(e.surface)
        lines = [
            etype + header_sep + item_sep.join(_dedup_keep_order(surfaces))
            for etype, surfaces in by_type.items()
        ]
        return "\n".join(lines)

    if task in (TaskType.RE, TaskType.CRE, TaskType.COREF):
        triples = _dedup_keep_order(doc.relations)
        if not triples:
            return TASKS[task].empty[language]
        if re_untyped:
            items = [f"[{r.head}, {r.tail}]" for r in triples]
        else:
            items = [f"({r.head}, {r.tail}, {r.rtype})" for r in triples]
        return "; ".join(items)

    if task is TaskType.TC:
        labels = _dedup_keep_order(doc.labels)
        if not labels:
            return TASKS[task].empty[language]
        return TC_MARKER[language] + item_sep.join(labels)

    if task is TaskType.EE:
        if not doc.events:
            return TASKS[task].empty[language]
        lines = []
        for ev in doc.events:
            args = "".join(f", {role}: {filler}" for role, filler in ev.arguments)
            lines.append(f"{ev.event_type}: (Trigger: {ev.trigger}{args})")
        return "\n".join(lines)

    if task is TaskType.QA_MC:
        if doc.qa is None or not doc.qa.options:
            raise UnsupportedTask(task.value)
        texts = dict(doc.qa.options)
        return "; ".join(f"{k}. {texts[k]}" for k in doc.qa.answer_keys)

    if task in (TaskType.QA_SQA, TaskType.QA_CQA):
        if doc.qa is None:
            raise UnsupportedTask(task.value)
        return "\n".join(doc.qa.answer_keys)

    if task is TaskType.MRD:
        if not doc.dialogue:
            raise UnsupportedTask(task.value)
        answers = [t.text for t in doc.dialogue if t.speaker == "assistant"]
        if not answers:
            raise UnsupportedTask(task.value)
        return answers[-1]

    if task is TaskType.MT:
        if doc.translation is None:
            raise UnsupportedTask(task.value)
        return doc.translation.text_b

    if task in (TaskType.TP_SS, TaskType.TP_TE):
        if doc.pair is None or doc.pair.label is None:
            raise UnsupportedTask(task.value)
        return doc.pair.label

    if task in (TaskType.TT_DS, TaskType.TT_TS):
        if doc.pair is None:
            raise UnsupportedTask(task.value)
        return doc.pair.text_b

    raise UnsupportedTask(str(task))


def _input_text(doc: UnifiedDocument, task: TaskType, language: Language) -> str:
    if task is TaskType.MT:
        assert doc.translation is not None
        return doc.translation.text_a
    if task in (TaskType.TP_SS, TaskType.TP_TE):
        assert doc.pair is not None
        if language is Language.ZH:
            return f"文本一：{doc.pair.text_a}\n文本二：{doc.pair.text_b}"
        return f"Text 1: {doc.pair.text_a}\nText 2: {doc.pair.text_b}"
    if task in (TaskType.TT_DS, TaskType.TT_TS):
        assert doc.pair is not None
        return doc.pair.text_a
    return doc.text


def render_instance(
    doc: UnifiedDocument, template: Optional[InstructionTemplate], desc: DatasetDescriptor
) -> InstructionInstance:
    """Fill the template's slots from the document and its registry row.

    For QA and dialogue tasks the instruction is the question itself (plus
    rendered options / dialogue history); ``template`` is ignored there.  The
    fully rendered prompt lives in ``instruction``; ``input`` is kept empty,
    mirroring a single-field prompt layout.
    """
    task = desc.task
    language = desc.language
    zh = language is Language.ZH
    if TASKS[task].type2:
        if task is TaskType.MRD:
            if not doc.dialogue:
                raise MissingSlotData("question")
            answers = [i for i, t in enumerate(doc.dialogue) if t.speaker == "assistant"]
            cut = answers[-1] if answers else len(doc.dialogue)
            history = doc.dialogue[:cut]
            speaker_names = {"user": "用户" if zh else "User", "assistant": "助手" if zh else "Assistant"}
            instruction = "\n".join(f"{speaker_names[t.speaker]}: {t.text}" for t in history)
        else:
            if doc.qa is None:
                raise MissingSlotData("question")
            parts = []
            if doc.qa.context:
                parts.append(doc.qa.context)
            parts.append(doc.qa.question)
            if task is TaskType.QA_MC:
                if not doc.qa.options:
                    raise MissingSlotData("options")
                parts.append("\n".join(f"{k}. {t}" for k, t in doc.qa.options))
            instruction = "\n".join(parts)
        template_id = ""
    else:
        if template is None:
            raise NoTemplate(task.value, language.value)
        vocab_sep = "，" if zh else ", "
        values = {}
        pattern = template.instruction_pattern
        if "{text}" in pattern:
            values["text"] = _input_text(doc, task, language)
        for slot in ("entity_types", "labels"):
            if "{" + slot + "}" in pattern:
                if not desc.label_vocab:
                    raise MissingSlotData(slot)
                values[slot] = vocab_sep.join(desc.label_vocab)
        if "{source_lang}" in pattern or "{target_lang}" in pattern:
            if doc.translation is None:
                raise MissingSlotData("source_lang")
            names = _LANG_NAMES[language]
            values["source_lang"] = names[doc.translation.source_lang.value]
            values["target_lang"] = names[doc.translation.target_lang.value]
        try:
            instruction = pattern.format(**values)
        except KeyError as exc:
            raise MissingSlotData(str(exc)) from None
        template_id = template.template_id
    output = serialize_gold(doc, task, language, re_untyped=desc.re_untyped)
    return InstructionInstance(
        instance_id=f"{desc.id}/{doc.doc_id}",
        dataset_id=desc.id,
        task=task,
        language=language,
        template_id=template_id,
        instruction=instruction,
        input="",
        output=output,
        source_doc_id=doc.doc_id,
    )


def _pick_template(
    bank: TemplateBank, task: TaskType, language: Language,
    seed: int, dataset_id: str, doc_id: str,
) -> InstructionTemplate:
    """Deterministic per-document uniform choice keyed by (seed, dataset, doc),
    so re-forging after adding one dataset never reshuffles the others."""
    candidates = bank.for_pair(task, language)
    if not candidates:
        raise NoTemplate(task.value, language.value)
    digest = hashlib.sha256(f"{seed}|{dataset_id}|{doc_id}".encode("utf-8")).digest()
    return candidates[int.from_bytes(digest[:8], "big") % len(candidates)]


def build_corpus(
    corpora: Iterable[tuple[DatasetDescriptor, Iterable[UnifiedDocument]]],
    template_bank: TemplateBank,
    seed: int,
) -> list[InstructionInstance]:
    """Forge one instruction instance per document.

    Identical inputs and seed produce a byte-identical corpus; output order
    follows input order.
    """
    out: list[InstructionInstance] = []
    for desc, docs in corpora:
        for doc in docs:
            if TASKS[desc.task].type2:
                template = None
            else:
                template = _pick_template(
                    template_bank, desc.task, desc.language, seed, desc.id, doc.doc_id
                )
            out.append(render_instance(doc, template, desc))
    return out
