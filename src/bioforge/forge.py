"""Instruction-record forging: template rendering and gold outputs.

Each task's gold output is written by its row of ``evaluation.GRAMMARS``,
beside the parser that inverts it; ``parse(serialize_gold(doc))`` recovers
exactly the scoring-relevant structure.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Optional

from .errors import MissingSlotData, NoTemplate, UnsupportedTask
from .evaluation import GRAMMARS, option_line
from .schema import TASKS, DatasetDescriptor, InstructionInstance, Language, TaskType, UnifiedDocument
from .schema import read_instances, write_instances  # noqa: F401 (re-exported)
from .templates import InstructionTemplate, TemplateBank

_LANG_NAMES = {
    Language.EN: {"en": "English", "zh": "Chinese"},
    Language.ZH: {"en": "英语", "zh": "中文"},
}


def serialize_gold(
    doc: UnifiedDocument, task: TaskType, language: Language, re_untyped: bool = False
) -> str:
    """Render the document's gold annotations with ``GRAMMARS[task]``.

    ``re_untyped`` selects the binary ``[head, tail]`` relation grammar, in
    which the prompt implies the relation type.  A document with nothing to
    render gets its task's empty marker (``TASKS[task].empty``); without the
    required payload, or without a marker, it raises :class:`UnsupportedTask`.
    """
    spec = TASKS[task]
    if spec.required is not None and getattr(doc, spec.required) is None:
        raise UnsupportedTask(task.value)
    output = GRAMMARS[task].render(doc, language, re_untyped)
    if output is None:
        output = spec.empty.get(language)
    if output is None:
        raise UnsupportedTask(task.value)
    return output


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
                parts.append("\n".join(option_line(k, t) for k, t in doc.qa.options))
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


def forge_instances(
    corpora: Iterable[tuple[DatasetDescriptor, Iterable[UnifiedDocument]]],
    template_bank: TemplateBank,
    seed: int,
) -> Iterator[InstructionInstance]:
    """Forge one instruction instance per document, each as its document
    is drawn from ``corpora`` (lazy inputs are read as they are rendered).

    Identical inputs and seed produce a byte-identical corpus; output order
    follows input order.
    """
    for desc, docs in corpora:
        type2 = TASKS[desc.task].type2
        for doc in docs:
            template = None if type2 else _pick_template(
                template_bank, desc.task, desc.language, seed, desc.id, doc.doc_id)
            yield render_instance(doc, template, desc)


def build_corpus(
    corpora: Iterable[tuple[DatasetDescriptor, Iterable[UnifiedDocument]]],
    template_bank: TemplateBank,
    seed: int,
) -> list[InstructionInstance]:
    """The instances of :func:`forge_instances`, as a list."""
    return list(forge_instances(corpora, template_bank, seed))
