"""Instruction-record forging: one instruction instance per document.

Forge knows no task type.  Each task's row of ``evaluation.GRAMMARS`` writes
its prompt and its gold output (or empty marker) beside the parser that reads
the output back, so ``parse(serialize_gold(doc))`` recovers exactly the
scoring-relevant structure; ``schema.TASKS`` says which payload a task
requires and whether its instruction is its prompt (a Type2 task).  Each
document is first checked by ``schema.validate_document``, the one rule set.
"""

from __future__ import annotations

import hashlib
from collections.abc import Generator
from typing import Iterable, Iterator, Optional

from .errors import BioforgeError, InvalidDocument, MissingSlotData, NoTemplate, UnsupportedField, UnsupportedTask
from .evaluation import _FIELD, GRAMMARS
from .schema import (TASKS, DatasetDescriptor, InstructionInstance, Language, TaskType, UnifiedDocument,
                     validate_document)
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
    render gets its grammar's empty marker; without the required payload, or
    without a marker, it raises :class:`UnsupportedTask`.
    """
    required = TASKS[task].required
    if required is not None and getattr(doc, required) is None:
        raise UnsupportedTask(task.value)
    grammar = GRAMMARS[task]
    output = grammar.render(doc, language, re_untyped)
    if output is None:
        output = grammar.empty.get(language)
    if output is None:
        raise UnsupportedTask(task.value)
    return output


def _unfilled_field(pattern: str, slots: dict) -> str:
    """The first replacement field of ``pattern`` that ``slots`` cannot fill."""
    import string  # only on this error path
    for _, name, spec, conversion in string.Formatter().parse(pattern):
        if name is not None:
            field = "{" + name + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "") + "}"
            try:
                field.format(**slots)
            except (LookupError, AttributeError, TypeError):
                return field
    return pattern


def render_instance(
    doc: UnifiedDocument, template: Optional[InstructionTemplate], desc: DatasetDescriptor
) -> InstructionInstance:
    """Render one document the same way for every task.

    The document is first checked with ``validate_document(doc, desc)``; its
    first violation raises :class:`InvalidDocument` with that violation's
    text.  ``GRAMMARS[task].prompt`` then writes what the prompt shows of the
    document: a Type2 (QA or dialogue) task takes it as its instruction and
    ignores ``template``; any other task fills the template from ``{text}``
    (the prompt), ``{entity_types}`` and ``{labels}`` (the registry row's
    vocabulary, if any) and ``{source_lang}``/``{target_lang}`` (if the
    document has a translation).  A slot with no data raises
    :class:`MissingSlotData`; a positional field, or a slot's index or
    attribute that its value lacks, :class:`UnsupportedField`.  The rendered
    prompt is ``instruction``; ``input`` is kept empty.
    """
    violations = validate_document(doc, desc).violations
    if violations:
        raise InvalidDocument(violations[0])
    task = desc.task
    language = desc.language
    instruction = GRAMMARS[task].prompt(doc, language)
    template_id = ""
    if not TASKS[task].type2:
        if template is None:
            raise NoTemplate(task.value, language.value)
        slots = {"text": instruction}
        if desc.label_vocab:
            slots["entity_types"] = slots["labels"] = _FIELD[language].join(desc.label_vocab)
        if doc.translation is not None:
            names = _LANG_NAMES[language]
            slots["source_lang"] = names[doc.translation.source_lang.value]
            slots["target_lang"] = names[doc.translation.target_lang.value]
        pattern = template.instruction_pattern
        try:
            instruction = pattern.format(**slots)
        except KeyError as exc:
            raise MissingSlotData(exc.args[0]) from None
        except (IndexError, AttributeError, TypeError):  # a positional field, or a slot's index or attribute
            raise UnsupportedField(template.template_id, _unfilled_field(pattern, slots)) from None
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
    follows input order.  A document that cannot be rendered raises its
    ``BioforgeError``, first thrown as a ``ValueError`` into ``docs`` if that
    is a generator, so that ``read_jsonl`` names the row: ``<path>:<line>:``.
    """
    for desc, docs in corpora:
        type2 = TASKS[desc.task].type2
        for doc in docs:
            try:
                template = None if type2 else _pick_template(
                    template_bank, desc.task, desc.language, seed, desc.id, doc.doc_id)
                instance = render_instance(doc, template, desc)
            except BioforgeError as exc:
                if isinstance(docs, Generator):
                    docs.throw(ValueError(str(exc)))
                raise
            yield instance


def build_corpus(
    corpora: Iterable[tuple[DatasetDescriptor, Iterable[UnifiedDocument]]],
    template_bank: TemplateBank,
    seed: int,
) -> list[InstructionInstance]:
    """The instances of :func:`forge_instances`, as a list."""
    return list(forge_instances(corpora, template_bank, seed))
