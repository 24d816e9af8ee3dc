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
    without a marker, it raises ``ValueError``.
    """
    required = TASKS[task].required
    grammar = GRAMMARS[task]
    output = None
    if required is None or getattr(doc, required) is not None:
        output = grammar.render(doc, language, re_untyped)
        if output is None:
            output = grammar.empty.get(language)
    if output is None:
        raise ValueError(f"document has no gold output for task {task.value!r}")
    return output


def _unfilled_field(pattern: str, slots: dict) -> str:
    """The first replacement field of ``pattern`` that ``slots`` cannot fill,
    or the whole pattern if it is no format string."""
    import string  # only on this error path
    try:
        parsed = list(string.Formatter().parse(pattern))
    except ValueError:
        return pattern
    for _, name, spec, conversion in parsed:
        if name is not None:
            field = "{" + name + (f"!{conversion}" if conversion else "") + (f":{spec}" if spec else "") + "}"
            try:
                field.format(**slots)
            except (LookupError, AttributeError, TypeError, ValueError):
                return field
    return pattern


def render_instance(
    doc: UnifiedDocument, template: Optional[InstructionTemplate], desc: DatasetDescriptor
) -> InstructionInstance:
    """Render one document the same way for every task.

    The document is first checked with ``validate_document(doc, desc)``; its
    first violation raises ``ValueError`` with that violation's text.
    ``GRAMMARS[task].prompt`` then writes what the prompt shows of the
    document: a Type2 (QA or dialogue) task takes it as its instruction and
    ignores ``template``; any other task, for which a ``None`` template
    raises ``ValueError`` (the bank has none), fills it from ``{text}``
    (the prompt), ``{entity_types}`` and ``{labels}`` (the registry row's
    vocabulary, if any) and ``{source_lang}``/``{target_lang}`` (if the
    document has a translation).  A slot with no data raises
    ``ValueError`` naming the slot; a positional field, a slot's index or
    attribute that its value lacks, a bad format spec or a pattern that is no
    format string, one naming the template and the field.  The rendered
    prompt is ``instruction``; ``input`` is kept empty.
    """
    violations = validate_document(doc, desc).violations
    if violations:
        raise ValueError(violations[0])
    task = desc.task
    language = desc.language
    instruction = GRAMMARS[task].prompt(doc, language)
    template_id = ""
    if not TASKS[task].type2:
        if template is None:
            raise ValueError(f"template bank has no template for ({task.value}, {language.value})")
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
            raise ValueError(f"no data available to fill template slot {{{exc.args[0]}}}") from None
        except (IndexError, AttributeError, TypeError, ValueError):  # a positional field, an index, attribute or spec
            field = _unfilled_field(pattern, slots)
            raise ValueError(f"template {template.template_id!r}: unsupported field {field!r}") from None
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
) -> Optional[InstructionTemplate]:
    """Deterministic per-document uniform choice keyed by (seed, dataset, doc),
    so re-forging after adding one dataset never reshuffles the others;
    ``None`` if the bank has no template for the pair."""
    candidates = bank.for_pair(task, language)
    if not candidates:
        return None
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
    ``ValueError``, thrown into ``docs`` first if that is a generator, so
    that ``read_jsonl`` names the row: ``<path>:<line>:``.
    """
    for desc, docs in corpora:
        for doc in docs:
            template = _pick_template(template_bank, desc.task, desc.language, seed, desc.id, doc.doc_id)
            try:
                instance = render_instance(doc, template, desc)
            except ValueError as exc:
                if isinstance(docs, Generator):
                    docs.throw(exc)
                raise
            yield instance


def build_corpus(
    corpora: Iterable[tuple[DatasetDescriptor, Iterable[UnifiedDocument]]],
    template_bank: TemplateBank,
    seed: int,
) -> list[InstructionInstance]:
    """The instances of :func:`forge_instances`, as a list."""
    return list(forge_instances(corpora, template_bank, seed))
