"""Bilingual instruction template bank.

Each template is an instruction pattern with named slots ({text},
{entity_types}, {labels}, {source_lang}, {target_lang}, ...).  The default
bank carries 15 phrasing variants per (task, language) pair for every
template-driven task; QA and dialogue tasks take the original question as
the instruction and need no templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .schema import Language, TaskType, read_jsonl, to_dict, write_jsonl


@dataclass(frozen=True)
class InstructionTemplate:
    template_id: str
    task: TaskType
    language: Language
    instruction_pattern: str
    notes: str = ""


class TemplateBank:
    def __init__(self, templates: Iterable[InstructionTemplate] = ()):
        self._by_pair: dict[tuple, list[InstructionTemplate]] = {}
        self._ids: set[str] = set()
        for t in templates:
            self.add(t)

    def add(self, template: InstructionTemplate) -> None:
        if template.template_id in self._ids:
            raise ValueError(f"duplicate template id {template.template_id!r}")
        self._ids.add(template.template_id)
        self._by_pair.setdefault((template.task, template.language), []).append(template)

    def for_pair(self, task: TaskType, language: Language) -> list[InstructionTemplate]:
        return self._by_pair.get((task, language), [])

    def __len__(self) -> int:
        return len(self._ids)

    @classmethod
    def load(cls, path: Path | str) -> "TemplateBank":
        return cls(read_jsonl(path, InstructionTemplate))

    def save(self, path: Path | str) -> int:
        return write_jsonl(path, (to_dict(t) for ts in self._by_pair.values() for t in ts))


# ---------------------------------------------------------------------------
# Default bank: 5 base phrasings x 3 wrappers = 15 variants per pair.
# ---------------------------------------------------------------------------

_EN_BASES = {
    TaskType.NER_NEN: [
        "Identify {entity_types} entities from the text: {text}",
        "Extract all mentions of the following entity types: {entity_types}. Text: {text}",
        "Find every entity of type {entity_types} in the passage below.\n{text}",
        "List the {entity_types} entities that appear in this text: {text}",
        "Recognize the entities of types {entity_types} in the following text: {text}",
    ],
    TaskType.RE: [
        "Extract relation triples (head entity, tail entity, relation type) from the text. Relation types: {labels}. Text: {text}",
        "Output the {labels} relations in the following text: {text}",
        "Identify all relations of type {labels} in this passage: {text}",
        "Find the entity pairs linked by the relations {labels} in the text below.\n{text}",
        "List every (head, tail, relation) triple found in the text. Candidate relation types: {labels}. {text}",
    ],
    TaskType.CRE: [
        "Extract the causal relations, as (head entity, tail entity, relation type) triples, from: {text} Relation types: {labels}",
        "Identify cause-effect relation triples of types {labels} in the following text: {text}",
        "Output every causal relation found in the text below. Relation types: {labels}.\n{text}",
        "Find the causal links of type {labels} described in this passage: {text}",
        "List all (cause, effect, relation) triples in the text. Candidate types: {labels}. {text}",
    ],
    TaskType.COREF: [
        "Identify coreferent mention pairs in the text, as (mention, mention, coref) triples: {text}",
        "Find all pairs of mentions that refer to the same entity in: {text}",
        "Output the coreference links in the following text as triples: {text}",
        "Resolve coreference in the passage below and list the coreferent pairs.\n{text}",
        "List every coreferent mention pair found in this text: {text}",
    ],
    TaskType.EE: [
        "Extract events from the input text. Event types: {labels}. Text: {text}",
        "Identify the events of types {labels}, with their triggers and arguments, in: {text}",
        "Output every event described in the text below. Event types: {labels}.\n{text}",
        "Find the {labels} events, including triggers and role fillers, in this passage: {text}",
        "List all events of type {labels} occurring in the following text: {text}",
    ],
    TaskType.TC: [
        "Classify the following text into the specified text label: {text} Text Labels: {labels}",
        "Assign the text below to one or more of these categories: {labels}.\n{text}",
        "Which of the labels {labels} apply to this text? {text}",
        "Categorize the following passage using the label set {labels}: {text}",
        "Read the text and choose the matching label(s) from {labels}: {text}",
    ],
    TaskType.MT: [
        "Machine Translation from {source_lang} to {target_lang}: {text}",
        "Translate the following text into {target_lang}: {text}",
        "Render this {source_lang} text in {target_lang}: {text}",
        "Provide a {target_lang} translation of the passage below.\n{text}",
        "Translate from {source_lang} to {target_lang}.\nText: {text}",
    ],
    TaskType.TP_SS: [
        "Determine the semantic similarity of the two texts. {text}",
        "Judge how similar in meaning the following two texts are. {text}",
        "Are these two sentences semantically similar? {text}",
        "Rate the semantic relatedness of the text pair below.\n{text}",
        "Decide whether the two texts express the same meaning. {text}",
    ],
    TaskType.TP_TE: [
        "Determine whether the first text entails the second. {text}",
        "Does the premise entail the hypothesis? {text}",
        "Judge the entailment relation between the two texts below.\n{text}",
        "Decide if the second text follows from the first. {text}",
        "Label the textual entailment of this pair. {text}",
    ],
    TaskType.TT_DS: [
        "Summarize the following document: {text}",
        "Write a concise summary of the text below.\n{text}",
        "Produce a short summary for this passage: {text}",
        "Condense the following text into a brief summary: {text}",
        "Give the key points of the document below as a summary.\n{text}",
    ],
    TaskType.TT_TS: [
        "Convert the following text into the required structured form: {text}",
        "Transform this passage into the target structured representation: {text}",
        "Produce the structured output corresponding to the text below.\n{text}",
        "Extract the structured record described by the following text: {text}",
        "Generate the structured form of this text: {text}",
    ],
}

_ZH_BASES = {
    TaskType.NER_NEN: [
        "从下面文本中识别出指定的实体类型：{text} 实体类型：{entity_types}",
        "找出以下文本中所有{entity_types}实体：{text}",
        "对下列文本进行命名实体识别，实体类型包括{entity_types}：{text}",
        "抽取文本中属于{entity_types}的实体：{text}",
        "标注出下文中的{entity_types}实体：{text}",
    ],
    TaskType.RE: [
        "实体关系三元组抽取，以“(头实体, 尾实体, 关系类型)”格式输出：{text} 关系类型标签：{labels}",
        "从下面文本中抽取{labels}关系三元组：{text}",
        "识别文本中的实体关系，关系类型包括{labels}：{text}",
        "以三元组形式输出下文中的关系，候选关系类型：{labels}。{text}",
        "抽取下列文本中的关系三元组，关系标签集合为{labels}：{text}",
    ],
    TaskType.CRE: [
        "从下面文本中抽取因果关系三元组，关系类型：{labels}。{text}",
        "识别文本中的因果关系，以(头实体, 尾实体, 关系类型)格式输出：{text} 关系类型：{labels}",
        "找出下文描述的因果关系三元组，候选类型：{labels}。{text}",
        "抽取文本中的原因与结果及其关系类型（{labels}）：{text}",
        "以三元组形式列出以下文本中的因果关系，类型标签：{labels}。{text}",
    ],
    TaskType.COREF: [
        "找出下面文本中指代相同实体的提及对：{text}",
        "对下列文本进行共指消解，以三元组形式输出共指对：{text}",
        "识别文本中互为共指的提及并列出：{text}",
        "输出下文中的共指链接：{text}",
        "列出以下文本中所有共指的提及对：{text}",
    ],
    TaskType.EE: [
        "从下面文本中抽取事件，事件类型：{labels}。{text}",
        "识别文本中的事件及其触发词和论元，事件类型包括{labels}：{text}",
        "找出下文描述的{labels}事件，给出触发词和角色：{text}",
        "抽取以下文本中的结构化事件，类型标签：{labels}。{text}",
        "列出文本中所有{labels}类型的事件：{text}",
    ],
    TaskType.TC: [
        "将下面文本分类到指定的类别中：{text} 类别标签：{labels}",
        "把以下文本归入这些类别之一：{labels}。{text}",
        "判断下列文本属于哪个类别，候选类别：{labels}：{text}",
        "对下面的文本进行分类，标签集合为{labels}：{text}",
        "阅读文本并从{labels}中选择合适的类别：{text}",
    ],
    TaskType.MT: [
        "将下面文本翻译成{target_lang}：{text}",
        "把以下{source_lang}文本译为{target_lang}：{text}",
        "翻译下列文本（{source_lang}到{target_lang}）：{text}",
        "将这段文字翻译为{target_lang}。{text}",
        "给出下面文本的{target_lang}译文：{text}",
    ],
    TaskType.TP_SS: [
        "判断下面两段文本的语义相似度。{text}",
        "这两句话的意思相近吗？{text}",
        "评估以下文本对的语义相关性。{text}",
        "判断两段文本是否表达相同含义。{text}",
        "比较下面两段文本在语义上的相似程度。{text}",
    ],
    TaskType.TP_TE: [
        "判断第一段文本是否蕴含第二段文本。{text}",
        "前提是否蕴含假设？{text}",
        "判断下面文本对的蕴含关系。{text}",
        "第二段文本能否由第一段推出？{text}",
        "标注这对文本的文本蕴含标签。{text}",
    ],
    TaskType.TT_DS: [
        "总结下面的文档：{text}",
        "为以下文本写一段简短摘要。{text}",
        "概括这段文字的要点：{text}",
        "将下列文本压缩为摘要：{text}",
        "给出下面文档的摘要：{text}",
    ],
    TaskType.TT_TS: [
        "将下面文本转换为要求的结构化形式：{text}",
        "把这段文字转写为目标结构化表示：{text}",
        "生成下文对应的结构化输出：{text}",
        "从以下文本中抽取结构化记录：{text}",
        "给出这段文本的结构化形式：{text}",
    ],
}


def _wrap_en(base: str, style: int) -> str:
    if style == 0:
        return base
    if style == 1:
        return "Please " + base[0].lower() + base[1:]
    return base + "\nOnly output the answer in the required format."


def _wrap_zh(base: str, style: int) -> str:
    if style == 0:
        return base
    if style == 1:
        return "请" + base
    return base + "（只输出要求格式的答案）"


def default_template_bank() -> TemplateBank:
    """Build the bundled bank: 15 variants per (task, language) pair."""
    bank = TemplateBank()
    for language, bases, wrap in (
        (Language.EN, _EN_BASES, _wrap_en),
        (Language.ZH, _ZH_BASES, _wrap_zh),
    ):
        for task, patterns in bases.items():
            i = 0
            for style in range(3):
                for base in patterns:
                    bank.add(
                        InstructionTemplate(
                            template_id=f"{task.value}-{language.value}-{i:02d}",
                            task=task,
                            language=language,
                            instruction_pattern=wrap(base, style),
                        )
                    )
                    i += 1
    return bank
