"""Seeded benchmark inputs: source-format files, gold corpora, predictions.

Everything here is derived from the workload seed and the files bundled with
the repository; the program under test only ever sees the files written
here.  Encoders are the benchmark's own, so the inputs stay the same bytes
when the program's codecs change.  bioforge is imported only where a
function builds its objects, so the measuring process can use the helpers
here without loading the program.
"""

from __future__ import annotations

import dataclasses
import json
import random
import xml.etree.ElementTree as ET
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from bioforge.schema import UnifiedDocument

# Tasks the paper trains in stage 2 only; everything else is Type1.  Kept
# here rather than imported from bioforge.staging so the stage checks do not
# trust the code they check.
TYPE2_TASKS = frozenset({"QA-mc", "QA-sqa", "QA-cqa", "MRD"})


def is_type2(task: str, general_dialogue: bool = False) -> bool:
    return general_dialogue or task in TYPE2_TASKS


# ---------------------------------------------------------------------------
# Canonical JSON encoders
# ---------------------------------------------------------------------------


def plain(value):
    """Dataclasses, enums and tuples as JSON-ready values."""
    if dataclasses.is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def write_jsonl(path: Path, rows: Iterable[dict]) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


def count_lines(path: Path) -> int:
    with path.open("rb") as f:
        return sum(1 for line in f if line.strip())


# ---------------------------------------------------------------------------
# Holdout reader
# ---------------------------------------------------------------------------


def read_span_jsonl(path: Path, dataset_id: str) -> list[UnifiedDocument]:
    """Read ``{id, text, entities[{start, end, label}]}`` rows as canonical
    NER documents whose surfaces are ``text[start:end]``."""
    from bioforge.schema import EntityMention, Language, UnifiedDocument

    docs = []
    with path.open(encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            row = json.loads(line)
            text = row["text"]
            entities = tuple(
                EntityMention(text[e["start"]:e["end"]], e["label"], e["start"], e["end"])
                for e in row["entities"]
            )
            docs.append(UnifiedDocument(doc_id=row["id"], dataset_id=dataset_id,
                                        language=Language.EN, text=text, entities=entities))
    return docs


# ---------------------------------------------------------------------------
# Source-format writers
# ---------------------------------------------------------------------------


def _cut(doc: UnifiedDocument) -> Optional[int]:
    """Index of the space nearest the middle of the text that lies outside
    every entity span, or None.  Replacing that space by a newline splits
    the text into two parts without moving any offset."""
    spaces = [i for i, ch in enumerate(doc.text) if ch == " "
              and not any(e.start <= i < e.end for e in doc.entities)]
    if not spaces:
        return None
    middle = len(doc.text) // 2
    return min(spaces, key=lambda i: (abs(i - middle), i))


def pubtator(docs: Iterable[UnifiedDocument], first_pmid: int) -> str:
    """Title/abstract lines plus tab-separated mention lines per document."""
    chunks = []
    for k, doc in enumerate(docs):
        pmid = str(first_pmid + k)
        cut = _cut(doc)
        if cut is None:
            lines = [f"{pmid}|t|{doc.text}"]
        else:
            lines = [f"{pmid}|t|{doc.text[:cut]}", f"{pmid}|a|{doc.text[cut + 1:]}"]
        lines += [f"{pmid}\t{e.start}\t{e.end}\t{e.surface}\t{e.etype}" for e in doc.entities]
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def conll(docs: Iterable[UnifiedDocument]) -> str:
    """One character per line with its BIO tag, as Chinese NER sets ship."""
    blocks = []
    for doc in docs:
        tags = ["O"] * len(doc.text)
        for e in doc.entities:
            tags[e.start] = f"B-{e.etype}"
            for i in range(e.start + 1, e.end):
                tags[i] = f"I-{e.etype}"
        blocks.append("\n".join(f"{ch}\t{tag}" for ch, tag in zip(doc.text, tags)
                                if not ch.isspace()))
    return "\n\n".join(blocks) + "\n"


def bioc_xml(docs: Iterable[UnifiedDocument]) -> str:
    """A BioC collection: two passages per document where the text splits,
    passage-local annotation offsets, relations by annotation id."""
    root = ET.Element("collection")
    ET.SubElement(root, "source").text = "perfbench"
    for doc in docs:
        dnode = ET.SubElement(root, "document")
        ET.SubElement(dnode, "id").text = doc.doc_id
        cut = _cut(doc)
        bounds = [(0, len(doc.text))] if cut is None else [(0, cut), (cut + 1, len(doc.text))]
        ref_of: dict[str, str] = {}
        for lo, hi in bounds:
            pnode = ET.SubElement(dnode, "passage")
            ET.SubElement(pnode, "offset").text = str(lo)
            ET.SubElement(pnode, "text").text = doc.text[lo:hi]
            for j, e in enumerate(doc.entities):
                if not lo <= e.start < hi:
                    continue
                ann_id = f"T{j}"
                ref_of.setdefault(e.surface, ann_id)
                anode = ET.SubElement(pnode, "annotation", id=ann_id)
                ET.SubElement(anode, "infon", key="type").text = e.etype
                ET.SubElement(anode, "location", offset=str(e.start - lo), length=str(e.end - e.start))
                ET.SubElement(anode, "text").text = e.surface
        for j, r in enumerate(doc.relations):
            rnode = ET.SubElement(dnode, "relation", id=f"R{j}")
            ET.SubElement(rnode, "infon", key="relation").text = r.rtype
            ET.SubElement(rnode, "node", refid=ref_of[r.head], role="head")
            ET.SubElement(rnode, "node", refid=ref_of[r.tail], role="tail")
    return ET.tostring(root, encoding="unicode") + "\n"


def canonical_jsonl(docs: Iterable[UnifiedDocument]) -> str:
    return "".join(json.dumps(plain(d), ensure_ascii=False, sort_keys=True) + "\n" for d in docs)


def with_ids(docs: Iterable[UnifiedDocument], prefix: str) -> list[UnifiedDocument]:
    return [dataclasses.replace(d, doc_id=f"{prefix}{k}") for k, d in enumerate(docs)]


def split_with_repeats(docs: list[UnifiedDocument], n_test: int, seed: str,
                       dup_share: float = 0.05, overlap_share: float = 0.3):
    """Split generated documents into a train split and a test split of
    ``n_test`` such that curation has real work: ``dup_share`` of train are
    exact copies of earlier train documents, and ``overlap_share`` of test
    copy train texts."""
    rng = random.Random(f"split:{seed}")
    train, test = docs[n_test:], docs[:n_test]
    n_dup = round(len(train) * dup_share)
    train = train + [train[rng.randrange(len(train))] for _ in range(n_dup)]
    n_overlap = round(n_test * overlap_share)
    test = test[n_overlap:] + [train[rng.randrange(len(train))] for _ in range(n_overlap)]
    return train, test


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

PREDICTION_FILES = ("oracle", "drop30", "noisy")
DROP_SHARE = 0.3

_CHATTER_BEFORE = ("Sure! Here is what I found:", "Let me think about this text.",
                   "好的，以下是结果：")
_CHATTER_AFTER = ("Hope this helps.", "Let me know if you need more.", "以上。")
_UNPARSEABLE = ("I am not sure about this one.", "No comment.", "抱歉，我无法回答。")
_FULL_WIDTH = {"; ": "；", ": ": "：", ", ": "，", "(": "（", ")": "）"}


def _noisy(output: str, task: str, rng: random.Random) -> str:
    """A plausible messy generation derived from the gold output."""
    if rng.random() < 0.1:
        return rng.choice(_UNPARSEABLE)
    text = output
    if task == "TC" and rng.random() < 0.2:  # the result marker left out
        text = text.partition(": ")[2] or text
    if task == "QA-mc" and rng.random() < 0.5:
        key = text.split(".", 1)[0]
        text = rng.choice((f"The answer is ({key}).", f"Answer: {key}", f"{key}"))
    if rng.random() < 0.4:  # casing drift of headers, markers and relation types
        lines = []
        for line in text.split("\n"):
            head, sep, rest = line.partition(": ")
            lines.append(head.lower() + sep + rest if sep else line)
        text = "\n".join(lines)
        if task == "RE":
            text = text.replace(", CID)", ", cid)")
    if rng.random() < 0.3:
        for a, b in _FULL_WIDTH.items():
            text = text.replace(a, b)
    if rng.random() < 0.4:
        text = rng.choice(_CHATTER_BEFORE) + "\n" + text
    if rng.random() < 0.3:
        text = text + "\n" + rng.choice(_CHATTER_AFTER)
    return text


def predictions(gold: list[dict], kind: str, seed: int, dataset_id: str) -> list[dict]:
    """Prediction rows ``{instance_id, raw_text}`` for one gold file."""
    rng = random.Random(f"{kind}:{seed}:{dataset_id}")
    if kind == "oracle":
        return [{"instance_id": g["instance_id"], "raw_text": g["output"]} for g in gold]
    if kind == "drop30":
        dropped = set(rng.sample(range(len(gold)), round(len(gold) * DROP_SHARE)))
        return [{"instance_id": g["instance_id"], "raw_text": g["output"]}
                for i, g in enumerate(gold) if i not in dropped]
    if kind == "noisy":
        return [{"instance_id": g["instance_id"], "raw_text": _noisy(g["output"], g["task"], rng)}
                for g in gold]
    raise ValueError(f"unknown prediction kind {kind!r}")


def gold_items(doc: UnifiedDocument, task: str) -> int:
    """Number of distinct scored items in a document's gold annotation."""
    if task == "NER/NEN":
        return len({(e.surface.strip(), e.etype) for e in doc.entities if e.surface.strip()})
    if task == "RE":
        return len(set(doc.relations))
    if task == "TC":
        return len(set(doc.labels))
    raise ValueError(f"no item count for task {task!r}")


# ---------------------------------------------------------------------------
# Reference-scale forged corpus
# ---------------------------------------------------------------------------

_EN_WORDS = ("patient", "dose", "therapy", "trial", "protein", "gene", "expression", "risk",
             "cohort", "symptom", "infection", "treatment", "outcome", "clinical", "acute",
             "chronic", "response", "level", "increase", "reduced", "associated", "with")
_ZH_WORDS = ("患者", "治疗", "药物", "剂量", "症状", "感染", "临床", "研究", "风险", "蛋白",
             "基因", "表达", "明显", "改善", "医生", "建议", "检查", "结果", "注意", "休息")


def _sentence(rng: random.Random, zh: bool, lo: int, hi: int) -> str:
    words = _ZH_WORDS if zh else _EN_WORDS
    return ("" if zh else " ").join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


def reference_rows(registry, seed: int, scale: float) -> Iterable[dict]:
    """Forged instruction rows for every registry dataset, ``scale`` times its
    train count.  General-dialogue rows are long multi-turn prompts, as in
    the paper's corpus, where they are the largest share."""
    from bioforge.schema import Language

    rng = random.Random(f"reference:{seed}")
    for desc in registry:
        zh = desc.language is Language.ZH
        n = max(1, round(desc.split_counts.get("train", 0) * scale))
        type2 = is_type2(desc.task.value, desc.general_dialogue)
        for i in range(n):
            if desc.general_dialogue or desc.task.value == "MRD":
                turns = rng.randint(4, 10) if desc.general_dialogue else rng.randint(2, 4)
                speakers = ("用户", "助手") if zh else ("User", "Assistant")
                instruction = "\n".join(f"{speakers[t % 2]}: {_sentence(rng, zh, 15, 40)}"
                                        for t in range(turns))
                output = _sentence(rng, zh, 20, 60)
            elif type2:
                instruction = _sentence(rng, zh, 30, 80) + "\n" + _sentence(rng, zh, 6, 12) + "?"
                output = _sentence(rng, zh, 5, 30)
            else:
                instruction = _sentence(rng, zh, 8, 14) + "\n" + _sentence(rng, zh, 20, 60)
                output = _sentence(rng, zh, 3, 12)
            yield {
                "instance_id": f"{desc.id}/r{i}",
                "dataset_id": desc.id,
                "task": desc.task.value,
                "language": desc.language.value,
                "template_id": "" if type2 else f"{desc.task.value}-{desc.language.value}-{i % 15:02d}",
                "instruction": instruction,
                "input": "",
                "output": output,
                "source_doc_id": f"r{i}",
            }
