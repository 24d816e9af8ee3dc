"""Quality pipeline: exact-dedup, train/test overlap removal, subtask
decomposition, and corpus statistics.

Dedup is exact-match over normalized text rather than near-duplicate
similarity; the normalized form is NFKC, lowercased, with whitespace runs
collapsed, and a document is keyed by a 128-bit digest of it.  Overlap
filtering compares whole-document text, not doc ids, because shared-task
corpora reuse PMIDs across releases.

``bioforge curate`` holds no documents: :func:`keyed_lines` decodes each
row and keeps only its key, dataset id and byte span, and the kept rows are
copied from the corpus files as written.
"""

from __future__ import annotations

import hashlib
import re
import sys
import unicodedata
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import UnknownLabel
from .schema import TASKS, DatasetDescriptor, Registry, TaskType, UnifiedDocument, read_jsonl

_WS_RUN = re.compile(r"\s+")


def normalize_for_hash(text: str) -> str:
    """Canonical text form used for duplicate / overlap detection:
    Unicode NFKC, lowercase, whitespace runs collapsed to one space, trimmed."""
    return _WS_RUN.sub(" ", unicodedata.normalize("NFKC", text).lower()).strip()


@dataclass
class CurationReport:
    input_count: int = 0
    duplicates_removed: int = 0
    overlap_removed: int = 0
    output_count: int = 0
    per_dataset: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def doc_key(doc: UnifiedDocument) -> bytes:
    """What dedup and overlap compare: a 128-bit BLAKE2b digest of the
    document's :func:`normalize_for_hash` text, 16 bytes whatever its length."""
    return hashlib.blake2b(normalize_for_hash(doc.text).encode("utf-8"), digest_size=16).digest()


class KeyedLine(NamedTuple):
    """One corpus row as ``bioforge curate`` holds it: its :func:`doc_key`,
    its dataset id, and the byte span of its line in ``source``."""

    key: bytes
    dataset_id: str
    source: str
    start: int
    length: int


def keyed_lines(paths: Iterable[Path]) -> Iterator[KeyedLine]:
    """Decode every row of the JSONL corpus files ``paths`` in order (a bad
    row raises ``<path>:<line>: ...``) and give each as a :class:`KeyedLine`."""
    for path in paths:
        source = str(path)
        for doc, start, length in read_jsonl(path, UnifiedDocument, spans=True):
            yield KeyedLine(doc_key(doc), sys.intern(doc.dataset_id), source, start, length)


def dedup_and_filter_overlap(
    train: Iterable, test: Iterable, key: Callable[..., Hashable] = doc_key
) -> tuple[list, CurationReport]:
    """Keep the first train row of each distinct ``key`` and drop any train
    row whose key a test row has.  Rows are documents, or anything with a
    ``dataset_id`` given its ``key`` (a :class:`KeyedLine`'s own ``key``).

    Idempotent; the report arithmetic ``output == input - dups - overlap``
    holds per dataset and globally.
    """
    test_keys = {key(row) for row in test}
    seen: set = set()
    kept: list = []
    report = CurationReport()

    def bucket(dataset_id: str) -> dict:
        return report.per_dataset.setdefault(
            dataset_id,
            {"input_count": 0, "duplicates_removed": 0, "overlap_removed": 0, "output_count": 0},
        )

    for row in train:
        b = bucket(row.dataset_id)
        report.input_count += 1
        b["input_count"] += 1
        k = key(row)
        if k in test_keys:
            report.overlap_removed += 1
            b["overlap_removed"] += 1
            continue
        if k in seen:
            report.duplicates_removed += 1
            b["duplicates_removed"] += 1
            continue
        seen.add(k)
        kept.append(row)
        report.output_count += 1
        b["output_count"] += 1
    return kept, report


@dataclass(frozen=True)
class SubtaskPlan:
    """Label subsets for decomposing a multi-type extraction dataset.
    Each subset is ``(name, labels)``; e.g. per-type NER splits."""

    subsets: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (name, labels) pairs

    @staticmethod
    def per_label(labels: Sequence[str]) -> "SubtaskPlan":
        return SubtaskPlan(tuple((label, (label,)) for label in labels))


def _filter_doc(doc: UnifiedDocument, task: TaskType, labels: set, dataset_id: str) -> UnifiedDocument:
    if task is TaskType.RE:
        return UnifiedDocument(
            doc_id=doc.doc_id,
            dataset_id=dataset_id,
            language=doc.language,
            text=doc.text,
            entities=doc.entities,
            relations=tuple(r for r in doc.relations if r.rtype in labels),
        )
    return UnifiedDocument(
        doc_id=doc.doc_id,
        dataset_id=dataset_id,
        language=doc.language,
        text=doc.text,
        entities=tuple(e for e in doc.entities if e.etype in labels),
    )


def decompose_subtasks(
    docs: Sequence[UnifiedDocument], desc: DatasetDescriptor, plan: SubtaskPlan
) -> list[tuple[DatasetDescriptor, list[UnifiedDocument]]]:
    """Split a multi-type NER or RE dataset into per-subset virtual datasets.

    The original dataset is always emitted unchanged, followed by one virtual
    dataset per label subset with annotations filtered to that subset.
    Documents left with zero annotations are kept as negative instances.
    """
    if desc.task not in (TaskType.NER_NEN, TaskType.RE):
        raise ValueError(f"subtask decomposition applies to NER/RE, not {desc.task.value}")
    if desc.task is TaskType.RE:
        observed = {r.rtype for doc in docs for r in doc.relations}
    else:
        observed = {e.etype for doc in docs for e in doc.entities}
    vocabulary = set(desc.label_vocab) | observed
    out: list[tuple[DatasetDescriptor, list[UnifiedDocument]]] = [(desc, list(docs))]
    for name, labels in plan.subsets:
        for label in labels:
            if label not in vocabulary:
                raise UnknownLabel(label)
        label_set = set(labels)
        virtual_id = f"{desc.id}__{name}"
        virtual = DatasetDescriptor(
            id=virtual_id,
            name=f"{desc.name} ({name} subtask)",
            task=desc.task,
            language=desc.language,
            split_counts=dict(desc.split_counts),
            description=f"Virtual per-label subtask of {desc.id}",
            label_vocab=tuple(labels),
            re_untyped=desc.re_untyped,
            prompted_relation=desc.prompted_relation,
        )
        out.append((virtual, [_filter_doc(d, desc.task, label_set, virtual_id) for d in docs]))
    return out


# ---------------------------------------------------------------------------
# Corpus statistics
# ---------------------------------------------------------------------------

GENERAL_DIALOGUE_GROUP = "General Dialogue Data"


def task_group(desc: DatasetDescriptor) -> str:
    if desc.general_dialogue:
        return GENERAL_DIALOGUE_GROUP
    return TASKS[desc.task].group


@dataclass
class StatsTable:
    rows: dict[tuple[str, str], int] = field(default_factory=dict)  # (group, language) -> count
    total: int = 0

    def group_total(self, group: str) -> int:
        return sum(n for (g, _), n in self.rows.items() if g == group)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {"group": g, "language": lang, "count": n}
                for (g, lang), n in self.rows.items()
            ],
            "total": self.total,
        }

    def to_text(self) -> str:
        groups: dict[str, dict[str, int]] = {}
        for (g, lang), n in self.rows.items():
            groups.setdefault(g, {})[lang] = n
        name_w = max((len(g) for g in groups), default=10) + 2
        lines = [f"{'Task Group':<{name_w}}{'en':>12}{'zh':>12}{'total':>12}"]
        for g, by_lang in groups.items():
            en = by_lang.get("en", 0)
            zh = by_lang.get("zh", 0)
            lines.append(f"{g:<{name_w}}{en:>12,}{zh:>12,}{en + zh:>12,}")
        lines.append(f"{'Total':<{name_w}}{'':>12}{'':>12}{self.total:>12,}")
        return "\n".join(lines)


def corpus_stats(
    registry: Registry, corpus_counts: Optional[dict] = None, split: str = "train"
) -> StatsTable:
    """Instance counts per task group and language.

    ``corpus_counts`` maps dataset_id to a materialized instance count; for
    datasets not listed there the registry's split_counts for ``split`` are
    used, so the table can be produced from metadata alone.
    """
    table = StatsTable()
    for desc in registry:
        if corpus_counts is not None and desc.id in corpus_counts:
            n = corpus_counts[desc.id]
        else:
            n = desc.split_counts.get(split, 0)
        if n == 0:
            continue
        key = (task_group(desc), desc.language.value)
        table.rows[key] = table.rows.get(key, 0) + n
        table.total += n
    return table
