"""Quality pipeline: exact-dedup, train/test overlap removal, subtask
decomposition, and corpus statistics.

Dedup is exact-match over normalized text rather than near-duplicate
similarity; the normalized form is NFKC, lowercased, with whitespace runs
collapsed, and a document is keyed by a 128-bit digest of it.  Overlap
filtering compares whole-document text, not doc ids, because shared-task
corpora reuse PMIDs across releases.

``bioforge curate`` holds no documents and no object per row:
:func:`read_keyed_rows` decodes and checks each train row but builds no
document, and keeps its 16-byte key, its dataset number and its
``schema.LineSpans`` span in columns; with the ``schema.first_rows`` table
and the kept marks, that is about 40 bytes a train row.  The kept rows are
copied from the corpus files as written.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from array import array
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .schema import (TASKS, DatasetDescriptor, Factory, LineSpans, Registry, TaskType, UnifiedDocument, asdict,
                     first_rows, is_directory_name, read_jsonl, record, replace)

_WS_RUN = re.compile(r"\s+")


def normalize_for_hash(text: str) -> str:
    """Canonical text form used for duplicate / overlap detection:
    Unicode NFKC, lowercase, whitespace runs collapsed to one space, trimmed."""
    return _WS_RUN.sub(" ", unicodedata.normalize("NFKC", text).lower()).strip()


@record
class CurationReport:
    input_count: int = 0
    duplicates_removed: int = 0
    overlap_removed: int = 0
    output_count: int = 0
    per_dataset: dict[str, dict[str, int]] = Factory(dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _text_key(text: str) -> bytes:
    """What dedup and overlap compare: a 128-bit BLAKE2b digest of a
    document's :func:`normalize_for_hash` text, 16 bytes whatever its length."""
    return hashlib.blake2b(normalize_for_hash(text).encode("utf-8"), digest_size=16).digest()


class KeyedRows:
    """Rows as dedup holds them: a few machine words each, in columns, not an
    object per row.  Row ``r``'s 16-byte :func:`_text_key` is
    ``keys[16 * r:16 * r + 16]``, and its dataset number ``datasets[r]`` is
    the value of its dataset id in ``dataset_numbers`` (numbered in order of
    first appearance).  ``spans`` holds where the lines of rows read by
    :func:`read_keyed_rows` are."""

    def __init__(self):
        self.keys = bytearray()
        self.datasets = array("H")
        self.dataset_numbers: dict[str, int] = {}
        self.spans = LineSpans()

    def add(self, key: bytes, dataset_id: str) -> None:
        number = self.dataset_numbers.get(dataset_id)
        if number is None:
            number = self.dataset_numbers[dataset_id] = len(self.dataset_numbers)
            if number == 0x10000:  # past what array("H") holds
                self.datasets = array("I", self.datasets)
        self.keys += key
        self.datasets.append(number)

    def kept_lines(self, keep: bytearray) -> Iterator[tuple[str, Iterator[tuple[str, int, int]]]]:
        """Each dataset id that has a row marked in ``keep``, in sorted order,
        with the ``(source, start, length)`` span of each of its marked rows,
        in row order."""
        kept = [array("i") for _ in self.dataset_numbers]
        for row in compress(range(len(keep)), keep):
            kept[self.datasets[row]].append(row)
        for dataset_id, number in sorted(self.dataset_numbers.items()):
            if kept[number]:
                yield dataset_id, self.spans.lines(kept[number])


def read_keyed_rows(paths: Iterable[Path]) -> KeyedRows:
    """Decode and check every row of the JSONL corpus files ``paths`` in
    order as a document (a bad row raises ``<path>:<line>: ...``), without
    building it, and keep each row's key, dataset number and byte span.  A
    dataset id that is not one path component raises the same way, since
    curate writes a dataset's rows under a directory of that name."""
    rows = KeyedRows()
    for path in paths:
        items = read_jsonl(path, UnifiedDocument, spans=rows.spans, fields=("text", "dataset_id"))
        for text, dataset_id in items:
            if dataset_id not in rows.dataset_numbers and not is_directory_name(dataset_id):
                items.throw(ValueError(f"dataset id {dataset_id!r} is not a directory name"))
            rows.add(_text_key(text), dataset_id)
    return rows


def read_keys(paths: Iterable[Path]) -> Iterator[bytes]:
    """The key of each row of the JSONL corpus files ``paths``, each row
    decoded and checked as in :func:`read_keyed_rows`."""
    for path in paths:  # the train pass's projection, whose generated decoder is cached
        for text, _ in read_jsonl(path, UnifiedDocument, fields=("text", "dataset_id")):
            yield _text_key(text)


# The hash of a key in the dedup table, whose full 16-byte keys confirm it.
_key_hash = hash


def dedup_and_filter_overlap(train: Iterable, test: Iterable) -> tuple[list | bytearray, CurationReport]:
    """Keep the first train row of each distinct key (:func:`_text_key`) and
    drop any train row whose key a test row has; overlap is counted before
    duplicates.  ``train`` and ``test`` are documents, and the kept
    documents come back in order; or ``train`` is ``bioforge curate``'s
    :class:`KeyedRows` and ``test`` its keys, and what comes back is a
    ``bytearray`` with a 1 for each kept row.

    Rows are held as :class:`KeyedRows` columns, and each key's first row is
    found through one ``schema.first_rows`` table.

    Idempotent; the report arithmetic ``output == input - dups - overlap``
    holds per dataset and globally.
    """
    if isinstance(train, KeyedRows):
        return _dedup(train, set(test))
    docs = list(train)
    rows = KeyedRows()
    for doc in docs:
        rows.add(_text_key(doc.text), doc.dataset_id)
    keep, report = _dedup(rows, {_text_key(doc.text) for doc in test})
    return list(compress(docs, keep)), report


def _dedup(rows: KeyedRows, test_keys: set) -> tuple[bytearray, CurationReport]:
    """The kept mark of each row of ``rows`` and the report, as
    :func:`dedup_and_filter_overlap` describes them."""
    keys, datasets = rows.keys, rows.datasets
    first = first_rows(len(datasets), lambda a, b: keys[16 * a:16 * a + 16] == keys[16 * b:16 * b + 16])
    keep = bytearray(len(datasets))
    names = ("input_count", "duplicates_removed", "overlap_removed", "output_count")
    counts = [dict.fromkeys(names, 0) for _ in rows.dataset_numbers]  # by dataset number
    for row, number in enumerate(datasets):
        b = counts[number]
        b["input_count"] += 1
        key = bytes(keys[16 * row:16 * row + 16])
        if key in test_keys:
            b["overlap_removed"] += 1
        elif first(row, _key_hash(key)) == row:
            keep[row] = 1
            b["output_count"] += 1
        else:
            b["duplicates_removed"] += 1
    return keep, CurationReport(**{name: sum(b[name] for b in counts) for name in names},
                                per_dataset=dict(zip(rows.dataset_numbers, counts)))


@record(frozen=True)
class SubtaskPlan:
    """Label subsets for decomposing a multi-type extraction dataset.
    Each subset is ``(name, labels)``; e.g. per-type NER splits."""

    subsets: tuple[tuple[str, tuple[str, ...]], ...] = ()  # (name, labels) pairs

    @staticmethod
    def per_label(labels: Sequence[str]) -> "SubtaskPlan":
        return SubtaskPlan(tuple((label, (label,)) for label in labels))


def _filter_doc(doc: UnifiedDocument, task: TaskType, labels: set, dataset_id: str) -> UnifiedDocument:
    if task is TaskType.RE:
        return replace(doc, dataset_id=dataset_id, relations=tuple(r for r in doc.relations if r.rtype in labels))
    return replace(doc, dataset_id=dataset_id, entities=tuple(e for e in doc.entities if e.etype in labels))


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
                raise ValueError(f"subset label {label!r} absent from corpus label vocabulary")
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


@record
class StatsTable:
    rows: dict[tuple[str, str], int] = Factory(dict)  # (group, language) -> count
    total: int = 0

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


def corpus_stats(registry: Registry, corpus_counts: Optional[dict] = None) -> StatsTable:
    """Instance counts per task group and language.

    ``corpus_counts`` maps dataset_id to a materialized instance count; for
    datasets not listed there the registry's train split count is used, so
    the table can be produced from metadata alone.
    """
    table = StatsTable()
    for desc in registry:
        if corpus_counts is not None and desc.id in corpus_counts:
            n = corpus_counts[desc.id]
        else:
            n = desc.split_counts.get("train", 0)
        if n == 0:
            continue
        key = (task_group(desc), desc.language.value)
        table.rows[key] = table.rows.get(key, 0) + n
        table.total += n
    return table
