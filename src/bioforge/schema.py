"""Harmonized task schema shared by every pipeline stage.

All corpora, whatever their source format, are normalized into
:class:`UnifiedDocument` values; a :class:`DatasetDescriptor` registry row
carries per-dataset metadata (task type, language, split sizes, declared
label vocabulary).  Values are immutable after construction and safe to
share across workers.  :data:`TASKS` holds the data facts of every task
type in one table.  Every record class is declared under
``records.record``, whose codec maps it to JSON and back.

On-disk encoding is UTF-8 JSONL, one record per line; the registry is a
single JSONL file of descriptor rows.  :func:`read_jsonl` parses each line
with one JSON scan and, given ``fields``, reads a projection: every field is
checked, but no record is built.  Every output file is written through
:func:`atomic_writer`, so it appears whole or not at all.  ``curate``,
``plan`` and ``eval`` index rows by number: :class:`LineSpans` columns,
which :func:`read_jsonl` fills, hold where each row's line is;
:func:`first_rows` finds each key's first row, :func:`last_rows` each id's
last (and reads it again for eval), and :func:`copy_lines` copies lines
by their spans.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
from array import array
from bisect import bisect_right
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional

from .records import Factory, _decoder, _dump_record, _writer, record
from .records import asdict, from_dict, replace, to_dict  # noqa: F401 (re-exported)


class TaskType(str, Enum):
    """The closed 15-way task taxonomy. Unknown tags are rejected at parse time."""

    NER_NEN = "NER/NEN"
    RE = "RE"
    CRE = "CRE"
    EE = "EE"
    COREF = "COREF"
    TC = "TC"
    QA_MC = "QA-mc"
    QA_SQA = "QA-sqa"
    QA_CQA = "QA-cqa"
    MRD = "MRD"
    MT = "MT"
    TP_SS = "TP-ss"
    TP_TE = "TP-te"
    TT_DS = "TT-ds"
    TT_TS = "TT-ts"


class Language(str, Enum):
    EN = "en"
    ZH = "zh"


@record(frozen=True)
class EntityMention:
    """One annotated mention.  Offsets are Unicode code-point indices into the
    document text (never bytes; byte offsets are ambiguous for Chinese text).
    ``norm_id`` carries an entity-normalization identifier when present; it is
    stored but never scored."""

    surface: str
    etype: str
    start: int
    end: int
    norm_id: Optional[str] = None


@record(frozen=True)
class RelationTriple:
    head: str
    tail: str
    rtype: str


@record(frozen=True)
class EventFrame:
    event_type: str
    trigger: str
    arguments: tuple[tuple[str, str], ...] = ()  # (role, filler) pairs


@record(frozen=True)
class QAInstance:
    question: str
    options: Optional[tuple[tuple[str, str], ...]] = None  # ordered (key, text) pairs
    answer_keys: tuple[str, ...] = ()
    context: Optional[str] = None


@record(frozen=True)
class DialogueTurn:
    speaker: str  # "user" | "assistant"
    text: str


@record(frozen=True)
class TextPairInstance:
    text_a: str
    text_b: str
    label: Optional[str] = None


@record(frozen=True)
class TranslationPair:
    text_a: str
    text_b: str
    source_lang: Language = Language.EN
    target_lang: Language = Language.ZH


# The two training stages a dataset can be assigned to (see ``staging``).
TYPE1 = "Type1"
TYPE2 = "Type2"


@record(frozen=True)
class DatasetDescriptor:
    """One registry row.

    Beyond the core metadata, optional fields drive downstream behavior:
    ``label_vocab`` is the dataset's declared vocabulary in registry order
    (entity types for NER, relation types for RE, class labels for TC);
    ``role_vocab`` the event role vocabulary; ``stage_override`` forces a
    dataset into training stage Type1/Type2 regardless of its task;
    ``general_dialogue`` marks open-domain dialogue rows; ``re_untyped``
    selects the binary ``[head, tail]`` relation output grammar with
    ``prompted_relation`` supplying the implied relation type.
    """

    id: str
    name: str
    task: TaskType
    language: Language
    split_counts: dict[str, int] = Factory(dict)
    description: str = ""
    source_url: Optional[str] = None
    label_vocab: tuple[str, ...] = ()
    role_vocab: tuple[str, ...] = ()
    stage_override: Optional[str] = None  # TYPE1 | TYPE2
    general_dialogue: bool = False
    re_untyped: bool = False
    prompted_relation: Optional[str] = None

    def __post_init__(self):
        for split, n in self.split_counts.items():
            if n < 0:
                raise ValueError(f"dataset {self.id!r}: split_counts[{split!r}] must be >= 0, got {n}")
        if self.stage_override not in (None, TYPE1, TYPE2):
            raise ValueError(f"dataset {self.id!r}: stage_override must be {TYPE1!r} or {TYPE2!r}, "
                             f"got {self.stage_override!r}")
        # an untyped pair's relation is the prompted one, else the vocabulary's only entry
        if (self.task is TaskType.RE and self.re_untyped and self.prompted_relation is None
                and len(self.label_vocab) != 1):
            raise ValueError(f"dataset {self.id!r}: re_untyped needs a prompted_relation or one "
                             f"label_vocab entry, got {len(self.label_vocab)}")
        keys = [v.strip().lower() for v in self.label_vocab]  # the parsers' key of an entry
        if bad := [v for v, k in zip(self.label_vocab, keys) if not v or v != v.strip() or keys.count(k) > 1]:
            raise ValueError(f"dataset {self.id!r}: label_vocab entries must be non-empty, trimmed and "
                             f"distinct ignoring case, got {', '.join(map(repr, bad))}")


@record(frozen=True)
class UnifiedDocument:
    """One harmonized annotated text unit.

    Exactly the payload fields relevant to the dataset's task type are
    populated; :func:`validate_document` enforces this.
    """

    doc_id: str
    dataset_id: str
    language: Language
    text: str
    entities: tuple[EntityMention, ...] = ()
    relations: tuple[RelationTriple, ...] = ()
    events: tuple[EventFrame, ...] = ()
    labels: tuple[str, ...] = ()
    qa: Optional[QAInstance] = None
    dialogue: Optional[tuple[DialogueTurn, ...]] = None
    pair: Optional[TextPairInstance] = None
    translation: Optional[TranslationPair] = None


# Payload fields of a document, in field order.
PAYLOAD_FIELDS = ("entities", "relations", "events", "labels", "qa", "dialogue", "pair", "translation")


@record(frozen=True)
class TaskSpec:
    """The data facts of one task type.

    ``payloads`` are the document fields the task may populate and
    ``required`` the one that must be non-None, if any; ``group`` is the task
    group of the statistics table; ``type2`` marks QA and dialogue tasks,
    whose instruction is the question itself and which train in stage 2 only.
    What a task's text looks like is its row of ``evaluation.GRAMMARS``.
    """

    payloads: frozenset[str]
    group: str
    required: Optional[str] = None
    type2: bool = False


_RELATIONS = TaskSpec(frozenset({"entities", "relations"}), "Relation Extraction")
_QA = TaskSpec(frozenset({"qa"}), "Biomedical Question Answering", required="qa", type2=True)
_PAIR = TaskSpec(frozenset({"pair"}), "Text Pair Task", required="pair")
_TEXT_TO_TEXT = TaskSpec(frozenset({"pair"}), "Other Additional Tasks", required="pair")

TASKS: dict[TaskType, TaskSpec] = {
    TaskType.NER_NEN: TaskSpec(frozenset({"entities"}), "Named Entity Recognition"),
    TaskType.RE: _RELATIONS,
    TaskType.CRE: _RELATIONS,
    TaskType.COREF: _RELATIONS,
    TaskType.EE: TaskSpec(frozenset({"entities", "events"}), "Event Extraction"),
    TaskType.TC: TaskSpec(frozenset({"labels"}), "Text Classification"),
    TaskType.QA_MC: _QA,
    TaskType.QA_SQA: _QA,
    TaskType.QA_CQA: _QA,
    TaskType.MRD: TaskSpec(frozenset({"dialogue"}), "Biomedical Multi-Round Dialogue", required="dialogue",
                           type2=True),
    TaskType.MT: TaskSpec(frozenset({"translation"}), "Machine Translation", required="translation"),
    TaskType.TP_SS: _PAIR,
    TaskType.TP_TE: _PAIR,
    TaskType.TT_DS: _TEXT_TO_TEXT,
    TaskType.TT_TS: _TEXT_TO_TEXT,
}


@record(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


def _payload_populated(doc: UnifiedDocument, name: str) -> bool:
    value = getattr(doc, name)  # the item tuples count when non-empty, the rest when set
    return value is not None and (name not in ("entities", "relations", "events", "labels") or len(value) > 0)


def validate_document(doc: UnifiedDocument, desc: DatasetDescriptor) -> ValidationResult:
    """Check every schema invariant of ``doc`` against its dataset descriptor.

    Pure and deterministic.  Violations are data, not failures: each names the
    offending field and the rule broken.  Field types are not checked here:
    :func:`from_dict` decodes no value of the wrong type.
    """
    v: list[str] = []
    if not doc.doc_id:
        v.append("doc_id: must be non-empty")
    if doc.dataset_id != desc.id:
        v.append(f"dataset_id: {doc.dataset_id!r} does not match registry row {desc.id!r}")
    if doc.language != desc.language:
        v.append(f"language: document {doc.language.value} vs dataset {desc.language.value}")

    spec = TASKS[desc.task]
    for name in PAYLOAD_FIELDS:
        if name not in spec.payloads and _payload_populated(doc, name):
            v.append(f"{name}: payload/task mismatch for task {desc.task.value}")
    required = spec.required
    if required is not None and getattr(doc, required) is None:
        v.append(f"{required}: required payload missing for task {desc.task.value}")

    n = len(doc.text)
    surfaces = {e.surface for e in doc.entities}
    for e in doc.entities:
        if not (0 <= e.start < e.end):
            v.append(f"entities: span [{e.start},{e.end}) is not a valid range")
        elif e.end > n:
            v.append(f"entities: span [{e.start},{e.end}) out of bounds for text of length {n}")
        elif doc.text[e.start:e.end] != e.surface:
            v.append(f"entities: text[{e.start}:{e.end}]={doc.text[e.start:e.end]!r} != surface {e.surface!r}")

    for r in doc.relations:
        if not r.head or not r.tail:
            v.append("relations: head and tail must be non-empty")
            continue
        for arg in (r.head, r.tail):
            if arg not in surfaces and arg not in doc.text:
                v.append(f"relations: argument {arg!r} not among entity surfaces or in text")

    for ev in doc.events:
        if not ev.event_type:
            v.append("events: event_type must be non-empty")
        if ev.trigger and ev.trigger not in surfaces and ev.trigger not in doc.text:
            v.append(f"events: trigger {ev.trigger!r} not among entity surfaces or in text")
        for role, filler in ev.arguments:
            if desc.role_vocab and role not in desc.role_vocab:
                v.append(f"events: role {role!r} not in declared role vocabulary")
            if filler not in surfaces and filler not in doc.text:
                v.append(f"events: argument filler {filler!r} not among entity surfaces or in text")

    if doc.qa is not None and required == "qa":
        if not doc.qa.question.strip() and not (doc.qa.context or "").strip():
            v.append("qa: question must be non-blank unless a context is given")
        if not doc.qa.answer_keys:
            v.append("qa: answer_keys must be non-empty")
        for a in doc.qa.answer_keys:
            if not a.strip():
                v.append(f"qa: answer key {a!r} is blank")
        if desc.task is TaskType.QA_MC:
            if not doc.qa.options:
                v.append("qa: options must be non-empty for multiple-choice QA")
            else:
                keys = {k for k, _ in doc.qa.options}
                for a in doc.qa.answer_keys:
                    if a not in keys:
                        v.append(f"qa: answer key {a!r} not among option keys")

    if doc.dialogue is not None:
        for i, turn in enumerate(doc.dialogue):
            if turn.speaker not in ("user", "assistant"):
                v.append(f"dialogue: turn {i} has unknown speaker {turn.speaker!r}")
            if not turn.text:
                v.append(f"dialogue: turn {i} has empty text")
        if not any(turn.speaker == "assistant" for turn in doc.dialogue):
            v.append("dialogue: needs at least one assistant turn")  # the last one is the gold output

    if doc.pair is not None:
        if not doc.pair.text_a or not doc.pair.text_b:
            v.append("pair: both texts must be non-empty")
        if desc.task in (TaskType.TP_SS, TaskType.TP_TE) and not (doc.pair.label or "").strip():
            v.append(f"pair: label must be non-blank for task {desc.task.value}")  # the gold output
    if doc.translation is not None and (not doc.translation.text_a or not doc.translation.text_b):
        v.append("translation: both texts must be non-empty")

    return ValidationResult(ok=not v, violations=tuple(v))


def is_directory_name(name: str) -> bool:
    """Whether ``name`` is exactly one path component, as a name that a
    command puts in an output path must be."""
    return name not in ("", ".", "..") and "/" not in name and os.sep not in name and "\0" not in name


@contextlib.contextmanager
def atomic_writer(path: Path | str, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for UTF-8 text writing (bytes if ``binary``) so that it
    appears whole or not at all: the body writes ``<name>.tmp`` beside it,
    which then replaces ``path``.  If the body raises, the temp file and the
    directories made for it are removed, and an earlier ``path`` is left as
    it was.  A ``path`` that is a directory raises ``ValueError`` before
    anything is written."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path}: output path is a directory")
    made = []  # the missing ancestors of ``path``, deepest first
    for parent in path.parents:
        if parent.exists():
            break
        made.append(parent)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (tmp.open("wb") if binary else tmp.open("w", encoding="utf-8")) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for directory in made:
            with contextlib.suppress(OSError):  # another writer's file is in it
                directory.rmdir()
        raise


@record
class LineSpans:
    """Where rows' lines are, in columns indexed by row number: row ``r`` is
    ``lengths[r]`` bytes from byte ``starts[r]`` of ``sources[f]``, the first
    file whose ``file_ends[f]`` (one past its last row) is above ``r``."""

    sources: list = Factory(list)
    file_ends: list = Factory(list)
    starts: array = Factory(lambda: array("q"))
    lengths: array = Factory(lambda: array("q"))

    def lines(self, rows: Iterable[int]) -> Iterator[tuple[str, int, int]]:
        """The ``(source, start, length)`` span of each of ``rows``, as
        :func:`copy_lines` takes them."""
        return ((self.sources[bisect_right(self.file_ends, r)], self.starts[r], self.lengths[r])
                for r in rows)


def first_rows(n: int, same: Callable[[int, int], bool]) -> Callable[[int, int], int]:
    """``first(row, h)``: the first row given with a key equal to ``row``'s,
    ``row`` itself if there is none yet, for up to ``n`` rows and ``h`` the
    hash of ``row``'s key.  One open-addressing table of row numbers, sized
    once (at most 2/3 full, linear probing); ``same(first, row)`` confirms
    each taken slot, so a hash collision never merges two keys.
    ``first.probe(h)`` inserts nothing: it gives the rows whose slots a key
    of hash ``h`` passes, in probe order, for its caller to confirm."""
    size = 16
    while 3 * n > 2 * size:
        size *= 2
    mask = size - 1
    table = array("i", [-1]) * size  # slot -> a first row, or -1

    def first(row: int, h: int) -> int:
        slot = h & mask
        while (found := table[slot]) >= 0:
            if same(found, row):
                return found
            slot = (slot + 1) & mask
        table[slot] = row
        return row

    def probe(h: int) -> Iterator[int]:
        slot = h & mask
        while (found := table[slot]) >= 0:
            yield found
            slot = (slot + 1) & mask
    first.probe = probe
    return first


_BLOCK = 1 << 16  # bytes of rows written (copy_lines) or read (a last_rows find) at once


def copy_lines(path: Path | str, lines: Iterable[tuple[str, int, int]], since: str = "read") -> int:
    """Write each ``(source, start, length)`` byte span of a source file, plus
    a newline, to ``path`` through a binary :func:`atomic_writer`: lines are
    copied, not re-encoded.  Each span is read by one ``os.pread``, and the
    rows are written in blocks of about 64 KiB (a block ends with the row
    that reaches it), so memory holds one block.  A span past the end of its
    source raises ``ValueError``: ``<source>: file changed since it was
    <since>``.  Returns the number of lines written."""
    n = 0
    with contextlib.ExitStack() as sources, atomic_writer(path, binary=True) as f:
        fds = {}
        block, size = [], 0
        for source, start, length in lines:
            fd = fds.get(source)
            if fd is None:
                fd = fds[source] = sources.enter_context(open(source, "rb")).fileno()
            row = os.pread(fd, length, start)
            if len(row) != length:
                raise ValueError(f"{source}: file changed since it was {since}")
            block.append(row)
            size += length + 1
            n += 1
            if size >= _BLOCK:
                f.write(b"\n".join([*block, b""]))
                block, size = [], 0
        f.write(b"\n".join([*block, b""]))
    return n


def _line_values(source: str, line: bytes, length: int, decode: Callable) -> tuple:
    """``decode`` of a row's ``line``, read again from ``source``, where it
    was ``length`` bytes, else ``<source>: file changed since it was read``."""
    if len(line) == length:
        try:
            rec, stop = _scan(text := line.decode("utf-8").strip(), 0)  # as read_jsonl does
            if stop == len(text):
                return decode(rec)
        except (ValueError, StopIteration):
            pass
    raise ValueError(f"{source}: file changed since it was read")


# The hash of an id in a :func:`last_rows` table, whose re-read rows confirm it.
_id_hash = hash


def last_rows(path: Path | str, cls, fields: tuple[str, ...], spans: LineSpans, keys: Iterable[str]) -> tuple:
    """Find each key's last row among the rows ``read_jsonl(path, cls,
    spans=spans, ...)`` read, given their keys (each row's ``fields[0]``) in
    order as ``keys``: the rows go last first through one :func:`first_rows`
    table of the keys' hashes, and a hash match counts only once both keys,
    read again, are equal.  Each earlier row of a key takes its last row's
    span.  Returns ``(finder, distinct, repeated)``: the numbers of distinct
    and of repeated keys, and ``finder(fd)``, ``path`` open as ``fd``, whose
    ``find(key)`` gives ``key``'s last row and ``fields``, or ``None``.  It
    tries the row after the one it last found first, read from a 64 KiB
    block; another key, or an earlier row of a repeated one, falls back to
    the table's probe, which reads each row by one ``os.pread``."""
    source, decode = str(path), _decoder(cls, fields)
    hashes, starts, lengths = array("q", map(_id_hash, keys)), spans.starts, spans.lengths
    n = len(hashes)

    def at(fd: int, row: int) -> tuple:
        return _line_values(source, os.pread(fd, lengths[row], starts[row]), lengths[row], decode)

    def finder(fd: int) -> Callable:
        block, offset, after = b"", 0, 0  # bytes read from offset; the row after the last found

        def find(key: str) -> Optional[tuple[int, tuple]]:
            nonlocal block, offset, after
            h, row = _id_hash(key), after
            if row < n and hashes[row] == h and marks[row] != 1:
                start, length = starts[row] - offset, lengths[row]
                if start < 0 or start + length > len(block):
                    block, offset, start = os.pread(fd, max(_BLOCK, length), starts[row]), starts[row], 0
                if (values := _line_values(source, block[start:start + length], length, decode))[0] == key:
                    after = row + 1
                    return row, values
            for row in last.probe(h):
                if hashes[row] == h and (values := at(fd, row))[0] == key:
                    after = row + 1
                    return row, values
            return None
        return find

    marks, distinct = bytearray(n), 0  # 1: a later row repeats the row's key; 2: the last row of such a key
    with open(path, "rb") as f:
        fd = f.fileno()
        last = first_rows(n, lambda a, b: hashes[a] == hashes[b] and at(fd, a)[0] == at(fd, b)[0])
        for row in reversed(range(n)):
            if (found := last(row, hashes[row])) == row:
                distinct += 1
            else:
                marks[row], marks[found] = 1, 2
                starts[row], lengths[row] = starts[found], lengths[found]
    return finder, distinct, marks.count(2)


def write_json(path: Path | str, obj) -> None:
    """Write one indented JSON document, through :func:`atomic_writer`."""
    with atomic_writer(path) as f:
        f.write(json.dumps(obj, indent=2, ensure_ascii=False, default=str) + "\n")


def _write_lines(path: Path | str, lines: Iterable[str]) -> int:
    n = 0
    with atomic_writer(path) as f:
        for line in lines:
            f.write(line + "\n")
            n += 1
    return n


def write_jsonl(path: Path | str, records: Iterable[dict]) -> int:
    """Write dicts as UTF-8 JSONL, keys in the order given, through
    :func:`atomic_writer`; returns the number of lines written."""
    return _write_lines(path, map(_dump_record, records))


def write_records(path: Path | str, records: Iterable) -> int:
    """Write records as UTF-8 JSONL, keys sorted, each line the text its
    class's :func:`_writer` makes, through :func:`atomic_writer`; returns
    the number of lines written."""
    return _write_lines(path, (_writer(type(rec))(rec) for rec in records))


# Parses a stripped line in one scan of the decoder's scanner (StopIteration: no
# value starts); ``json.loads`` runs only on a line that is not one JSON value,
# to raise the error it always gave (a BOM, "Extra data", the column).
_scan = json.JSONDecoder().scan_once


def read_jsonl(path: Path | str, cls=None, *, spans: Optional[LineSpans] = None,
               fields: Iterable[str] = ()) -> Iterator:
    """Parse each non-blank line of a UTF-8 JSONL file, decoded as a ``cls``
    record when ``cls`` is given.  With ``fields`` (names of ``cls``
    fields), each line is decoded and checked as a ``cls`` record would be,
    but the item is the tuple of those fields' values, in that order, and no
    record is built; a class with a ``__post_init__`` rule check raises
    ``TypeError``.  Given ``spans``, the file and each record's line, without
    the edge whitespace its decoded text is stripped of, are appended to
    those columns before the
    record is yielded, and a pipe raises ``<path>: not a regular file``
    before it is read.  A line that is not UTF-8, not JSON or does not fit
    ``cls`` raises ``ValueError`` naming the path and line:
    ``<path>:<line>: <message>``.  So does a ``ValueError`` a caller throws
    into the generator (``gen.throw``) about the record it was last given."""
    decode = None if cls is None else _decoder(cls, tuple(fields))
    # a span is read again, which a pipe cannot give; a directory fails at the open
    if spans is not None and not (stat.S_ISREG(mode := os.stat(path).st_mode) or stat.S_ISDIR(mode)):
        raise ValueError(f"{path}: not a regular file")
    with Path(path).open("rb") as f:
        if spans is not None:
            spans.sources.append(str(path))
        # counted by hand: enumerate's tuple would keep each raw line alive one line
        # longer, which raised plan's peak RSS by 1.3 MiB on plan-reference
        line_no = end = 0
        try:
            for raw in f:
                line_no += 1
                start, end = end, end + len(raw)
                line = raw.decode("utf-8")
                chars, line = len(line), line.strip()  # chars: its length before the strip
                if line:
                    try:
                        rec, stop = _scan(line, 0)
                    except (ValueError, StopIteration):
                        stop = -1
                    if stop != len(line):
                        rec = json.loads(line)
                    if decode is not None:
                        rec = decode(rec)
                    if spans is not None:
                        lead, length = len(raw) - len(raw.lstrip()), len(raw.strip())
                        if chars - len(line) != len(raw) - length:  # it took a space bytes.strip keeps (U+3000)
                            length = len(line.encode("utf-8"))
                            lead = len(raw) - len(raw.decode("utf-8").lstrip().encode("utf-8"))
                        spans.starts.append(start + lead)
                        spans.lengths.append(length)
                    yield rec
            if spans is not None:
                spans.file_ends.append(len(spans.starts))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: {exc.msg} (column {exc.colno})") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None


def read_documents(path: Path | str) -> list[UnifiedDocument]:
    return list(read_jsonl(path, UnifiedDocument))


@record(frozen=True)
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


def read_instances(path: Path | str) -> list[InstructionInstance]:
    return list(read_jsonl(path, InstructionInstance))


# names of the one record writer, which ``cli`` calls and the benchmark's tracer swaps
write_documents = write_instances = write_records


def _add_rows(into, path: Path | str, cls):
    """``into``, with each ``cls`` row of the JSONL file ``path`` added in
    order by ``into.add``; a row that ``add`` refuses (a repeated id) raises
    its ``ValueError`` named by its line: ``<path>:<line>: <message>``."""
    rows = read_jsonl(path, cls)
    for row in rows:
        try:
            into.add(row)
        except ValueError as exc:
            rows.throw(exc)
    return into


class Registry:
    """Ordered collection of dataset descriptors with unique ids."""

    def __init__(self, descriptors: Iterable[DatasetDescriptor] = ()):
        self._rows: dict[str, DatasetDescriptor] = {}
        for desc in descriptors:
            self.add(desc)

    def add(self, desc: DatasetDescriptor) -> None:
        if desc.id in self._rows:
            raise ValueError(f"duplicate dataset id {desc.id!r} in registry")
        self._rows[desc.id] = desc

    def __getitem__(self, dataset_id: str) -> DatasetDescriptor:
        try:
            return self._rows[dataset_id]
        except KeyError:
            raise ValueError(f"dataset id {dataset_id!r} not in registry") from None

    def get(self, dataset_id: str) -> Optional[DatasetDescriptor]:
        return self._rows.get(dataset_id)

    def __contains__(self, dataset_id: str) -> bool:
        return dataset_id in self._rows

    def __iter__(self) -> Iterator[DatasetDescriptor]:
        return iter(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)

    @classmethod
    def load(cls, path: Path | str) -> "Registry":
        return _add_rows(cls(), path, DatasetDescriptor)

    def save(self, path: Path | str) -> int:
        return write_records(path, self)
