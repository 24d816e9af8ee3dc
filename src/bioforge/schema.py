"""Harmonized task schema shared by every pipeline stage.

All corpora, whatever their source format, are normalized into
:class:`UnifiedDocument` values; a :class:`DatasetDescriptor` registry row
carries per-dataset metadata (task type, language, split sizes, declared
label vocabulary).  Values are immutable after construction and safe to
share across workers.  :data:`TASKS` holds the data facts of every task
type in one table.

On-disk encoding is UTF-8 JSONL, one record per line; the registry is a
single JSONL file of descriptor rows.  One codec, :func:`to_dict` /
:func:`from_dict`, maps every record dataclass to JSON and back, driven by
its fields and their type hints: keys are the field names, tuples become
lists, enums become their values, nested records become objects, and a key
absent on input takes the field's default.  It is the one type check of
JSON input: a field takes only a value of its exact type (``true`` is no
int), ``null`` only if ``Optional``, and each tuple item and dict value is
checked; a missing required key or a mistyped value raises ``ValueError``
naming the class and field, which :func:`read_jsonl` prefixes with
``<path>:<line>:``.  Every output file is written through
:func:`atomic_writer`, so it appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import operator
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

from .errors import UnknownDataset


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RelationTriple:
    head: str
    tail: str
    rtype: str


@dataclass(frozen=True)
class EventFrame:
    event_type: str
    trigger: str
    arguments: tuple[tuple[str, str], ...] = ()  # (role, filler) pairs


@dataclass(frozen=True)
class QAInstance:
    question: str
    options: Optional[tuple[tuple[str, str], ...]] = None  # ordered (key, text) pairs
    answer_keys: tuple[str, ...] = ()
    context: Optional[str] = None


@dataclass(frozen=True)
class DialogueTurn:
    speaker: str  # "user" | "assistant"
    text: str


@dataclass(frozen=True)
class TextPairInstance:
    text_a: str
    text_b: str
    label: Optional[str] = None


@dataclass(frozen=True)
class TranslationPair:
    text_a: str
    text_b: str
    source_lang: Language = Language.EN
    target_lang: Language = Language.ZH


# The two training stages a dataset can be assigned to (see ``staging``).
TYPE1 = "Type1"
TYPE2 = "Type2"


@dataclass(frozen=True)
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
    split_counts: dict[str, int] = field(default_factory=dict)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TaskSpec:
    """The data facts of one task type.

    ``payloads`` are the document fields the task may populate and
    ``required`` the one that must be non-None, if any; ``group`` is the task
    group of the statistics table; ``type2`` marks QA and dialogue tasks,
    whose instruction is the question itself and which train in stage 2 only;
    ``empty`` maps a language to the gold output of a document with no
    annotations, for tasks that have one.  How each task's output is written,
    read back and scored is its row of ``evaluation.GRAMMARS``.
    """

    payloads: frozenset[str]
    group: str
    required: Optional[str] = None
    type2: bool = False
    empty: dict[Language, str] = field(default_factory=dict)


_RELATIONS = TaskSpec(
    frozenset({"entities", "relations"}), "Relation Extraction",
    empty={Language.EN: "No relations found.", Language.ZH: "未识别出关系。"},
)
_QA = TaskSpec(frozenset({"qa"}), "Biomedical Question Answering", required="qa", type2=True)
_PAIR = TaskSpec(frozenset({"pair"}), "Text Pair Task", required="pair")
_TEXT_TO_TEXT = TaskSpec(frozenset({"pair"}), "Other Additional Tasks", required="pair")

TASKS: dict[TaskType, TaskSpec] = {
    TaskType.NER_NEN: TaskSpec(
        frozenset({"entities"}), "Named Entity Recognition",
        empty={Language.EN: "No entities found.", Language.ZH: "未识别出实体。"},
    ),
    TaskType.RE: _RELATIONS,
    TaskType.CRE: _RELATIONS,
    TaskType.COREF: _RELATIONS,
    TaskType.EE: TaskSpec(
        frozenset({"entities", "events"}), "Event Extraction",
        empty={Language.EN: "No events found.", Language.ZH: "未识别出事件。"},
    ),
    TaskType.TC: TaskSpec(
        frozenset({"labels"}), "Text Classification",
        empty={Language.EN: "No label.", Language.ZH: "无类别。"},
    ),
    TaskType.QA_MC: _QA,
    TaskType.QA_SQA: _QA,
    TaskType.QA_CQA: _QA,
    TaskType.MRD: TaskSpec(
        frozenset({"dialogue"}), "Biomedical Multi-Round Dialogue", required="dialogue", type2=True
    ),
    TaskType.MT: TaskSpec(frozenset({"translation"}), "Machine Translation", required="translation"),
    TaskType.TP_SS: _PAIR,
    TaskType.TP_TE: _PAIR,
    TaskType.TT_DS: _TEXT_TO_TEXT,
    TaskType.TT_TS: _TEXT_TO_TEXT,
}


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


def _payload_populated(doc: UnifiedDocument, name: str) -> bool:
    value = getattr(doc, name)
    if value is None:
        return False
    if name in ("entities", "relations", "events", "labels"):
        return len(value) > 0
    return True


def validate_document(doc: UnifiedDocument, desc: DatasetDescriptor) -> ValidationResult:
    """Check every schema invariant of ``doc`` against its dataset descriptor.

    Pure and deterministic.  Violations are data, not failures: each names the
    offending field and the rule broken.  Field types are not checked here:
    :func:`from_dict` decodes no value of the wrong type.
    """
    v: list[str] = []
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
            v.append(
                f"entities: text[{e.start}:{e.end}]={doc.text[e.start:e.end]!r} != surface {e.surface!r}"
            )

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

    if doc.qa is not None:
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

    if doc.pair is not None and (not doc.pair.text_a or not doc.pair.text_b):
        v.append("pair: both texts must be non-empty")
    if doc.translation is not None and (not doc.translation.text_a or not doc.translation.text_b):
        v.append("translation: both texts must be non-empty")

    return ValidationResult(ok=not v, violations=tuple(v))


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------


def _mistyped(expected: str, value) -> ValueError:
    return ValueError(f"expected {expected}, got {value!r:.40}")


def _checked(json_type: type, convert: Optional[Callable] = None) -> Callable:
    """A decoder that takes only a value of exactly ``json_type``."""
    def decode(v):
        if type(v) is not json_type:
            raise _mistyped(json_type.__name__, v)
        return v if convert is None else convert(v)
    return decode


def _codec(tp) -> tuple[Optional[Callable], Callable]:
    """``(encode, decode)`` for a non-None value of type ``tp``.  ``encode`` is
    None for a plain value (str, int, float, bool), written as it is;
    ``decode`` raises ``ValueError`` for a JSON value that does not fit."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _codec(args[0])
        return ((list if enc is None else lambda v: list(map(enc, v))),
                _checked(list, lambda v: tuple(map(dec, v))))
    if origin is tuple:  # fixed-size tuple of plain values, e.g. a (key, text) pair
        decs = [_codec(a)[1] for a in args]

        def decode_fixed(v):
            if type(v) is not list or len(v) != len(decs):
                raise _mistyped(f"list of {len(decs)}", v)
            return tuple(dec(x) for dec, x in zip(decs, v))
        return list, decode_fixed
    if origin is dict:  # JSON object keys are strings; each value is checked
        dec = _codec(args[1])[1]
        return dict, _checked(dict, lambda v: {k: dec(x) for k, x in v.items()})
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode_enum(v):
            if type(v) is str and v in members:
                return members[v]
            raise _mistyped(tp.__name__, v)
        return operator.attrgetter("value"), decode_enum
    if is_dataclass(tp):
        return _encoder(tp), _decoder(tp)
    return None, _checked(tp)


_ABSENT = object()  # what ``dict.get`` gives for a key the JSON object lacks


@functools.cache
def _plan(cls) -> list[tuple]:
    """Per field of ``cls``, in order: name, encoder, decoder, its type if plain
    (else None), whether it may be None, and a callable that gives an absent
    key's value afresh for each record (MISSING if the key is required)."""
    hints = get_type_hints(cls)
    plan = []
    for f in fields(cls):
        hint = hints[f.name]
        nullable = get_origin(hint) is Union  # Optional[X]
        if nullable:
            hint = get_args(hint)[0]
        default = f.default_factory if f.default is MISSING else lambda v=f.default: v
        enc, dec = _codec(hint)
        plan.append((f.name, enc, dec, hint if enc is None else None, nullable, default))
    return plan


@functools.cache
def _encoder(cls) -> Callable:
    plan = [(name, enc) for name, enc, *_ in _plan(cls)]

    def encode(obj) -> dict:
        d = {}
        for name, enc in plan:
            value = getattr(obj, name)
            d[name] = value if enc is None or value is None else enc(value)
        return d
    return encode


@functools.cache
def _decoder(cls) -> Callable:
    plan = [(name, plain, dec, nullable, default) for name, _, dec, plain, nullable, default in _plan(cls)]

    def decode(d):
        if type(d) is not dict:
            raise _mistyped(cls.__name__, d)
        args = []
        try:
            for name, plain, dec, nullable, default in plan:
                value = d.get(name, _ABSENT)
                # a plain value of its exact type is checked inline: no call
                if type(value) is not plain:
                    if value is _ABSENT:
                        if default is MISSING:
                            raise ValueError("required key missing")
                        value = default()
                    elif value is not None or not nullable:
                        value = dec(value)
                args.append(value)
        except ValueError as exc:
            raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        return cls(*args)  # positional: faster than keywords, same field order
    return decode


def to_dict(obj) -> dict:
    """Encode a record dataclass as a JSON-ready dict (see the module docstring)."""
    return _encoder(type(obj))(obj)


def from_dict(cls, d):
    """Decode a JSON value into a ``cls`` record (see the module docstring)."""
    return _decoder(cls)(d)


@contextlib.contextmanager
def atomic_writer(path: Path | str, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for UTF-8 text writing (bytes if ``binary``) so that it
    appears whole or not at all: the body writes ``<name>.tmp`` beside it,
    which then replaces ``path``.  If the body raises, the temp file is
    removed and an earlier ``path`` is left as it was.  A ``path`` that is a
    directory raises ``ValueError`` before anything is written."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path}: output path is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (tmp.open("wb") if binary else tmp.open("w", encoding="utf-8")) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path | str, obj) -> None:
    """Write one indented JSON document, through :func:`atomic_writer`."""
    with atomic_writer(path) as f:
        f.write(json.dumps(obj, indent=2, ensure_ascii=False, default=str) + "\n")


def write_jsonl(path: Path | str, records: Iterable[dict]) -> int:
    """Write dicts as UTF-8 JSONL, through :func:`atomic_writer`; returns
    the number of lines written."""
    n = 0
    with atomic_writer(path) as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


def read_jsonl(path: Path | str, cls=None, *, spans: bool = False) -> Iterator:
    """Parse each non-blank line of a UTF-8 JSONL file, decoded as a ``cls``
    record when ``cls`` is given.  With ``spans``, each item is ``(record,
    start, length)``: the byte span of the record's line in the file, without
    its edge ASCII whitespace.  A line that is not UTF-8, not JSON or does
    not fit ``cls`` raises ``ValueError`` naming the path and line:
    ``<path>:<line>: <message>``.  So does a ``ValueError`` a caller throws
    into the generator (``gen.throw``) about the record it was last given."""
    decode = None if cls is None else _decoder(cls)
    with Path(path).open("rb") as f:
        # counted by hand: enumerate's result tuple would keep each raw line
        # alive one line longer, which raised `bioforge plan`'s peak RSS by
        # 1.3 MiB on the benchmark's plan-reference workload
        line_no = end = 0
        try:
            for raw in f:
                line_no += 1
                start, end = end, end + len(raw)
                line = raw.decode("utf-8").strip()
                if line:
                    rec = json.loads(line)
                    if decode is not None:
                        rec = decode(rec)
                    if spans:
                        lead = len(raw) - len(raw.lstrip())
                        rec = (rec, start + lead, len(raw.rstrip()) - lead)
                    yield rec
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{line_no}: {exc.msg} (column {exc.colno})") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None


def read_json(path: Path | str, cls):
    """Decode the JSON document in ``path`` as one ``cls`` record; errors name ``path``."""
    try:
        return from_dict(cls, json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_documents(path: Path | str, docs: Iterable[UnifiedDocument]) -> int:
    return write_jsonl(path, map(to_dict, docs))


def read_documents(path: Path | str) -> list[UnifiedDocument]:
    return list(read_jsonl(path, UnifiedDocument))


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
    return list(read_jsonl(path, InstructionInstance))


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
            raise UnknownDataset(dataset_id) from None

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
        registry = cls()
        for desc in read_jsonl(path, DatasetDescriptor):
            try:
                registry.add(desc)
            except ValueError as exc:  # a duplicate id
                raise ValueError(f"{path}: {exc}") from None
        return registry

    def save(self, path: Path | str) -> int:
        return write_jsonl(path, map(to_dict, self))
