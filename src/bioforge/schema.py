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
its fields and their type hints: keys are the field names, in sorted order
(a dict field's keys too), tuples become lists, enums become their values,
nested records become objects, and a key absent on input takes the field's
default.  It is the one type check of JSON input: a field takes only a
value of its exact type (``true`` is no int), ``null`` only if
``Optional``, and each tuple item and dict value is checked; a missing
required key or a mistyped value raises ``ValueError`` naming the class and
field, which :func:`read_jsonl` prefixes with ``<path>:<line>:``.

The codec of a record class is one generated straight-line function each
way, built from its fields on first use, never at import.  Because its keys
come out sorted, :func:`write_records` writes each record line through one
reused JSON encoder with no sort pass; :func:`read_jsonl` parses each line
with one JSON scan.  Every output file is written through
:func:`atomic_writer`, so it appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
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


def _decode_fn(tp) -> Callable:
    """The decoder of a non-None JSON value of type ``tp``: it raises
    ``ValueError`` for a value that does not fit."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _decode_fn(args[0])
        return _checked(list, lambda v: tuple(map(item, v)))
    if origin is tuple:  # fixed-size tuple of plain values, e.g. a (key, text) pair
        decs = [_decode_fn(a) for a in args]

        def decode_fixed(v):
            if type(v) is not list or len(v) != len(decs):
                raise _mistyped(f"list of {len(decs)}", v)
            return tuple(dec(x) for dec, x in zip(decs, v))
        return decode_fixed
    if origin is dict:  # JSON object keys are strings; each value is checked
        value = _decode_fn(args[1])
        return _checked(dict, lambda v: {k: value(x) for k, x in v.items()})
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode_enum(v):
            if type(v) is str and v in members:
                return members[v]
            raise _mistyped(tp.__name__, v)
        return decode_enum
    if is_dataclass(tp):
        return _decoder(tp)
    return _checked(tp)


def _encode_expr(tp, var: str, ns: dict) -> str:
    """Source of an expression that encodes the non-None value ``var`` of
    type ``tp``; the helpers it calls are added to ``ns``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        item = _encode_expr(args[0], "i", ns)
        return f"list({var})" if item == "i" else f"[{item} for i in {var}]"
    if origin is tuple:  # fixed-size tuple of plain values
        return f"list({var})"
    if origin is dict:  # sorted, as the keys of a record are
        return f"dict(sorted({var}.items()))"
    if isinstance(tp, type) and issubclass(tp, Enum):
        return f"{var}.value"
    if is_dataclass(tp):
        name = f"_enc_{tp.__name__}"
        ns[name] = _encoder(tp)
        return f"{name}({var})"
    return var


def _compile(name: str, lines: list[str], ns: dict) -> Callable:
    exec("\n".join(lines), ns)  # noqa: S102 (source built from field names and type hints only)
    return ns[name]


_ABSENT = object()  # what ``dict.get`` gives for a key the JSON object lacks


@functools.cache
def _plan(cls) -> list[tuple]:
    """Per field of ``cls``, in order: name, type (``X`` of ``Optional[X]``),
    whether it may be None, and a callable that gives an absent key's value
    afresh for each record (MISSING if the key is required)."""
    hints = get_type_hints(cls)
    plan = []
    for f in fields(cls):
        hint = hints[f.name]
        nullable = get_origin(hint) is Union  # Optional[X]
        if nullable:
            hint = get_args(hint)[0]
        default = f.default_factory if f.default is MISSING else lambda v=f.default: v
        plan.append((f.name, hint, nullable, default))
    return plan


@functools.cache
def _encoder(cls) -> Callable:
    """One generated function per record class: a dict display of its
    fields in sorted key order, each encoded inline."""
    ns: dict = {}
    items = []
    for name, hint, _, _ in sorted(_plan(cls)):
        expr = _encode_expr(hint, "x", ns)
        value = f"o.{name}" if expr == "x" else f"None if (x := o.{name}) is None else {expr}"
        items.append(f"{name!r}: {value}")
    return _compile("encode", ["def encode(o):", f"    return {{{', '.join(items)}}}"], ns)


def _decode_test(tp, var: str, ns: dict, i: int) -> tuple[str, str]:
    """``(test, value)``: source of a test that ``var`` is a JSON value of
    ``tp``'s common form, and of the decoded value when it is."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        ns[f"_i{i}"] = _decode_fn(args[0])
        return f"type({var}) is list", f"tuple(map(_i{i}, {var})) if {var} else ()"
    if isinstance(tp, type) and issubclass(tp, Enum):
        ns[f"_m{i}"] = {m.value: m for m in tp}
        return f"type({var}) is str and {var} in _m{i}", f"_m{i}[{var}]"
    if origin in (tuple, dict) or is_dataclass(tp):
        ns[f"_d{i}"] = _decode_fn(tp)
        return f"type({var}) is {'list' if origin is tuple else 'dict'}", f"_d{i}({var})"
    ns[f"_t{i}"] = tp
    return f"type({var}) is _t{i}", var


def _slow_path(dec: Callable, nullable: bool, default) -> Callable:
    """A field's value when its JSON value is absent, null or mistyped."""
    def decode(v):
        if v is _ABSENT:
            if default is MISSING:
                raise ValueError("required key missing")
            return default()
        if v is None and nullable:
            return None
        return dec(v)
    return decode


@functools.cache
def _decoder(cls) -> Callable:
    """One generated function per record class: per field, one ``dict.get``
    and a type test; the common form is decoded inline, anything else by its
    slow path, and a ``ValueError`` is prefixed ``<Class>.<field>: ``."""
    ns: dict = {"_A": _ABSENT, "_cls": cls, "_mistyped": _mistyped,
                "_new": object.__new__, "_setattr": object.__setattr__}
    lines = ["def decode(d):",
             "    if type(d) is not dict:",
             f"        raise _mistyped({cls.__name__!r}, d)",
             "    get = d.get"]
    for i, (name, hint, nullable, default) in enumerate(_plan(cls)):
        test, value = _decode_test(hint, "x", ns, i)
        ns[f"_s{i}"] = _slow_path(_decode_fn(hint), nullable, default)
        lines += ["    try:",
                  f"        x = get({name!r}, _A)",
                  f"        v{i} = ({value}) if {test} else _s{i}(x)",
                  "    except ValueError as exc:",
                  f"        raise ValueError(f'{cls.__name__}.{name}: {{exc}}') from None"]
    # what the frozen __init__ does, without its call: each field set in
    # order (so instances keep sharing one key table), then its rule check
    lines.append("    o = _new(_cls)")
    lines += [f"    _setattr(o, {name!r}, v{i})" for i, (name, *_) in enumerate(_plan(cls))]
    if hasattr(cls, "__post_init__"):
        lines.append("    o.__post_init__()")
    lines.append("    return o")
    return _compile("decode", lines, ns)


def to_dict(obj) -> dict:
    """Encode a record dataclass as a JSON-ready dict, keys sorted (see the
    module docstring)."""
    return _encoder(type(obj))(obj)


def from_dict(cls, d):
    """Decode a JSON value into a ``cls`` record (see the module docstring)."""
    return _decoder(cls)(d)


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


def copy_lines(path: Path | str, lines: Iterable[tuple[str, int, int]], since: str = "read") -> int:
    """Write each ``(source, start, length)`` byte span of a source file, plus
    a newline, to ``path`` through a binary :func:`atomic_writer`: lines are
    copied, not re-encoded.  A span past the end of its source raises
    ``ValueError``: ``<source>: file changed since it was <since>``.
    Returns the number of lines written."""
    n = 0
    with contextlib.ExitStack() as sources, atomic_writer(path, binary=True) as f:
        fds = {}
        for source, start, length in lines:
            fd = fds.get(source)
            if fd is None:
                fd = fds[source] = sources.enter_context(open(source, "rb")).fileno()
            row = os.pread(fd, length, start)
            if len(row) != length:
                raise ValueError(f"{source}: file changed since it was {since}")
            f.write(row)
            f.write(b"\n")
            n += 1
    return n


def write_json(path: Path | str, obj) -> None:
    """Write one indented JSON document, through :func:`atomic_writer`."""
    with atomic_writer(path) as f:
        f.write(json.dumps(obj, indent=2, ensure_ascii=False, default=str) + "\n")


def write_jsonl(path: Path | str, records: Iterable[dict]) -> int:
    """Write dicts as UTF-8 JSONL, keys sorted, through :func:`atomic_writer`;
    returns the number of lines written."""
    n = 0
    with atomic_writer(path) as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
            n += 1
    return n


# A record's dict already has its keys sorted (see :func:`to_dict`), so one
# encoder, made once, writes its line without a sort.
_dump_record = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def write_records(path: Path | str, records: Iterable) -> int:
    """Write record dataclasses as UTF-8 JSONL, through :func:`atomic_writer`:
    the bytes ``write_jsonl(path, map(to_dict, records))`` would write.
    Returns the number of lines written."""
    n = 0
    with atomic_writer(path) as f:
        for rec in records:
            f.write(_dump_record(to_dict(rec)) + "\n")
            n += 1
    return n


# Parses a stripped line in one scan; ``json.loads`` runs only on a line that
# is not one JSON value, to raise the error it always gave (a BOM, "Extra
# data", the column).
_scan = json.JSONDecoder().raw_decode


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
                    try:
                        rec, stop = _scan(line)
                    except ValueError:
                        stop = -1
                    if stop != len(line):
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
    return write_records(path, docs)


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
    return write_records(path, instances)


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
        return write_records(path, self)
