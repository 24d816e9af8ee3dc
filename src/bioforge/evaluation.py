"""Output grammars and free-text evaluation: :data:`GRAMMARS` gives each task
type the renderer of its gold output, the tolerant parser that inverts it and
its metric, exact-match micro-F1 or accuracy.

Parsers are total: any input string yields a :class:`ParseOutcome`, never an
exception.  Scoring uses set semantics over (surface, type) pairs and
relation triples, span excluded.  Surface matching is case-sensitive (gold
keeps differently-cased mentions as distinct items) while header and label
matching during parsing is case-insensitive (model outputs drift in casing).
Unparseable outputs score zero; excluding them would flatter evasive models.

Parsers are pure: the outcome depends on the input string and the vocabulary
alone.  The patterns and casing maps a vocabulary implies are compiled once
per vocabulary and cached.  :func:`evaluate_dataset` scores each gold row as
it reads it, holding counts, not rows or outcomes, and reuses the outcomes of
recently parsed strings, so a prediction that repeats its gold output
verbatim, the ``""`` that stands in for every missing prediction and repeated
empty markers or labels cost one parse each; per-type counts grow by
``Counter.update``, with no Python call per item.  Gold and prediction rows
are type-checked by the record codec as they are read: only ``raw_text`` may
be ``null``, a failed generation that scores as unparseable.

``bioforge eval`` builds no gold record (it reads the :data:`GOLD_FIELDS`
projection) and holds no predictions and no gold ids: :class:`Predictions`
keeps each prediction row's ``schema.LineSpans`` span, and an id's last row
(``schema.last_rows``) is read again when its gold row is scored, from a
64 KiB block when the predictions come in gold order.
"""

from __future__ import annotations

import contextlib
import functools
import re
from collections import Counter
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .schema import (DatasetDescriptor, Factory, InstructionInstance, Language, LineSpans, RelationTriple, TaskType,
                     UnifiedDocument, asdict, last_rows, read_jsonl, record)

PARSED = "parsed"
PARTIAL = "partial"
UNPARSEABLE = "unparseable"


@record(frozen=True, slots=True)  # slots: a caller's list holds one per row (eval decodes one at a time)
class PredictionRecord:
    instance_id: str
    raw_text: Optional[str]  # None: a failed generation, scored like a missing row


class Predictions:
    """A predictions file, indexed by id but not held: per row, its
    ``schema.LineSpans`` span, its id's hash, a repeated-id mark and a
    looked-up mark.

    Every row is decoded and type-checked as a :class:`PredictionRecord`
    when the file is read (a ``read_jsonl`` projection), and none is kept;
    ``schema.last_rows`` finds each id's last row, the one scored, and counts
    the ids given more than once.  A lookup reads its row again: the row
    after the one last found comes from a 64 KiB block, so rows in gold
    order take one ``os.pread`` a block; any other row is found by the
    hash probe and read by one ``os.pread``.  ``len()`` is the row count,
    and iterating reads the rows again, in file order."""

    def __init__(self, path: Path | str):
        self.path = str(path)
        self._spans = LineSpans()
        rows = read_jsonl(path, PredictionRecord, spans=self._spans, fields=("instance_id",))
        self._finder, self._distinct_ids, self.duplicate_ids = last_rows(
            path, PredictionRecord, ("instance_id", "raw_text"), self._spans, (row[0] for row in rows))
        self._looked_up = bytearray(len(self))  # 1: a lookup found the row

    def __len__(self) -> int:
        return len(self._spans.starts)

    def __iter__(self) -> Iterator[PredictionRecord]:
        return read_jsonl(self.path, PredictionRecord)

    @property
    def unknown_ids(self) -> int:
        """The number of distinct ids that no lookup has found."""
        return self._distinct_ids - self._looked_up.count(1)

    @contextlib.contextmanager
    def texts(self) -> Iterator[Callable[[str], str]]:
        """While open, ``text_of(instance_id)``: the ``raw_text`` of that id's
        last row (None: ``""``), or ``""`` for an id no row has.  A lookup
        inserts nothing; it marks the row it finds, which it reads again
        (see above) and decodes once."""
        looked_up = self._looked_up
        with open(self.path, "rb") as f:
            find = self._finder(f.fileno())

            def text_of(instance_id: str) -> str:
                if (found := find(instance_id)) is None:
                    return ""
                row, (_, raw_text) = found
                looked_up[row] = 1
                return raw_text or ""
            yield text_of


read_predictions = Predictions


@record(frozen=True, slots=True)  # slots: evaluate_dataset caches up to 1024
class ParseOutcome:
    status: str
    ner: frozenset[tuple[str, str]] = frozenset()  # (surface, etype) pairs
    re_triples: frozenset[RelationTriple] = frozenset()
    tc: frozenset[str] = frozenset()
    qa_choice: Optional[str] = None


def _is_empty_marker(raw: str) -> bool:
    return raw.strip() in _EMPTY_MARKER_STRINGS


# Separators as each language writes them; parsers read either width.
# Relation, QA-mc and event items are written the English way in both.
_ITEM = {Language.EN: "; ", Language.ZH: "；"}
_HEADER = {Language.EN: ": ", Language.ZH: "："}
_FIELD = {Language.EN: ", ", Language.ZH: "，"}
TC_MARKER = {Language.EN: "Result: ", Language.ZH: "上述文本被分类为: "}


def _either_width(*seps: dict) -> str:
    """A regex character class of the separators' marks, in both widths."""
    return "[" + "".join(re.escape(s.strip()) for sep in seps for s in sep.values()) + "]"


_ITEM_SEP = re.compile(_either_width(_ITEM))
_FIELD_SEP = re.compile(_either_width(_FIELD))
_LABEL_SEP = re.compile(_either_width(_ITEM, _FIELD))
_HEADER_SEP = _either_width(_HEADER)


def option_line(key: str, text: str) -> str:
    """One QA-mc option, as the prompt lists it and the gold answer names it."""
    return f"{key}. {text}"


_OPTION_LINE = re.compile(r"^\s*([A-Za-z0-9]+)\.\s+(.*)$")


@functools.lru_cache(maxsize=1)  # a row's gold answer and its prediction are parsed in turn
def _options_from_instruction(instruction: str) -> tuple[tuple[str, str], ...]:
    """Recover the rendered option list from a forged QA-mc instruction."""
    return tuple((m.group(1), m.group(2).strip())
                 for m in map(_OPTION_LINE.match, instruction.split("\n")) if m)


# Renderers (see Grammar.render) keep each item's first occurrence.

def _render_ner(doc: UnifiedDocument, desc: DatasetDescriptor) -> Optional[str]:
    by_type: dict[str, dict[str, None]] = {}
    for e in doc.entities:
        by_type.setdefault(e.etype, {})[e.surface] = None
    return "\n".join(etype + _HEADER[desc.language] + _ITEM[desc.language].join(surfaces)
                     for etype, surfaces in by_type.items()) or None


def _render_relations(doc: UnifiedDocument, desc: DatasetDescriptor) -> Optional[str]:
    sep = _FIELD[Language.EN]
    items = [f"[{r.head}{sep}{r.tail}]" if desc.re_untyped else f"({r.head}{sep}{r.tail}{sep}{r.rtype})"
             for r in dict.fromkeys(doc.relations)]
    return _ITEM[Language.EN].join(items) or None


def _render_ee(doc: UnifiedDocument, _desc: DatasetDescriptor) -> Optional[str]:
    header, sep = _HEADER[Language.EN], _FIELD[Language.EN]
    return "\n".join(
        f"{ev.event_type}{header}(Trigger{header}{ev.trigger}"
        + "".join(f"{sep}{role}{header}{filler}" for role, filler in ev.arguments) + ")"
        for ev in doc.events) or None


def _render_tc(doc: UnifiedDocument, desc: DatasetDescriptor) -> Optional[str]:
    labels = dict.fromkeys(doc.labels)
    return TC_MARKER[desc.language] + _ITEM[desc.language].join(labels) if labels else None


def _render_qa_mc(doc: UnifiedDocument, _desc: DatasetDescriptor) -> Optional[str]:
    texts = dict(doc.qa.options or ())
    keys = doc.qa.answer_keys
    if not texts or not texts.keys() >= set(keys):  # an answer key that names no option has no text
        return None
    return _ITEM[Language.EN].join(option_line(k, texts[k]) for k in keys)


# Prompts (see Grammar.prompt) of the tasks whose prompt shows more, or other,
# than the document's text.

_PAIR_TEXTS = {Language.EN: "Text 1: {}\nText 2: {}", Language.ZH: "文本一：{}\n文本二：{}"}
_SPEAKERS = {Language.EN: {"user": "User", "assistant": "Assistant"},
             Language.ZH: {"user": "用户", "assistant": "助手"}}


def _prompt_qa(doc: UnifiedDocument, _desc: DatasetDescriptor) -> str:
    return f"{doc.qa.context}\n{doc.qa.question}" if doc.qa.context else doc.qa.question


def _prompt_qa_mc(doc: UnifiedDocument, desc: DatasetDescriptor) -> str:
    """The question and its option list, which the QA-mc parser reads back."""
    return "\n".join([_prompt_qa(doc, desc), *(option_line(k, t) for k, t in doc.qa.options)])


def _prompt_mrd(doc: UnifiedDocument, desc: DatasetDescriptor) -> str:
    """The turns before the last assistant turn, whose text is the gold
    output; each turn's speaker is ``user`` or ``assistant``, and one at
    least is ``assistant``, as ``validate_document`` requires."""
    turns = doc.dialogue
    names = _SPEAKERS[desc.language]
    history = turns[:max(i for i, t in enumerate(turns) if t.speaker == "assistant")]
    return "\n".join(f"{names[t.speaker]}: {t.text}" for t in history)


@functools.lru_cache(maxsize=256)
def _canonical(vocab: tuple[str, ...]) -> dict[str, str]:
    """Lower-cased vocabulary entry -> its declared casing (read-only)."""
    return {v.lower(): v for v in vocab}


@functools.lru_cache(maxsize=256)
def _ner_header(type_vocab: tuple[str, ...]) -> re.Pattern:
    """``<Type>:`` for any type of the vocabulary, longest type first."""
    alts = "|".join(re.escape(t) for t in sorted(type_vocab, key=len, reverse=True))
    return re.compile(rf"({alts})\s*{_HEADER_SEP}", re.IGNORECASE)


@functools.lru_cache(maxsize=256)
def _qa_key(key: str) -> re.Pattern:
    """An option key as a standalone token."""
    return re.compile(rf"(?<![A-Za-z0-9]){re.escape(key)}(?![A-Za-z0-9])")


def parse_ner_output(raw: str, language: Language, type_vocab: Sequence[str]) -> ParseOutcome:
    """Scan for ``<Type>:`` headers matching the vocabulary and split the
    remainders on ";" / "；".  Header matching is case-insensitive; surfaces
    are whitespace-trimmed and deduplicated with canonical type casing.
    A segment ends at the next header or end of line, so chatter on later
    lines is not swallowed into the last entity."""
    if _is_empty_marker(raw):
        return ParseOutcome(status=PARSED)
    if not type_vocab:
        return ParseOutcome(status=UNPARSEABLE)
    type_vocab = tuple(type_vocab)
    canonical = _canonical(type_vocab)
    # a header in a casing whose lower() names no type (a "ſ" read as "s") is no header
    matches = [m for m in _ner_header(type_vocab).finditer(raw) if m.group(1).lower() in canonical]
    if not matches:
        return ParseOutcome(status=UNPARSEABLE)
    found: set[tuple] = set()
    for i, m in enumerate(matches):
        seg_end = matches[i + 1].start() if i + 1 < len(matches) else len(raw)
        newline = raw.find("\n", m.end())
        if newline != -1:
            seg_end = min(seg_end, newline)
        etype = canonical[m.group(1).lower()]
        for piece in _ITEM_SEP.split(raw[m.end():seg_end]):
            surface = piece.strip()
            if surface:
                found.add((surface, etype))
    return ParseOutcome(status=PARSED, ner=frozenset(found))


_BRACKET_GROUP = re.compile(r"[(（]([^()（）]*)[)）]|\[([^\[\]]*)\]")


def parse_re_output(
    raw: str,
    language: Language,
    relation_vocab: Sequence[str] = (),
    prompted_relation: Optional[str] = None,
) -> ParseOutcome:
    """Extract ``(head, tail, rtype)`` triples and ``[head, tail]`` pairs.

    Pairs take their relation type from ``prompted_relation`` (the single
    relation implied by a binary-relation prompt); when absent, a
    single-entry relation vocabulary serves the same purpose.  Matched
    relation types are canonicalized against the vocabulary case-insensitively.
    """
    if _is_empty_marker(raw):
        return ParseOutcome(status=PARSED)
    canonical = _canonical(tuple(relation_vocab))
    implied = prompted_relation
    if implied is None and len(relation_vocab) == 1:
        implied = relation_vocab[0]
    triples: set[RelationTriple] = set()
    for m in _BRACKET_GROUP.finditer(raw):
        body = m.group(1) if m.group(1) is not None else m.group(2)
        parts = [p.strip() for p in _FIELD_SEP.split(body)]
        parts = [p for p in parts if p]
        if len(parts) == 3:
            rtype = canonical.get(parts[2].lower(), parts[2])
            triples.add(RelationTriple(parts[0], parts[1], rtype))
        elif len(parts) == 2 and implied is not None:
            triples.add(RelationTriple(parts[0], parts[1], implied))
    if not triples:
        return ParseOutcome(status=UNPARSEABLE)
    return ParseOutcome(status=PARSED, re_triples=frozenset(triples))


_TC_MARKER = re.compile(
    "(?:" + "|".join(re.escape(m.rstrip(": ")) for m in TC_MARKER.values()) + rf")\s*{_HEADER_SEP}",
    re.IGNORECASE)


def parse_tc_output(raw: str, language: Language, label_vocab: Sequence[str]) -> ParseOutcome:
    """Find the result marker and match its tail against the label vocabulary;
    fall back to a verbatim vocabulary scan over the whole text (reported as
    ``partial``)."""
    if _is_empty_marker(raw):
        return ParseOutcome(status=PARSED)
    canonical = _canonical(tuple(label_vocab))
    m = _TC_MARKER.search(raw)
    if m is not None:
        newline = raw.find("\n", m.end())
        tail = raw[m.end():] if newline == -1 else raw[m.end():newline]
        labels = set()
        for piece in _LABEL_SEP.split(tail):
            label = canonical.get(piece.strip().lower())
            if label is not None:
                labels.add(label)
        if labels:
            return ParseOutcome(status=PARSED, tc=frozenset(labels))
    lowered = raw.lower()
    fallback = {label for label in label_vocab if label.lower() in lowered}
    if fallback:
        return ParseOutcome(status=PARTIAL, tc=frozenset(fallback))
    return ParseOutcome(status=UNPARSEABLE)


def parse_qa_choice(raw: str, options: Sequence[tuple]) -> ParseOutcome:
    """Resolve a multiple-choice answer: (1) an output that is one option's
    line, as the gold output writes it (``B. text``, the text trimmed);
    (2) a standalone option key token ("B", "B.", "(B)"); (3) a unique
    option text contained in the output; otherwise unparseable (scored
    incorrect).  Ambiguity in rules 2 and 3 falls through rather than
    guessing."""
    line = _OPTION_LINE.match(raw.strip())
    if line and any(key == line[1] and text.strip() == line[2] for key, text in options):
        return ParseOutcome(status=PARSED, qa_choice=line[1])
    matched_keys = [key for key, _text in options if _qa_key(key).search(raw)]
    if len(matched_keys) == 1:
        return ParseOutcome(status=PARSED, qa_choice=matched_keys[0])
    lowered = raw.casefold()
    contained = [key for key, text in options if text and text.casefold() in lowered]
    if len(contained) == 1:
        return ParseOutcome(status=PARSED, qa_choice=contained[0])
    return ParseOutcome(status=UNPARSEABLE)


@record
class EvalReport:
    dataset_id: str
    metric_name: str  # micro_f1 | accuracy
    tp: int = 0
    fp: int = 0
    fn: int = 0
    correct: int = 0
    total: int = 0
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0
    accuracy: float = 0.0
    unparseable_count: int = 0
    per_type: dict[str, dict[str, float]] = Factory(dict)  # etype -> {precision, ...}

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [f"Dataset: {self.dataset_id}  metric={self.metric_name}"]
        if self.metric_name == "accuracy":
            lines.append(
                f"  accuracy={self.accuracy:.4f}  correct={self.correct}/{self.total}"
                f"  unparseable={self.unparseable_count}"
            )
            return "\n".join(lines)
        lines.append(
            f"  {'':<16}{'P':>8}{'R':>8}{'F1':>8}{'TP':>7}{'FP':>7}{'FN':>7}"
        )
        lines.append(
            f"  {'overall':<16}{self.precision:>8.4f}{self.recall:>8.4f}{self.f1:>8.4f}"
            f"{self.tp:>7}{self.fp:>7}{self.fn:>7}"
        )
        for etype, stats in self.per_type.items():
            lines.append(
                f"  {etype:<16}{stats['precision']:>8.4f}{stats['recall']:>8.4f}{stats['f1']:>8.4f}"
                f"{stats['tp']:>7}{stats['fp']:>7}{stats['fn']:>7}"
            )
        lines.append(f"  unparseable={self.unparseable_count}/{self.total}")
        return "\n".join(lines)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _default_type_key(item) -> Optional[str]:
    if isinstance(item, RelationTriple):
        return item.rtype
    if isinstance(item, tuple) and len(item) >= 2:
        return item[1]
    return None


def _tally_micro_f1(rows: Iterable[tuple[frozenset, frozenset, bool]], dataset_id: str,
                    type_key: Optional[Callable]) -> EvalReport:
    """The micro-F1 report of ``rows``, each ``(gold items, predicted items,
    unparseable)`` of one instance, counted as it comes.  ``type_key`` gives
    an item's type (None: no type), or is None: no per-type rows.  Each
    type's counts grow by ``Counter.update``, so the items of a row are
    counted in C, one call per kind of count."""
    report = EvalReport(dataset_id=dataset_id, metric_name="micro_f1")
    total = tp = fp = fn = unparseable = 0
    tps, fps, fns = Counter(), Counter(), Counter()  # by type
    for g, p, unparsed in rows:
        total += 1
        unparseable += unparsed
        hit = g & p
        tp += len(hit)
        fp += len(p) - len(hit)
        fn += len(g) - len(hit)
        if type_key is not None:
            tps.update(map(type_key, hit))
            if len(p) > len(hit):
                fps.update(map(type_key, p - hit))
            if len(g) > len(hit):
                fns.update(map(type_key, g - hit))
    report.total, report.tp, report.fp, report.fn, report.unparseable_count = total, tp, fp, fn, unparseable
    report.precision, report.recall, report.f1 = _prf(tp, fp, fn)
    for etype in sorted({*tps, *fps, *fns} - {None}):
        tp, fp, fn = tps[etype], fps[etype], fns[etype]
        p, r, f1 = _prf(tp, fp, fn)
        report.per_type[etype] = {
            "precision": p, "recall": r, "f1": f1, "tp": tp, "fp": fp, "fn": fn
        }
    return report


def _tally_accuracy(rows: Iterable[tuple[str, ParseOutcome]], dataset_id: str) -> EvalReport:
    """The accuracy report of ``rows``, each ``(gold key, prediction's
    outcome)`` of one instance, counted as it comes."""
    report = EvalReport(dataset_id=dataset_id, metric_name="accuracy")
    for key, outcome in rows:
        report.total += 1
        if outcome.status == UNPARSEABLE or outcome.qa_choice is None:
            report.unparseable_count += 1
        elif outcome.qa_choice == key:
            report.correct += 1
    report.accuracy = report.correct / report.total if report.total else 0.0
    return report


def score_micro_f1(
    gold: Sequence[frozenset],
    pred: Sequence[frozenset],
    dataset_id: str = "",
    type_key: Callable = _default_type_key,
) -> EvalReport:
    """Pooled exact-match micro P/R/F1 over aligned instance-level sets, with
    a per-type breakdown computed the same way restricted to each type."""
    if len(gold) != len(pred):
        raise ValueError(f"gold/pred length mismatch: {len(gold)} vs {len(pred)}")
    return _tally_micro_f1(zip(gold, pred, repeat(False)), dataset_id, type_key)


def score_accuracy(
    gold_keys: Sequence[str],
    outcomes: Sequence[ParseOutcome],
    dataset_id: str = "",
) -> EvalReport:
    """Exact key-match accuracy; unparseable predictions count as incorrect.
    An empty test set yields accuracy 0 with total 0 rather than an error."""
    if len(gold_keys) != len(outcomes):
        raise ValueError(f"gold/pred length mismatch: {len(gold_keys)} vs {len(outcomes)}")
    return _tally_accuracy(zip(gold_keys, outcomes), dataset_id)


def sample_subset(instances: Sequence, n: int, seed: int) -> list:
    """Deterministic uniform sample without replacement, original order
    preserved; ``n >= len(instances)`` returns everything."""
    import random

    if n < 0:
        raise ValueError("sample size must be >= 0")
    if n >= len(instances):
        return list(instances)
    indices = sorted(random.Random(f"sample:{seed}").sample(range(len(instances)), n))
    return [instances[i] for i in indices]


@record(frozen=True)
class Grammar:
    """How one task's text is written, read back and scored.

    ``prompt(doc, desc)`` writes what the prompt shows of the document:
    the template's ``{text}`` slot, or a Type2 task's whole instruction.
    ``render(doc, desc)`` writes the gold output (None: nothing to render;
    ``empty`` maps a language to the output then, if the task has one).
    Each reads the dataset's facts (its language, ``re_untyped``) from its
    registry row ``desc``.  Both may assume the task's required payload
    (``schema.TASKS``), and ``prompt`` a document that
    ``schema.validate_document`` accepts.
    ``parse(raw, desc, instruction)`` inverts the output (``instruction`` is
    read for accuracy only); ``metric`` is ``"micro_f1"`` or ``"accuracy"``
    over the ParseOutcome field ``items``, or None (not scored);
    ``type_of`` gives the type of an item for micro-F1's per-type rows
    (None: no per-type rows)."""

    render: Callable[[UnifiedDocument, DatasetDescriptor], Optional[str]]
    parse: Optional[Callable[[str, DatasetDescriptor, Optional[str]], ParseOutcome]] = None
    metric: Optional[str] = None
    items: str = ""
    prompt: Callable[[UnifiedDocument, DatasetDescriptor], str] = lambda doc, _: doc.text
    empty: dict[Language, str] = Factory(dict)
    type_of: Optional[Callable] = None


_RELATIONS = Grammar(
    _render_relations,
    lambda raw, desc, _: parse_re_output(raw, desc.language, desc.label_vocab, desc.prompted_relation),
    "micro_f1", "re_triples", empty={Language.EN: "No relations found.", Language.ZH: "未识别出关系。"},
    type_of=attrgetter("rtype"))
_ANSWER_KEYS = Grammar(lambda doc, _: "\n".join(doc.qa.answer_keys), prompt=_prompt_qa)
_LABEL = Grammar(lambda doc, _: doc.pair.label,
                 prompt=lambda doc, desc: _PAIR_TEXTS[desc.language].format(doc.pair.text_a, doc.pair.text_b))
_TEXT_B = Grammar(lambda doc, _: doc.pair.text_b, prompt=lambda doc, _: doc.pair.text_a)

GRAMMARS: dict[TaskType, Grammar] = {
    TaskType.NER_NEN: Grammar(
        _render_ner, lambda raw, desc, _: parse_ner_output(raw, desc.language, desc.label_vocab),
        "micro_f1", "ner", empty={Language.EN: "No entities found.", Language.ZH: "未识别出实体。"},
        type_of=itemgetter(1)),  # (surface, etype)
    TaskType.RE: _RELATIONS,  # CRE and COREF share RE's grammar
    TaskType.CRE: _RELATIONS,
    TaskType.COREF: _RELATIONS,
    TaskType.EE: Grammar(_render_ee, empty={Language.EN: "No events found.", Language.ZH: "未识别出事件。"}),
    TaskType.TC: Grammar(
        _render_tc, lambda raw, desc, _: parse_tc_output(raw, desc.language, desc.label_vocab),
        "micro_f1", "tc", empty={Language.EN: "No label.", Language.ZH: "无类别。"}),
    TaskType.QA_MC: Grammar(
        _render_qa_mc,
        lambda raw, _, instruction: parse_qa_choice(raw, _options_from_instruction(instruction)),
        "accuracy", "qa_choice", prompt=_prompt_qa_mc),
    TaskType.QA_SQA: _ANSWER_KEYS,
    TaskType.QA_CQA: _ANSWER_KEYS,
    TaskType.MRD: Grammar(  # the last assistant turn
        lambda doc, _: next((t.text for t in reversed(doc.dialogue) if t.speaker == "assistant"), None),
        prompt=_prompt_mrd),
    TaskType.MT: Grammar(lambda doc, _: doc.translation.text_b, prompt=lambda doc, _: doc.translation.text_a),
    TaskType.TP_SS: _LABEL,
    TaskType.TP_TE: _LABEL,
    TaskType.TT_DS: _TEXT_B,
    TaskType.TT_TS: _TEXT_B,
}
_EMPTY_MARKER_STRINGS = frozenset(m for grammar in GRAMMARS.values() for m in grammar.empty.values())


@contextlib.contextmanager
def _prediction_texts(predictions: Predictions | Iterable[PredictionRecord]) -> Iterator[Callable[[str], str]]:
    """The one lookup :func:`evaluate_dataset` scores through: a file's
    :meth:`Predictions.texts`, or the same lookup over a list of records."""
    if isinstance(predictions, Predictions):
        with predictions.texts() as text_of:
            yield text_of
    else:
        by_id = {p.instance_id: p.raw_text or "" for p in predictions}
        yield lambda instance_id: by_id.get(instance_id, "")


# The fields of a gold row that ``bioforge eval`` decodes (a ``read_jsonl``
# projection of an InstructionInstance), which evaluate_dataset reads.
GOLD_FIELDS = ("instance_id", "dataset_id", "instruction", "output")


def evaluate_dataset(
    gold: Iterable[InstructionInstance] | Iterable[tuple],
    predictions: Predictions | Iterable[PredictionRecord],
    desc,
) -> EvalReport:
    """Parse and score free-text predictions against a forged gold corpus,
    with the parser and metric of the task's row of :data:`GRAMMARS`; a task
    without a metric raises ``ValueError``.

    Gold structure is recovered by running the same parser over the canonical
    gold output (an exact inverse by construction).  Missing predictions and
    a ``raw_text`` of None score as empty/unparseable; of several predictions
    with one id the last wins.  ``predictions`` is what
    :func:`read_predictions` returns, whose rows are read when their gold
    row is, or a list of records.  ``gold`` holds InstructionInstance
    records, or the rows of their :data:`GOLD_FIELDS` projection, as the
    first item shows.  It is read once, in order, and each row is scored as
    it comes, so it may be a one-shot iterator: neither gold rows nor parse
    outcomes are held.  The parsers are pure, so for micro-F1
    the outcomes of the last 1024 distinct strings are reused: a prediction
    that repeats its gold output verbatim, the ``""`` of a missing prediction
    and repeated empty markers or labels are parsed once.
    """
    grammar = GRAMMARS[desc.task]
    if grammar.metric is None:
        raise ValueError(f"no automatic metric defined for task {desc.task.value!r}")
    items, rows = grammar.items, iter(gold)
    first = next(rows, None)
    rows = chain(() if first is None else (first,), rows)
    if isinstance(first, InstructionInstance):
        rows = map(attrgetter(*GOLD_FIELDS), rows)
    with _prediction_texts(predictions) as text_of:
        if grammar.metric == "accuracy":  # a choice depends on the options, which the instruction fixes
            choices = ((getattr(grammar.parse(output, desc, instruction), items) or "",
                        grammar.parse(text_of(instance_id), desc, instruction))
                       for instance_id, _, instruction, output in rows)
            return _tally_accuracy(choices, desc.id)
        # bounded: 1024 entries ran eval-sweep's 18 evals in-process as fast as an
        # unbounded cache did, and 256 entries about 10 % slower
        outcome_of = functools.lru_cache(maxsize=1024)(lambda raw: grammar.parse(raw, desc, None))

        def item_sets():
            for instance_id, _, _, output in rows:
                pred = outcome_of(text_of(instance_id))
                yield getattr(outcome_of(output), items), getattr(pred, items), pred.status == UNPARSEABLE
        return _tally_micro_f1(item_sets(), desc.id, grammar.type_of)
