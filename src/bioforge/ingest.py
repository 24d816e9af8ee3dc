"""Source-format ingest: PubTator, BioC XML, CoNLL BIO, and canonical JSONL.

Each format is a pair: a chunker that cuts a text stream into one chunk per
document, and a parser ``(chunk, index, desc, warnings)`` that turns one
chunk into a :class:`~bioforge.schema.UnifiedDocument` of the registry row
``desc``, or raises.  :func:`ingest_dataset`
runs every format through the same lazy loop, so a malformed document costs
that document only and one document is in memory at a time;
:func:`parse_documents` is the strict form over in-memory text.  QA /
dialogue / translation datasets enter through the generic JSONL path, already
in canonical schema.  ``xml.etree``, whose ``iterparse`` reads BioC, is
imported only when a BioC file is read.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, TextIO

from .schema import (
    DatasetDescriptor,
    EntityMention,
    Factory,
    Language,
    Registry,
    RelationTriple,
    UnifiedDocument,
    from_dict,
    record,
    validate_document,
)

if TYPE_CHECKING:
    from xml.etree.ElementTree import Element


@record(frozen=True)
class IngestConfig:
    dataset_id: str
    format: str  # pubtator | bioc_xml | conll | generic_jsonl


@record
class IngestReport:
    """Counts of one ingest, filled in as its documents are drained.
    ``violation_details`` holds one row per dropped document: its chunk
    ``index`` in the file, its ``doc_id`` when it parsed (else None) and its
    ``violations``.  ``warning_details`` holds one row per repair:
    ``index``, ``doc_id`` (None when its document did not parse) and
    ``warning``, the repair's message.  Each row's keys are in sorted
    order, the order in which ``schema.write_jsonl`` writes them."""

    loaded: int = 0
    violations: int = 0
    violation_details: list = Factory(list)
    warning_details: list = Factory(list)


def _malformed(line_no: int, line: str) -> ValueError:
    return ValueError(f"malformed line {line_no}: {line!r}")


def _blocks(stream: TextIO) -> Iterator[tuple[int, list[str]]]:
    """Runs of lines separated by whitespace-only lines, each with the line
    number of its first line."""
    first, block = 0, []
    for line_no, line in enumerate(stream, start=1):
        if line.strip():
            if not block:
                first = line_no
            block.append(line.rstrip("\n"))
        elif block:
            yield first, block
            block = []
    if block:
        yield first, block


def _nonblank_lines(stream: TextIO) -> Iterator[str]:
    return (line for line in map(str.strip, stream) if line)


def _bioc_documents(stream: TextIO) -> Iterator[Element]:
    """The ``<document>`` elements of a BioC collection, in document order,
    read by ``ET.iterparse``.  Each outermost document is yielded (with any
    documents nested in it) when its end tag is read, then cleared and
    dropped from the root.  The parser builds the tree of every document that
    a 16 KiB block of the stream completes before the first is yielded, so
    the block size bounds the trees in memory at once.  A syntax error raises
    ``ValueError`` when the parser reaches it, after the documents before it;
    it names the stream's file, if it has one, and the parser's reason."""
    import xml.etree.ElementTree as ET

    # fed str like ET.fromstring: a declared encoding is not re-applied.  The
    # start events give the root, from which each finished document is
    # dropped: an emptied element left in it costs about 80 bytes a document.
    root = None
    depth = 0  # of open <document> elements
    try:
        for event, elem in ET.iterparse(stream, events=("start", "end")):
            if event == "start":
                if root is None:
                    root = elem
                depth += elem.tag == "document"
            elif elem.tag == "document":
                depth -= 1
                if not depth:
                    yield from elem.iter("document")
                    elem.clear()
                    del root[:]
    except ET.ParseError as exc:
        path = getattr(stream, "name", None)
        raise ValueError(f"{path}: not well-formed XML: {exc}" if path else f"not well-formed XML: {exc}") from exc


def _parse_pubtator(chunk: tuple[int, list[str]], _index: int, desc: DatasetDescriptor,
                    _warnings: list) -> UnifiedDocument:
    """``PMID|t|title`` / ``PMID|a|abstract`` lines, then tab-separated
    ``PMID start end surface type [norm_id]`` mention lines.

    Document text is ``title + "\\n" + abstract``; mention offsets are checked
    against it and a mismatch raises ``ValueError``.
    A line is a title or abstract only when no tab precedes its first ``|``.
    """
    first, lines = chunk
    pmid = title = abstract = None
    mentions: list[EntityMention] = []
    for line_no, line in enumerate(lines, start=first):
        head, _, rest = line.partition("|")
        if rest[:2] in ("t|", "a|") and "\t" not in head:
            if pmid is not None and head != pmid:
                raise _malformed(line_no, line)
            pmid = head
            if rest[0] == "t":
                title = rest[2:]
            else:
                abstract = rest[2:]
            continue
        parts = line.split("\t")
        if len(parts) not in (5, 6) or parts[0] != pmid:
            raise _malformed(line_no, line)
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise _malformed(line_no, line) from None
        mentions.append(EntityMention(surface=parts[3], etype=parts[4], start=start, end=end,
                                      norm_id=parts[5] if len(parts) == 6 else None))
    text = (title or "") + "\n" + abstract if abstract is not None else (title or "")
    for m in mentions:
        if m.end > len(text) or text[m.start:m.end] != m.surface:
            raise ValueError(f"doc {pmid}: mention surface {m.surface!r} != text span {text[m.start:m.end]!r}")
    return UnifiedDocument(doc_id=pmid, dataset_id=desc.id, language=desc.language,
                           text=text, entities=tuple(mentions))


def _parse_bioc(dnode: Element, _index: int, desc: DatasetDescriptor,
                _warnings: list) -> UnifiedDocument:
    """One BioC ``<document>``.

    Passages are concatenated with a single ``"\\n"`` separator and annotation
    offsets (passage-local) are rebased to the concatenated text.  Relation
    nodes referencing unknown annotation ids raise ``ValueError``.
    """
    doc_id = dnode.findtext("id", default="")
    parts: list[str] = []
    mentions: list[EntityMention] = []
    by_ref: dict[str, EntityMention] = {}
    base = 0
    for pnode in dnode.iter("passage"):
        passage_text = pnode.findtext("text", default="")
        for anode in pnode.iter("annotation"):
            loc = anode.find("location")
            if loc is None:
                continue
            offset = int(loc.get("offset", "0"))
            length = int(loc.get("length", "0"))
            surface = anode.findtext("text", default="")
            etype = ""
            for infon in anode.iter("infon"):
                if infon.get("key") == "type":
                    etype = infon.text or ""
            span_text = passage_text[offset:offset + length]
            if surface and span_text != surface:
                raise ValueError(f"doc {doc_id}: mention surface {surface!r} != text span {span_text!r}")
            mention = EntityMention(
                surface=surface or span_text,
                etype=etype,
                start=base + offset,
                end=base + offset + length,
            )
            mentions.append(mention)
            ann_id = anode.get("id")
            if ann_id:
                by_ref[ann_id] = mention
        parts.append(passage_text)
        base += len(passage_text) + 1  # one separator char
    relations: list[RelationTriple] = []
    for rnode in dnode.iter("relation"):
        rtype = ""
        for infon in rnode.iter("infon"):
            if infon.get("key") == "relation":
                rtype = infon.text or ""
        refs = [n.get("refid", "") for n in rnode.iter("node")]
        for ref in refs:
            if ref not in by_ref:
                raise ValueError(f"relation {rnode.get('id', '?')!r} references unknown annotation {ref!r}")
        if len(refs) >= 2:
            relations.append(RelationTriple(by_ref[refs[0]].surface, by_ref[refs[1]].surface, rtype))
    return UnifiedDocument(doc_id=doc_id, dataset_id=desc.id, language=desc.language,
                           text="\n".join(parts), entities=tuple(mentions),
                           relations=tuple(relations))


def _parse_conll(chunk: tuple[int, list[str]], index: int, desc: DatasetDescriptor,
                 warnings: list) -> UnifiedDocument:
    """Token-per-line ``token<TAB>BIO-tag`` text; the document id is
    ``<dataset_id>-<index>``.

    Text is reconstructed by joining tokens with single spaces, or with
    nothing when the row's language is ``zh``, whose tokens are characters or
    words written without spaces; contiguous B-X / I-X runs become one mention.
    An I-X tag with no live run of the same X is repaired to B-X and a
    warning is recorded (real shared-task files contain this noise;
    rejecting whole documents for it would be too strict).
    """
    first, lines = chunk
    sep = "" if desc.language is Language.ZH else " "
    tokens: list[str] = []
    spans: list[list] = []  # [etype, start, end] per mention
    open_type: Optional[str] = None
    start = 0
    for line_no, line in enumerate(lines, start=first):
        parts = line.split("\t")
        if len(parts) != 2:
            raise _malformed(line_no, line)
        token, tag = parts
        if not token:
            raise ValueError(f"empty token at line {line_no}")
        prefix, _, etype = tag.partition("-")
        end = start + len(token)
        if tag == "O":
            open_type = None
        elif prefix not in ("B", "I") or not etype:
            raise _malformed(line_no, line)
        elif prefix == "I" and open_type == etype:
            spans[-1][2] = end
        else:
            if prefix == "I":
                warnings.append(f"doc {index}: I-{etype} without open {etype} run, treated as B-{etype}")
            open_type = etype
            spans.append([etype, start, end])
        tokens.append(token)
        start = end + len(sep)
    text = sep.join(tokens)
    return UnifiedDocument(
        doc_id=f"{desc.id}-{index}",
        dataset_id=desc.id,
        language=desc.language,
        text=text,
        entities=tuple(EntityMention(text[s:e], t, s, e) for t, s, e in spans),
    )


def _parse_jsonl(line: str, _index: int, _desc: DatasetDescriptor, _warnings: list) -> UnifiedDocument:
    """One document already in canonical schema, as one JSON object."""
    return from_dict(UnifiedDocument, json.loads(line))


_FORMATS = {
    "pubtator": (_blocks, _parse_pubtator),
    "bioc_xml": (_bioc_documents, _parse_bioc),
    "conll": (_blocks, _parse_conll),
    "generic_jsonl": (_nonblank_lines, _parse_jsonl),
}


def parse_documents(stream: str, cfg: IngestConfig, registry: Registry,
                    warnings: Optional[list] = None) -> list[UnifiedDocument]:
    """Parse ``stream`` in ``cfg.format``; output order equals input order.
    The row of ``cfg.dataset_id`` in ``registry`` is looked up as in
    :func:`ingest_dataset`, and the documents take its dataset id and
    language (a generic JSONL row keeps its own).

    Strict: the first malformed document raises; no document is validated.
    Documents are parsed as they are read, so in a BioC collection with a
    syntax error, a malformed document before the error raises its own
    error, not the syntax error.  Repair warnings (CoNLL) are appended to
    ``warnings`` when given.
    """
    desc = registry[cfg.dataset_id]
    chunker, parser = _FORMATS[cfg.format]
    warnings = [] if warnings is None else warnings
    chunks = chunker(io.StringIO(stream, newline=None))  # line ends read as from a file
    return [parser(chunk, index, desc, warnings) for index, chunk in enumerate(chunks)]


def ingest_dataset(
    path: Path | str, cfg: IngestConfig, registry: Registry
) -> tuple[Iterator[UnifiedDocument], IngestReport]:
    """The documents of one source file that pass, as a lazy iterator, and
    the report that they fill in as the iterator is drained.

    The registry row is looked up and the file opened here, so an unknown
    dataset or a missing file raises before any document is read.  The
    documents take the row's dataset id and language (a generic JSONL row
    keeps its own, which validation checks).  Each document is then parsed
    and validated against the row as it is drawn: one that fails either, or repeats the ``doc_id`` of a document
    already kept from this file, is dropped and recorded in the report, and
    the rest still load.  Only a BioC file that is not well-formed XML fails
    as a whole, when the parser reaches the error, and a file that is not
    UTF-8 text; each raises ``ValueError`` naming the path.  Beside the
    document in hand, ingest holds only the ids kept so far and the report.
    """
    desc = registry[cfg.dataset_id]
    chunker, parser = _FORMATS[cfg.format]
    report = IngestReport()
    stream = Path(path).open(encoding="utf-8")

    def kept() -> Iterator[UnifiedDocument]:
        kept_at: dict[str, int] = {}  # the index of the kept document with each id
        with stream:
            try:
                for index, chunk in enumerate(chunker(stream)):
                    doc, warnings = None, []
                    try:
                        doc = parser(chunk, index, desc, warnings)
                        reasons = list(validate_document(doc, desc).violations)
                    except ValueError as exc:
                        reasons = [str(exc)]
                    doc_id = doc.doc_id if doc else None
                    report.warning_details.extend({"doc_id": doc_id, "index": index, "warning": w}
                                                  for w in warnings)
                    if not reasons and doc_id in kept_at:
                        reasons = [f"doc_id: {doc_id!r} repeats the id of document {kept_at[doc_id]}"]
                    if reasons:
                        report.violations += 1
                        report.violation_details.append(
                            {"doc_id": doc_id, "index": index, "violations": reasons})
                    else:
                        kept_at[doc_id] = index
                        report.loaded += 1
                        yield doc
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None

    return kept(), report
