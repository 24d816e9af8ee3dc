"""Source-format parsers: PubTator, BioC XML, CoNLL BIO, and canonical JSONL.

Each parser is a pure function from text to a list of
:class:`~bioforge.schema.UnifiedDocument`; output order equals input order.
QA / dialogue / translation datasets enter through the generic JSONL path,
already in canonical schema.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import (
    DanglingRef,
    EmptyToken,
    MalformedLine,
    OffsetMismatch,
    UnknownDataset,
    XmlSyntax,
)
from .schema import (
    EntityMention,
    Language,
    Registry,
    RelationTriple,
    UnifiedDocument,
    document_from_dict,
    validate_document,
)


@dataclass(frozen=True)
class IngestConfig:
    dataset_id: str
    format: str  # pubtator | bioc_xml | conll | generic_jsonl
    entity_type_map: Optional[dict] = None
    split: str = "train"
    language: Language = Language.EN


@dataclass
class IngestReport:
    dataset_id: str
    split: str
    loaded: int = 0
    violations: int = 0
    warnings: list = field(default_factory=list)
    violation_details: list = field(default_factory=list)


def _map_type(etype: str, cfg: IngestConfig) -> str:
    if cfg.entity_type_map:
        return cfg.entity_type_map.get(etype, etype)
    return etype


def parse_pubtator(stream: str, cfg: IngestConfig) -> list[UnifiedDocument]:
    """Parse PubTator layout: ``PMID|t|title`` / ``PMID|a|abstract`` lines,
    then tab-separated mention lines, blank line between documents.

    Document text is ``title + "\\n" + abstract``; mention offsets are checked
    against the reconstructed text and a mismatch raises
    :class:`~bioforge.errors.OffsetMismatch`.
    """
    docs: list[UnifiedDocument] = []
    title: Optional[str] = None
    abstract: Optional[str] = None
    pmid: Optional[str] = None
    mentions: list[EntityMention] = []

    def flush():
        nonlocal title, abstract, pmid, mentions
        if pmid is None:
            return
        text = (title or "") + "\n" + (abstract or "") if abstract is not None else (title or "")
        for m in mentions:
            if m.end > len(text) or text[m.start:m.end] != m.surface:
                raise OffsetMismatch(pmid, m.surface, text[m.start:m.end])
        docs.append(
            UnifiedDocument(
                doc_id=pmid,
                dataset_id=cfg.dataset_id,
                language=cfg.language,
                text=text,
                entities=tuple(mentions),
            )
        )
        title = abstract = pmid = None
        mentions = []

    for line_no, raw_line in enumerate(stream.split("\n"), start=1):
        line = raw_line.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if "|t|" in line or "|a|" in line:
            doc_pmid, kind, content = line.split("|", 2)
            if pmid is not None and doc_pmid != pmid:
                flush()
            pmid = doc_pmid
            if kind == "t":
                title = content
            elif kind == "a":
                abstract = content
            else:
                raise MalformedLine(line_no, line)
            continue
        parts = line.split("\t")
        if len(parts) not in (5, 6) or parts[0] != pmid:
            raise MalformedLine(line_no, line)
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise MalformedLine(line_no, line) from None
        mentions.append(
            EntityMention(
                surface=parts[3],
                etype=_map_type(parts[4], cfg),
                start=start,
                end=end,
                norm_id=parts[5] if len(parts) == 6 else None,
            )
        )
    flush()
    return docs


def parse_bioc_xml(stream: str, cfg: IngestConfig) -> list[UnifiedDocument]:
    """Parse a BioC collection.

    Passages are concatenated with a single ``"\\n"`` separator and annotation
    offsets (passage-local) are rebased to the concatenated text.  Relation
    nodes referencing unknown annotation ids raise
    :class:`~bioforge.errors.DanglingRef`.
    """
    try:
        root = ET.fromstring(stream)
    except ET.ParseError as exc:
        raise XmlSyntax(str(exc.position)) from exc

    docs: list[UnifiedDocument] = []
    for dnode in root.iter("document"):
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
                    raise OffsetMismatch(doc_id, surface, span_text)
                mention = EntityMention(
                    surface=surface or span_text,
                    etype=_map_type(etype, cfg),
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
                    raise DanglingRef(rnode.get("id", "?"), ref)
            if len(refs) >= 2:
                relations.append(
                    RelationTriple(by_ref[refs[0]].surface, by_ref[refs[1]].surface, rtype)
                )
        docs.append(
            UnifiedDocument(
                doc_id=doc_id,
                dataset_id=cfg.dataset_id,
                language=cfg.language,
                text="\n".join(parts),
                entities=tuple(mentions),
                relations=tuple(relations),
            )
        )
    return docs


def parse_conll(
    stream: str, cfg: IngestConfig, warnings: Optional[list] = None
) -> list[UnifiedDocument]:
    """Parse token-per-line ``token<TAB>BIO-tag`` text.

    Blank lines delimit documents.  Text is reconstructed by joining tokens
    with single spaces; contiguous B-X / I-X runs become one mention.  An I-X
    tag with no live run of the same X is repaired to B-X and a warning is
    recorded (real shared-task files contain this noise; rejecting whole
    documents for it would be too strict).
    """
    if warnings is None:
        warnings = []
    docs: list[UnifiedDocument] = []
    tokens: list[str] = []
    tags: list[str] = []

    def flush():
        nonlocal tokens, tags
        if not tokens:
            return
        text = " ".join(tokens)
        offsets = []
        pos = 0
        for tok in tokens:
            offsets.append((pos, pos + len(tok)))
            pos += len(tok) + 1
        mentions: list[EntityMention] = []
        open_type: Optional[str] = None
        span_start = span_end = 0

        def close():
            nonlocal open_type
            if open_type is not None:
                mentions.append(
                    EntityMention(
                        surface=text[span_start:span_end],
                        etype=_map_type(open_type, cfg),
                        start=span_start,
                        end=span_end,
                    )
                )
                open_type = None

        for i, tag in enumerate(tags):
            if tag == "O":
                close()
                continue
            prefix, _, etype = tag.partition("-")
            if prefix == "I" and open_type == etype:
                span_end = offsets[i][1]
                continue
            if prefix == "I":
                warnings.append(f"doc {len(docs)}: I-{etype} without open {etype} run, treated as B-{etype}")
            close()
            open_type = etype
            span_start, span_end = offsets[i]
        close()
        docs.append(
            UnifiedDocument(
                doc_id=f"{cfg.dataset_id}-{len(docs)}",
                dataset_id=cfg.dataset_id,
                language=cfg.language,
                text=text,
                entities=tuple(mentions),
            )
        )
        tokens = []
        tags = []

    for line_no, raw_line in enumerate(stream.split("\n"), start=1):
        line = raw_line.rstrip("\r")
        if not line.strip():
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(line_no, line)
        token, tag = parts
        if not token:
            raise EmptyToken(line_no)
        if tag != "O" and not (tag[:2] in ("B-", "I-") and len(tag) > 2):
            raise MalformedLine(line_no, line)
        tokens.append(token)
        tags.append(tag)
    flush()
    return docs


def parse_generic_jsonl(stream: str, cfg: IngestConfig) -> list[UnifiedDocument]:
    """Accept documents already in canonical schema, one JSON object per line."""
    import json

    docs = []
    for line in stream.split("\n"):
        line = line.strip()
        if line:
            docs.append(document_from_dict(json.loads(line)))
    return docs


_PARSERS = {
    "pubtator": parse_pubtator,
    "bioc_xml": parse_bioc_xml,
    "conll": parse_conll,
    "generic_jsonl": parse_generic_jsonl,
}


def ingest_dataset(
    path: Path | str, cfg: IngestConfig, registry: Registry
) -> tuple[list[UnifiedDocument], IngestReport]:
    """Parse one source file and validate every document against the registry.

    Documents failing validation are dropped and counted; parsing is
    per-document so one bad mention does not sink the file.
    """
    desc = registry.get(cfg.dataset_id)
    if desc is None:
        raise UnknownDataset(cfg.dataset_id)
    text = Path(path).read_text(encoding="utf-8")
    report = IngestReport(dataset_id=cfg.dataset_id, split=cfg.split)
    parsed: list[UnifiedDocument] = []
    if cfg.format == "conll":
        parsed = parse_conll(text, cfg, warnings=report.warnings)
    elif cfg.format in ("pubtator", "generic_jsonl"):
        # Chunk on blank lines (pubtator) / lines (jsonl) so one malformed
        # document is dropped instead of sinking the whole file.
        parser = _PARSERS[cfg.format]
        chunks = (
            [c for c in text.split("\n\n") if c.strip()]
            if cfg.format == "pubtator"
            else [line for line in text.split("\n") if line.strip()]
        )
        for chunk in chunks:
            try:
                parsed.extend(parser(chunk, cfg))
            except (MalformedLine, OffsetMismatch, ValueError) as exc:
                report.violations += 1
                report.violation_details.append({"doc_id": None, "violations": [str(exc)]})
    elif cfg.format == "bioc_xml":
        parsed = parse_bioc_xml(text, cfg)
    else:
        raise ValueError(f"unknown ingest format {cfg.format!r}")
    kept = []
    for doc in parsed:
        result = validate_document(doc, desc)
        if result.ok:
            kept.append(doc)
            report.loaded += 1
        else:
            report.violations += 1
            report.violation_details.append({"doc_id": doc.doc_id, "violations": list(result.violations)})
    return kept, report
