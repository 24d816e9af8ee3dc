"""Exception types shared across the pipeline.

Parse *outcomes* (unparseable model output, schema violations) are data, not
exceptions; only genuinely broken inputs or misconfiguration raise.  Every
pipeline error is a ``ValueError``, so one ``except ValueError`` covers a
bad input whether a record decoder or a pipeline stage found it, and a
reader that names the file and line of a row names these too.  Forge raises
a document's first schema violation as :class:`InvalidDocument`.
"""

from __future__ import annotations


class BioforgeError(ValueError):
    """Base class for all pipeline errors."""


class MalformedLine(BioforgeError):
    def __init__(self, line_no: int, line: str = ""):
        self.line_no = line_no
        super().__init__(f"malformed line {line_no}: {line!r}")


class OffsetMismatch(BioforgeError):
    def __init__(self, doc_id: str, surface: str, found: str):
        super().__init__(f"doc {doc_id}: mention surface {surface!r} != text span {found!r}")


class XmlSyntax(BioforgeError):
    def __init__(self, reason: str, path: str | None = None):
        super().__init__(f"{path}: not well-formed XML: {reason}" if path else f"not well-formed XML: {reason}")


class DanglingRef(BioforgeError):
    def __init__(self, relation_id: str, ref: str):
        super().__init__(f"relation {relation_id!r} references unknown annotation {ref!r}")


class EmptyToken(BioforgeError):
    def __init__(self, line_no: int):
        super().__init__(f"empty token at line {line_no}")


class UnknownDataset(BioforgeError):
    def __init__(self, dataset_id: str):
        super().__init__(f"dataset id {dataset_id!r} not in registry")


class UnknownLabel(BioforgeError):
    def __init__(self, label: str):
        super().__init__(f"subset label {label!r} absent from corpus label vocabulary")


class UnsupportedTask(BioforgeError):
    def __init__(self, task: str):
        super().__init__(f"document has no gold output for task {task!r}")


class InvalidDocument(BioforgeError):
    """A document that breaks a schema rule; the message is the violation."""


class MissingSlotData(BioforgeError):
    def __init__(self, slot: str):
        super().__init__(f"no data available to fill template slot {{{slot}}}")


class UnsupportedField(BioforgeError):
    def __init__(self, template_id: str, field: str):
        super().__init__(f"template {template_id!r}: unsupported field {field!r}")


class NoTemplate(BioforgeError):
    def __init__(self, task: str, language: str):
        super().__init__(f"template bank has no template for ({task}, {language})")


class LengthMismatch(BioforgeError):
    def __init__(self, n_gold: int, n_pred: int):
        super().__init__(f"gold/pred length mismatch: {n_gold} vs {n_pred}")


class UnknownTaskMetric(BioforgeError):
    def __init__(self, task: str):
        super().__init__(f"no automatic metric defined for task {task!r}")
