"""Exception types shared across the pipeline.

Parse *outcomes* (unparseable model output, schema violations) are data, not
exceptions; only genuinely broken inputs or misconfiguration raise.  Forge
raises a document's first schema violation as :class:`InvalidDocument`.
"""

from __future__ import annotations


class BioforgeError(Exception):
    """Base class for all pipeline errors."""


class MalformedLine(BioforgeError):
    def __init__(self, line_no: int, line: str = ""):
        self.line_no = line_no
        self.line = line
        super().__init__(f"malformed line {line_no}: {line!r}")


class OffsetMismatch(BioforgeError):
    def __init__(self, doc_id: str, surface: str, found: str):
        self.doc_id = doc_id
        self.surface = surface
        self.found = found
        super().__init__(
            f"doc {doc_id}: mention surface {surface!r} != text span {found!r}"
        )


class XmlSyntax(BioforgeError):
    def __init__(self, reason: str, path: str | None = None):
        self.reason = reason
        self.path = path
        super().__init__(f"{path}: not well-formed XML: {reason}" if path else f"not well-formed XML: {reason}")


class DanglingRef(BioforgeError):
    def __init__(self, relation_id: str, ref: str):
        self.relation_id = relation_id
        self.ref = ref
        super().__init__(f"relation {relation_id!r} references unknown annotation {ref!r}")


class EmptyToken(BioforgeError):
    def __init__(self, line_no: int):
        self.line_no = line_no
        super().__init__(f"empty token at line {line_no}")


class UnknownDataset(BioforgeError):
    def __init__(self, dataset_id: str):
        self.dataset_id = dataset_id
        super().__init__(f"dataset id {dataset_id!r} not in registry")


class UnknownLabel(BioforgeError):
    def __init__(self, label: str):
        self.label = label
        super().__init__(f"subset label {label!r} absent from corpus label vocabulary")


class UnsupportedTask(BioforgeError):
    def __init__(self, task: str):
        self.task = task
        super().__init__(f"document has no gold output for task {task!r}")


class InvalidDocument(BioforgeError):
    """A document that breaks a schema rule; the message is the violation."""


class MissingSlotData(BioforgeError):
    def __init__(self, slot: str):
        self.slot = slot
        super().__init__(f"no data available to fill template slot {{{slot}}}")


class UnsupportedField(BioforgeError):
    def __init__(self, template_id: str, field: str):
        self.template_id = template_id
        self.field = field
        super().__init__(f"template {template_id!r}: unsupported field {field!r}")


class NoTemplate(BioforgeError):
    def __init__(self, task: str, language: str):
        self.task = task
        self.language = language
        super().__init__(f"template bank has no template for ({task}, {language})")


class LengthMismatch(BioforgeError):
    def __init__(self, n_gold: int, n_pred: int):
        self.n_gold = n_gold
        self.n_pred = n_pred
        super().__init__(f"gold/pred length mismatch: {n_gold} vs {n_pred}")


class UnknownTaskMetric(BioforgeError):
    def __init__(self, task: str):
        self.task = task
        super().__init__(f"no automatic metric defined for task {task!r}")
