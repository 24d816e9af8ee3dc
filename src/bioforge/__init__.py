"""bioforge: bilingual biomedical corpus harmonization, instruction-data
forging, two-stage SFT planning, and free-text evaluation.

The public names below are imported from their modules on first access
(PEP 562), so that ``import bioforge.cli`` loads only what a command runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "curation": ("CurationReport", "SubtaskPlan", "corpus_stats", "decompose_subtasks",
                 "dedup_and_filter_overlap", "normalize_for_hash"),
    "evaluation": ("EvalReport", "ParseOutcome", "PredictionRecord", "evaluate_dataset",
                   "parse_ner_output", "parse_qa_choice", "parse_re_output", "parse_tc_output",
                   "sample_subset", "score_accuracy", "score_micro_f1"),
    "fixtures": ("reference_registry",),
    "forge": ("InstructionInstance", "build_corpus", "render_instance", "serialize_gold"),
    "ingest": ("IngestConfig", "IngestReport", "ingest_dataset", "parse_documents"),
    "schema": ("DatasetDescriptor", "DialogueTurn", "EntityMention", "EventFrame", "Language",
               "QAInstance", "Registry", "RelationTriple", "TaskType", "TextPairInstance",
               "TranslationPair", "UnifiedDocument", "validate_document"),
    "staging": ("StagePlan", "TrainingManifest", "assign_stage", "build_stage_plan",
                "emit_training_manifest", "registry_stage_counts"),
    "templates": ("InstructionTemplate", "TemplateBank", "default_template_bank"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
