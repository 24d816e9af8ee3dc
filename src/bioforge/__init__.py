"""bioforge: bilingual biomedical corpus harmonization, instruction-data
forging, two-stage SFT planning, and free-text evaluation."""

__version__ = "0.1.0"

from .curation import (
    CurationReport,
    SubtaskPlan,
    corpus_stats,
    decompose_subtasks,
    dedup_and_filter_overlap,
    normalize_for_hash,
)
from .evaluation import (
    EvalReport,
    ParseOutcome,
    PredictionRecord,
    evaluate_dataset,
    parse_ner_output,
    parse_qa_choice,
    parse_re_output,
    parse_tc_output,
    sample_subset,
    score_accuracy,
    score_micro_f1,
)
from .fixtures import reference_registry
from .forge import InstructionInstance, build_corpus, render_instance, serialize_gold
from .ingest import (
    IngestConfig,
    IngestReport,
    ingest_dataset,
    parse_documents,
)
from .schema import (
    DatasetDescriptor,
    DialogueTurn,
    EntityMention,
    EventFrame,
    Language,
    QAInstance,
    Registry,
    RelationTriple,
    TaskType,
    TextPairInstance,
    TranslationPair,
    UnifiedDocument,
    validate_document,
)
from .staging import (
    StagePlan,
    TrainingManifest,
    assign_stage,
    build_stage_plan,
    emit_training_manifest,
    registry_stage_counts,
)
from .templates import InstructionTemplate, TemplateBank, default_template_bank
