"""Bundled reference registry.

One row per task group and language, with train split counts reproducing
the target corpus composition (1,114,315 instances overall, 340,400 in
stage 1).  Only metadata is bundled; the underlying corpora are licensed
and must be supplied by the user.  The general-dialogue row is a
placeholder (its content is outside this pipeline's scope).
"""

from __future__ import annotations

from .schema import DatasetDescriptor, Language, Registry, TaskType

_ROWS = [
    # (id, name, task, language, train_count, extras)
    ("ner-en", "English NER collection", TaskType.NER_NEN, Language.EN, 28_603, {}),
    ("ner-zh", "Chinese NER collection", TaskType.NER_NEN, Language.ZH, 44_667, {}),
    ("re-en", "English RE collection", TaskType.RE, Language.EN, 17_279, {}),
    ("re-zh", "Chinese RE collection", TaskType.RE, Language.ZH, 26_606, {}),
    ("ee-en", "English EE collection", TaskType.EE, Language.EN, 2_022, {}),
    ("ee-zh", "Chinese EE collection", TaskType.EE, Language.ZH, 2_992, {}),
    ("tc-en", "English TC collection", TaskType.TC, Language.EN, 40_339, {}),
    ("tc-zh", "Chinese TC collection", TaskType.TC, Language.ZH, 37_624, {}),
    ("tp-en", "English text pair collection", TaskType.TP_SS, Language.EN, 11_237, {}),
    ("tp-zh", "Chinese text pair collection", TaskType.TP_SS, Language.ZH, 45_548, {}),
    ("mt-zh", "Biomedical machine translation", TaskType.MT, Language.ZH, 74_113, {}),
    ("qa-en", "English biomedical QA", TaskType.QA_SQA, Language.EN, 57_962, {}),
    ("qa-zh", "Chinese biomedical QA", TaskType.QA_SQA, Language.ZH, 129_562, {}),
    ("mrd-en", "English multi-round dialogue", TaskType.MRD, Language.EN, 10_000, {}),
    ("mrd-zh", "Chinese multi-round dialogue", TaskType.MRD, Language.ZH, 16_391, {}),
    (
        "dialogue-general-zh",
        "General dialogue data (placeholder row)",
        TaskType.MRD,
        Language.ZH,
        560_000,
        {"general_dialogue": True},
    ),
    ("misc-zh", "Other additional tasks", TaskType.TT_TS, Language.ZH, 9_370, {}),
]


def reference_registry() -> Registry:
    """Registry whose train split counts sum to 1,114,315 instances overall
    and 340,400 in stage 1."""
    return Registry(
        DatasetDescriptor(
            id=dataset_id,
            name=name,
            task=task,
            language=language,
            split_counts={"train": count},
            description=name,
            **extras,
        )
        for dataset_id, name, task, language, count, extras in _ROWS
    )
