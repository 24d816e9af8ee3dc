"""The machine's speed, measured by a fixed reference task.

On a host whose CPUs are shared, the same work can take twice as long in one
minute as in the next, and that drift moves the program's timings with it.
``run.py`` therefore runs a fixed pure-Python task (JSON encoding and
decoding, regular expressions, dict and string work, the operations the CLI
spends its time on) after each of the program's commands, and scales a run's
times by ``REFERENCE_S / mean time of the task over the run``.  A scaled
time reads in seconds of a machine on which the task takes
``REFERENCE_S``.  Most of the drift cancels out; the program's own changes
do not, since the task is the same on every commit.
"""

from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

# The task's typical time on 2 shared vCPUs of an Intel Xeon, Python 3.11.
REFERENCE_S = 0.025

_WORDS = ("aspirin", "ibuprofen", "patient", "dose", "mg", "tumour", "gene", "BRCA1", "p53",
          "receptor", "inhibits", "binds", "treatment", "cohort", "trial")
_ROWS = [{"id": f"ref-{i}", "text": " ".join(_WORDS[(i * 7 + k * 3) % len(_WORDS)] for k in range(12)),
          "spans": [[k, k + 5] for k in range(0, 40, 10)], "label": _WORDS[i % 5]}
         for i in range(1200)]
_PATTERN = re.compile(r"([A-Za-z]+)\s+(\d+|[a-z]+)")


def task() -> int:
    """One run of the reference task; the result only keeps it honest."""
    lines = [json.dumps(row, ensure_ascii=False) for row in _ROWS]
    counts: dict = {}
    total = 0
    for line in lines:
        row = json.loads(line)
        for head, tail in _PATTERN.findall(row["text"]):
            key = f"{head.lower()}|{tail}"
            counts[key] = counts.get(key, 0) + 1
        total += sum(end - start for start, end in row["spans"])
        total += len(row["text"].upper().split())
    return total + len(counts)


def sample(times: int = 1) -> float:
    """Median seconds of ``times`` runs of the task, now."""
    seconds = []
    for _ in range(times):
        start = perf_counter()
        task()
        seconds.append(perf_counter() - start)
    return statistics.median(seconds)


class Speed:
    """The reference task, run ``per_gap`` times at each sample; ``factor``
    scales a run's times to reference speed."""

    def __init__(self, per_gap: int):
        self.per_gap = per_gap
        self.samples = []

    def sample(self) -> None:
        self.samples.append(sample(self.per_gap))

    def factor(self) -> float:
        return REFERENCE_S / statistics.mean(self.samples)
