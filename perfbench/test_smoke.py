"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, with every output check.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Layers each workload must exercise; on every other workload they read 0.
OWN_LAYERS = {"build-mixed": ("ingest", "curation"), "eval-sweep": ("evaluation",)}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_passes_every_check(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in section)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    for name, metric in result["metrics"].items():
        owner = next((w for w, layers in OWN_LAYERS.items() if name.split(".")[0] in layers), None)
        if owner is not None and owner != workload:
            assert metric["value"] == 0, name
    busy = {"build-mixed": "ingest.pubtator.s", "eval-sweep": "evaluation.parse_gold.s",
            "plan-reference": "staging.emit_training_manifest.stage2.s"}[workload]
    assert result["metrics"][busy]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "build-mixed", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_launcher_reports_the_command_not_its_parent(tmp_path):
    """A command started here directly would report at least this process's
    peak RSS; through the launcher it reports its own."""
    from run import Launcher
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make every page resident
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 > 64
    launcher = Launcher(ROOT, dict(os.environ))
    try:
        seconds, rss, code = launcher.run(["-c", "pass"], tmp_path / "log")
        floor = launcher.high_water_mb()
    finally:
        launcher.close()
    del ballast
    assert code == 0 and seconds > 0
    assert floor < rss < 32
