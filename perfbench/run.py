"""Benchmark of the bioforge CLI: one workload per run, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload build-mixed --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed``, in a child process.
With ``--trace 0`` the timed command sequence runs as one ``bioforge``
subprocess per command, one at a time, repeatedly for ``--seconds``; the
end-to-end metrics are medians over those sequences, and the times are
scaled to reference speed (see ``speed.py``).  This process does not import
bioforge then, and it checks that the launcher's peak RSS stays below every
command's, since a child's ``ru_maxrss`` starts from its parent's.  With
``--trace 1`` the per-layer metrics are measured instead (see
``tracing.py``).  Every sequence's outputs are checked.  The last line of
standard output is one JSON object; a full record with provenance goes to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
CPUS = os.sched_getaffinity(0)
OUT_DIR = ".perfbench_out"
SETUP_CODE = ("from bioforge.cli import main; from bioforge.templates import default_template_bank; "
              "from bioforge.fixtures import reference_registry; "
              "default_template_bank(); reference_registry()")

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MiB"}


@dataclass
class Tally:
    """Commands and output checks attempted and failed."""
    attempted: int = 0
    failed: int = 0

    def command(self, code: int, what: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED command (exit {code}): {what}", file=sys.stderr)

    def checks(self, checks) -> None:
        for c in checks:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                print(f"FAILED check: {c.name}: {c.detail}", file=sys.stderr)


def child_env(root: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(root / "src")}


class Launcher:
    """Runs commands one at a time through ``launcher.py``, a small process
    whose own RSS is the only floor under the commands' ``ru_maxrss``."""

    def __init__(self, root: Path, env: dict):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")], cwd=root, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(reply)

    def run(self, argv: list, log: Path) -> tuple[float, float, int]:
        """Run one command to completion; (seconds, peak RSS in MiB, exit code)."""
        r = self._ask({"argv": [sys.executable, *argv], "log": str(log)})
        return r["seconds"], r["rss_mb"], r["code"]

    def high_water_mb(self) -> float:
        return self._ask({"hwm": True})["rss_mb"]

    def close(self) -> None:
        self.proc.communicate()


def setup_time(launcher: Launcher, work: Path) -> float:
    """Wall time of a fresh interpreter that imports the CLI and builds the
    template bank and reference registry."""
    return launcher.run(["-c", SETUP_CODE], work / "setup.log")[0]


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare(args, launcher: Launcher, work: Path):
    """Write the workload's inputs in a child process and load its manifest."""
    from workloads import WORKLOADS
    log = work / "setup_inputs.log"
    code = launcher.run([str(HERE / "workloads.py"), args.workload, str(args.seed),
                         str(args.scale), str(work)], log)[2]
    if code != 0:
        raise RuntimeError(f"input set-up failed (exit {code}):\n{log.read_text(errors='replace')}")
    return WORKLOADS[args.workload].load(work / "manifest.json")


def checked(workload, out: Path, tally: Tally, digests: list) -> None:
    """Check one sequence's outputs; digests must match the first sequence's."""
    from workloads import Check
    try:
        checks, digest = workload.check(out)
    except (OSError, ValueError, KeyError) as exc:
        checks, digest = [Check("outputs readable", False, repr(exc))], None
    if digests:
        checks.append(Check("outputs identical across runs of one seed", digest == digests[0]))
    digests.append(digest)
    tally.checks(checks)


def run_sequence(workload, launcher: Launcher, work: Path, tally: Tally, clock: speed.Speed):
    """The timed sequence, one subprocess per command, with the reference
    task sampled after each command; (wall, per command [(command, seconds,
    rss)]).  The wall time leaves out the reference task's runs."""
    fresh(work / "out")
    log = work / "commands.log"
    per_command = []
    wall = 0.0
    for step in workload.steps:
        start = perf_counter()
        seconds, rss, code = launcher.run(["-m", "bioforge.cli", *step.argv], log)
        wall += perf_counter() - start
        clock.sample()
        tally.command(code, step.command)
        per_command.append((step.command, seconds, rss))
    return wall, per_command


def run_in_process(workload, work: Path, tally: Tally, tracer=None) -> float:
    """The same sequence through ``bioforge.cli.main`` in this process."""
    import bioforge.cli as cli
    fresh(work / "out")
    patches = tracer.layer_patches() if tracer else contextlib.nullcontext()
    start = perf_counter()
    with patches, contextlib.redirect_stdout(io.StringIO()):
        for step in workload.steps:
            span = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    code = cli.main(list(step.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback escaping main is a failed command
                print(f"{step.command}: {exc!r}", file=sys.stderr)
                code = 1
            tally.command(code, step.command)
    return perf_counter() - start


def measure(workload, launcher, work, seconds, tally) -> dict:
    """End-to-end metrics, plus each command's median summed time per
    sequence and largest RSS.  The two times are scaled to reference speed
    by the reference task's mean time over the run (see ``speed.py``); the
    unscaled times go to the record.  Set-up time is sampled before the
    first sequence and after each one, so that it spans the same stretch of
    time as the sequences.  One sequence runs before any of this, unmeasured."""
    from workloads import Check
    digests = []
    # Unmeasured warm-up: plan-reference's first sequence after its inputs
    # are written ran 8-40 % slower than the run's median.
    run_sequence(workload, launcher, work, tally, speed.Speed(per_gap=1))
    checked(workload, work / "out", tally, digests)
    clock = speed.Speed(per_gap=max(1, 5 // len(workload.steps)))
    clock.sample()
    setups = [setup_time(launcher, work) for _ in range(4)]
    walls, per_sequence, rss = [], [], {}
    deadline = perf_counter() + seconds
    while len(walls) < 2 or perf_counter() < deadline:
        wall, per_command = run_sequence(workload, launcher, work, tally, clock)
        setups.append(setup_time(launcher, work))
        walls.append(wall)
        totals = {}
        for command, secs, mib in per_command:
            totals[command] = totals.get(command, 0.0) + secs
            rss.setdefault(command, []).append(mib)
        per_sequence.append(totals)
        checked(workload, work / "out", tally, digests)
    # A command's ru_maxrss is at least the launcher's RSS when it started.
    # Below every command's figure, that floor hides nothing.
    floor = launcher.high_water_mb()
    smallest = min(min(r) for r in rss.values())
    tally.checks([Check("the launcher's peak RSS is below every command's", floor < smallest,
                        f"{floor:.1f} MiB in the launcher, {smallest:.1f} MiB in the smallest command")])
    raw = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls)}
    factor = clock.factor()
    wall_s = raw["wall_s"] * factor
    return {"setup_s": raw["setup_s"] * factor, "wall_s": wall_s, "rows_per_s": workload.rows / wall_s,
            "peak_rss_mb": max(max(r) for r in rss.values()), "launcher_rss_mb": floor,
            "unscaled": raw, "speed_factor": factor,
            "cli_s": {c: statistics.median(t.get(c, 0.0) for t in per_sequence) for c in rss},
            "cli_rss_mb": {c: max(r) for c, r in rss.items()}, "digest": digests[0],
            "samples": {"raw_setup_s": setups, "raw_wall_s": walls, "reference_task_s": clock.samples}}


def measure_traced(workload, launcher, root, work, seconds, tally, results: Path) -> dict:
    """Per-layer metrics.  The first half of the time is an untraced
    ``measure``, for the ``cli.*`` numbers, before this process loads
    bioforge; the second alternates untraced and traced in-process
    sequences."""
    start = perf_counter()
    untraced = measure(workload, launcher, work, seconds / 2, tally)
    sys.path.insert(0, str(root / "src"))
    import tracing
    from bioforge.schema import Registry
    from bioforge.templates import default_template_bank
    from workloads import Check

    digests = [untraced["digest"]]
    tracer = tracing.Tracer()
    tracer.run_id = "setup"
    bank = tracer.wrap(default_template_bank, "templates.default_template_bank")
    for _ in range(5):
        bank()
    plain, traced, layer_runs, covered = [], [], [], []
    while not traced or perf_counter() < start + seconds:
        plain.append(run_in_process(workload, work, tally))
        checked(workload, work / "out", tally, digests)
        tracer.run_id = f"{workload.name}/{len(traced)}"
        first = len(tracer.spans)
        traced.append(run_in_process(workload, work, tally, tracer))
        checked(workload, work / "out", tally, digests)
        layer_runs.append(tracing.sequence_metrics(tracer.spans[first:]))
        covered.append(tracing.covered_time(tracer.spans[first:]))

    m = {name: 0.0 for name in tracing.PER_LAYER}
    for c in tracing.COMMANDS:
        m[f"cli.{c}.s"] = untraced["cli_s"].get(c, 0.0)
        m[f"cli.{c}.rss_mb"] = untraced["cli_rss_mb"].get(c, 0.0)
    m.update(tracing.median_metrics(layer_runs))
    m["templates.default_template_bank.s"] = statistics.median(
        s["end"] - s["start"] for s in tracer.spans if s["name"] == "templates.default_template_bank")
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    m["trace.unattributed_ratio"] = 1 - statistics.median(covered) / sum(untraced["cli_s"].values())

    if workload.name == "eval-sweep":
        tracer.run_id = "decomposed-eval"
        registry = Registry.load(workload.facts["registry"])
        eval_metrics, scores = tracing.decomposed_eval(tracer, workload.steps, registry)
        m.update(eval_metrics)
        mismatched = []
        for (kind, dataset_id), report in scores.items():
            written = (work / "out" / kind / f"eval.{dataset_id}.json").read_text(encoding="utf-8")
            if json.loads(written) != json.loads(json.dumps(report.to_dict())):
                mismatched.append(f"{kind}/{dataset_id}")
        tally.checks([Check("decomposed evaluation agrees with bioforge eval", not mismatched,
                            ", ".join(mismatched))])
    tracer.dump(results)
    m["launcher_rss_mb"] = untraced["launcher_rss_mb"]
    m["samples"] = {"cli_wall_s": untraced["samples"]["raw_wall_s"], "traced": traced, "untraced": plain}
    return m


def provenance(root: Path, args, workload) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src" / "bioforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "commit": commit(root),
        "source_sha256": src.hexdigest(), "nproc": len(CPUS), "pinned_cpu": max(CPUS),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "rows": workload.rows, "commands": len(workload.steps), "sizes": workload.sizes,
    }


def commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test runs tiny inputs)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "bioforge" / "cli.py", root / "data_diverse_holdout_v2" / "test.jsonl"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: run from a bioforge checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # One CPU for this process, the launcher and every command: the reference
    # task then runs on the CPU whose speed it is to stand for.
    os.sched_setaffinity(0, {max(CPUS)})
    launcher = Launcher(root, child_env(root))
    try:
        return benchmark(args, root, launcher)
    finally:
        launcher.close()


def benchmark(args, root: Path, launcher: Launcher) -> int:
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = fresh(root / OUT_DIR / tag)
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        workload = prepare(args, launcher, work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    tally.checks(workload.setup_checks)
    setup_time(launcher, work)  # unmeasured: the first start compiles the byte code
    if args.trace:
        metrics = measure_traced(workload, launcher, root, work, args.seconds, tally,
                                 results / f"{tag}.spans.jsonl")
        import tracing
        units = tracing.PER_LAYER
    else:
        metrics = measure(workload, launcher, work, args.seconds, tally)
        units = END_TO_END
    samples = metrics.pop("samples")
    shutil.rmtree(work)

    record = {
        "provenance": provenance(root, args, workload),
        "samples": samples,
        "error_rate": tally.failed / tally.attempted,
        "launcher_rss_mb": metrics["launcher_rss_mb"],
        "runner_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    if not args.trace:
        record["per_command"] = {"cli_s": metrics["cli_s"], "cli_rss_mb": metrics["cli_rss_mb"]}
        record["unscaled"] = metrics["unscaled"]
        record["speed_factor"] = metrics["speed_factor"]
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    sequences = len(samples["raw_wall_s"] if "raw_wall_s" in samples else samples["traced"])
    print(f"{args.workload} seed={args.seed}: {sequences} sequences of "
          f"{len(workload.steps)} commands, {workload.rows} rows")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {record['error_rate']:>14.6g} ratio "
          f"({tally.failed} of {tally.attempted} commands and checks)")
    if not args.trace:
        for name, value in record["unscaled"].items():
            print(f"  {'(not a metric) unscaled ' + name:<44} {value:>14.6g} s")
        print(f"  {'(not a metric) speed_factor':<44} {record['speed_factor']:>14.6g}")
    for name in ("launcher_rss_mb", "runner_rss_mb"):
        print(f"  {'(not a metric) ' + name:<44} {record[name]:>14.6g} MiB")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
