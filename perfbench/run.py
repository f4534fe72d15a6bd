"""End-to-end benchmark of the LT-VCG auction + FL system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0

Runs whole repetitions of one workload, each from a fresh interpreter,
until ``--seconds`` are spent (at least a few repetitions), checks the
program's outputs after every repetition, and prints two JSON lines: a run
record (seed, host fingerprint, sample counts, per-repetition figures) and,
last, ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` repetitions
alternate between untraced and traced, and the metrics are the per-layer
ones of the traced repetitions.  See README.md in this directory.

Everything a run writes lives under ``.perfbench/`` in the repository
root and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s": "rounds/s",
    "bids_per_s": "bids/s",
    "close_p50_ms": "ms",
    "close_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}

PER_LAYER = {
    "startup.import_s": "s",
    "scenarios.build_s": "s",
    "economics.bid_s": "s",
    "economics.bids": "count",
    "economics.apply_s": "s",
    "valuation.values_s": "s",
    "mechanisms.decide_s": "s",
    "mechanisms.rounds": "count",
    "mechanisms.decide_p50_ms": "ms",
    "mechanisms.decide_p99_ms": "ms",
    "simulation.run_s": "s",
    "simulation.self_s": "s",
    "fl.train_s": "s",
    "fl.clients_trained": "count",
    "fl.aggregate_s": "s",
    "fl.eval_s": "s",
    "fl.evals": "count",
    "analysis.summarize_s": "s",
    "persistence.event_log_s": "s",
    "persistence.event_log_mb": "MB",
    "orchestration.cells": "count",
    "orchestration.campaign_s": "s",
    "orchestration.cell_busy_s": "s",
    "orchestration.cell_unattributed_s": "s",
    "orchestration.worker_idle_s": "s",
    "orchestration.record_s": "s",
    "orchestration.report_s": "s",
    "service.frames": "count",
    "service.codec_s": "s",
    "service.intake_s": "s",
    "service.close_s": "s",
    "service.snapshot_s": "s",
    "service.snapshot_kb": "KB",
    "service.trail_s": "s",
    "service.restart_s": "s",
    "trace.wall_s": "s",
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}

#: Fewest untraced repetitions per run: enough for a median, and for the
#: served market at least 1000 closes so ten lie beyond p99.
MIN_REPS = {"campaign": 5, "fl-train": 5, "serve-persisted": 4}


class Context:
    """What a repetition needs to start the program's processes."""

    def __init__(self, tmp: Path) -> None:
        self.python = sys.executable
        self.here = HERE
        self.root = ROOT
        env = dict(os.environ)
        for name in ("REPRO_FAULTS", "REPRO_FAULTS_SEED"):
            env.pop(name, None)
        env["REPRO_TELEMETRY"] = "off"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["TMPDIR"] = str(tmp)
        self.env = env


def percentile(values, q: int) -> float:
    """The ``q``-th percentile, interpolating linearly between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """Medians over repetitions; close latencies pooled over repetitions."""
    med = statistics.median
    if workload == "serve-persisted":
        busy = [r["timed_s"] for r in reps]
    else:
        busy = [r["wall_s"] - r["setup_s"] for r in reps]
    closes = [x for r in reps for x in r["close_ms"]]
    metrics = {
        "setup_s": med(r["setup_s"] for r in reps),
        "wall_s": med(r["wall_s"] for r in reps),
        "rounds_per_s": med(r["rounds"] / t for r, t in zip(reps, busy)),
        "bids_per_s": med(r["bids"] / t for r, t in zip(reps, busy)),
        "close_p50_ms": percentile(closes, 50),
        "close_p99_ms": percentile(closes, 99),
        "peak_rss_mb": med(r["rss_kb"] for r in reps) / 1024,
        "disk_mb": med(r["disk_bytes"] for r in reps) / 2**20,
    }
    return metrics, {"close_samples": len(closes)}


def layer_row(rep: dict) -> dict:
    """Per-layer figures of one traced repetition."""
    spans, top = rep["spans"], rep["top"]
    busy, count, own = spans["busy"], spans["count"], spans["self"]
    decide = spans["decide_ms"]
    in_cell = sum(
        busy[name]
        for name in ("scenarios.build", "simulation.run", "analysis.summarize",
                     "persistence.event_log")
    )
    restart = rep.get("restart_s", 0.0)
    return {
        "startup.import_s": rep["import_s"],
        "scenarios.build_s": busy["scenarios.build"],
        "economics.bid_s": busy["economics.bid"],
        "economics.bids": count["economics.bid"],
        "economics.apply_s": busy["economics.apply"],
        "valuation.values_s": busy["valuation.values"],
        "mechanisms.decide_s": busy["mechanisms.decide"],
        "mechanisms.rounds": count["mechanisms.decide"],
        "mechanisms.decide_p50_ms": percentile(decide, 50),
        "mechanisms.decide_p99_ms": percentile(decide, 99),
        "simulation.run_s": busy["simulation.run"],
        "simulation.self_s": own["simulation.run"],
        "fl.train_s": busy["fl.train"],
        "fl.clients_trained": count["fl.train"],
        "fl.aggregate_s": busy["fl.aggregate"],
        "fl.eval_s": busy["fl.eval"],
        "fl.evals": count["fl.eval"],
        "analysis.summarize_s": busy["analysis.summarize"],
        "persistence.event_log_s": busy["persistence.event_log"],
        "persistence.event_log_mb": count["persistence.event_log"] / 2**20,
        "orchestration.cells": count["orchestration.cell"],
        "orchestration.campaign_s": busy["orchestration.campaign"],
        "orchestration.cell_busy_s": busy["orchestration.cell"],
        "orchestration.cell_unattributed_s": (
            busy["orchestration.cell"] - in_cell if count["orchestration.cell"] else 0.0
        ),
        "orchestration.worker_idle_s": (
            rep.get("workers", 0) * busy["orchestration.campaign"] - busy["orchestration.cell"]
        ),
        "orchestration.record_s": busy["orchestration.record"],
        "orchestration.report_s": busy["orchestration.report"],
        "service.frames": count["service.decode"],
        "service.codec_s": busy["service.decode"] + busy["service.encode"],
        "service.intake_s": busy["service.intake"],
        "service.close_s": busy["service.close"],
        "service.snapshot_s": busy["service.snapshot"],
        "service.snapshot_kb": (
            count["service.snapshot"] / max(1, count["service.close"]) / 1024
        ),
        "service.trail_s": busy["service.trail"],
        "service.restart_s": restart,
        "trace.wall_s": rep["wall_s"],
        "unattributed_s": rep["wall_s"] - rep["import_s"] - sum(top.values()) - restart,
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    rows = [layer_row(rep) for rep in traced]
    metrics = {
        name: statistics.median(row[name] for row in rows)
        for name in PER_LAYER
        if name != "trace_overhead_s"
    }
    metrics["trace_overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(r["wall_s"] for r in plain)
    return metrics


def host_fingerprint() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                    text=True, timeout=30, check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
    }


def _workload(name: str, seed: int):
    if name == "serve-persisted":
        import serve

        return serve.make_inputs(seed), serve.run_rep
    import workloads

    if name == "campaign":
        return workloads.campaign_inputs(seed), workloads.campaign_rep
    return workloads.fl_inputs(seed), workloads.fl_rep


def measure(args, tmp: Path) -> tuple[list[dict], list[dict]]:
    """Run repetitions until the time budget is spent; returns (plain, traced)."""
    ctx = Context(tmp)
    # Untimed: compile the byte-code caches and warm the file cache, which a
    # user of an installed checkout never pays again.
    subprocess.run(
        [ctx.python, "-c", "import repro.cli, repro.orchestration, repro.service.server"],
        env=ctx.env, cwd=ROOT, check=True, timeout=170, stdout=subprocess.DEVNULL,
    )
    inputs, run_rep = _workload(args.workload, args.seed)
    plain: list[dict] = []
    traced: list[dict] = []
    costs: list[float] = []
    started = time.monotonic()
    for index in itertools.count():
        is_traced = bool(args.trace) and index % 2 == 1
        rep_dir = tmp / f"rep{index}"
        rep_dir.mkdir()
        begun = time.monotonic()
        result = run_rep(inputs, rep_dir, ctx, traced=is_traced)
        shutil.rmtree(rep_dir)
        costs.append(time.monotonic() - begun)
        (traced if is_traced else plain).append(result)
        enough = (
            len(plain) >= 1 and len(traced) >= 1
            if args.trace
            else len(plain) >= MIN_REPS[args.workload]
        )
        if enough and time.monotonic() - started + max(costs[-2:]) > args.seconds:
            break
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("campaign", "fl-train", "serve-persisted"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        try:
            plain, traced = measure(args, tmp)
        except checks.CheckError as error:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
        except Exception:
            traceback.print_exc()
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    samples = {"reps": len(plain), "traced_reps": len(traced)}
    if args.trace:
        values, units = per_layer(traced, plain), PER_LAYER
    else:
        values, extra = end_to_end(args.workload, plain)
        samples.update(extra)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": [
            {k: v for k, v in r.items() if k not in ("close_ms", "spans", "top")}
            for r in reps
        ],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
