"""The ``campaign`` and ``fl-train`` workloads: inputs and one repetition.

A repetition runs ``child.py`` in a fresh interpreter, which drives the
program through ``repro.cli``; this module then checks what the program
left on disk and turns the child's timestamps into measurements.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import time
from pathlib import Path

import checks

# Paper scale (``icdcs_defaults``): 40 clients, 10 winners, V = 50, a
# per-round budget of 5 that binds (myopic VCG spends above it), and
# participation targets that switch on LT-VCG's per-client queues.
PAPER = {
    "num_clients": 40,
    "max_winners": 10,
    "v": 50.0,
    "budget_per_round": 5.0,
    "participation_target": 0.2,
}

CAMPAIGN_MECHANISMS = ("lt-vcg", "myopic-vcg", "prop-share", "random")
CAMPAIGN_SCENARIOS = ("mechanism", "energy")
CAMPAIGN_SEEDS = 3
CAMPAIGN_ROUNDS = 200
CAMPAIGN_WORKERS = 2

FL_ROUNDS = 100
CHILD_TIMEOUT = 150.0


def campaign_inputs(seed: int) -> dict:
    """The sweep grid: 4 mechanisms x 2 scenarios x 3 seeds drawn from ``seed``."""
    seeds = random.Random(seed).sample(range(100_000), CAMPAIGN_SEEDS)
    return {
        "base": {"name": "perfbench-campaign", "num_rounds": CAMPAIGN_ROUNDS, **PAPER},
        "flags": [
            "--mechanisms", ",".join(CAMPAIGN_MECHANISMS),
            "--scenarios", ",".join(CAMPAIGN_SCENARIOS),
            "--seeds", ",".join(str(s) for s in seeds),
            "--workers", str(CAMPAIGN_WORKERS),
            "--backend", "process",
        ],
        "cells": len(CAMPAIGN_MECHANISMS) * len(CAMPAIGN_SCENARIOS) * CAMPAIGN_SEEDS,
    }


def fl_inputs(seed: int) -> dict:
    """One E1-shape run: LT-VCG with participation queues and a staleness
    boost recruiting 40 clients that train the CNN on non-IID images."""
    return {
        "name": "perfbench-fl",
        "seed": random.Random(seed).randrange(100_000),
        "num_rounds": FL_ROUNDS,
        "model": "cnn",
        "dirichlet_alpha": 0.5,
        "num_samples": 8000,
        "local_steps": 5,
        "batch_size": 32,
        "eval_every": 5,
        "extras": {"mechanism": "lt-vcg", "fl": True, "staleness_boost": 0.5},
        **PAPER,
    }


def _run_child(job: dict, rep_dir: Path, ctx) -> tuple[dict, float, float, object]:
    """Run ``child.py`` on ``job``; returns (timings, spawn time, spawn unix time, rusage)."""
    job["timings"] = str(rep_dir / "timings.json")
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job))
    with open(rep_dir / "child.log", "wb") as log:
        spawned_unix = time.time()
        spawned = time.monotonic()
        # A session of its own, so that a kill also reaches the pool workers.
        proc = subprocess.Popen(
            [ctx.python, str(ctx.here / "child.py"), str(job_path)],
            stdout=log, stderr=subprocess.STDOUT, env=ctx.env, cwd=ctx.root,
            start_new_session=True,
        )
        try:
            deadline = spawned + CHILD_TIMEOUT
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{job['workload']} child ran over {CHILD_TIMEOUT} s")
                time.sleep(0.01)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (rep_dir / "child.log").read_text(errors="replace")[-2000:]
        raise checks.CheckError(f"{job['workload']} child exited {proc.returncode}:\n{tail}")
    return json.loads(Path(job["timings"]).read_text()), spawned, spawned_unix, rusage


def dir_bytes(path: Path) -> int:
    """Bytes of every file under ``path``."""
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _load_spans(trace_dir: Path):
    import numpy as np

    import spans

    main = np.load(trace_dir / "main.npy")
    cells = [np.load(p) for p in sorted(trace_dir.glob("cell-*.npy"))]
    return {"spans": spans.summarize([main, *cells]), "top": spans.summarize([main])["top"]}


def campaign_rep(inputs: dict, rep_dir: Path, ctx, *, traced: bool) -> dict:
    out = rep_dir / "campaign"
    base = rep_dir / "base.json"
    base.write_text(json.dumps(inputs["base"]))
    job = {
        "workload": "campaign",
        "argv": ["sweep", "--out", str(out), "--config", str(base), *inputs["flags"]],
        "trace_dir": None,
    }
    if traced:
        (rep_dir / "trace").mkdir()
        job["trace_dir"] = str(rep_dir / "trace")
    timings, spawned, spawned_unix, rusage = _run_child(job, rep_dir, ctx)

    results = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    latest = {row["cell_id"]: row for row in results}
    if len(latest) != inputs["cells"] or any(
        row["status"] != "completed" for row in latest.values()
    ):
        raise checks.CheckError(
            f"campaign recorded {len(latest)} cells of {inputs['cells']}, "
            f"{sum(r['status'] != 'completed' for r in latest.values())} not completed"
        )
    rounds = bids = 0
    close_ms = []
    for row in latest.values():
        log = json.loads((out / row["event_log_path"]).read_text())
        counts = checks.event_log(
            log,
            budget=inputs["base"]["budget_per_round"],
            max_winners=inputs["base"]["max_winners"],
        )
        if counts["rounds"] != inputs["base"]["num_rounds"]:
            raise checks.CheckError(f"{row['cell_id']}: {counts['rounds']} rounds archived")
        rounds += counts["rounds"]
        bids += counts["bids"]
        close_ms.append(row["duration_seconds"] * 1e3 / counts["rounds"])

    events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
    first_cell = min(e["timestamp"] for e in events if e["type"] == "cell_started")
    result = {
        "setup_s": first_cell - spawned_unix,
        "wall_s": timings["finished"] - spawned,
        "rounds": rounds,
        "bids": bids,
        "close_ms": close_ms,
        "rss_kb": rusage.ru_maxrss,
        "disk_bytes": dir_bytes(out),
        "attempted": len(latest) + rounds + bids,
        "failed": 0,
        "workers": CAMPAIGN_WORKERS,
    }
    if traced:
        result["import_s"] = timings["imported"] - spawned
        result.update(_load_spans(rep_dir / "trace"))
    return result


def fl_rep(inputs: dict, rep_dir: Path, ctx, *, traced: bool) -> dict:
    out = rep_dir / "run"
    job = {"workload": "fl-train", "config": inputs, "out": str(out), "trace_dir": None}
    if traced:
        (rep_dir / "trace").mkdir()
        job["trace_dir"] = str(rep_dir / "trace")
    timings, spawned, _, rusage = _run_child(job, rep_dir, ctx)

    log = json.loads((out / "event_log.json").read_text())
    counts = checks.event_log(
        log, budget=inputs["budget_per_round"], max_winners=inputs["max_winners"]
    )
    if counts["rounds"] != inputs["num_rounds"]:
        raise checks.CheckError(f"fl-train archived {counts['rounds']} rounds")
    checks.fl_accuracy([row["test_accuracy"] for row in log["rounds"]])
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("rounds") != inputs["num_rounds"]:
        raise checks.CheckError(f"fl-train summary reports {summary.get('rounds')!r} rounds")

    result = {
        "wall_s": timings["finished"] - spawned,
        "rounds": counts["rounds"],
        "bids": counts["bids"],
        "rss_kb": rusage.ru_maxrss,
        "disk_bytes": dir_bytes(out),
        "attempted": counts["rounds"] + counts["bids"],
        "failed": 0,
    }
    if traced:
        result["import_s"] = timings["imported"] - spawned
        result.update(_load_spans(rep_dir / "trace"))
    else:
        probe = timings["rounds"]
        if len(probe) != inputs["num_rounds"]:
            raise checks.CheckError(f"round probe saw {len(probe)} rounds")
        result["setup_s"] = probe[0][0] - spawned
        result["close_ms"] = [(end - start) * 1e3 for start, end in probe]
    return result
