"""One repetition of the ``campaign`` or ``fl-train`` workload.

Run by ``run.py`` in a fresh interpreter::

    python3 perfbench/child.py JOB.json

``JOB.json`` names the workload, its generated inputs, the output
directory and, for a traced repetition, the directory that receives the
span files.  The child drives the program through ``repro.cli`` and writes
its own timestamps (``time.monotonic``, which is system-wide) to the job's
``timings`` path.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    trace_dir = job.get("trace_dir")

    import repro.cli
    import repro.orchestration  # noqa: F401 - imported on first use by both workloads

    imported = time.monotonic()
    rounds: list = []
    if trace_dir is not None:
        spans.install(trace_dir)
    elif job["workload"] == "fl-train":
        spans.install_round_probe(rounds)

    if job["workload"] == "campaign":
        code = repro.cli.main(job["argv"])
    else:
        from repro.config import ExperimentConfig

        repro.cli.run_experiment(ExperimentConfig(**job["config"]), Path(job["out"]))
        code = 0
    finished = time.monotonic()

    if trace_dir is not None:
        spans.TRACER.dump(Path(trace_dir) / "main.npy")
    Path(job["timings"]).write_text(
        json.dumps(
            {
                "started": STARTED,
                "imported": imported,
                "finished": finished,
                "code": code,
                "rounds": rounds,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
