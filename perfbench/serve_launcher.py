"""The traced auction server of the ``serve-persisted`` workload.

Wraps the service layers (frame codec, bid intake, round close, snapshot,
event trail) and the mechanism, then starts the same ``AuctionServer`` that
``python -m repro.cli serve`` starts::

    python3 perfbench/serve_launcher.py TRACE_DIR serve --dir DIR --port 0

On ``SIGUSR1`` it writes its spans to ``TRACE_DIR/server.npy`` (after its
start-up timestamps to ``TRACE_DIR/server.json``); the load generator sends
the signal when the timed phase is over, before it kills the server.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    trace_dir = Path(sys.argv[1])
    import repro.cli
    import repro.service.server  # noqa: F401 - imported on first use by `serve`

    imported = time.monotonic()
    import spans

    spans.install(trace_dir)

    def dump(signum, frame):
        (trace_dir / "server.json").write_text(
            json.dumps({"started": STARTED, "imported": imported})
        )
        spans.TRACER.dump(trace_dir / "server.npy")

    signal.signal(signal.SIGUSR1, dump)
    return repro.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
