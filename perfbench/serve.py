"""The ``serve-persisted`` workload: a persisted two-market server under load.

One repetition, driven from the benchmark process:

1. ``python -m repro.cli serve --dir DIR --port 0`` starts in its own
   process (the traced repetition starts ``serve_launcher.py`` instead);
   set-up ends when it has answered the creation of both markets.
2. Timed phase, closed loop: one connection per market, each sending a
   round's bids as one pre-encoded ``bids`` frame and waiting for the reply
   that closes the round (``max_round_bids`` equals the round's bid count).
3. Crash phase: each market receives half a round of bids and acknowledges
   them; the server is SIGKILLed and restarted on the same directory.
   Every acknowledged bid missing from ``pending`` afterwards is a failed
   operation.  The crash bids are fixed and do not depend on the seed.
4. The restarted server is stopped with the ``shutdown`` op, and the
   archived outcomes are checked.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import selectors
import signal
import socket
import subprocess
import threading
import time
from pathlib import Path

import checks
from workloads import dir_bytes

MARKETS = ("market-a", "market-b")
CLIENTS = 50
ROUNDS = 200
MAX_WINNERS = 10
BUDGET = 5.0
V = 50.0
PARTICIPATION_TARGET = 0.05
CRASH_BIDS = CLIENTS // 2
START_TIMEOUT = 60.0


def make_inputs(seed: int) -> dict:
    """Per-market bid traces drawn from ``seed``, pre-encoded as frames.

    Each market has ``CLIENTS`` clients with a base cost, a value, a data
    size and a quality; every round each client bids its base cost times a
    +-10 % jitter.
    """
    markets = {}
    for name in MARKETS:
        rng = random.Random(f"{seed}/{name}")
        clients = [
            (rng.uniform(0.2, 1.2), rng.uniform(0.5, 2.5), rng.randint(50, 500),
             rng.uniform(0.5, 1.0))
            for _ in range(CLIENTS)
        ]
        rounds = [
            [
                {"client_id": cid, "cost": cost * rng.uniform(0.9, 1.1), "value": value,
                 "data_size": size, "quality": quality}
                for cid, (cost, value, size, quality) in enumerate(clients)
            ]
            for _ in range(ROUNDS)
        ]
        markets[name] = {
            "create": {
                "op": "create_market",
                "market": name,
                "experiment": {
                    "name": name,
                    "num_clients": CLIENTS,
                    "max_winners": MAX_WINNERS,
                    "v": V,
                    "budget_per_round": BUDGET,
                    "participation_target": PARTICIPATION_TARGET,
                    "extras": {"mechanism": "lt-vcg"},
                },
                "max_round_bids": CLIENTS,
            },
            "rounds": [{b["client_id"]: b["cost"] for b in bids} for bids in rounds],
            "frames": [_encode({"op": "bids", "market": name, "bids": bids}) for bids in rounds],
            "crash": [
                {"client_id": cid, "cost": 1.0, "value": 1.0, "data_size": 100, "quality": 1.0}
                for cid in range(CRASH_BIDS)
            ],
        }
    return markets


def _encode(frame: dict) -> bytes:
    return (json.dumps(frame) + "\n").encode()


class Server:
    """A server process whose first stdout line announces its port."""

    def __init__(self, cmd: list[str], env: dict, cwd: Path, log: Path) -> None:
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=cwd
        )
        self.rusage = None
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        line = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                if not selector.select(max(0.0, deadline - time.monotonic())):
                    raise TimeoutError("server did not announce its port")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("server exited before announcing its port")
                line += chunk
        match = re.search(rb":(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected server banner {line!r}")
        return int(match.group(1))

    def wait(self, timeout: float = 30.0) -> None:
        """Reap the process (killing it after ``timeout``); keep its rusage."""
        if self.rusage is not None:
            return
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.005)
        self.rusage = rusage
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._log.close()

    def kill(self) -> None:
        if self.rusage is None:
            self.proc.kill()
            self.wait()


class Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=START_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> bytes:
        self.sock.sendall(data)
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def call(self, frame: dict) -> dict:
        return json.loads(self.send(_encode(frame)))

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def _drive(connection, frames, latencies, replies, barrier, errors) -> None:
    try:
        barrier.wait()
        clock = time.perf_counter
        for frame in frames:
            start = clock()
            replies.append(connection.send(frame))
            latencies.append(clock() - start)
    except BaseException as error:  # reported by the coordinating thread
        errors.append(error)
        barrier.abort()


def run_rep(inputs: dict, rep_dir: Path, ctx, *, traced: bool) -> dict:
    """One repetition; returns its measurements and operation counts."""
    state = rep_dir / "service"
    serve_args = ["serve", "--dir", str(state), "--port", "0"]
    if traced:
        trace_dir = rep_dir / "trace"
        trace_dir.mkdir()
        cmd = [ctx.python, str(ctx.here / "serve_launcher.py"), str(trace_dir), *serve_args]
    else:
        cmd = [ctx.python, "-m", "repro.cli", *serve_args]

    servers: list[Server] = []
    connections: list[Connection] = []
    try:
        spawned = time.monotonic()
        server = Server(cmd, ctx.env, ctx.root, rep_dir / "server.log")
        servers.append(server)
        for name in MARKETS:
            connection = Connection(server.port)
            connections.append(connection)
            reply = connection.call(inputs[name]["create"])
            if not reply.get("ok") or not reply.get("created"):
                raise checks.CheckError(f"create_market {name}: {reply!r:.300}")
        ready = time.monotonic()

        latencies = {name: [] for name in MARKETS}
        replies = {name: [] for name in MARKETS}
        errors: list[BaseException] = []
        barrier = threading.Barrier(len(MARKETS) + 1)
        threads = [
            threading.Thread(
                target=_drive,
                args=(conn, inputs[name]["frames"], latencies[name], replies[name],
                      barrier, errors),
            )
            for conn, name in zip(connections, MARKETS)
        ]
        # The load generator's own collector pauses would show up as close
        # latency; the timed phase allocates no reference cycles.
        gc.collect()
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            timed_start = time.perf_counter()
            for thread in threads:
                thread.join()
            timed = time.perf_counter() - timed_start
        finally:
            gc.enable()
        if errors:
            raise errors[0]

        acked = {}
        for conn, name in zip(connections, MARKETS):
            reply = conn.call({"op": "bids", "market": name, "bids": inputs[name]["crash"]})
            if not reply.get("ok") or reply.get("closed_rounds"):
                raise checks.CheckError(f"crash-phase bids on {name}: {reply!r:.300}")
            acked[name] = [
                bid["client_id"]
                for bid, verdict in zip(inputs[name]["crash"], reply["results"])
                if verdict.get("ok")
            ]
        if traced:
            server.proc.send_signal(signal.SIGUSR1)
            _await_file(trace_dir / "server.npy")
        server.proc.send_signal(signal.SIGKILL)
        server.wait()
        for conn in connections:
            conn.close()
        connections.clear()

        restarting = time.monotonic()
        restarted = Server(
            [ctx.python, "-m", "repro.cli", *serve_args], ctx.env, ctx.root,
            rep_dir / "server.log",
        )
        servers.append(restarted)
        connection = Connection(restarted.port)
        connections.append(connection)
        listing = connection.call({"op": "markets"})
        resumed_at = time.monotonic()
        connection.call({"op": "shutdown"})
        connection.close()
        connections.clear()
        restarted.wait()
    finally:
        for conn in connections:
            conn.close()
        for server in servers:
            server.kill()

    stats = {row["name"]: row for row in listing.get("markets", [])}
    lost = 0
    for name in MARKETS:
        checks.served_replies(
            [json.loads(line) for line in replies[name]],
            market=name,
            first_round=0,
            round_bids=[len(bids) for bids in inputs[name]["rounds"]],
        )
        market_dir = state / "markets" / name
        outcomes = [
            json.loads(line) for line in (market_dir / "outcomes.jsonl").read_text().splitlines()
        ]
        backlog = checks.served_outcomes(
            outcomes, inputs[name]["rounds"], budget=BUDGET, max_winners=MAX_WINNERS
        )
        if name not in stats:
            raise checks.CheckError(f"market {name} did not come back after the restart")
        checks.resumed(stats[name], next_round_index=ROUNDS, backlog=backlog)
        snapshot = json.loads((market_dir / "snapshot.json").read_text())
        pending = {bid["client_id"] for bid in snapshot.get("pending", [])}
        lost += sum(1 for cid in acked[name] if cid not in pending)

    bids = sum(len(bids) for name in MARKETS for bids in inputs[name]["rounds"])
    rounds = ROUNDS * len(MARKETS)
    result = {
        "setup_s": ready - spawned,
        "wall_s": resumed_at - spawned,
        "timed_s": timed,
        "rounds": rounds,
        "bids": bids,
        "close_ms": [x * 1e3 for name in MARKETS for x in latencies[name]],
        "rss_kb": max(s.rusage.ru_maxrss for s in servers),
        "disk_bytes": dir_bytes(state),
        "restart_s": resumed_at - restarting,
        "attempted": rounds + bids + len(MARKETS) * CRASH_BIDS,
        "failed": lost,
    }
    if traced:
        import numpy as np

        import spans

        marks = json.loads((trace_dir / "server.json").read_text())
        result["import_s"] = marks["imported"] - spawned
        result["spans"] = spans.summarize([np.load(trace_dir / "server.npy")])
        result["top"] = result["spans"]["top"]
    return result


def _await_file(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path.name} was not written")
        time.sleep(0.005)
