"""Span recording around the program's layer entry points, and its analysis.

The traced run of a workload wraps, from these files, the public function
through which each layer of the program is entered.  Every call of a
wrapped function records one span ``(layer, start, end, parent, work)`` in
memory: ``parent`` is the index of the innermost span open when the call
started (``-1`` at top level) and ``work`` is the layer's unit of work (a
bid, a round, a trained client, a byte written).  Spans are written out as
one ``.npy`` array when the run ends, or when each campaign cell ends, and
:func:`summarize` turns the arrays into per-layer busy time, self time and
work counts.

End-to-end runs install none of this; their only instrumentation is
:func:`install_round_probe`, which timestamps round boundaries.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import time
from pathlib import Path

#: Layer names; a span's ``layer`` field indexes this tuple.
LAYERS = (
    "scenarios.build",
    "economics.bid",
    "economics.apply",
    "valuation.values",
    "mechanisms.decide",
    "simulation.run",
    "fl.train",
    "fl.aggregate",
    "fl.eval",
    "analysis.summarize",
    "persistence.event_log",
    "orchestration.campaign",
    "orchestration.cell",
    "orchestration.record",
    "orchestration.report",
    "service.decode",
    "service.encode",
    "service.intake",
    "service.close",
    "service.snapshot",
    "service.trail",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}


class Tracer:
    """Open-span stack plus the spans recorded so far in this process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []

    def dump(self, path: str | Path) -> None:
        """Write every span as an ``(n, 5)`` float array (atomic rename).

        A span still open at dump time is written with layer ``-1``, which
        :func:`summarize` skips.
        """
        import numpy as np

        rows = [span or (-1, 0.0, 0.0, -1, 0) for span in self.spans]
        array = np.asarray(rows, dtype=float).reshape(-1, 5)
        path = Path(path)
        tmp = path.with_name(path.stem + ".part.npy")
        np.save(tmp, array)
        os.replace(tmp, path)


TRACER = Tracer()


def _one(args, result) -> int:
    return 1


def traced(layer: str, fn, work=_one):
    """``fn`` wrapped so that each call records a span of ``layer``."""
    index = _INDEX[layer]
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = TRACER.spans
        stack = TRACER.stack
        slot = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(slot)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[slot] = (index, start, clock(), parent, 0)
            stack.pop()
            raise
        end = clock()
        stack.pop()
        spans[slot] = (index, start, end, parent, work(args, result))
        return result

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every attribute of a loaded ``repro`` module that holds
    ``original`` at ``replacement`` (modules import functions by name)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module_name: str, name: str, layer: str, work=_one) -> None:
    original = getattr(sys.modules[module_name], name)
    _rebind(original, traced(layer, original, work))


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _wrap_method(cls, name: str, layer: str, work=_one) -> None:
    """Wrap ``name`` on ``cls`` and on every loaded subclass defining it."""
    for klass in _subclasses(cls):
        if name in vars(klass):
            setattr(klass, name, traced(layer, vars(klass)[name], work))


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(trace_dir: str | Path) -> None:
    """Wrap the layer entry points of the loaded program modules.

    Call after importing ``repro.orchestration`` (simulation and campaign
    workloads) or ``repro.service.server`` (the served market); both pull in
    the mechanism layer.  Campaign pool workers fork from the coordinator
    after this ran and inherit the wrappers; the wrapped ``run_cell``
    starts each cell with an empty tracer and writes the cell's spans to
    ``trace_dir`` when it returns.
    """
    trace_dir = Path(trace_dir)
    from repro.core.mechanism import Mechanism

    _wrap_method(Mechanism, "run_round", "mechanisms.decide")
    _wrap_method(Mechanism, "run_rounds", "mechanisms.decide", lambda a, r: len(r))

    if "repro.orchestration.worker" in sys.modules:
        from repro.core.valuation import ValuationModel
        from repro.economics.client_profile import EconomicClient
        from repro.fl.batch import LocalSolver
        from repro.fl.server import FLServer
        from repro.orchestration import store, worker
        from repro.simulation.runner import SimulationRunner

        _wrap_function("repro.simulation.scenarios", "build_mechanism_scenario", "scenarios.build")
        _wrap_function("repro.simulation.scenarios", "build_fl_scenario", "scenarios.build")
        _wrap_method(EconomicClient, "make_bid", "economics.bid")
        _wrap_method(EconomicClient, "attempt_delivery", "economics.apply")
        _wrap_method(EconomicClient, "post_round", "economics.apply")
        _wrap_method(ValuationModel, "values_for", "valuation.values")
        _wrap_method(SimulationRunner, "run", "simulation.run", lambda a, r: len(r))
        _wrap_method(LocalSolver, "train", "fl.train", lambda a, r: len(a[1]))
        _wrap_method(FLServer, "apply_updates", "fl.aggregate")
        _wrap_method(FLServer, "evaluate", "fl.eval")
        _wrap_function("repro.orchestration.worker", "summarize_log", "analysis.summarize")
        _wrap_function(
            "repro.simulation.replay", "save_event_log", "persistence.event_log",
            lambda a, r: _size(a[0]),
        )
        _wrap_function("repro.orchestration.executor", "run_campaign", "orchestration.campaign")
        _wrap_method(store.ResultStore, "record_success", "orchestration.record")
        _wrap_method(store.ResultStore, "record_failure", "orchestration.record")
        _wrap_function("repro.orchestration.report", "campaign_report", "orchestration.report")

        original = worker.run_cell
        cell = traced("orchestration.cell", original)
        sequence = itertools.count()

        def run_cell(payload):
            TRACER.reset()
            try:
                return cell(payload)
            finally:
                TRACER.dump(trace_dir / f"cell-{os.getpid()}-{next(sequence)}.npy")

        # Pool workers receive run_cell pickled by reference, so the
        # replacement must resolve under the original's qualified name.
        functools.update_wrapper(run_cell, original)
        _rebind(original, run_cell)

    if "repro.service.server" in sys.modules:
        from repro.orchestration.events import EventWriter
        from repro.service.market import SNAPSHOT_NAME, Market

        _wrap_function("repro.service.protocol", "decode_frame", "service.decode")
        _wrap_function("repro.service.protocol", "encode_frame", "service.encode")
        _wrap_method(Market, "submit_bid", "service.intake")
        _wrap_method(Market, "close_round", "service.close")
        _wrap_method(
            Market, "snapshot", "service.snapshot",
            lambda a, r: _size(a[0].directory / SNAPSHOT_NAME) if a[0].directory else 0,
        )
        _wrap_method(EventWriter, "emit", "service.trail")


def install_round_probe(sink: list) -> None:
    """Timestamp each simulated round: ``(start, end)`` pairs into ``sink``.

    The only instrumentation of an end-to-end run: two clock reads per
    ``SimulationRunner.run_round`` call, which give the first round's start
    (the end of set-up) and the per-round close latency.
    """
    from repro.simulation.runner import SimulationRunner

    original = SimulationRunner.run_round
    clock = time.perf_counter

    @functools.wraps(original)
    def run_round(self, *args, **kwargs):
        start = clock()
        record = original(self, *args, **kwargs)
        sink.append((start, clock()))
        return record

    SimulationRunner.run_round = run_round


# -- analysis (runs in the benchmark process) -----------------------------------


def summarize(arrays) -> dict:
    """Per-layer ``busy``, ``self``, ``count`` and ``top`` over span arrays.

    ``busy`` sums the spans of a layer that have no ancestor of the same
    layer, so nested calls count once; ``count`` sums their work.  ``self``
    sums, over every span of the layer, its duration minus that of its
    direct children.  ``top`` sums the spans that have no parent at all.
    ``decide_ms`` holds one latency per decided round: a batched call
    contributes its duration divided by its rounds, once per round.
    """
    import numpy as np

    names = len(LAYERS)
    busy = np.zeros(names)
    own = np.zeros(names)
    top = np.zeros(names)
    count = np.zeros(names, dtype=np.int64)
    decide_ms = []
    decide = _INDEX["mechanisms.decide"]
    for array in arrays:
        if not len(array):
            continue
        layers = array[:, 0].astype(np.int64)
        parents = array[:, 3].astype(np.int64)
        durations = array[:, 2] - array[:, 1]
        work = array[:, 4].astype(np.int64)
        valid = layers >= 0
        child = np.bincount(
            parents[valid & (parents >= 0)],
            weights=durations[valid & (parents >= 0)],
            minlength=len(array),
        )
        np.add.at(own, layers[valid], (durations - child)[valid])
        nested = np.zeros(len(array), dtype=bool)
        ancestor = parents.copy()
        while True:
            open_ = ancestor >= 0
            if not open_.any():
                break
            nested[open_] |= layers[ancestor[open_]] == layers[open_]
            ancestor[open_] = parents[ancestor[open_]]
        outer = valid & ~nested
        np.add.at(busy, layers[outer], durations[outer])
        np.add.at(count, layers[outer], work[outer])
        root = outer & (parents < 0)
        np.add.at(top, layers[root], durations[root])
        picked = outer & (layers == decide) & (work > 0)
        decide_ms.append(np.repeat(durations[picked] * 1e3 / work[picked], work[picked]))
    return {
        "busy": dict(zip(LAYERS, busy.tolist())),
        "self": dict(zip(LAYERS, own.tolist())),
        "count": dict(zip(LAYERS, count.tolist())),
        "top": dict(zip(LAYERS, top.tolist())),
        "decide_ms": np.concatenate(decide_ms) if decide_ms else np.zeros(0),
    }
