"""In-memory span tracer that wraps the fleet's public callables from outside.

The traced run executes the same program as the untraced one: nothing in
``src/`` is edited and the program's own observability switch
(``repro.obs``) stays off, because turning it on sends the batch kernel to
its scalar fallback.  Instead, :func:`install` replaces each listed callable
by a wrapper that records one span per call: the wrapper is bound under the
same name in every loaded ``repro`` module that imported the callable, and
methods are replaced on their class.  Types are untouched, so the batch
kernel's type-based vectorizability test still sees the same classes.

Spans live in four parallel lists (name, start, end, parent index) and are
aggregated when the run ends.  Pool workers are forked after installation,
so they inherit the wrappers; each worker clears the inherited spans, and
its spans for one chunk travel back to the parent attached to that chunk's
result, where they are appended with their parent indices re-based.  A
worker's root span has no parent in the driver process, so driver coverage
counts driver-process spans only.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so worker and parent timestamps share one base.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

FUNCTIONS: Sequence[Tuple[str, str, str]] = (
    ("repro.experiment.harness", "run_session",
     "experiment.harness.run_session"),
    ("repro.batch.engine", "run_session_batch",
     "batch.engine.run_session_batch"),
    ("repro.edge.engine", "run_cell", "edge.engine.run_cell"),
    ("repro.edge.fairshare", "max_min_shares",
     "edge.fairshare.max_min_shares"),
)
"""Module-level callables: (defining module, name, span name)."""

METHODS: Sequence[Tuple[str, str, str, str]] = (
    ("repro.media.encoder", "VbrEncoder", "encode_chunk",
     "media.encoder.encode_chunk"),
    ("repro.net.tcp", "TcpConnection", "transmit", "net.tcp.transmit"),
    ("repro.core.controller", "ValueIterationController", "plan",
     "core.controller.plan"),
    ("repro.core.ttp", "TransmissionTimePredictor", "predict",
     "core.ttp.predict"),
    ("repro.core.ttp", "TransmissionTimePredictor", "calibrate_tail",
     "core.ttp.calibrate_tail"),
    ("repro.core.fugu", "Fugu", "choose", "core.fugu.choose"),
    ("repro.abr.bba", "BBA", "choose", "abr.bba.choose"),
    ("repro.abr.bola", "Bola", "choose", "abr.bola.choose"),
    ("repro.abr.mpc", "MpcHm", "choose", "abr.mpc_hm.choose"),
    # RobustMpcHm inherits MpcHm.choose; binding the wrapper on the
    # subclass gives it its own span name without changing behaviour.
    ("repro.abr.mpc", "RobustMpcHm", "choose", "abr.robust_mpc_hm.choose"),
    ("repro.data.archive", "ArchiveAppender", "append",
     "data.archive.append"),
    ("repro.data.archive", "ArchiveAppender", "flush", "data.archive.flush"),
    ("repro.data.archive", "ArchiveAppender", "reconstruct_streams",
     "data.archive.reconstruct_streams"),
    ("repro.core.train", "DailyRetrainer", "window_datasets",
     "core.train.window_datasets"),
    ("repro.core.train", "DailyRetrainer", "retrain", "core.train.retrain"),
    ("repro.core.train", "TtpTrainer", "evaluate", "core.train.evaluate"),
    ("repro.fleet.retrain", "ModelRegistry", "commit",
     "fleet.retrain.registry_commit"),
    ("repro.fleet.checkpoint", "CheckpointManager", "save",
     "fleet.checkpoint.save"),
    ("repro.fleet.sinks", "FleetSink", "merge", "fleet.sinks.merge"),
    ("repro.fleet.sinks", "StreamingSchemeSink", "observe_stream",
     "fleet.sinks.observe_stream"),
)
"""Methods: (defining module, class, method, span name)."""

DRIVER = "fleet.driver"
CHUNK = "fleet.runner.simulate_chunk"
POOL_WAIT = "fleet.pool.wait"

SPAN_NAMES: Tuple[str, ...] = tuple(
    [name for _, _, name in FUNCTIONS]
    + [name for _, _, _, name in METHODS]
    + [CHUNK]
)
"""Every span that reports ``<name>.calls`` and ``<name>.self_s``."""

PERCENTILE_SPANS = ("experiment.harness.run_session", "core.controller.plan")

_SHIPPED = "_perfbench_spans"
"""Attribute carrying a worker's spans back on its chunk result."""


class Tracer:
    """Spans of one process, kept in parallel lists until the run ends."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.stack: List[int] = []
        self.batch_submitted = 0

    def begin(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    # -- pool workers ---------------------------------------------------
    def adopt_process(self) -> None:
        """In a forked worker: drop the spans inherited from the parent."""
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self._clear()
            self.batch_submitted = 0

    def _clear(self) -> None:
        for spans in (self.names, self.starts, self.ends, self.parents):
            del spans[:]
        del self.stack[:]

    def take(self) -> Tuple[list, list, list, list, int]:
        """This worker's spans since the last take (then forgets them)."""
        taken = (
            list(self.names), list(self.starts), list(self.ends),
            list(self.parents), self.batch_submitted,
        )
        self._clear()
        self.batch_submitted = 0
        return taken

    def absorb(self, shipped: Tuple[list, list, list, list, int]) -> None:
        names, starts, ends, parents, submitted = shipped
        base = len(self.starts)
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(p + base if p >= 0 else -1 for p in parents)
        self.batch_submitted += submitted


def _patch_name(original: Callable, replacement: Callable, name: str) -> None:
    """Rebind ``name`` in every loaded repro module bound to ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and (
            getattr(module, name, None) is original
        ):
            setattr(module, name, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every listed callable; raises if a target no longer exists."""
    for module_name in {m for m, _, _ in FUNCTIONS} | {
        m for m, _, _, _ in METHODS
    } | {"repro.fleet.runner", "repro.fleet.retrain"}:
        importlib.import_module(module_name)

    for module_name, attr, span in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original)
        if attr == "run_session_batch":
            wrapped = _counting_batch(tracer, wrapped)
        _patch_name(original, wrapped, attr)

    # Look every method up before patching any, so that a subclass that
    # inherits one (RobustMpcHm.choose) wraps the original, not a wrapper.
    methods = [
        (getattr(sys.modules[module_name], cls_name), method, span)
        for module_name, cls_name, method, span in METHODS
    ]
    originals = [getattr(cls, method) for cls, method, _ in methods]
    for (cls, method, span), original in zip(methods, originals):
        setattr(cls, method, tracer.wrap(span, original))

    runner = sys.modules["repro.fleet.runner"]
    _patch_name(
        runner._run_fleet_chunk,
        _shipping_chunk(tracer, runner._run_fleet_chunk),
        "_run_fleet_chunk",
    )
    _patch_name(
        runner._execute_chunks,
        _timed_chunks(tracer, runner._execute_chunks),
        "_execute_chunks",
    )


def _counting_batch(tracer: Tracer, traced: Callable) -> Callable:
    params = inspect.signature(traced).parameters
    position = list(params).index("session_ids")

    @functools.wraps(traced)
    def counted(*args, **kwargs):
        if "session_ids" in kwargs:
            ids = kwargs["session_ids"]
        else:
            ids = args[position]
        tracer.batch_submitted += len(ids)
        return traced(*args, **kwargs)

    return counted


def _shipping_chunk(tracer: Tracer, original: Callable) -> Callable:
    """Pool-worker entry: one chunk span, shipped back with the result."""
    traced = tracer.wrap(CHUNK, original)

    # The pool pickles the function by module and qualified name, which
    # ``wraps`` copies, so workers find this wrapper under the old name.
    @functools.wraps(original)
    def run_chunk(items):
        tracer.adopt_process()
        result = traced(items)
        setattr(result, _SHIPPED, tracer.take())
        return result

    return run_chunk


def _timed_chunks(tracer: Tracer, original: Callable) -> Callable:
    """Time each step of the chunk stream.

    With a pool the driver is blocked on the next ordered result
    (``fleet.pool.wait``); in-process the step simulates the chunk
    (``fleet.runner.simulate_chunk``).
    """
    signature = inspect.signature(original)

    @functools.wraps(original)
    def execute_chunks(*args, **kwargs):
        workers = signature.bind(*args, **kwargs).arguments["workers"]
        name = POOL_WAIT if workers > 1 else CHUNK
        inner = original(*args, **kwargs)
        try:
            while True:
                index = tracer.begin(name)
                try:
                    chunk = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                shipped = chunk.__dict__.pop(_SHIPPED, None)
                if shipped is not None:
                    tracer.absorb(shipped)
                yield chunk
        finally:
            inner.close()

    return execute_chunks


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))
    return sorted_values[rank - 1]


def aggregate(tracer: Tracer, driver_index: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""
    n = len(tracer.starts)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_total = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_total[parent] += durations[i]

    metrics: Dict[str, float] = {}
    calls: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
    self_s: Dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    per_call: Dict[str, List[float]] = {n: [] for n in PERCENTILE_SPANS}
    fallbacks = 0
    pool_wait = 0.0
    for i, name in enumerate(tracer.names):
        if name in calls:
            calls[name] += 1
            self_s[name] += durations[i] - child_total[i]
        if name in per_call:
            per_call[name].append(durations[i])
        if name == POOL_WAIT:
            pool_wait += durations[i]
        parent = tracer.parents[i]
        if (
            name == "experiment.harness.run_session"
            and parent >= 0
            and tracer.names[parent] == "batch.engine.run_session_batch"
        ):
            fallbacks += 1

    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    for name, values in per_call.items():
        values.sort()
        metrics[f"{name}.p50_us"] = _percentile(values, 50) * 1e6
        metrics[f"{name}.p99_us"] = _percentile(values, 99) * 1e6

    submitted = tracer.batch_submitted
    metrics["batch.sessions_submitted"] = submitted
    metrics["batch.vectorized_frac"] = (
        (submitted - fallbacks) / submitted if submitted else 0.0
    )
    metrics["fleet.pool.wait_s"] = pool_wait

    driver_s = durations[driver_index]
    metrics["fleet.driver.wall_s"] = driver_s
    metrics["fleet.driver.self_s"] = driver_s - child_total[driver_index]
    metrics["trace.covered_frac"] = (
        child_total[driver_index] / driver_s if driver_s > 0 else 0.0
    )
    metrics["fleet.retrain.generation_latency_s"] = _generation_latency(
        tracer, driver_index
    )
    return metrics


def _generation_latency(tracer: Tracer, driver_index: int) -> float:
    """Median time from a day's last chunk commit to the end of the
    registry commit that closes the day (driver-process spans only).

    A chunk commit ends with its checkpoint save, and closing a day saves
    no checkpoint before the registry commit, so the last checkpoint save
    before a registry commit ends the day's last chunk commit.
    """
    last_save: Optional[float] = None
    latencies: List[float] = []
    for i, name in enumerate(tracer.names):
        if name == "fleet.checkpoint.save":
            if _in_driver(tracer, i, driver_index):
                last_save = tracer.ends[i]
        elif name == "fleet.retrain.registry_commit" and last_save is not None:
            if _in_driver(tracer, i, driver_index):
                latencies.append(tracer.ends[i] - last_save)
    latencies.sort()
    if not latencies:
        return 0.0
    middle = len(latencies) // 2
    if len(latencies) % 2:
        return latencies[middle]
    return (latencies[middle - 1] + latencies[middle]) / 2


def _in_driver(tracer: Tracer, index: int, driver_index: int) -> bool:
    while index >= 0:
        if index == driver_index:
            return True
        index = tracer.parents[index]
    return False
