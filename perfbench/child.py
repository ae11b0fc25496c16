"""One fleet run in a fresh interpreter (started by ``run.py``).

Usage: ``python3 perfbench/child.py SPEC`` where SPEC is a JSON object with
``workload``, ``seed``, ``executor``, ``workers``, ``run_dir``, ``result``,
``trace`` and ``setup_only`` (stop just before the driver call).  ``PYTHONPATH`` must reach the program's ``src``.

The run imports the program, builds the workload, calls the fleet driver
once with its checkpoint (and, for ``retrain``, archive and registry) in
``run_dir``, then writes a JSON report to ``result``: the wall-clock time
at which the driver was entered (so the parent can measure set-up from
before it spawned this process) with the set-up's speed scale, driver wall
time raw and calibrated (see :class:`SpeedProbe`), sessions committed,
peak RSS, the resolved executor, and SHA-256 digests of the metrics dump,
archive and registry.  With ``trace`` set, the callables listed in
``spans.py`` are wrapped before the driver call and the per-layer
aggregates are added to the report.
"""

import hashlib
import json
import os
import resource
import signal
import sys
import time
from typing import Dict, List, Optional, Tuple


def digest_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def digest_tree(directory: str) -> Optional[str]:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    if not os.path.isdir(directory):
        return None
    digest = hashlib.sha256()
    for path in sorted(_files(directory)):
        digest.update(os.path.relpath(path, directory).encode("utf-8"))
        digest.update(b"\0")
        with open(path, "rb") as f:
            digest.update(f.read())
        digest.update(b"\0")
    return digest.hexdigest()


def _files(directory: str):
    for base, _, names in os.walk(directory):
        for name in names:
            yield os.path.join(base, name)


def _tree_bytes(directory: str) -> int:
    if not os.path.isdir(directory):
        return 0
    return sum(os.path.getsize(path) for path in _files(directory))


def _csv_rows(directory: str) -> int:
    """Data rows in the archive's CSV tables (header lines excluded)."""
    rows = 0
    for path in _files(directory) if os.path.isdir(directory) else ():
        if path.endswith(".csv"):
            with open(path, "rb") as f:
                rows += max(0, sum(1 for _ in f) - 1)
    return rows


PROBE_LOOPS = 150
"""Iterations of the speed probe's fixed loop of small numpy operations."""

PROBE_PERIOD_S = 0.1
"""Interval between speed probes while the driver runs."""

PROBE_REFERENCE_S = 0.0012
"""CPU time of one probe on the machine the baseline was recorded on
(2-vCPU VM, Python 3.11, numpy 2.4); calibrated seconds are seconds of
that machine."""


class SpeedProbe:
    """Samples the machine's speed while the fleet driver runs.

    On a shared host the speed of a vCPU moves by tens of percent within
    seconds (other tenants on the same core), which would swamp the
    throughput figures.  Every ``PROBE_PERIOD_S`` a ``SIGALRM`` runs a
    fixed loop of scalar-sized numpy calls in the driver's thread and
    times it in thread CPU time, which ignores waiting for a core but sees
    the host slowing the core down.  Small-array numpy dispatch is where
    the simulator spends its time, and such a probe tracks the simulator's
    speed better than plain integer arithmetic or a memory sweep do.  The
    driver time between two probes is scaled by the speed the later probe
    saw, so ``calibrated_s`` is the driver time the reference machine
    would have needed; probe time itself is left out.  The timer is not
    inherited by forked pool workers.  Set-up is too short for the timer:
    two probes bracket it and :meth:`scale` converts it as a whole.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float, float]] = []
        self._previous_handler = None

    def sample(self, *_signal: object) -> None:
        import numpy as np

        wall = time.perf_counter()
        cpu = time.thread_time()
        x = np.float64(3.3)
        for _ in range(PROBE_LOOPS):
            scaled = np.array([1.0, 2.0, 3.0]) * np.clip(x, 0.0, 10.0)
            float(scaled.sum())
        self.marks.append(
            (wall, time.perf_counter(), time.thread_time() - cpu)
        )

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        """Stop the timer and take the sample that closes the last interval."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()

    def probe_s(self) -> float:
        """Wall time spent in probes so far."""
        return sum(end - begin for begin, end, _ in self.marks)

    def scale(self) -> float:
        """Reference-machine seconds per local second, over all probes."""
        mean_cpu = sum(cpu for _, _, cpu in self.marks) / len(self.marks)
        return PROBE_REFERENCE_S / mean_cpu

    def calibrated_s(self, start: float) -> float:
        """Calibrated driver seconds since ``start``; call after :meth:`stop`."""
        calibrated = 0.0
        previous = start
        for begin, end, probe_cpu in self.marks:
            calibrated += (begin - previous) * PROBE_REFERENCE_S / probe_cpu
            previous = end
        return calibrated


def main(spec: Dict[str, object]) -> int:
    import_start = time.perf_counter()
    # numpy first (the program imports it anyway), so that the speed probe
    # can bracket the rest of the set-up.
    import numpy  # noqa: F401

    setup_probe = SpeedProbe()
    setup_probe.sample()
    import repro.abr  # noqa: F401
    import repro.edge  # noqa: F401
    import repro.experiment.presets  # noqa: F401
    import repro.fleet  # noqa: F401

    import_s = time.perf_counter() - import_start - setup_probe.probe_s()

    import workloads

    run_dir = str(spec["run_dir"])
    built = workloads.build(
        str(spec["workload"]), int(spec["seed"]), str(spec["executor"])
    )
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        driver_index = tracer.begin(spans.DRIVER)

    setup_probe.sample()
    setup = {
        "call_wall": time.time(),
        "setup_probe_s": setup_probe.probe_s(),
        "setup_scale": setup_probe.scale(),
        "import_s": import_s,
    }
    if spec["setup_only"]:
        with open(str(spec["result"]), "w") as f:
            json.dump(setup, f)
        return 0
    # Traced runs leave the probe out so that every span is the program's.
    probe = SpeedProbe()
    start = time.perf_counter()
    if tracer is None:
        probe.start()
    result = workloads.run(built, int(spec["workers"]), run_dir)
    driver_s = time.perf_counter() - start - probe.probe_s()
    if tracer is None:
        probe.stop()
    else:
        tracer.end(driver_index)
        probe.sample()
    calibrated_s = probe.calibrated_s(start)

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    archive = os.path.join(run_dir, "archive")
    registry = os.path.join(run_dir, "registry")
    dump = result.dump(os.path.join(run_dir, "dump.json"))
    throughput = result.throughput
    report = {
        **setup,
        "driver_s": driver_s,
        "calibrated_s": calibrated_s,
        "probes": len(probe.marks),
        "sessions": throughput.sessions,
        "commits": throughput.commits,
        "executor": throughput.executor,
        "mode": throughput.mode,
        "peak_rss_mb": max(self_kb, child_kb) / 1024.0,
        "digests": {
            "dump": digest_file(dump),
            "archive": digest_tree(archive),
            "registry": digest_tree(registry),
        },
        "edge_stats": result.edge_stats,
        "archive_rows": _csv_rows(archive),
        "archive_bytes": _tree_bytes(archive),
        "registry_bytes": _tree_bytes(registry),
        "checkpoint_bytes": os.path.getsize(result.checkpoint_path),
    }
    if tracer is not None:
        report["layers"] = spans.aggregate(tracer, driver_index)
    with open(str(spec["result"]), "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
