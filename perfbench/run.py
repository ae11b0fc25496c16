"""Fleet benchmark: end-to-end and per-layer metrics of the fleet driver.

Run from the repository root::

    python3 perfbench/run.py --workload classic-mix --seed 4 --seconds 15 --trace 0
    python3 perfbench/run.py --workload retrain --seed 3 --trace 1 --out change.jsonl
    python3 perfbench/run.py --self-test
    python3 perfbench/compare.py parent.jsonl change.jsonl

Workloads (``workloads.py``; their reasons and the layer-to-metric
predictions live in ``reference.json``): ``classic-mix``, ``edge-cells``
and ``retrain``.  Every fleet run is a fresh interpreter (``child.py``) so
that imports and memory are counted, and writes its crash-safe checkpoint
(plus archive and registry for ``retrain``) into a fresh directory under
``.perfbench_tmp/``.

With ``--trace 0`` the benchmark repeats untraced fleet runs for
``--seconds`` (at least one), times further set-ups until
``SETUP_SAMPLES`` have been timed, and reports the median over runs of each
end-to-end metric in ``BENCHMARK.json``:

* ``setup_s``: spawning the interpreter to entering the fleet driver
  (imports, specs, configs), scaled to the reference machine's speed;
* ``cal_sessions_per_s``: sessions committed per second of driver time,
  scaled to the reference machine's speed every 100 ms;
* ``peak_rss_mb``: peak RSS of the run or of its largest pool worker.

The scaling (``child.SpeedProbe``) exists because this kind of shared host
changes a vCPU's speed by up to half within seconds; the unscaled
``sessions_per_s`` and ``setup_wall_s`` are printed and recorded beside
the metrics as information.  With ``--trace 1`` the benchmark alternates
untraced and traced runs and reports the median of each per-layer metric
over the traced runs; ``trace.overhead_frac`` compares their driver times.

Correctness gate: every run's SHA-256 digests (metrics dump; archive and
registry for ``retrain``) must equal the reference.  For the default seed
the reference is pinned in ``reference.json``; for any other seed it is an
``executor="scalar"``, one-worker run at the same seed made first (the
fleet is byte-identical at any executor and worker count).  A run that
exits non-zero or differs counts in ``failed``; ``failed_frac`` is
``failed / attempted``.  A traced run must also resolve the same executor
as the untraced runs.  If the program's results change on purpose, the
new digests are in every run of an ``--out`` record.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also appends a
record with that result, the information figures, every run's raw report
and the run metadata (machine, versions, temp-dir filesystem, commit,
lines of ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_RUNS = 1
"""Measured fleet runs per ``--trace 0`` invocation, at the least; more
follow while ``--seconds`` have not passed."""

SETUP_SAMPLES = 6
"""Set-ups timed per ``--trace 0`` invocation, at the least: every child
but a traced one times its set-up, and set-up-only runs make up the rest."""

TIME_LIMIT_S = 165.0
"""No new fleet run starts after this much time, so a run ends within 180 s."""

TMP_DIR = ".perfbench_tmp"

INFO_UNITS = {
    "sessions_per_s": "1/s",
    "setup_wall_s": "s",
    "failed_frac": "ratio",
}
"""Figures printed and recorded beside the metrics, never gated:
``sessions_per_s`` and ``setup_wall_s`` are the uncalibrated wall-clock
figures, whose run-to-run spread on a shared host is wider than any
allowed bound, and ``failed_frac`` is ``failed / attempted`` (zero unless
something broke)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
class Budget:
    def __init__(self) -> None:
        self.start = time.time()

    def left(self) -> float:
        return TIME_LIMIT_S - (time.time() - self.start)


def run_child(
    root: str,
    scratch: str,
    budget: Budget,
    workload: str,
    seed: int,
    executor: str,
    workers: int,
    kind: str,
) -> Dict[str, object]:
    """One child interpreter; returns its report.

    ``kind`` is ``measured``, ``traced``, ``reference`` or ``setup`` (a
    set-up-only run stops just before the driver call).  The report gains
    ``kind``, ``setup_s`` (spawn to driver entry) and, on failure,
    ``error``.  The run's directory is deleted afterwards.
    """
    run_dir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    result_path = os.path.join(run_dir, "report.json")
    spec = {
        "workload": workload,
        "seed": seed,
        "executor": executor,
        "workers": workers,
        "run_dir": run_dir,
        "result": result_path,
        "trace": int(kind == "traced"),
        "setup_only": int(kind == "setup"),
    }
    timeout = max(1.0, budget.left() + 10.0)
    spawn_wall = time.time()
    # A session of its own, so a timeout can kill the pool workers too.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        stderr += b"\ntimed out"
    try:
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = stderr.decode("utf-8", "replace").strip().splitlines()
            return {
                "error": f"exit {proc.returncode}: "
                + (tail[-1] if tail else "no output"),
                "kind": kind,
            }
        with open(result_path) as f:
            report = json.load(f)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report["setup_wall_s"] = (
        report["call_wall"] - spawn_wall - report["setup_probe_s"]
    )
    report["setup_s"] = report["setup_wall_s"] * report["setup_scale"]
    report["kind"] = kind
    return report


def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def warm_up(root: str) -> None:
    """Import the program once so later runs find compiled bytecode.

    A failure here is left to the runs that follow, which report it.
    """
    subprocess.run(
        [sys.executable, "-c", "import repro.fleet, repro.edge"],
        cwd=root,
        env=child_env(root),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------
def gate(
    workload: str, observed: Dict[str, str], expected: Dict[str, str]
) -> List[str]:
    """Names of the digests that differ from the reference."""
    keys = ["dump", "archive", "registry"] if workload == "retrain" else [
        "dump"
    ]
    return [key for key in keys if observed.get(key) != expected.get(key)]


def pinned_digests(workload: str) -> Optional[Dict[str, str]]:
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)["digests"].get(workload)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def load_benchmark(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def per_layer(report: Dict[str, object]) -> Dict[str, float]:
    """Per-layer figures of one traced run (spans plus end-of-run files)."""
    layers = dict(report["layers"])
    edge = report["edge_stats"] or {}
    lookups = edge.get("cache_hits", 0) + edge.get("cache_misses", 0)
    cells = edge.get("cells", 0)
    layers.update(
        {
            "edge.cache_lookups": lookups,
            "edge.cache_hit_ratio": (
                edge["cache_hits"] / lookups if lookups else 0.0
            ),
            "edge.cells": cells,
            "edge.shared_cell_frac": (
                edge["shared_cells"] / cells if cells else 0.0
            ),
            "data.archive.rows": report["archive_rows"],
            "data.archive.bytes": report["archive_bytes"],
            "fleet.retrain.registry_bytes": report["registry_bytes"],
            "fleet.checkpoint.bytes": report["checkpoint_bytes"],
            "fleet.commits": report["commits"],
            "fleet.sessions": report["sessions"],
            "setup.import_s": report["import_s"],
        }
    )
    return layers


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }


# ---------------------------------------------------------------------------
# Run metadata (information, not metrics)
# ---------------------------------------------------------------------------
def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _filesystem(path: str) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    path = os.path.realpath(path)
    best = ("", "unknown")
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best[0]):
                    best = (mount, fstype)
    except (OSError, ValueError, IndexError):
        pass
    return f"{best[1]} on {best[0] or '?'}"


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, or ``unknown`` without one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_lines(root: str) -> int:
    lines = 0
    for base, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as f:
                    lines += sum(1 for _ in f)
    return lines


def run_metadata(root: str, scratch: str, args) -> dict:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "tmp_filesystem": _filesystem(scratch),
        "commit": _commit(root),
        "src_py_lines": _src_lines(root),
        "measured": workloads.MEASURED[args.workload],
    }


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------
def benchmark(root: str, scratch: str, args) -> dict:
    """All child runs of one invocation, gated, and their metric medians.

    Order: the reference run when the seed has no pinned digests (or else
    an untimed import that compiles bytecode), the measured runs for
    ``--seconds``
    (alternating untraced and traced with ``--trace 1``), then set-up
    set-up-only runs until ``SETUP_SAMPLES`` set-ups have been timed.
    """
    budget = Budget()
    workload, seed = args.workload, args.seed
    measured = workloads.MEASURED[workload]
    expected = pinned_digests(workload) if seed == workloads.DEFAULT_SEED else None
    runs: List[Dict[str, object]] = []

    def child(kind: str, knobs: Dict[str, object]) -> Dict[str, object]:
        report = run_child(
            root, scratch, budget, workload, seed, kind=kind, **knobs
        )
        runs.append(report)
        return report

    if expected is None and measured != workloads.REFERENCE:
        # The reference run also compiles the bytecode the later runs load.
        reference = child("reference", workloads.REFERENCE)
        expected = reference.get("digests")
    else:
        warm_up(root)

    # --trace 1 alternates untraced and traced runs and stops on a pair.
    minimum, step = (2, 2) if args.trace else (MIN_RUNS, 1)
    deadline = time.time() + args.seconds
    fleet_runs: List[Dict[str, object]] = []
    while budget.left() > 0:
        traced = bool(args.trace) and len(fleet_runs) % 2 == 1
        fleet_runs.append(child("traced" if traced else "measured", measured))
        if (
            len(fleet_runs) >= minimum
            and len(fleet_runs) % step == 0
            and time.time() >= deadline
        ):
            break
    if not args.trace:
        for _ in range(SETUP_SAMPLES - len(runs)):
            if budget.left() > 0:
                child("setup", measured)

    untraced_executor = next(
        (r["executor"] for r in fleet_runs
         if "error" not in r and r["kind"] == "measured"),
        None,
    )
    for report in runs:
        if "error" in report or report["kind"] == "setup":
            continue
        if expected is None:
            # The measured configuration is the reference configuration:
            # every run must agree with the first one.
            expected = report["digests"]
        bad = gate(workload, report["digests"], expected)
        if bad:
            report["error"] = "digest mismatch: " + ", ".join(bad)
        elif (
            report["kind"] == "traced"
            and report["executor"] != untraced_executor
        ):
            report["error"] = (
                f"traced run resolved executor {report['executor']!r}, "
                f"untraced {untraced_executor!r}"
            )

    good = [r for r in runs if "error" not in r]
    plain = [r for r in good if r["kind"] == "measured"]
    metrics: Dict[str, float] = {}
    info: Dict[str, float] = {}
    if args.trace:
        traced_runs = [r for r in good if r["kind"] == "traced"]
        if traced_runs and plain:
            metrics = medians([per_layer(r) for r in traced_runs])
            plain_s = statistics.median(r["driver_s"] for r in plain)
            traced_s = statistics.median(r["driver_s"] for r in traced_runs)
            metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    elif plain:
        metrics = {
            "setup_s": statistics.median(
                r["setup_s"] for r in good if r["kind"] != "traced"
            ),
            "cal_sessions_per_s": statistics.median(
                r["sessions"] / r["calibrated_s"] for r in plain
            ),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        info["sessions_per_s"] = statistics.median(
            r["sessions"] / r["driver_s"] for r in plain
        )
        info["setup_wall_s"] = statistics.median(
            r["setup_wall_s"] for r in good if r["kind"] != "traced"
        )
    failed = sum(1 for r in runs if "error" in r)
    info["failed_frac"] = failed / len(runs)
    return {"runs": runs, "metrics": metrics, "info": info}


def emit(root: str, args, outcome: dict, meta: dict) -> int:
    spec = load_benchmark(root)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = outcome["runs"]
    for report in runs:
        if "error" in report:
            print(f"FAILED {report['kind']} run: {report['error']}")
    missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
    if missing:
        print(
            f"perfbench: no value for {', '.join(missing)}", file=sys.stderr
        )
        return 1
    metrics = {
        m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    failed = sum(1 for r in runs if "error" in r)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(f"meta: {json.dumps(meta, sort_keys=True)}")
    for name, entry in metrics.items():
        print(f"{name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for name, value in outcome["info"].items():
        unit = INFO_UNITS[name]
        print(f"{name:<44} {value:>16.6g} {unit} (information)")
    if args.out:
        record = {
            "meta": meta,
            "result": result,
            "info": outcome["info"],
            "runs": runs,
        }
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Self-test of the correctness gate
# ---------------------------------------------------------------------------
def self_test(root: str, scratch: str) -> int:
    """Run the default seed of ``classic-mix``; its digests must match the
    pinned ones, and a one-byte-altered copy of its dump must not."""
    import child  # the digest helpers

    budget = Budget()
    workload = "classic-mix"
    pinned = pinned_digests(workload)
    run_dir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        spec = {
            "workload": workload,
            "seed": workloads.DEFAULT_SEED,
            "run_dir": run_dir,
            "result": os.path.join(run_dir, "report.json"),
            "trace": 0,
            "setup_only": 0,
            **workloads.MEASURED[workload],
        }
        subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            cwd=root,
            env=child_env(root),
            check=True,
            timeout=max(1.0, budget.left()),
        )
        with open(spec["result"]) as f:
            observed = json.load(f)["digests"]
        if gate(workload, observed, pinned):
            print("self-test FAILED: default-seed dump differs from the pin")
            return 1
        dump = os.path.join(run_dir, "dump.json")
        with open(dump, "rb") as f:
            data = bytearray(f.read())
        middle = len(data) // 2
        data[middle] = data[middle] ^ 0x01
        altered = os.path.join(run_dir, "altered.json")
        with open(altered, "wb") as f:
            f.write(bytes(data))
        fired = gate(
            workload, dict(observed, dump=child.digest_file(altered)), pinned
        )
        if fired != ["dump"]:
            print("self-test FAILED: altered dump passed the gate")
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("self-test passed: pinned dump matches, one-byte change is caught")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append a result record (JSON line)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="check that the digest gate fires on a one-byte change",
    )
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: no program under src/repro; run from the root of "
            "a full checkout",
            file=sys.stderr,
        )
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(os.path.join(root, TMP_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="bench-", dir=os.path.join(root, TMP_DIR))
    try:
        if args.self_test:
            return self_test(root, scratch)
        meta = run_metadata(root, scratch, args)
        outcome = benchmark(root, scratch, args)
        return emit(root, args, outcome, meta)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
