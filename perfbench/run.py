#!/usr/bin/env python3
"""The repository benchmark: host-time throughput of the Row Hammer
simulator, end to end and layer by layer.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload multirank32 --seed 1 --seconds 30 --trace 0

or ``--workload all`` to run every workload, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced sweep.  The exit code is non-zero when any simulated
result differs from the reference engine's.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

#: Set-up is measured this many times, each in a fresh interpreter.
SETUP_PROBES = 7
#: Yardstick passes timed before each set-up probe and after the last.
SETUP_YARDSTICKS = 3


def import_program() -> None:
    """Import the simulator from this checkout's ``src`` -- never from
    anywhere else -- or exit non-zero without a result."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator: {exc}")
    found = Path(repro.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise SystemExit(f"perfbench: simulator imported from {found}, "
                         f"expected {SRC}")


def setup(workload: str, seed: int, scale: float):
    """Everything a user pays once per process before the first result:
    trace materialisation, lazy imports and kernel registration (a
    warm-up sweep at a small scale) and the shard pool spawn."""
    import ops

    for op in ops.build(workload, seed, scale * ops.WARMUP_SCALE):
        op.run()
    return ops.build(workload, seed, scale)


def measure_setup(args) -> tuple[float, list[float]]:
    """Wall time of :func:`setup` in fresh interpreters (imports
    included), one probe after another.

    Returns the median probe scaled by the median of the yardstick
    passes timed between the probes (see ``yardstick.py``), and the raw
    probe times.  A set-up takes most of a second, so a few 15-ms passes
    right next to one probe say little about it; the median over every
    pass of the set-up phase does.
    """
    import yardstick

    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--scale", str(args.scale)]
    probes = []
    passes = [yardstick.measure() for _ in range(SETUP_YARDSTICKS)]
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        probes.append(time.perf_counter() - started)
        passes += [yardstick.measure() for _ in range(SETUP_YARDSTICKS)]
    scale = yardstick.YARDSTICK_S / statistics.median(passes)
    return statistics.median(probes) * scale, probes


def run_sweep(operations, tracer=None, scaled=False):
    """One pass over every operation, in order.

    Returns ``(sweep seconds, [(seconds, result or None)])``; a raised
    exception is reported on stderr and recorded as ``None``.  With
    ``scaled`` the yardstick is timed before every operation and after
    the last, and each operation's seconds are scaled by the two passes
    around it; the sweep seconds are the sum of the operations' seconds.
    """
    import yardstick

    outcomes = []
    before = yardstick.measure() if scaled else None
    for index, op in enumerate(operations):
        started = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(index):
                    result = op.run()
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            result = None
        elapsed = time.perf_counter() - started
        if scaled:
            after = yardstick.measure()
            elapsed = yardstick.normalised(elapsed, before, after)
            before = after
        outcomes.append((elapsed, result))
    return sum(elapsed for elapsed, _ in outcomes), outcomes


def expected_digests(operations, seed: int, scale: float, path: Path):
    """Reference digests: committed ones for the recorded seed and scale,
    otherwise a live ``fast=False`` run per distinct stream and scheme."""
    import ops

    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded["seed"] == seed and recorded["scale"] == scale:
            return recorded["digests"], "committed"
    digests = {}
    for op in operations:
        if op.key not in digests:
            digests[op.key] = ops.digest(op.reference())
    return digests, "live reference"


def peak_rss_mb(pooled: bool) -> float:
    """Peak resident memory (VmHWM) of this process, plus that of the
    largest live pool worker when the workload uses the pool."""

    def hwm(pid) -> float:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError(f"no VmHWM for process {pid}")

    workers = [hwm(p.pid) for p in multiprocessing.active_children()]
    if pooled and not workers:
        raise RuntimeError("pooled run finished with no live workers")
    return hwm("self") + (max(workers) if pooled else 0.0)


def child_processes() -> list[int]:
    """PIDs of this process's live (or unreaped) children."""
    pids = []
    for children in Path("/proc/self/task").glob("*/children"):
        pids += [int(pid) for pid in children.read_text().split()]
    return pids


def teardown() -> None:
    """Stop every process the simulator started and check that none
    outlives the run.

    Besides the shard pool's workers, the first shared-memory segment
    starts multiprocessing's resource tracker, which otherwise runs on
    until this process exits and is then left behind unreaped.  Its
    ``_stop`` closes its pipe and waits for it to exit.
    """
    from multiprocessing import resource_tracker

    from repro.core.shard_pool import close_pool, pool_stats

    close_pool()
    resource_tracker._resource_tracker._stop()
    multiprocessing.active_children()  # reaps finished workers
    if pool_stats() is not None or child_processes():
        raise RuntimeError("child processes outlived the benchmark: "
                           f"{child_processes()}")


def typical_runs(operations, sweeps):
    """Each operation's median scaled time over its successful runs, with
    its ACT count, as ``(seconds, ACTs)``, or ``None`` if it never
    succeeded."""
    typical = []
    for index in range(len(operations)):
        runs = [(elapsed, result.acts)
                for elapsed, result in (sweep[index] for sweep in sweeps)
                if result is not None]
        typical.append(
            (statistics.median(elapsed for elapsed, _ in runs), runs[0][1])
            if runs else None)
    return typical


def scheme_rates(operations, typical):
    """ACTs per scaled second of each scheme's fast operations, and of
    the reference loop (``"reference"``), over their typical runs."""
    acts = defaultdict(int)
    seconds = defaultdict(float)
    for op, run in zip(operations, typical):
        if run is None or op.scheme is None:
            continue
        key = op.scheme if op.engine == "fast" else "reference"
        seconds[key] += run[0]
        acts[key] += run[1]
    return {key: acts[key] / seconds[key] for key in acts}


def run_workload(args) -> int:
    # Set-up time is an end-to-end metric; a traced run does not report it.
    setup_s, setup_probes = (None, []) if args.trace else measure_setup(args)
    try:
        return measure_workload(args, setup_s, setup_probes)
    finally:
        teardown()  # again, for the paths that raised before it ran


def measure_workload(args, setup_s, setup_probes) -> int:
    import ops

    operations = setup(args.workload, args.seed, args.scale)
    pooled = any(op.pooled for op in operations)

    all_outcomes: list[list] = []
    layers = None
    if args.trace:
        import spans

        untraced_s, outcomes = run_sweep(operations)
        all_outcomes.append(outcomes)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced_s, outcomes = run_sweep(operations, tracer)
        all_outcomes.append(outcomes)
        op_table = [
            dict(key=op.key, scheme=op.scheme, engine=op.engine,
                 pooled=op.pooled, wall=elapsed,
                 acts=result.acts if result is not None else 0)
            for op, (elapsed, result) in zip(operations, outcomes)
        ]
        layers = spans.layer_metrics(tracer, op_table, ops.KERNEL_SCHEMES)
        layers["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        from repro.core.shard_pool import pool_stats

        stats = pool_stats() or {"workers_spawned": 0, "aborts": 0}
        layers["shard_pool.spawned"] = (stats["workers_spawned"], "count")
        layers["shard_pool.aborts"] = (stats["aborts"], "count")
        tracer.save(
            OUT / f"spans-{args.workload}-seed{args.seed}",
            {"workload": args.workload, "seed": args.seed,
             "scale": args.scale, "ops": op_table},
        )
        if pooled:
            print("# the pooled operations' kernel and DRAM calls run inside "
                  "the pool workers and are not traced; only their "
                  "parent-side pool metrics are measured")
    else:
        started = time.perf_counter()
        while not all_outcomes or time.perf_counter() - started < args.seconds:
            all_outcomes.append(run_sweep(operations, scaled=True)[1])
        rss_mb = peak_rss_mb(pooled)
    teardown()

    expected, source = expected_digests(
        operations, args.seed, args.scale, Path(args.digests))
    attempted = failed = 0
    for outcomes in all_outcomes:
        for op, (_, result) in zip(operations, outcomes):
            attempted += 1
            if result is None or ops.digest(result) != expected[op.key]:
                failed += 1
                print(f"# MISMATCH {op.key} ({op.engine})", file=sys.stderr)

    if layers is not None:
        metrics = layers
    else:
        typical = typical_runs(operations, all_outcomes)
        rates = scheme_rates(operations, typical)
        metrics = {
            f"{scheme}.acts_per_s": (rates.get(scheme, 0.0), "ACT/s")
            for scheme in ops.KERNEL_SCHEMES
        }
        metrics["graphene.reference_acts_per_s"] = (
            rates.get("reference", 0.0), "ACT/s")
        metrics["sweep_s"] = (
            sum(run[0] for run in typical if run is not None), "s")
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    print(f"# {args.workload} seed={args.seed} scale={args.scale}: "
          f"{len(all_outcomes)} sweeps of {len(operations)} operations, "
          f"digests: {source}"
          + "".join(f", set-up probe {s:.3f} s" for s in setup_probes))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    import ops

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in ops.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scale", str(args.scale), "--digests", args.digests]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def record_digests(args) -> int:
    """Write ``digests.json`` from reference runs of every workload."""
    import ops

    digests = {}
    for workload in ops.WORKLOADS:
        for op in ops.build(workload, args.seed, args.scale):
            if op.key not in digests:
                digests[op.key] = ops.digest(op.reference())
    Path(args.digests).write_text(json.dumps(
        {"seed": args.seed, "scale": args.scale, "engine": "reference",
         "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (tests use < 1)")
    parser.add_argument("--digests", default=str(DIGESTS),
                        help="reference digest file")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="write the reference digests and exit")
    args = parser.parse_args(argv)
    import_program()
    if args.record_digests:
        return record_digests(args)
    if args.setup_probe:
        try:
            setup(args.workload, args.seed, args.scale)
        finally:
            teardown()
        return 0
    if args.workload == "all":
        return run_all(args)
    import ops

    if args.workload not in ops.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(ops.WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
