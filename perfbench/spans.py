"""Outside-in span tracing for the benchmark's traced run.

The tracer wraps public entry points of each layer *from outside*
(attribute patching, undone on exit) and records one span per call:
name, start, end, parent span, operation id, and one integer value
(events committed, bytes exported, worker count).  Spans live in
compact in-memory arrays and are written out once, at the end.

It never installs a ``repro.telemetry`` session: an active bus reroutes
``simulate(fast=True)`` to the reference loop.

Spans are recorded only in the process that installed the tracer.  Shard
pool workers are forked with the patched classes, but the tracer turns
itself off in every forked child, so kernel and DRAM calls made inside
workers are not seen; for a pooled operation only parent-side spans
(export, worker spawn, chunk build, waiting) are measured.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.controller.mc import MemoryController
from repro.core import fast_kernels, fastpath, shard_pool
from repro.dram.bank import Bank
from repro.dram.device import DramBankModel
from repro.experiments import runner
from repro.sim import simulator
from repro.workloads import columnar, spec_like

#: Kernel class -> scheme.  Every batched kernel class must be listed,
#: so a new kernel cannot silently escape the trace.
KERNEL_CLASSES = {
    "FastGrapheneBank": "graphene",
    "FastParaKernel": "para",
    "FastTwiceKernel": "twice",
    "FastCbtKernel": "cbt",
    "FastRefreshRateKernel": "refresh-rate",
    "FastCometKernel": "comet",
    "FastAbacusKernel": "abacus",
}

ROOT = "bench.op"


class Tracer:
    """Span store: parallel typed arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.main = array("b")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, value: int = 0) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.main.append(
                threading.current_thread() is threading.main_thread()
            )
            self.value.append(value)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def close(self, sid: int, value: int | None = None) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()
        if value is not None:
            self.value[sid] = value

    @contextlib.contextmanager
    def operation(self, index: int) -> Iterator[None]:
        """Root span of one timed operation."""
        self.current_op = index
        sid = self.open(self.name_id(ROOT), index)
        try:
            yield
        finally:
            self.close(sid)
            self.current_op = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "main": np.frombuffer(self.main, dtype=np.int8).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, extra: dict[str, Any]) -> None:
        """Write every span (``.npz``) plus names and the op table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), **self.arrays())
        meta = dict(extra, names=self.names)
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1))


# ---------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------


def _call_wrapper(tracer, name, original, value_in=None, value_out=None):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        sid = tracer.open(nid, value_in(*args, **kwargs) if value_in else 0)
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            value = value_out(result) if value_out and result is not None \
                else None
            tracer.close(sid, value)

    return wrapper


def _generator_wrapper(tracer, name, original):
    """One span per ``next()``: the work of a generator runs while it is
    being iterated, interleaved with its consumer."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        while True:
            sid = tracer.open(nid) if tracer.enabled else None
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if sid is not None:
                    tracer.close(sid)
            yield item

    return wrapper


def _materialised(original):
    """``profile_events`` returns a lazy generator; the traced run builds
    it inside the span so trace generation is charged to the workload
    layer rather than to whichever engine consumes it."""

    def wrapper(*args, **kwargs):
        return list(original(*args, **kwargs))

    return wrapper


def _trace_bytes(_self, trace, *args, **kwargs) -> int:
    return int(trace.time_ns.nbytes + trace.bank.nbytes + trace.row.nbytes)


def _targets(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """(owner, attribute, replacement) for every traced entry point."""
    call = lambda name, fn, **kw: _call_wrapper(tracer, name, fn, **kw)  # noqa: E731
    targets = [
        (simulator, "simulate", call("sim.simulate", simulator.simulate)),
        (runner, "simulate", call("sim.simulate", runner.simulate)),
        (simulator, "build_device",
         call("sim.build_device", simulator.build_device)),
        (fastpath, "build_fast_controller_ex",
         call("sim.build_fast_controller", fastpath.build_fast_controller_ex)),
        (fastpath.FastMemoryController, "run",
         call("fastpath.run", fastpath.FastMemoryController.run,
              value_in=lambda self, *a, **k: self.shard_workers)),
        (columnar.TraceArray, "bank_partition",
         _generator_wrapper(tracer, "columnar.bank_partition",
                            columnar.TraceArray.bank_partition)),
        (columnar.TraceArray, "from_events", classmethod(
            call("columnar.from_events",
                 columnar.TraceArray.__dict__["from_events"].__func__))),
        (columnar, "iter_chunk_arrays",
         _generator_wrapper(tracer, "workloads.chunk_build",
                            columnar.iter_chunk_arrays)),
        (spec_like, "profile_events",
         call("workloads.profile_events",
              _materialised(spec_like.profile_events))),
        (DramBankModel, "activate",
         call("dram.activate", DramBankModel.activate)),
        (DramBankModel, "earliest_activate",
         call("dram.earliest_activate", DramBankModel.earliest_activate)),
        (Bank, "nearby_row_refresh",
         call("dram.nrr", Bank.nearby_row_refresh)),
        (MemoryController, "step", call("mc.step", MemoryController.step)),
        (shard_pool.ShardPool, "export",
         call("shard_pool.export", shard_pool.ShardPool.export,
              value_in=_trace_bytes)),
        (shard_pool.ShardPool, "ensure",
         call("shard_pool.ensure", shard_pool.ShardPool.ensure)),
        (runner.ExperimentRunner, "run",
         call("runner.run", runner.ExperimentRunner.run)),
        (runner, "run_sim_spec",
         call("runner.run_sim_spec", runner.run_sim_spec)),
    ]
    # commit_run returns (consumed, directives); commit_run_banked the
    # consumed count alone.
    commit_out = {"commit_run": lambda r: int(r[0]), "commit_run_banked": int}
    for cls in _kernel_classes():
        scheme = KERNEL_CLASSES[cls.__name__]
        for attr, layer in (("commit_run", "commit"),
                            ("commit_run_banked", "commit"),
                            ("on_activate", "on_activate"),
                            ("on_refresh_command", "on_refresh")):
            if hasattr(cls, attr):
                targets.append((cls, attr, call(
                    f"kernel.{scheme}.{layer}", getattr(cls, attr),
                    value_out=commit_out.get(attr),
                )))
    return targets


def _kernel_classes() -> list[type]:
    found = [fastpath.FastGrapheneBank] + [
        cls for name, cls in inspect.getmembers(fast_kernels, inspect.isclass)
        if cls.__module__ == fast_kernels.__name__
        and name.startswith("Fast") and hasattr(cls, "commit_run")
    ]
    missing = [cls.__name__ for cls in found
               if cls.__name__ not in KERNEL_CLASSES]
    if missing:
        raise RuntimeError(f"untraced kernel classes: {missing}")
    return found


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, replacement in _targets(tracer):
            saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


_MISSING = object()


# ---------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the time its child spans cover."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(
        parent[child], weights=duration[child], minlength=len(duration)
    )
    return duration - covered


def layer_metrics(
    tracer: Tracer, op_table: list[dict[str, Any]], schemes: tuple[str, ...]
) -> dict[str, tuple[float, str]]:
    """Aggregate the spans of one traced sweep into per-layer metrics.

    ``op_table[i]`` describes operation ``i``: its ``scheme``,
    ``engine``, simulated ``acts`` and outside-measured ``wall`` time.
    """
    spans = tracer.arrays()
    own = self_times(spans)
    names = spans["name"]
    values = spans["value"]

    def mask(*layer_names: str) -> np.ndarray:
        ids = [tracer._ids[n] for n in layer_names if n in tracer._ids]
        return np.isin(names, ids)

    def count(*layer_names: str) -> int:
        return int(mask(*layer_names).sum())

    def seconds(*layer_names: str, where=None) -> float:
        m = mask(*layer_names)
        return float(own[m if where is None else m & where].sum())

    out: dict[str, tuple[float, str]] = {}
    for scheme in schemes:
        # Pooled operations run their kernels inside the workers.
        acts = sum(op["acts"] for op in op_table
                   if op["scheme"] == scheme and op["engine"] == "fast"
                   and not op["pooled"])
        commit = mask(f"kernel.{scheme}.commit")
        committed = values[commit]
        commits = int((committed > 0).sum())
        vector = int(committed.sum())
        prefix = f"{scheme}.kernel."
        out[prefix + "commits"] = (commits, "count")
        out[prefix + "vector_events"] = (vector, "count")
        out[prefix + "vector_frac"] = (vector / acts if acts else 0.0,
                                       "ratio")
        out[prefix + "events_per_commit"] = (
            vector / commits if commits else 0.0, "events")
        out[prefix + "empty_commits"] = (int((committed == 0).sum()),
                                         "count")
        out[prefix + "scalar_events"] = (
            count(f"kernel.{scheme}.on_activate"), "count")
        out[prefix + "ref_calls"] = (
            count(f"kernel.{scheme}.on_refresh"), "count")
        out[prefix + "commit_s"] = (float(own[commit].sum()), "s")
        out[prefix + "scalar_s"] = (
            seconds(f"kernel.{scheme}.on_activate",
                    f"kernel.{scheme}.on_refresh"), "s")

    out["dram.activate_calls"] = (count("dram.activate"), "count")
    out["dram.bank_s"] = (
        seconds("dram.activate", "dram.earliest_activate", "dram.nrr"), "s")
    out["dram.nrr_calls"] = (count("dram.nrr"), "count")

    pooled = values > 1  # fastpath.run records the shard worker count
    out["fastpath.run_self_s"] = (seconds("fastpath.run", where=~pooled),
                                  "s")
    out["columnar.partition_s"] = (seconds("columnar.bank_partition"), "s")
    out["columnar.from_events_s"] = (seconds("columnar.from_events"), "s")

    export = mask("shard_pool.export")
    out["shard_pool.exports"] = (int(export.sum()), "count")
    out["shard_pool.export_bytes"] = (int(values[export].sum()), "B")
    out["shard_pool.export_s"] = (float(own[export].sum()), "s")
    out["shard_pool.parent_wait_s"] = (
        seconds("fastpath.run", where=pooled), "s")

    out["workloads.build_s"] = (
        seconds("workloads.profile_events", "workloads.chunk_build"), "s")
    out["mc.steps"] = (count("mc.step"), "count")
    out["mc.step_s"] = (seconds("mc.step"), "s")
    out["sim.build_s"] = (
        seconds("sim.build_device", "sim.build_fast_controller"), "s")
    out["sim.self_s"] = (seconds("sim.simulate"), "s")
    out["runner.jobs"] = (count("runner.run_sim_spec"), "count")
    out["runner.overhead_s"] = (
        seconds("runner.run", "runner.run_sim_spec"), "s")

    # Self times of one operation's main-thread spans partition its
    # root span; compare their sum with the wall time measured outside.
    main = spans["main"] == 1
    errors = [
        abs(float(own[main & (spans["op"] == index)].sum()) - op["wall"])
        / op["wall"]
        for index, op in enumerate(op_table)
    ]
    out["trace.self_sum_err"] = (max(errors, default=0.0), "ratio")
    out["trace.spans"] = (len(names), "count")
    return out
