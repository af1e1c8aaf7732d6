"""Workload inputs and the operations the benchmark times.

Every input is derived from the workload seed; the simulator only ever
sees the generated ACT streams.  Each workload is a fixed *sweep*: an
ordered list of operations (one ``simulate`` call or one runner cell
each), every one of which yields a ``SimulationResult`` whose
``to_dict()`` digest is checked against the reference engine.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.config import GrapheneConfig
from repro.dram.timing import DDR4_2400
from repro.experiments.runner import ExperimentRunner, run_sim_spec, sim_job
from repro.sim import simulator
from repro.workloads.columnar import TraceArray
from repro.workloads.trace import ActEvent

WORKLOADS = ("multirank32", "multirank32-pooled", "fig8-realistic")

#: The seven schemes with a batched kernel, in sweep order.
KERNEL_SCHEMES = (
    "graphene", "para", "twice", "cbt", "refresh-rate", "comet", "abacus",
)

# ---------------------------------------------------------------------
# multirank32: double-sided hammers on all 32 banks of a 2-rank device.
# The benchmark keeps its own copy of the generator so that edits to the
# hot-path bench cannot move this workload.
# ---------------------------------------------------------------------

MR_BANKS = 16
MR_RANKS = 2
MR_TOTAL = MR_BANKS * MR_RANKS
#: Same-bank burst length of the interleave.
MR_BURST = 32
#: Bursts per bank at scale 1: 24 x 32 ACTs per bank, 24,576 ACTs in
#: all (about 1.1 ms of channel time at one ACT per tRC).  A bank's
#: bursts arrive 32 bursts apart, farther than one tREFI, so a REF tick
#: falls between any two of them.  The size keeps one sweep near a
#: second, so a run samples every operation many times.
MR_BURSTS_PER_BANK = 24
#: The pooled operation streams the trace in this many chunks.
MR_CHUNKS = 8
MR_ROWS_PER_BANK = 65536
HAMMER_THRESHOLD = 50_000

# fig8-realistic: the Fig. 8 SPEC-like profiles on one bank.
FIG8_PROFILES = ("mcf", "omnetpp", "Canneal")
#: Trace length per cell at scale 1 (mcf gives about 4k ACTs).
FIG8_DURATION_NS = DDR4_2400.trefw / 64


@dataclass(frozen=True)
class Operation:
    """One timed call.  ``scheme`` is ``None`` for the unprotected
    baseline, which has no ACTs/s metric of its own.  ``pooled`` marks a
    call whose banks run in the shard pool's workers."""

    key: str  # digest key: the same stream + scheme share one reference
    scheme: str | None
    engine: str  # "fast" or "reference"
    run: Callable[[], Any]
    reference: Callable[[], Any]
    pooled: bool = False


def digest(result) -> str:
    """SHA-256 of the canonical JSON of ``SimulationResult.to_dict()``."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _hammer_rows(seed: int) -> tuple[int, int]:
    """The seed picks one aggressor pair (r, r+2) shared by every bank,
    so cross-bank trackers see the same row IDs on all banks as in the
    hot-path bench's multirank trace."""
    rng = np.random.default_rng(seed)
    low = int(rng.integers(1, MR_ROWS_PER_BANK - 3))
    return low, low + 2


def _bank_order(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 1]).permutation(MR_TOTAL)


def multirank_acts(scale: float) -> int:
    return max(1, round(MR_BURSTS_PER_BANK * scale)) * MR_BURST * MR_TOTAL


def multirank_trace(seed: int, scale: float) -> TraceArray:
    """One ACT per tRC channel-wide, rotated across the 32 banks in
    32-ACT bursts (bank order drawn from the seed)."""
    n = multirank_acts(scale)
    low, high = _hammer_rows(seed)
    order = _bank_order(seed)
    idx = np.arange(n, dtype=np.int64)
    burst = idx // MR_BURST
    per_bank_index = (burst // MR_TOTAL) * MR_BURST + idx % MR_BURST
    return TraceArray(
        time_ns=idx.astype(np.float64) * DDR4_2400.trc,
        bank=order[burst % MR_TOTAL].astype(np.int64),
        row=np.where(per_bank_index % 2 == 0, low, high).astype(np.int64),
    )


def multirank_events(seed: int, scale: float):
    """The same stream as :func:`multirank_trace`, one lazy event at a
    time (never materialised by the benchmark)."""
    n = multirank_acts(scale)
    low, high = _hammer_rows(seed)
    order = [int(b) for b in _bank_order(seed)]
    trc = DDR4_2400.trc
    for idx in range(n):
        burst, within = divmod(idx, MR_BURST)
        per_bank_index = (burst // MR_TOTAL) * MR_BURST + within
        yield ActEvent(
            idx * trc,
            order[burst % MR_TOTAL],
            low if per_bank_index % 2 == 0 else high,
        )


def multirank_factory(scheme: str):
    from repro.analysis.scaling import para_probability_for
    from repro.mitigations import (
        abacus_factory,
        cbt_factory,
        comet_factory,
        graphene_factory,
        increased_refresh_rate_factory,
        para_factory,
        twice_factory,
    )

    t = HAMMER_THRESHOLD
    return {
        "graphene": lambda: graphene_factory(
            GrapheneConfig(hammer_threshold=t)
        ),
        "para": lambda: para_factory(para_probability_for(t), seed=1234),
        "twice": lambda: twice_factory(t),
        "cbt": lambda: cbt_factory(t, num_counters=64, num_levels=8),
        "refresh-rate": lambda: increased_refresh_rate_factory(multiplier=2),
        "comet": lambda: comet_factory(t),
        "abacus": lambda: abacus_factory(t, total_banks=MR_TOTAL),
    }[scheme]()


def _simulate_multirank(events, scheme: str, fast: bool, **kwargs):
    return simulator.simulate(
        events,
        multirank_factory(scheme),
        scheme=scheme,
        workload="multirank32",
        banks=MR_BANKS,
        ranks=MR_RANKS,
        rows_per_bank=MR_ROWS_PER_BANK,
        track_faults=False,
        fast=fast,
        **kwargs,
    )


def pool_workers() -> int:
    return min(2, os.cpu_count() or 1)


def _multirank_sweep(trace, fast, pooled=lambda scheme: False):
    """One fast operation per kernel scheme (``fast(scheme)`` is the
    call), then Graphene once through the reference loop.  Every result
    is checked against ``fast=False`` on the in-memory ``trace``."""

    def reference(scheme):
        return lambda: _simulate_multirank(trace, scheme, fast=False)

    ops = [
        Operation(f"multirank32/{scheme}", scheme, "fast", fast(scheme),
                  reference(scheme), pooled=pooled(scheme))
        for scheme in KERNEL_SCHEMES
    ]
    ops.append(Operation("multirank32/graphene", "graphene", "reference",
                         reference("graphene"), reference("graphene")))
    return ops


def multirank_ops(seed: int, scale: float) -> list[Operation]:
    """Serial ``simulate(fast=True)`` per kernel scheme on the in-memory
    trace, then Graphene once more through the reference loop."""
    trace = multirank_trace(seed, scale)
    return _multirank_sweep(
        trace,
        lambda scheme: lambda: _simulate_multirank(trace, scheme, True),
    )


def multirank_pooled_ops(seed: int, scale: float) -> list[Operation]:
    """The same stream per kernel scheme, handed to ``simulate`` as a
    lazy event iterable chunked into ``MR_CHUNKS`` pieces across
    ``min(2, nproc)`` shard-pool workers, then Graphene once through the
    reference loop.

    This is what drives per-chunk shared-memory export, double-buffered
    dispatch and worker IPC.  ABACuS runs with the same arguments:
    its ``cross_bank`` capability makes ``simulate`` degrade the call to
    one serial lane, so it measures that path and is not ``pooled``.
    """
    workers = pool_workers()
    chunk = max(1, multirank_acts(scale) // MR_CHUNKS)

    def run(scheme):
        return lambda: _simulate_multirank(
            multirank_events(seed, scale), scheme, True,
            shard_workers=workers, chunk_events=chunk,
        )

    return _multirank_sweep(
        multirank_trace(seed, scale), run,
        pooled=lambda scheme: workers > 1 and scheme != "abacus",
    )


#: fig8 cells: (scheme label, factory spec).  ``refresh-rate`` is not in
#: the Fig. 8/9 scaling set, so it runs from the capability roster.
FIG8_CELLS = (
    ("none", ["none"]),
    ("para", ["scaling", "para"]),
    ("cbt", ["scaling", "cbt"]),
    ("twice", ["scaling", "twice"]),
    ("graphene", ["scaling", "graphene"]),
    ("comet", ["scaling", "comet"]),
    ("abacus", ["scaling", "abacus"]),
    ("refresh-rate", ["capability", "refresh-rate-x2"]),
)


def fig8_ops(seed: int, scale: float) -> list[Operation]:
    """Each cell runs as ``experiment fig8 --fast`` runs it: a declarative
    job through an uncached in-process ``ExperimentRunner``."""
    duration = FIG8_DURATION_NS * scale
    runner = ExperimentRunner(jobs=1, cache=None)

    def spec(profile, scheme, factory):
        return dict(
            trace={"kind": "realistic", "label": profile},
            factory=factory, scheme=scheme, workload=profile,
            duration_ns=duration, seed=seed,
        )

    def cell(kwargs, engine):
        job = sim_job(engine=engine, **kwargs)

        def run():
            # The runner keeps a record per job; a fresh list per call
            # keeps a long run's memory flat.
            runner.stats.records.clear()
            return runner.run([job])[0]

        return run

    ops = []
    for profile in FIG8_PROFILES:
        cells = [(scheme, factory, "fast") for scheme, factory in FIG8_CELLS]
        cells.append(("graphene", ["scaling", "graphene"], "reference"))
        for scheme, factory, engine in cells:
            kwargs = spec(profile, scheme, factory)
            ops.append(Operation(
                f"fig8/{profile}/{scheme}",
                None if scheme == "none" else scheme,
                engine,
                cell(kwargs, engine),
                lambda kwargs=kwargs: run_sim_spec(
                    engine="reference", **kwargs
                ),
            ))
    return ops


BUILDERS: dict[str, Callable[[int, float], list[Operation]]] = {
    "multirank32": multirank_ops,
    "multirank32-pooled": multirank_pooled_ops,
    "fig8-realistic": fig8_ops,
}

#: Scale of the warm-up sweep run during set-up (first calls pay lazy
#: imports, kernel registration and the shard pool spawn; users pay
#: those once per process).
WARMUP_SCALE = 1 / MR_BURSTS_PER_BANK


def build(workload: str, seed: int, scale: float) -> list[Operation]:
    return BUILDERS[workload](seed, scale)
