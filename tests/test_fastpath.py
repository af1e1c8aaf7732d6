"""The columnar fast path: bit-identical to the reference engine.

Every test here asserts *exact* equality with the reference
implementations -- same directives, same table state, same serialized
``SimulationResult`` -- because that is the fast path's contract
(:mod:`repro.core.fastpath` never trades correctness for speed; it
falls back to the reference loop instead).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.config import GrapheneConfig
from repro.core.fastpath import (
    FastGrapheneBank,
    build_fast_controller,
    build_fast_controller_ex,
    kernel_for,
    kernel_schemes,
    reference_table_state,
)
from repro.core.misra_gries import MisraGriesTable
from repro.dram.timing import DDR4_2400
from repro.mitigations import graphene_factory, para_factory, prohit_factory
from repro.mitigations.graphene import GrapheneMitigation
from repro.sim.simulator import build_device, simulate
from repro.verify.differential import _mitigation_factory, core_subjects
from repro.verify.fastpath_check import KERNEL_SCHEMES, run_fastpath_check
from repro.verify.generators import DEFAULT_SCALE, StreamSpec, generate_stream
from repro.workloads import ActEvent, TraceArray, merge_arrays, pace_array


def _adversarial_items(seed: int, n: int, keys: int = 12) -> list[int]:
    """Key stream tight enough to exercise hits, evictions and ties."""
    rng = random.Random(seed)
    return [rng.randrange(keys) for _ in range(n)]


class TestFastMisraGries:
    """The fast bank's table is the reference ``MisraGriesTable``; its
    vector commit folds each run of hits on a row into one bulk
    ``add``.  These pin that fold against one ``observe`` per item."""

    @pytest.mark.parametrize("capacity", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lockstep_with_reference_table(self, capacity, seed):
        """Drive one table the way ``FastGrapheneBank`` does -- every
        stretch of hits as per-row ``add`` calls, each miss through
        ``observe`` -- and another one item at a time: counts, bucket
        index, spillover and eviction choices stay identical."""
        reference = MisraGriesTable(capacity)
        bulk = MisraGriesTable(capacity)
        items = _adversarial_items(seed, 2000)
        step = 0
        while step < len(items):
            hits = Counter()
            while step < len(items) and items[step] in bulk:
                hits[items[step]] += 1
                assert reference.observe(items[step]) is not None, step
                step += 1
            for item, k in hits.items():
                assert bulk.add(item, k) == reference.estimated_count(item)
            if step < len(items):
                assert bulk.observe(items[step]) == reference.observe(
                    items[step]
                ), step
                step += 1
            bulk.check_invariants()
            assert bulk.tracked() == reference.tracked(), step
            assert bulk.spillover == reference.spillover, step
            assert bulk.last_evicted == reference.last_evicted, step
        assert bulk.observations == reference.observations
        assert len(bulk) == len(reference)

    def test_smallest_key_eviction_tie_break(self):
        """Bulk-added counts land in the bucket the miss path searches:
        a miss at the spillover floor evicts the smallest such key."""
        table = MisraGriesTable(3)
        for key in (30, 20, 10):
            table.observe(key)
        for key in (30, 20, 10):
            assert table.add(key, 1) == 2
        table.check_invariants()
        table.observe(99)  # spillover -> 1 (no entry at count 0)
        table.observe(98)  # spillover -> 2, the floor all three sit on
        assert table.spillover == 2
        assert table.observe(42) == 3  # carried-over count + 1
        assert table.last_evicted == 10
        assert 10 not in table and 42 in table
        table.check_invariants()

    def test_reset_clears_everything(self):
        table = MisraGriesTable(2)
        for item in (1, 2, 3, 3):
            table.observe(item)
        table.add(3, 4)  # 3 evicted 1 at the spillover floor
        table.reset()
        assert len(table) == 0
        assert table.spillover == 0
        assert table.observations == 0
        assert table.tracked() == {}
        table.check_invariants()

    def test_estimated_count(self):
        table = MisraGriesTable(2)
        table.observe(7)
        assert table.add(7, 3) == 4
        assert table.estimated_count(7) == 4
        assert table.observations == 4
        assert table.estimated_count(8) == 0
        with pytest.raises(KeyError):
            table.add(8, 1)  # only tracked rows take bulk hits
        table.check_invariants()


def _mitigation_pair(threshold: int = 1000):
    config = GrapheneConfig(hammer_threshold=threshold)
    reference = GrapheneMitigation(0, 65536, config)
    fast_inner = GrapheneMitigation(0, 65536, config)
    return reference, FastGrapheneBank(fast_inner)


class TestFastGrapheneBank:
    def test_lockstep_with_reference_engine(self):
        reference, fast = _mitigation_pair()
        rng = random.Random(3)
        time_ns = 0.0
        for step in range(5000):
            row = rng.randrange(40)
            ref_directives = reference.on_activate(row, time_ns)
            fast_directives = fast.on_activate(row, time_ns)
            assert fast_directives == ref_directives, step
            # Reset-window straddles included: jump past a boundary
            # every ~500 ACTs.
            time_ns += 45.0 if step % 500 else fast.window_len / 3
        assert fast.table_state() == reference_table_state(reference)
        assert fast.stats == reference.stats

    def test_rejects_backwards_time_and_bad_rows(self):
        _, fast = _mitigation_pair()
        fast.on_activate(5, 1000.0)
        with pytest.raises(ValueError):
            fast.on_activate(5, -1.0)
        with pytest.raises(IndexError):
            fast.on_activate(-1, 2000.0)

    def test_describe_matches_reference(self):
        reference, fast = _mitigation_pair()
        assert fast.describe() == reference.describe()
        assert fast.table_bits() == reference.table_bits()


def _interleaved_trace(banks: int = 3, acts_per_bank: int = 4000):
    """Max-rate hammers on several banks, merged into one stream."""
    per_bank = []
    for bank in range(banks):
        rows = [100 + bank, 102 + bank] * (acts_per_bank // 2)
        per_bank.append(
            pace_array(rows, DDR4_2400.trc, bank=bank,
                       start_ns=bank * 7.0)
        )
    return merge_arrays(*per_bank)


class TestSimulateFastPath:
    @pytest.mark.parametrize("track_faults", [False, True])
    def test_identical_results_on_hammer(self, track_faults):
        trace = _interleaved_trace()
        kwargs = dict(
            scheme="graphene",
            workload="hammer",
            banks=3,
            hammer_threshold=2000,
            track_faults=track_faults,
        )
        factory = graphene_factory(GrapheneConfig(hammer_threshold=2000))
        reference = simulate(trace, factory, fast=False, **kwargs)
        fast = simulate(trace, factory, fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        assert reference.victim_refresh_directives > 0  # test has teeth

    def test_identical_results_on_fuzz_stream(self):
        events = generate_stream(
            StreamSpec(generator="random", seed=5, length=2000),
            DEFAULT_SCALE,
        )
        paced = [
            ActEvent(i * DDR4_2400.trc, e.bank, e.row)
            for i, e in enumerate(events)
        ]
        kwargs = dict(
            scheme="graphene",
            workload="fuzz",
            banks=DEFAULT_SCALE.banks,
            rows_per_bank=DEFAULT_SCALE.rows_per_bank,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
        )
        factory = graphene_factory(
            GrapheneConfig(hammer_threshold=DEFAULT_SCALE.mitigation_trh,
                           reset_window_divisor=2)
        )
        reference = simulate(iter(paced), factory, fast=False, **kwargs)
        fast = simulate(iter(paced), factory, fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()

    def test_fallback_for_schemes_without_kernel(self, caplog):
        """PRoHIT has no batched kernel: fast=True must transparently
        use the reference loop, produce the same (seeded) results, and
        warn that it fell back."""
        import logging

        trace = _interleaved_trace(banks=1, acts_per_bank=1000)
        make = lambda: prohit_factory(  # noqa: E731
            insert_probability=0.02, seed=42
        )
        kwargs = dict(scheme="prohit", workload="hammer", banks=1,
                      track_faults=False)
        reference = simulate(trace, make(), fast=False, **kwargs)
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            fast = simulate(trace, make(), fast=True, **kwargs)
        assert fast.to_dict() == reference.to_dict()
        assert any(
            "falling back" in record.message and "prohit" in record.message
            for record in caplog.records
        ), "silent fallback: no warning logged"

    def test_fallback_when_telemetry_installed(self):
        """The fast path cannot publish per-ACT events; with a bus
        installed build_fast_controller must decline."""
        from repro.telemetry import TelemetryBus, session

        device = build_device(banks=1, track_faults=False)
        factory = graphene_factory(GrapheneConfig())
        with session(TelemetryBus()):
            assert build_fast_controller(device, factory) is None
        assert build_fast_controller(device, factory) is not None


class TestEmptyStreamRegression:
    """Satellite bugfix: an empty stream must not fabricate a window."""

    @pytest.mark.parametrize("fast", [False, True])
    def test_empty_stream_reports_zero_duration(self, fast):
        factory = graphene_factory(GrapheneConfig())
        result = simulate(
            iter([]), factory, scheme="graphene", workload="empty",
            fast=fast,
        )
        assert result.acts == 0
        assert result.duration_ns == 0.0
        assert result.windows == 0
        assert result.bit_flips == 0

    @pytest.mark.parametrize("fast", [False, True])
    def test_empty_stream_honors_explicit_duration(self, fast):
        factory = graphene_factory(GrapheneConfig())
        result = simulate(
            iter([]), factory, scheme="graphene", workload="empty",
            duration_ns=5e6, fast=fast,
        )
        assert result.acts == 0
        assert result.duration_ns == 5e6


class TestDifferentialSubject:
    def test_registered_in_core_subjects(self):
        assert "fastpath" in core_subjects()

    @pytest.mark.parametrize("generator", ["random", "eviction"])
    def test_clean_on_fuzz_streams(self, generator):
        events = generate_stream(
            StreamSpec(generator=generator, seed=9, length=600),
            DEFAULT_SCALE,
        )
        violations, stats = run_fastpath_check(events, DEFAULT_SCALE)
        assert violations == []
        # Every kernel scheme replays the full stream through both
        # stacks; acts aggregate across the roster.
        assert stats["schemes"] == len(KERNEL_SCHEMES)
        assert stats["acts"] == len(events) * len(KERNEL_SCHEMES)

    def test_catches_a_seeded_divergence(self):
        """The subject must have teeth: make the fast Graphene commit
        overcount one row once and the comparison must flag it.  The
        seam is fast-only -- the reference table is untouched."""
        events = generate_stream(
            StreamSpec(generator="random", seed=9, length=200),
            DEFAULT_SCALE,
        )
        original = FastGrapheneBank.commit_run
        corrupted_commits = []

        def overcounting(self, times, rows):
            consumed, directives = original(self, times, rows)
            if consumed and not corrupted_commits:
                self.kernel.add(int(rows[0]), 1)  # one phantom hit
                corrupted_commits.append(consumed)
            return consumed, directives

        FastGrapheneBank.commit_run = overcounting
        try:
            violations, _ = run_fastpath_check(events, DEFAULT_SCALE)
        finally:
            FastGrapheneBank.commit_run = original
        assert corrupted_commits, "no vector commit to corrupt"
        assert violations, "corrupted kernel state went undetected"
        assert violations[0].kind == "divergence"

    @pytest.mark.parametrize("scheme", ["graphene", "abacus"])
    def test_flags_a_stale_count_bucket(self, scheme):
        """A row left behind in a second count bucket changes no result
        until some miss reads that bucket; the invariant check after
        each stack flags it at once."""
        from repro.core.fast_kernels import FastAbacusKernel

        events = generate_stream(
            StreamSpec(generator="random", seed=9, length=200),
            DEFAULT_SCALE,
        )
        kernel_type = (
            FastGrapheneBank if scheme == "graphene" else FastAbacusKernel
        )
        original = kernel_type.on_activate

        def leave_stale(self, row, time_ns):
            directives = original(self, row, time_ns)
            if scheme == "graphene":
                index = self.kernel._buckets
            else:
                index = self.mitigation.state.by_rac
            index.setdefault(10**9, set()).add(row)
            return directives

        kernel_type.on_activate = leave_stale
        try:
            violations, _ = run_fastpath_check(events, DEFAULT_SCALE)
        finally:
            kernel_type.on_activate = original
        assert violations, "stale count bucket went undetected"
        assert violations[0].kind == "invariant"
        assert f"[{scheme}]" in violations[0].detail


class TestFastControllerConstruction:
    def test_requires_registered_kernel(self):
        """Schemes without a kernel get None (plus the reason); every
        registry scheme builds."""
        device = build_device(banks=1, track_faults=False)
        controller, reason = build_fast_controller_ex(
            device, prohit_factory(insert_probability=0.02)
        )
        assert controller is None
        assert "prohit" in reason and "kernel" in reason
        assert build_fast_controller(device, para_factory(0.01)) is not None

    def test_kernel_registry_covers_advertised_schemes(self):
        """`kernel_schemes()` and the differential roster agree, and
        `kernel_for` builds a kernel for each scheme's engine."""
        assert set(KERNEL_SCHEMES) <= set(kernel_schemes())
        for scheme in KERNEL_SCHEMES:
            engine = _mitigation_factory(scheme, 1000)(0, 4096)
            kernel = kernel_for(engine)
            assert kernel is not None, scheme
            assert kernel.stats is not None
            snapshot = kernel.snapshot()
            kernel.restore(snapshot)
            assert kernel.table_state() is not None

def _round_robin_trace(banks: int = 8, acts_per_bank: int = 3000,
                       rows_per_bank: int = 512, seed: int = 11):
    """Worst-case interleave: event i lands on bank i % banks, so every
    contiguous same-bank run has length exactly 1."""
    import numpy as np

    rng = random.Random(seed)
    per_bank = []
    for bank in range(banks):
        rows = [100, 102] * (acts_per_bank // 2)
        # Sprinkle misses/allocations so the table kernels get exercised.
        for _ in range(acts_per_bank // 40):
            rows[rng.randrange(len(rows))] = rng.randrange(rows_per_bank)
        per_bank.append(
            pace_array(
                np.asarray(rows),
                DDR4_2400.trc,
                bank=bank,
                start_ns=bank * (DDR4_2400.trc / banks),
            )
        )
    trace = merge_arrays(*per_bank)
    # The interleave property the test name promises: length-1 runs.
    runs = list(trace.bank_runs())
    assert max(stop - start for start, stop, _ in runs) == 1
    return trace


class TestKernelSchemes:
    """Every registry scheme, byte-identical on the worst-case
    round-robin interleave (length-1 same-bank runs across 8 banks)."""

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_identical_on_round_robin_interleave(self, scheme):
        trace = _round_robin_trace()
        duration = float(trace.time_ns[-1]) + 100.0
        kwargs = dict(
            scheme=scheme,
            workload="rr8",
            banks=8,
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
            duration_ns=duration,
        )
        reference = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=False, **kwargs,
        )
        fast = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=True, **kwargs,
        )
        assert fast.to_dict() == reference.to_dict()
        assert reference.acts == len(trace)

    @pytest.mark.parametrize("scheme", KERNEL_SCHEMES)
    def test_blocking_event_on_first_act_of_segment(self, scheme):
        """Edge case: a lane whose very first ACT sits exactly on a
        blocking boundary (REF tick / reset-window edge) must replay it
        scalar and still match the reference byte-for-byte."""
        import numpy as np

        boundaries = [
            DDR4_2400.trefi,              # first auto-refresh tick
            DDR4_2400.trefw / 2,          # graphene reset-window edge
            DDR4_2400.trefw,              # cbt window edge
        ]
        parts = []
        for bank, boundary in enumerate(boundaries):
            rows = np.asarray([100, 102] * 400)
            parts.append(
                pace_array(rows, DDR4_2400.trc, bank=bank,
                           start_ns=float(boundary))
            )
        trace = merge_arrays(*parts)
        duration = float(trace.time_ns[-1]) + 100.0
        kwargs = dict(
            scheme=scheme,
            workload="boundary-first-act",
            banks=len(boundaries),
            rows_per_bank=512,
            hammer_threshold=DEFAULT_SCALE.mitigation_trh,
            track_faults=True,
            duration_ns=duration,
        )
        reference = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=False, **kwargs,
        )
        fast = simulate(
            trace, _mitigation_factory(scheme, DEFAULT_SCALE.mitigation_trh),
            fast=True, **kwargs,
        )
        assert fast.to_dict() == reference.to_dict()


class TestCometMultirankVectorCoverage:
    """CoMeT's sketch path batches on the 32-bank multirank hammer.

    A regression guard on *where* the events go, not on timing: the
    hammered rows spend most of each window below the promotion
    threshold, so a kernel that replays sketch-path rows scalar sends
    nearly every ACT through ``on_activate``.
    """

    def test_scalar_replays_stay_below_a_tenth_of_acts(self, monkeypatch):
        import numpy as np

        from repro.core.fast_kernels import FastCometKernel

        # 32 banks (16 x 2 ranks), 32-ACT bursts, 8 bursts per bank,
        # one ACT per tRC channel-wide.
        n = 8 * 32 * 32
        idx = np.arange(n, dtype=np.int64)
        burst = idx // 32
        per_bank_index = (burst // 32) * 32 + idx % 32
        trace = TraceArray(
            time_ns=idx.astype(np.float64) * DDR4_2400.trc,
            bank=burst % 32,
            row=np.where(per_bank_index % 2 == 0, 100, 102),
        )
        trh = DEFAULT_SCALE.mitigation_trh
        kwargs = dict(
            scheme="comet",
            workload="multirank32",
            banks=16,
            ranks=2,
            rows_per_bank=512,
            hammer_threshold=trh,
        )
        reference = simulate(
            trace, _mitigation_factory("comet", trh), fast=False, **kwargs
        )
        scalar_calls = 0
        on_activate = FastCometKernel.on_activate

        def counting(self, row, time_ns):
            nonlocal scalar_calls
            scalar_calls += 1
            return on_activate(self, row, time_ns)

        monkeypatch.setattr(FastCometKernel, "on_activate", counting)
        fast = simulate(
            trace, _mitigation_factory("comet", trh), fast=True, **kwargs
        )
        assert fast.to_dict() == reference.to_dict()
        # Promotions and RAT triggers happen, so both paths are live.
        assert reference.victim_refresh_directives > 0
        assert scalar_calls <= n // 10, scalar_calls


class TestRefTransparentDeclarations:
    """``ref_transparent`` lets a lane fold REF ticks into vector
    segments, skipping the kernel's REF callback; a kernel may declare
    it only when that callback is a no-op."""

    def test_declared_iff_ref_is_a_no_op(self):
        from repro.core.fastpath import _KERNEL_REGISTRY
        from repro.mitigations.base import MitigationEngine

        trh = DEFAULT_SCALE.mitigation_trh
        engines = [
            _mitigation_factory(scheme, trh)(0, 512)
            for scheme in KERNEL_SCHEMES
        ]
        kernels = [kernel_for(engine) for engine in engines]
        # Every registered kernel is covered.
        assert {type(engine) for engine in engines} == set(_KERNEL_REGISTRY)
        declared = {}
        for kernel in kernels:
            if isinstance(kernel, FastGrapheneBank):
                no_op = all(
                    kernel.on_refresh_command(t) == []
                    for t in (0.0, DDR4_2400.trefi, DDR4_2400.trefw)
                )
            else:
                no_op = (
                    type(kernel.mitigation)._process_refresh_command
                    is MitigationEngine._process_refresh_command
                )
            declared[kernel.name] = getattr(kernel, "ref_transparent", False)
            assert declared[kernel.name] == no_op, kernel.name
        assert not declared["twice"] and not declared["refresh-rate"]


class TestGrapheneMultirankRefFold:
    """Graphene vector segments run through auto-refresh ticks.

    A regression guard on commit counts, not timing: on a 32-bank
    hammer a bank's bursts arrive 32 bursts apart, farther than one
    tREFI, so a lane that cut its segments at every REF tick would
    commit about once per burst.
    """

    #: ``commit_run`` calls (empty ones included) on this trace when
    #: every REF tick ended a segment.
    CUT_AT_EVERY_REF = 635

    def test_commit_calls_at_most_a_third_of_ref_cut(self, monkeypatch):
        import numpy as np

        # 32 banks (16 x 2 ranks), 32-ACT bursts, 16 bursts per bank,
        # one ACT per tRC channel-wide.
        n = 16 * 32 * 32
        idx = np.arange(n, dtype=np.int64)
        burst = idx // 32
        per_bank_index = (burst // 32) * 32 + idx % 32
        trace = TraceArray(
            time_ns=idx.astype(np.float64) * DDR4_2400.trc,
            bank=burst % 32,
            row=np.where(per_bank_index % 2 == 0, 100, 102),
        )
        trh = 50_000
        kwargs = dict(
            scheme="graphene",
            workload="multirank32",
            banks=16,
            ranks=2,
            rows_per_bank=512,
            hammer_threshold=trh,
        )
        reference = simulate(
            trace, _mitigation_factory("graphene", trh), fast=False, **kwargs
        )
        calls = 0
        commit_run = FastGrapheneBank.commit_run

        def counting(self, times, rows):
            nonlocal calls
            calls += 1
            return commit_run(self, times, rows)

        monkeypatch.setattr(FastGrapheneBank, "commit_run", counting)
        fast = simulate(
            trace, _mitigation_factory("graphene", trh), fast=True, **kwargs
        )
        assert fast.to_dict() == reference.to_dict()
        assert reference.bank_stats.auto_refreshes > 32 * 16
        assert calls <= self.CUT_AT_EVERY_REF // 3, calls


class TestRunnerFallbackNotes:
    """`experiment --fast` job summaries name silent fallbacks."""

    def test_fast_job_without_kernel_gets_note(self):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["capability", "prohit"],
            scheme="prohit",
            workload="probe",
            duration_ns=1e6,
            engine="fast",
        )
        note = ExperimentRunner._job_note(job)
        assert "fell back" in note and "prohit" in note

    def test_fast_job_with_kernel_gets_no_note(self):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["scaling", "para"],
            scheme="para",
            workload="probe",
            duration_ns=1e6,
            engine="fast",
        )
        assert ExperimentRunner._job_note(job) == ""

    def test_reference_job_gets_no_note(self):
        from repro.experiments.runner import ExperimentRunner, sim_job

        job = sim_job(
            trace={"kind": "synthetic", "label": "double_sided"},
            factory=["capability", "prohit"],
            scheme="prohit",
            workload="probe",
            duration_ns=1e6,
            engine="reference",
        )
        assert ExperimentRunner._job_note(job) == ""

    def test_notes_surface_in_breakdown(self):
        from repro.experiments.runner import JobRecord, RunnerStats

        stats = RunnerStats()
        stats.records.append(
            JobRecord(label="a/prohit", seconds=1.0, source="computed",
                      note="fast engine fell back to the reference loop: "
                           "no batched kernel for scheme 'prohit'")
        )
        lines = stats.breakdown()
        assert any("fell back" in line for line in lines)


class TestFastControllerDirectiveLog:
    def test_directive_log_matches_reference(self):
        from repro.controller.mc import MemoryController

        trace = _interleaved_trace(banks=2, acts_per_bank=3000)
        factory = graphene_factory(GrapheneConfig(hammer_threshold=2000))

        ref_device = build_device(banks=2, hammer_threshold=2000,
                                  track_faults=False)
        reference = MemoryController(ref_device, factory,
                                     keep_directive_log=True)
        reference.run(iter(trace.to_events()))

        fast_device = build_device(banks=2, hammer_threshold=2000,
                                   track_faults=False)
        fast = build_fast_controller(fast_device, factory,
                                     keep_directive_log=True)
        fast.run(TraceArray.from_events(trace))

        assert reference.directive_log, "test has no teeth"
        assert fast.directive_log == reference.directive_log
        assert fast.latency_summary() == reference.latency_summary()
