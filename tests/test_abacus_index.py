"""ABACuS's RAC index: O(1) floor-bucket eviction, pinned by brute force.

:class:`repro.mitigations.abacus.AbacusState` keeps a ``rac -> rows``
index next to its entry table, and a full-table miss evicts
``min(by_rac[spillover])`` instead of scanning every entry.  Both
engines now read that index, so lockstep between them cannot catch a
stale bucket; this suite also recomputes every eviction by a brute-force
scan of the entries (the smallest row whose RAC equals the spillover
count) and checks :meth:`AbacusState.check_invariants` after every step.

A 4-entry table over 8 rows and 4 banks makes misses, evictions and
spillover the common case.  Each example interleaves the fast kernel's
``commit_run`` and ``commit_run_banked`` (each cut replayed scalar),
scalar ACTs, window resets, the ``insert_offset=1`` fault seam and a
``snapshot``/``restore`` round trip, against a twin table stepped one
ACT at a time through the reference engines.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.fast_kernels import FastAbacusKernel, reference_state
from repro.mitigations.abacus import AbacusMitigation, AbacusState

_BANKS = 4
_ROWS = 8
_ENTRIES = 4
_WINDOW_NS = 1e6
_STEP_NS = 50.0


def _banks(threshold: int) -> list[AbacusMitigation]:
    state = AbacusState(threshold, _WINDOW_NS, _ENTRIES)
    return [AbacusMitigation(b, _ROWS, state) for b in range(_BANKS)]


def _brute_force_victim(state: AbacusState, row: int, time_ns: float):
    """The row a full-table miss at ``time_ns`` must evict, by scanning
    every entry; ``None`` when the ACT cannot evict."""
    if int(time_ns // state.window_ns) != state.current_window:
        return None  # the lazy window reset empties the table first
    if row in state.entries or len(state.entries) < state.num_entries:
        return None
    floor = [r for r, e in state.entries.items() if e.rac == state.spillover]
    return min(floor) if floor else None


class _Lockstep:
    def __init__(self, threshold: int) -> None:
        self.kernels = [FastAbacusKernel(m) for m in _banks(threshold)]
        self.twins = _banks(threshold)
        self.state = self.kernels[0].mitigation.state
        self.clock = 0.0
        self.evictions_checked = 0

    def times(self, n: int) -> np.ndarray:
        times = self.clock + np.arange(n, dtype=np.float64) * _STEP_NS
        self.clock += n * _STEP_NS
        return times

    def scalar(self, bank: int, row: int, time_ns: float) -> None:
        state = self.state
        victim = _brute_force_victim(state, row, time_ns)
        evictions = state.stats.evictions
        got = self.kernels[bank].on_activate(row, time_ns)
        assert got == self.twins[bank].on_activate(row, time_ns)
        if victim is None:
            assert state.stats.evictions == evictions
        else:
            assert state.stats.evictions == evictions + 1
            assert victim not in state.entries and row in state.entries
            self.evictions_checked += 1

    def twin_steps(self, banks, rows, times) -> None:
        for b, r, t in zip(banks, rows, times):
            assert self.twins[b].on_activate(int(r), float(t)) == []

    def run(self, bank: int, rows: list[int]) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        times = self.times(len(rows))
        kernel = self.kernels[bank]
        index = 0
        while index < len(rows):
            consumed, directives = kernel.commit_run(
                times[index:], rows[index:]
            )
            assert directives == []
            end = index + consumed
            self.twin_steps([bank] * consumed, rows[index:end],
                            times[index:end])
            index = end
            if index < len(rows):
                self.scalar(bank, int(rows[index]), float(times[index]))
                index += 1

    def banked(self, pairs: list[tuple[int, int]]) -> None:
        banks = np.asarray([b for b, _ in pairs], dtype=np.int64)
        rows = np.asarray([r for _, r in pairs], dtype=np.int64)
        times = self.times(len(rows))
        index = 0
        while index < len(rows):
            consumed = self.kernels[0].commit_run_banked(
                times[index:], rows[index:], banks[index:]
            )
            end = index + consumed
            # The caller owns per-bank activation counts.
            for b in banks[index:end]:
                self.kernels[int(b)].stats.activations += 1
            self.twin_steps(banks[index:end].tolist(), rows[index:end],
                            times[index:end])
            index = end
            if index < len(rows):
                self.scalar(int(banks[index]), int(rows[index]),
                            float(times[index]))
                index += 1

    def reset(self) -> None:
        """Jump to the next window; one scalar ACT applies the lazy
        reset before any bulk commit sees the new window."""
        self.clock = (self.state.current_window + 1) * _WINDOW_NS
        self.scalar(0, 0, self.times(1)[0])

    def toggle_offset(self) -> None:
        offset = 1 - self.state.insert_offset
        self.state.insert_offset = offset
        self.twins[0].state.insert_offset = offset

    def restore(self, bank: int, rows: list[int]) -> None:
        """Mutate the fast table off the record, then rewind it."""
        kernel = self.kernels[bank]
        snap = kernel.snapshot()
        clock = self.clock
        times = self.times(len(rows))
        kernel.commit_run(times, np.asarray(rows, dtype=np.int64))
        for row, t in zip(rows, times):
            kernel.on_activate(row, float(t))
        kernel.restore(snap)
        self.clock = clock

    def check(self) -> None:
        self.state.check_invariants()
        self.twins[0].state.check_invariants()
        assert reference_state(self.kernels[0].mitigation) == (
            reference_state(self.twins[0])
        )
        for kernel, twin in zip(self.kernels, self.twins):
            assert kernel.stats.activations == twin.stats.activations


_bank = st.integers(min_value=0, max_value=_BANKS - 1)
_row = st.integers(min_value=0, max_value=_ROWS - 1)
_ops = st.one_of(
    st.tuples(st.just("run"), _bank,
              st.lists(_row, min_size=1, max_size=24)),
    st.tuples(st.just("banked"),
              st.lists(st.tuples(_bank, _row), min_size=1, max_size=24)),
    st.tuples(st.just("scalar"), _bank, _row),
    st.tuples(st.just("reset")),
    st.tuples(st.just("toggle_offset")),
    st.tuples(st.just("restore"), _bank,
              st.lists(_row, min_size=1, max_size=12)),
)


class TestFloorBucketEviction:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(_ops, min_size=1, max_size=30),
        threshold=st.integers(min_value=2, max_value=8),
    )
    def test_interleaved_paths_match_brute_force(self, ops, threshold):
        lockstep = _Lockstep(threshold)
        for op in ops:
            if op[0] == "scalar":
                lockstep.scalar(op[1], op[2], lockstep.times(1)[0])
            else:
                getattr(lockstep, op[0])(*op[1:])
            lockstep.check()

    def test_churn_evicts_the_smallest_floor_row(self):
        """A fixed churn stream reaches the floor-bucket path, and every
        eviction it makes is the brute-force choice."""
        lockstep = _Lockstep(threshold=50)
        for row in [7, 6, 5, 4, 3, 2, 1, 0] * 4:
            lockstep.scalar(0, row, lockstep.times(1)[0])
            lockstep.check()
        assert lockstep.evictions_checked >= 8
        assert lockstep.state.stats.spillover_increments > 0

    def test_stale_bucket_fails_the_invariants(self):
        state = _banks(4)[0].state
        state.observe(0, 3, 0.0)
        state.check_invariants()
        state.entries[3].rac += 1  # bypasses bump_rac: the index is stale
        with pytest.raises(AssertionError, match="index"):
            state.check_invariants()
