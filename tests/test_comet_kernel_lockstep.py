"""Lockstep suite for the batched CoMeT kernel.

:class:`repro.core.fast_kernels.FastCometKernel` commits runs of ACTs
in bulk -- RAT rows by exact per-row counts, sketch-path rows by the
closed-form ``base + j`` estimate when their counters are distinct, or
by a per-hash-row group cumcount when they collide -- and cuts before
the first ACT that would trigger.  This suite drives ``commit_run``
plus one scalar ``on_activate`` per cut against a twin engine stepped
one ACT at a time, and asserts after every cut that the two agree on
the full comparable state (``reference_state``), the activation count
and every emitted directive.

Tiny sketches (width 1-8) over at most six distinct rows force counter
collisions; a low threshold and a 1-4 entry RAT make promotions,
re-arms and evictions frequent.
"""

from __future__ import annotations

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.config import GrapheneConfig
from repro.core.fast_kernels import FastCometKernel, reference_state
from repro.core.trackers import CountMinSketch
from repro.mitigations.comet import CoMeTMitigation

_ROWS = 64


def _engine(width: int, depth: int, rat: int, threshold: int, seed: int):
    config = GrapheneConfig(
        hammer_threshold=2_000,
        rows_per_bank=_ROWS,
        reset_window_divisor=2,
    )
    engine = CoMeTMitigation(
        0, _ROWS, config, width=width, depth=depth, rat_entries=rat,
        seed=seed,
    )
    engine.threshold = threshold
    return engine


def _run_lockstep(stream, width, depth, rat, threshold, seed) -> int:
    kernel = FastCometKernel(_engine(width, depth, rat, threshold, seed))
    twin = _engine(width, depth, rat, threshold, seed)
    times = np.arange(len(stream), dtype=np.float64) * 50.0
    rows = np.asarray(stream, dtype=np.int64)
    index = cuts = 0
    while index < len(rows):
        consumed, directives = kernel.commit_run(times[index:], rows[index:])
        assert directives == []
        for k in range(index, index + consumed):
            assert twin.on_activate(int(rows[k]), float(times[k])) == []
        index += consumed
        if index < len(rows):
            got = kernel.on_activate(int(rows[index]), float(times[index]))
            want = twin.on_activate(int(rows[index]), float(times[index]))
            assert got == want
            # The cut is tight: the kernel only stops at a trigger.
            assert got, (index, int(rows[index]))
            index += 1
            cuts += 1
        assert reference_state(kernel.mitigation) == reference_state(twin)
        assert kernel.stats.activations == twin.stats.activations
    return cuts


class TestLockstep:
    @settings(max_examples=300, deadline=None)
    @given(
        stream=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=120
        ),
        width=st.integers(min_value=1, max_value=8),
        depth=st.integers(min_value=1, max_value=4),
        rat=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bulk_commit_matches_scalar_twin(
        self, stream, width, depth, rat, threshold, seed
    ):
        _run_lockstep(stream, width, depth, rat, threshold, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        stream=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=120
        ),
        rat=st.integers(min_value=1, max_value=4),
        threshold=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_wide_sketch_matches_scalar_twin(
        self, stream, rat, threshold, seed
    ):
        """The paper-sized sketch: distinct counters are the norm, so
        this exercises the closed-form branch."""
        _run_lockstep(stream, 512, 4, rat, threshold, seed)

    def test_colliding_rows_cut_at_the_shared_counter(self):
        """Width 1: two alternating rows share every counter, so the
        fourth ACT reaches T = 4 although each row has occurred only
        twice -- a per-row count would commit past it."""
        kernel = FastCometKernel(_engine(1, 2, 2, 4, 0))
        rows = np.array([3, 5] * 10, dtype=np.int64)
        consumed, _ = kernel.commit_run(np.arange(20.0) * 50.0, rows)
        assert consumed == 3
        assert _run_lockstep(rows.tolist(), 1, 2, 2, 4, 0) >= 1


class TestSnapshot:
    def test_restore_rewinds_sketch_observations(self):
        kernel = FastCometKernel(_engine(512, 4, 4, 50, 0))
        state = kernel.snapshot()
        rows = np.array([1, 2, 3, 1, 2], dtype=np.int64)
        consumed, _ = kernel.commit_run(np.arange(5.0) * 50.0, rows)
        assert consumed == 5
        assert kernel.mitigation.sketch.observations == 5
        kernel.restore(state)
        assert kernel.mitigation.sketch.observations == 0
        assert not kernel.mitigation.sketch._table.any()


@pytest.mark.parametrize("seed", [0, 0x5EED, 12345])
def test_columns_matches_scalar_indices(seed):
    sketch = CountMinSketch(512, depth=4, seed=seed)
    rows = [0, 1, 2**31 - 1, 2**31, 2**40]
    columns = sketch.columns(np.array(rows))
    assert columns.shape == (4, len(rows))
    for i, row in enumerate(rows):
        assert columns[:, i].tolist() == sketch._indices(row).tolist()
