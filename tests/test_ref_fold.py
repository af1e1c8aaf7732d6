"""REF-dense differential suite for auto-refresh folding.

Kernels that declare ``ref_transparent`` (Graphene, PARA, CBT, CoMeT,
ABACuS) carry a per-bank vector segment across auto-refresh ticks: the
lane resolves each ACT's issue time against the pending ticks' tRFC
ends and applies the ticks it passed at commit.  (ABACuS takes that
lane only on long same-bank runs; interleaved stretches go through its
banked lane, which still cuts each bank at its own tick, and the
streams hold both.)  This suite places ACT bursts on tiny
2-rank streams right around the ticks -- a tick mid-burst, an ACT
exactly on a tick, an ACT within 1e-9 of a tick's tRFC end, chained
bursts that run through a tick, and (at a low hammer threshold) NRR
busy time overlapping a tick -- and runs every stream through the
reference loop and through the fast path, serial and chunked with one
chunk boundary on a tick, with fault tracking on and off.  Everything
observable must match exactly: the serialized result, the directive
log, the bit flips, each bank's tracking table, each bank's DRAM-model
state and the fault model's disturbance counts.
"""

from __future__ import annotations

import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships in CI
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.controller.mc import MemoryController
from repro.core.fast_kernels import reference_state
from repro.core.fastpath import build_fast_controller_ex
from repro.dram.timing import DDR4_2400
from repro.sim.simulator import build_device
from repro.verify.differential import _mitigation_factory
from repro.verify.fastpath_check import (
    _directive_rows,
    _flip_rows,
    _result_dict,
    bank_model_state,
)
from repro.workloads import ActEvent, TraceArray

SCHEMES = ("graphene", "para", "cbt", "comet", "abacus")

_BANKS = 2  # per rank
_RANKS = 2
_ROWS = 64
#: Low enough that hammered rows trigger NRRs within a few bursts.
_TRH = 250

_TREFI = DDR4_2400.trefi
_TRFC = DDR4_2400.trfc
_TRC = DDR4_2400.trc

#: Burst starts relative to a tick (the REF schedule is ``k * tREFI``
#: on every bank): a burst the tick lands in, an ACT on the tick, ACTs
#: within 1e-9 of its tRFC end and just past it.
_OFFSETS = (
    -10 * _TRC,
    -3 * _TRC,
    -_TRC / 2,
    0.0,
    _TRFC - 5e-10,
    _TRFC - 2e-9,
    _TRFC,
    _TRFC + 5e-10,
)
#: Same-bank spacing: back to back at tRC (idle), faster than tRC (a
#: saturated chain), and loose.
_SPACINGS = (_TRC, _TRC / 2, 1.5 * _TRC)

_bursts = st.lists(
    st.tuples(
        st.integers(0, _BANKS * _RANKS - 1),  # bank
        st.integers(1, 4),  # tick index
        st.one_of(
            st.sampled_from(_OFFSETS),
            st.floats(-2_000.0, 2_000.0, allow_nan=False),
        ),
        st.sampled_from(_SPACINGS),
        st.integers(1, 40),  # length
        # Rows next to the ones the first ticks refresh (one row per
        # REF here, from row 0), so fold order reaches the fault model.
        st.lists(st.integers(1, 5), min_size=1, max_size=3),  # rows
    ),
    min_size=1,
    max_size=8,
)


def _stream(bursts, tick: int) -> tuple[list[ActEvent], int]:
    """Merge the bursts into one time-sorted stream.

    The stream always holds one ACT exactly on tick ``tick`` (and one
    at time 0 ahead of it); returns the stream and that ACT's index, so
    chunking by it puts a chunk boundary on the tick.
    """
    events = [(0.0, 0, 1), (tick * _TREFI, 1, 3)]
    for bank, k, offset, spacing, length, rows in bursts:
        start = k * _TREFI + offset
        for i in range(length):
            events.append((start + i * spacing, bank, rows[i % len(rows)]))
    events.sort(key=lambda event: event[0])  # stable: ties keep order
    stream = [ActEvent(t, bank, row) for t, bank, row in events if t >= 0.0]
    on_tick = next(
        i for i, event in enumerate(stream)
        if event.time_ns == tick * _TREFI and event.bank == 1
    )
    return stream, on_tick


def _device(track_faults: bool):
    return build_device(
        banks=_BANKS,
        ranks=_RANKS,
        rows_per_bank=_ROWS,
        hammer_threshold=_TRH,
        track_faults=track_faults,
    )


def _observed(controller, device, scheme, stream, engines):
    duration = 2 * DDR4_2400.trefw
    return (
        _result_dict(
            controller, device, scheme, _BANKS * _RANKS, _ROWS,
            stream[-1].time_ns, duration,
        ),
        _directive_rows(controller.directive_log),
        _flip_rows(controller.bit_flips),
        [engines(bank) for bank in range(_BANKS * _RANKS)],
        [
            bank_model_state(device.bank(bank))
            for bank in range(_BANKS * _RANKS)
        ],
        [
            None if model.faults is None else model.faults._disturbance
            for model in device.banks
        ],
    )


def _check(scheme: str, stream, on_tick: int, track_faults: bool) -> None:
    factory = _mitigation_factory(scheme, _TRH)
    device = _device(track_faults)
    reference = MemoryController(device, factory, keep_directive_log=True)
    reference.run(iter(stream))
    want = _observed(
        reference, device, scheme, stream,
        lambda bank: reference_state(reference.engines[bank]),
    )
    for chunk_events in (None, on_tick):
        device = _device(track_faults)
        fast, reason = build_fast_controller_ex(
            device, factory, keep_directive_log=True
        )
        assert fast is not None, reason
        fast.run(TraceArray.from_events(stream), chunk_events=chunk_events)
        got = _observed(
            fast, device, scheme, stream,
            lambda bank: fast.engines[bank].table_state(),
        )
        assert got == want, (scheme, track_faults, chunk_events)


class TestRefDense:
    @settings(max_examples=40, deadline=None)
    @given(bursts=_bursts, tick=st.integers(1, 4))
    @example(
        # Four banks hammering through tick 2, one of them saturated.
        bursts=[
            (0, 2, -3 * _TRC, _TRC, 40, [1, 3]),
            (1, 2, _TRFC - 5e-10, _TRC / 2, 40, [2, 4]),
            (2, 2, 0.0, _TRC, 40, [1, 3]),
            (3, 2, -_TRC / 2, 1.5 * _TRC, 40, [3, 5]),
        ],
        tick=2,
    )
    @example(
        # One bank at a time through ticks 1-4: long same-bank runs,
        # which ABACuS sends down the per-bank lane too.
        bursts=[
            (0, 1, -3 * _TRC, _TRC / 2, 40, [1, 3]),
            (1, 2, -10 * _TRC, _TRC, 40, [2, 4]),
            (2, 3, _TRFC - 5e-10, _TRC, 40, [1, 3]),
            (3, 4, -_TRC / 2, 1.5 * _TRC, 40, [3, 5]),
        ],
        tick=2,
    )
    def test_fast_path_matches_reference(self, bursts, tick):
        stream, on_tick = _stream(bursts, tick)
        for scheme in SCHEMES:
            for track_faults in (True, False):
                _check(scheme, stream, on_tick, track_faults)


class TestFoldCoverage:
    """The streams above do reach the fold: on a fixed REF-dense stream
    every scheme's kernel sees fewer REF callbacks than the controller
    forwarded REF ticks, and the low threshold makes NRRs."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ticks_fold_into_segments(self, scheme):
        offsets = (-3 * _TRC, 0.0, _TRFC - 5e-10, -10 * _TRC)
        # All four banks interleaved through ticks 1-4, then one bank
        # at a time through ticks 5-8 (the runs ABACuS folds).
        bursts = [
            (bank, k, offset, _TRC, 40, [1, 3])
            for k in (1, 2, 3, 4)
            for bank, offset in enumerate(offsets)
        ] + [
            (bank, 5 + bank, offset, _TRC, 40, [1, 3])
            for bank, offset in enumerate(offsets)
        ]
        stream, on_tick = _stream(bursts, 2)
        for track_faults in (True, False):
            _check(scheme, stream, on_tick, track_faults)

        device = _device(True)
        fast, _ = build_fast_controller_ex(
            device, _mitigation_factory(scheme, _TRH)
        )
        calls = 0
        for kernel in fast.engines:
            on_refresh = kernel.on_refresh_command

            def counting(time_ns, on_refresh=on_refresh):
                nonlocal calls
                calls += 1
                return on_refresh(time_ns)

            kernel.on_refresh_command = counting
        fast.run(TraceArray.from_events(stream))
        assert calls < fast.counters.ref_ticks_forwarded
        if scheme != "para":
            # PARA triggers on random draws, so this stream need not
            # make it refresh.
            assert fast.counters.nrr_commands > 0
