"""The Misra-Gries frequent-elements summary (paper Section III-A).

Graphene's aggressor tracker is the Misra-Gries algorithm (Misra &
Gries, 1982) specialized to a stream of activated row addresses.  The
structure is a fixed-capacity associative table of ``(item, estimated
count)`` pairs plus a single *spillover count* register.  Per incoming
item (Fig. 1 of the paper):

1. **Hit** -- the item is in the table: increment its estimated count.
2. **Miss, replaceable** -- some entry's estimated count equals the
   spillover count: replace that entry's key with the incoming item and
   increment the count (the old count is *carried over*, which is what
   makes the estimate an over-approximation).
3. **Miss, no replaceable entry** -- increment the spillover count.

Guarantees (proved in Section III-C of the paper and re-proved
executable-style in :mod:`repro.core.guarantees`):

* *Lemma 1*: every tracked item's estimated count >= its actual count;
* *Lemma 2*: spillover count <= W / (N_entry + 1) after W observations;
* any item occurring more than ``W / (N_entry + 1)`` times is tracked.

The implementation keeps an inverted count->keys index so the
"find an entry whose count equals the spillover count" step is O(1),
mirroring the single CAM search of the hardware design (Section IV-B).
The batched fast path (:class:`repro.core.fastpath.FastGrapheneBank`)
reuses this very table: its scalar replay calls :meth:`observe`, and
its vector commit bumps pure hits through :meth:`add`, so both engines
share one eviction rule by construction.

**Determinism contract.**  When several entries are replaceable (their
estimated counts all equal the spillover count), the algorithm is free
to evict any of them -- the guarantees hold either way -- but *this*
implementation always evicts the **smallest key** (``min`` over the
candidate set).  The choice is part of the public contract: it is what
keeps this logical model bit-identical to the CAM-level
:class:`~repro.core.hardware_table.HardwareGrapheneTable` (whose
priority encoder picks the empty slot first, then the smallest
address), it makes every fuzz stream and regression reproducer replay
to the same table state, and -- because keys are compared by value,
never by hash-table iteration order -- it is stable across processes
and ``PYTHONHASHSEED`` values.  Keys must therefore be mutually
orderable (row addresses and ``(bank, row)`` tuples both are).  The
tie-break order is pinned by tests in ``tests/test_misra_gries.py``.
"""

from __future__ import annotations

from typing import Hashable, Iterator

__all__ = ["MisraGriesTable"]


class MisraGriesTable:
    """Fixed-capacity Misra-Gries counter table with a spillover count.

    Args:
        capacity: ``N_entry`` -- the number of table entries.

    The table is generic over hashable item keys; Graphene uses DRAM row
    addresses (ints).
    """

    __slots__ = (
        "capacity",
        "_counts",
        "_buckets",
        "spillover",
        "observations",
        "last_evicted",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: item -> estimated count
        self._counts: dict[Hashable, int] = {}
        #: estimated count -> set of items currently holding that count.
        #: Lets the miss path locate a replaceable entry in O(1), like
        #: the hardware's Count-CAM search.
        self._buckets: dict[int, set[Hashable]] = {}
        self.spillover = 0
        #: Number of items observed since the last reset (the stream
        #: length W in the paper's analysis).
        self.observations = 0
        #: The item displaced by the most recent replacement, read by
        #: telemetry right after an insert-with-eviction.  Purely
        #: observational; never consulted by the algorithm.
        self.last_evicted: Hashable | None = None

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    def observe(self, item: Hashable) -> int | None:
        """Process one stream item.

        Returns:
            The item's new estimated count if it is tracked after the
            update, or None if only the spillover count was incremented.
        """
        self.observations += 1
        counts = self._counts
        current = counts.get(item)
        if current is not None:
            # Hit: bump the estimated count.
            self._move(item, current, current + 1)
            return current + 1

        if len(counts) < self.capacity:
            # Table not yet full.  In hardware the empty slots are valid
            # entries with count 0, and since counts never decrease the
            # spillover count is still 0 whenever an empty slot exists;
            # check_invariants() verifies that property off the hot path.
            self._insert(item, 1)
            return 1

        replaceable = self._buckets.get(self.spillover)
        if replaceable:
            # Miss with a replaceable entry: the CAM reports an entry
            # whose count equals the spillover count.  Evict it and
            # carry its count over to the incoming item.  Ties are
            # broken deterministically (smallest key, by value -- never
            # by set iteration order, which would vary with the process
            # hash seed) so the logical and CAM-level models stay
            # bit-identical; see the module docstring's determinism
            # contract.
            evicted = min(replaceable)
            self._remove(evicted, self.spillover)
            self._insert(item, self.spillover + 1)
            self.last_evicted = evicted
            return self.spillover + 1

        # Miss with no replaceable entry: only the spillover count grows.
        self.spillover += 1
        return None

    def observe_many(self, items: Iterator[Hashable]) -> None:
        """Feed a whole iterable through :meth:`observe`."""
        for item in items:
            self.observe(item)

    def add(self, item: Hashable, k: int) -> int:
        """Bulk hit: ``k`` observations of an already-tracked ``item``.

        Equal to ``k`` calls of :meth:`observe` when each of them is a
        hit -- a tracked item stays tracked while only hits arrive, so
        the count just grows by ``k`` and moves bucket once.  The fast
        path's vector commit calls this once per distinct row.

        Returns:
            The item's new estimated count.

        Raises:
            KeyError: ``item`` is not tracked.
        """
        current = self._counts[item]
        self.observations += k
        self._move(item, current, current + k)
        return current + k

    def reset(self) -> None:
        """Clear the table and spillover count (Graphene's window reset)."""
        self._counts.clear()
        self._buckets.clear()
        self.spillover = 0
        self.observations = 0
        self.last_evicted = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, item: Hashable) -> bool:
        return item in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def estimated_count(self, item: Hashable) -> int:
        """Estimated count of ``item``; 0 if not tracked.

        Note that "not tracked" does not mean "never seen": an evicted
        item's history lives on in the spillover count and in whichever
        entry inherited its count.
        """
        return self._counts.get(item, 0)

    def items_with_count_at_least(self, threshold: int) -> list[Hashable]:
        """Tracked items whose estimated count is >= ``threshold``.

        By the Misra-Gries guarantee this is a superset of the items
        whose *actual* count is >= ``threshold`` whenever ``capacity >
        observations / threshold - 1`` (Inequality 1 of the paper).
        """
        return [k for k, v in self._counts.items() if v >= threshold]

    def tracked(self) -> dict[Hashable, int]:
        """Snapshot of the table contents (item -> estimated count)."""
        return dict(self._counts)

    @property
    def min_estimated_count(self) -> int:
        """Smallest estimated count currently in the table."""
        if not self._counts:
            return 0
        return min(self._buckets_nonempty())

    # ------------------------------------------------------------------
    # Invariant checking (used by tests and the guarantees module)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated.

        Checks the conservation law used in the proof of Lemma 2 (the
        spillover count plus all estimated counts equals the number of
        observations), the Lemma 2 bound itself, and the internal
        bucket-index consistency.
        """
        total = self.spillover + sum(self._counts.values())
        assert total == self.observations, (
            f"conservation violated: spillover+counts={total} != "
            f"observations={self.observations}"
        )
        bound = self.observations / (self.capacity + 1)
        assert self.spillover <= bound, (
            f"Lemma 2 violated: spillover={self.spillover} > "
            f"W/(N+1)={bound}"
        )
        if self._counts:
            assert self.spillover <= min(self._counts.values()), (
                "spillover exceeds a tracked estimated count"
            )
        if len(self._counts) < self.capacity:
            # Empty slots are count-0 entries in hardware, and counts
            # never decrease, so spillover must still be 0 while any
            # slot is free.
            assert self.spillover == 0, (
                "spillover grew while slots were free"
            )
        rebuilt: dict[int, set[Hashable]] = {}
        for item, count in self._counts.items():
            rebuilt.setdefault(count, set()).add(item)
        pruned = {c: s for c, s in self._buckets.items() if s}
        assert rebuilt == pruned, "bucket index out of sync with counts"

    # ------------------------------------------------------------------
    # Internal bucket maintenance
    # ------------------------------------------------------------------

    def _insert(self, item: Hashable, count: int) -> None:
        self._counts[item] = count
        self._buckets.setdefault(count, set()).add(item)

    def _remove(self, item: Hashable, count: int) -> None:
        del self._counts[item]
        bucket = self._buckets[count]
        bucket.discard(item)
        if not bucket:
            del self._buckets[count]

    def _move(self, item: Hashable, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.discard(item)
        if not bucket:
            del self._buckets[old]
        self._counts[item] = new
        self._buckets.setdefault(new, set()).add(item)

    def _buckets_nonempty(self) -> Iterator[int]:
        return (count for count, bucket in self._buckets.items() if bucket)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MisraGriesTable(capacity={self.capacity}, "
            f"tracked={len(self._counts)}, spillover={self.spillover}, "
            f"observations={self.observations})"
        )
