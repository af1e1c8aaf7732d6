"""Alternative frequent-elements trackers (paper Section VI).

The paper chooses Misra-Gries "as it is area-efficient and hardware
implementation-friendly", citing three alternatives with different
accuracy/coverage/space trade-offs: **Space-Saving** (Metwally et al.),
**Lossy Counting** (Manku & Motwani) and the **Count-Min sketch**
(Cormode & Muthukrishnan).  This module implements all three behind a
common :class:`AggressorTracker` protocol so they can be dropped into a
Graphene-style engine (:class:`~repro.core.tracker_engine.
TrackerBackedEngine`) and compared head-to-head:

* **Space-Saving** gives the same deterministic guarantee as
  Misra-Gries with the same entry count (the two are duals: Space-Saving
  replaces the minimum entry eagerly instead of decrementing-by-proxy
  through a spillover count).  Hardware cost is comparable, but the
  replacement path must *find the minimum*, which is a harder CAM
  operation than Misra-Gries' exact-match against the spillover count
  -- the reason the paper prefers Misra-Gries.
* **Lossy Counting** guarantees no false negatives for the same memory
  only in expectation of stream composition; its bucket-boundary
  deletions make worst-case sizing looser.
* **Count-Min** never misses a heavy hitter (over-approximation only)
  but needs hash rows and cannot enumerate tracked rows -- on a
  threshold crossing it knows *that* the current row is hot, which is
  actually sufficient for Graphene-style victim refreshes.

All trackers expose the same stream API: ``observe(item) -> estimate``
where the estimate is an upper bound on the item's true count (the
property Graphene's no-false-negative argument needs).
"""

from __future__ import annotations

import math
from typing import Hashable, Protocol

import numpy as np

__all__ = [
    "AggressorTracker",
    "SpaceSavingTable",
    "LossyCountingTable",
    "CountMinSketch",
    "tracker_table_bits",
]

#: Hash keys are folded to 31 bits before the universal hash.
_KEY_MASK = 0x7FFFFFFF


class AggressorTracker(Protocol):
    """Stream summary usable as Graphene's tracking substrate.

    ``observe`` returns the item's new *estimated count* -- an upper
    bound on its actual occurrence count since the last reset -- or
    ``None`` if the structure does not track the item after the update
    (only Misra-Gries' spillover path does this).
    """

    def observe(self, item: Hashable) -> int | None: ...

    def estimated_count(self, item: Hashable) -> int: ...

    def reset(self) -> None: ...


class SpaceSavingTable:
    """The Space-Saving summary (Metwally, Agrawal, El Abbadi, 2005).

    Keeps ``capacity`` (item, count, error) entries.  A missed item
    always *replaces the current minimum*, inheriting its count + 1 and
    recording the inherited amount as the entry's error term.

    Guarantees (for W observations): every entry's count is an upper
    bound on the item's true count; any item with true count >
    W/capacity is in the table.  Note the denominator: Space-Saving
    needs ``capacity >= W/T`` where Misra-Gries needs ``> W/T - 1`` --
    the same size to within one entry.
    """

    __slots__ = (
        "capacity",
        "_counts",
        "_errors",
        "_buckets",
        "observations",
        "last_evicted",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: dict[Hashable, int] = {}
        self._errors: dict[Hashable, int] = {}
        #: count -> set of items, for O(1) minimum lookup (the hardware
        #: pain point the paper alludes to).
        self._buckets: dict[int, set[Hashable]] = {}
        self.observations = 0
        #: Item displaced by the most recent replacement (telemetry
        #: introspection hook; never consulted by the algorithm).
        self.last_evicted: Hashable | None = None

    def observe(self, item: Hashable) -> int:
        self.observations += 1
        current = self._counts.get(item)
        if current is not None:
            self._move(item, current, current + 1)
            return current + 1
        if len(self._counts) < self.capacity:
            self._counts[item] = 1
            self._errors[item] = 0
            self._buckets.setdefault(1, set()).add(item)
            return 1
        # Replace the minimum-count entry (deterministic smallest key).
        minimum = min(count for count, bucket in self._buckets.items()
                      if bucket)
        evicted = min(self._buckets[minimum])
        self._remove(evicted, minimum)
        self.last_evicted = evicted
        self._counts[item] = minimum + 1
        self._errors[item] = minimum
        self._buckets.setdefault(minimum + 1, set()).add(item)
        return minimum + 1

    def estimated_count(self, item: Hashable) -> int:
        return self._counts.get(item, 0)

    def guaranteed_count(self, item: Hashable) -> int:
        """Lower bound on the item's true count (count - error)."""
        return self._counts.get(item, 0) - self._errors.get(item, 0)

    def tracked(self) -> dict[Hashable, int]:
        return dict(self._counts)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def reset(self) -> None:
        self._counts.clear()
        self._errors.clear()
        self._buckets.clear()
        self.observations = 0
        self.last_evicted = None

    def check_invariants(self) -> None:
        """Sum of counts equals observations; errors bounded by min."""
        assert sum(self._counts.values()) == self.observations or (
            len(self._counts) < self.capacity
        )
        for item, error in self._errors.items():
            assert 0 <= error <= self._counts[item]

    def _move(self, item: Hashable, old: int, new: int) -> None:
        bucket = self._buckets[old]
        bucket.discard(item)
        if not bucket:
            del self._buckets[old]
        self._counts[item] = new
        self._buckets.setdefault(new, set()).add(item)

    def _remove(self, item: Hashable, count: int) -> None:
        del self._counts[item]
        del self._errors[item]
        bucket = self._buckets[count]
        bucket.discard(item)
        if not bucket:
            del self._buckets[count]


class LossyCountingTable:
    """Lossy Counting (Manku & Motwani, 2002), bucket-deletion variant.

    Streams are processed in buckets of width ``ceil(1/epsilon)``; at
    each bucket boundary, entries whose ``count + delta`` falls below
    the bucket index are deleted.  Estimated count = count + delta is
    an upper bound on the true count; any item with true count >
    epsilon * W survives.

    For Graphene-style use, ``epsilon`` should be ``T / W`` so that
    rows beyond ``T`` ACTs are guaranteed tracked; the expected table
    occupancy is then at most ``1/epsilon * log(epsilon * W)`` -- the
    looser space story that makes it less attractive than Misra-Gries
    for worst-case hardware provisioning.
    """

    def __init__(self, epsilon: float) -> None:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self.bucket_width = math.ceil(1.0 / epsilon)
        self._entries: dict[Hashable, tuple[int, int]] = {}  # count, delta
        self.observations = 0
        self.current_bucket = 1
        self.peak_occupancy = 0

    def observe(self, item: Hashable) -> int:
        self.observations += 1
        count, delta = self._entries.get(
            item, (0, self.current_bucket - 1)
        )
        count += 1
        self._entries[item] = (count, delta)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        estimate = count + delta
        if self.observations % self.bucket_width == 0:
            self._prune()
            self.current_bucket += 1
        return estimate

    def _prune(self) -> None:
        doomed = [
            item
            for item, (count, delta) in self._entries.items()
            if count + delta <= self.current_bucket
        ]
        for item in doomed:
            del self._entries[item]

    def estimated_count(self, item: Hashable) -> int:
        entry = self._entries.get(item)
        if entry is None:
            return 0
        count, delta = entry
        return count + delta

    def __contains__(self, item: Hashable) -> bool:
        return item in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self.observations = 0
        self.current_bucket = 1


class CountMinSketch:
    """Count-Min sketch (Cormode & Muthukrishnan, 2005).

    ``depth`` hash rows of ``width`` counters; an item's estimate is
    the minimum of its ``depth`` counters, which over-approximates its
    true count by at most ``e/width * W`` with probability
    ``1 - e^-depth``.  Over-approximation-only means **no false
    negatives** for threshold detection -- but collisions inflate
    estimates, so false-positive victim refreshes grow as the sketch
    saturates, and the structure cannot *name* the hot rows (only test
    the row currently being activated), which is why a sketch-based
    Graphene must check the threshold on every ACT.
    """

    def __init__(self, width: int, depth: int = 4, seed: int = 0x5EED) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self._table = np.zeros((depth, width), dtype=np.int64)
        rng = np.random.default_rng(seed)
        self._prime = (1 << 31) - 1
        self._a = rng.integers(1, self._prime, size=depth, dtype=np.int64)
        self._b = rng.integers(0, self._prime, size=depth, dtype=np.int64)
        self.observations = 0

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """Counter column of each key in every hash row, shape ``(depth, n)``.

        The batched form of :meth:`_indices` for non-negative integer
        keys below ``2**61 - 1``, where ``hash(key) == key``; ``a*key +
        b`` stays below ``2**63``, so the int64 arithmetic is exact.
        """
        keys = np.asarray(keys, dtype=np.int64) & _KEY_MASK
        return self._hash(keys[:, None]).T

    def _indices(self, item: Hashable) -> np.ndarray:
        return self._hash(hash(item) & _KEY_MASK)

    def _hash(self, key):
        # Universal hashing: (a*x + b) mod p mod width per row.
        return ((self._a * key + self._b) % self._prime) % self.width

    def observe(self, item: Hashable) -> int:
        self.observations += 1
        indices = self._indices(item)
        rows = np.arange(self.depth)
        self._table[rows, indices] += 1
        return int(self._table[rows, indices].min())

    def estimated_count(self, item: Hashable) -> int:
        indices = self._indices(item)
        rows = np.arange(self.depth)
        return int(self._table[rows, indices].min())

    def __contains__(self, item: Hashable) -> bool:
        """Sketches track everything (with noise)."""
        return True

    def reset(self) -> None:
        self._table.fill(0)
        self.observations = 0

    @property
    def table_bits(self) -> int:
        """Storage of the counter array (32-bit counters suffice)."""
        return self.width * self.depth * 32


def tracker_table_bits(
    tracker: object, address_bits: int, count_bits: int
) -> int:
    """Storage footprint of a tracker instance, in bits.

    Entry-based trackers pay address + count (+ error for Space-Saving)
    per entry; the sketch reports its own array size.
    """
    if isinstance(tracker, CountMinSketch):
        return tracker.table_bits
    if isinstance(tracker, SpaceSavingTable):
        return tracker.capacity * (address_bits + 2 * count_bits)
    if isinstance(tracker, LossyCountingTable):
        # Provisioned at the analytic worst case 1/eps * ln(eps W) with
        # W = the window budget implied by epsilon and count width.
        expected = math.ceil(
            (1 / tracker.epsilon)
            * max(1.0, math.log(max(2.0, tracker.epsilon * 2**count_bits)))
        )
        return expected * (address_bits + count_bits)
    raise TypeError(f"unknown tracker type {type(tracker)!r}")
