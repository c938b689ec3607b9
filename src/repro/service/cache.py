"""A thread-safe LRU cache with hit/miss statistics and single-flight fills.

The serving layer keeps three of these: a *plan* cache (query text →
canonicalized query), a *profile* cache (per-database residual-query
multiplicities, which are β-independent) and a *sensitivity* cache (final
sensitivity values per ``(database, version, shape, method, β)``).  All three
store deterministic, data-derived values, so a duplicate computation can
never be *wrong* — but it can be expensive: a profile over a large lattice
runs for seconds, and a thundering herd of identical queries used to compute
it once per thread.  :meth:`LRUCache.get_or_compute` therefore latches
in-flight fills per key: the first caller (the *leader*) runs the factory,
every concurrent caller of the same key blocks on the leader's result, and
callers of independent keys still compute concurrently (the batch executor
relies on that).  A leader failure wakes the waiters, who retry the factory
themselves rather than inheriting an exception for work they did not run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator, Tuple

from repro.exceptions import ServiceError

__all__ = ["LRUCache", "CacheStats"]


class _InFlight:
    """The latch one in-flight :meth:`LRUCache.get_or_compute` fill publishes."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


@dataclass(frozen=True)
class CacheStats:
    """An immutable snapshot of a cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never queried)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict[str, float | int]:
        """A JSON-serialisable view (for the ``/stats`` endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 6),
        }


class LRUCache:
    """A bounded mapping evicting the least-recently-used entry.

    Parameters
    ----------
    capacity:
        Maximum number of entries.  ``0`` disables the cache entirely (every
        lookup misses, nothing is stored) — the serving layer uses this to
        provide an "uncached" mode for benchmarking and validation.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ServiceError(f"cache capacity must be non-negative, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        # Keys whose value is being computed right now (single-flight latches).
        self._inflight: dict[Hashable, _InFlight] = {}
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def capacity(self) -> int:
        """The maximum number of entries."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """A snapshot of the keys, most recently used last."""
        with self._lock:
            return iter(tuple(self._entries))

    def get(
        self,
        key: Hashable,
        default: Any = None,
        *,
        is_current: Callable[[Any], bool] | None = None,
    ) -> Any:
        """The cached value (marking it recently used), or ``default``.

        With ``is_current``, an entry it rejects is still returned (the
        caller may bring it up to date) but counts as a miss.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                value = self._entries[key]
                if is_current is None or is_current(value):
                    self._hits += 1
                else:
                    self._misses += 1
                return value
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the LRU entry when full."""
        if self._capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Tuple[Any, bool]:
        """``(value, hit)`` — computing and storing the value on a miss.

        ``factory`` runs *outside* the lock so independent keys can be
        computed concurrently (the batch executor relies on this), but
        same-key callers are **single-flighted**: the first caller becomes
        the leader and runs the factory exactly once, concurrent callers
        block on its latch and read the cached value (reported as a hit —
        they never computed anything).  If the leader's factory raises, the
        waiters wake and race to become the new leader instead of
        inheriting the exception.  A ``capacity == 0`` cache cannot publish
        results, so it computes per caller as before (the benchmarking
        "uncached" mode must not serialize independent requests).
        """
        sentinel = object()
        while True:
            value = self.get(key, sentinel)
            if value is not sentinel:
                return value, True
            if self._capacity == 0:
                return factory(), False
            with self._lock:
                if key in self._entries:
                    continue  # published between get() and here: re-read it
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.event.wait()
                continue  # cached on success; leader failure → retry as leader
            try:
                value = factory()
            except BaseException:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.event.set()
                raise
            self.put(key, value)
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
            return value, False

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )
