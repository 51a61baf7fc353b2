"""Chained timers and batched event sources: the kernel's fast path.

The reference kernel dispatches one Python callback per event through a
binary heap.  That is exact but slow: homogeneous event streams — frame
arrivals at a fixed gap, paced flow injections, per-frame charge loops —
pay a heap push, a heap pop, a tuple allocation and a Python call for
every quantum even though every quantum looks the same.  The paper's
original simulator compiled exactly these loops into Spinach/LSE
modules; this module is the Python equivalent: precompute the timestamp
array once (numpy ``int64`` when available, plain integer sequences
otherwise) and drain *runs* of events in vectorized chunks, falling back
to one-at-a-time dispatch whenever exactness demands it.

:class:`ChainedTimer`
    A ticket-faithful single slot for the classic self-rescheduling
    callback chain (``schedule_at(next, self._pump)`` as the last
    statement of ``_pump``).  ``arm()`` takes a real ticket from the
    kernel's counter at exactly the program point the reference chain
    would have called ``schedule_at`` and pushes the callback onto the
    kernel heap under it, so the firing is an ordinary heap event with
    the same ``(time, priority, ticket)`` key — and therefore the entire
    event order is *identical* to the reference path.  This is what
    makes golden-trace byte-identity provable rather than probable.
    The timer saves the ``Event`` handle and ``schedule`` indirection
    and guards the slot (one pending firing at a time).

:class:`BatchSource`
    A precomputed stream of event times kept *outside* the heap and
    merged with it by :meth:`repro.sim.Simulator.run`'s general loop,
    drained in maximal runs that fit strictly before the next pending
    heap event (or other source).  With a ``chunk_fn`` and no invariant
    monitor attached, a run of N quanta costs one ``searchsorted`` and
    one Python call instead of N heap operations — the ≥10x engine.
    Same-instant ties against heap events always go to the heap (the
    source behaves as if its events were scheduled last), a
    deterministic rule that holds whether or not a monitor is attached.

Conformance rules the kernel relies on:

* A chunk's callbacks run with ``now_ps`` already advanced to the last
  quantum of the chunk; anything they ``schedule`` lands at or after
  that instant (delays are non-negative), so no event can be missed
  inside an already-drained window.
* When an invariant monitor is enabled, every source degrades to
  one-event-per-drain dispatch with per-event tickets, so ticket
  conservation (scheduled == fired + discarded + live) is checked on
  the fast path too.  Timers need no such mode: their tickets are
  scheduled, fired, cancelled and discarded like any heap event's.
* When numpy is missing, ``BatchSource`` runs the same logic over plain
  integer sequences (``range`` for periodic streams) via ``bisect`` —
  slower, but bit-identical.
"""

from __future__ import annotations

import bisect
import heapq
from time import perf_counter
from typing import Callable, Optional, Sequence

try:  # pragma: no cover - exercised via the fallback tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.sim.kernel import Event, _as_int_ps

HAVE_NUMPY = _np is not None

#: Quanta materialized per window for periodic sources; bounds memory at
#: ~512 KiB of timestamps regardless of the stream's total length.
DEFAULT_WINDOW = 65536

#: Tie-break sentinel for :class:`BatchSource`: compares greater than
#: any real ticket, so same-(time, priority) heap events always win.
TIE_LOSER = float("inf")


class ChainedTimer:
    """Single-slot, ticket-faithful timer for self-rescheduling chains.

    ``arm(when_ps)`` stands where the chain would have called
    ``schedule_at(when_ps, fn)``: it pushes ``fn`` onto the kernel heap
    under a fresh kernel ticket, so ``fn`` fires at exactly the time,
    priority and ticket order the reference chain produces.  The kernel
    frees the slot when it pops the entry, before ``fn`` runs, so the
    callback may re-arm the timer exactly like a reference chain
    scheduling its successor.  ``cancel()`` goes through
    :meth:`Simulator.cancel`: the entry becomes an ordinary ghost.
    """

    __slots__ = (
        "sim", "fn", "priority", "label",
        "_ticket", "_when", "_arms", "_cancels",
    )

    def __init__(self, sim, fn: Callable[[], None], priority: int = 0,
                 label: Optional[str] = None) -> None:
        self.sim = sim
        self.fn = fn
        self.priority = priority
        self.label = label or getattr(fn, "__name__", "timer")
        self._ticket = -1  # ticket of the armed heap entry; -1 if none
        self._when = 0
        self._arms = 0
        self._cancels = 0

    @property
    def pending(self) -> int:
        """1 while a firing is armed, else 0."""
        return 1 if self._ticket in self.sim._live else 0

    @property
    def fired(self) -> int:
        """Firings so far: every arm ends fired, cancelled or pending."""
        return self._arms - self._cancels - self.pending

    def arm(self, time_ps: int) -> None:
        """Schedule the next firing at absolute time ``time_ps``.

        Allocates a kernel ticket immediately — the same side effect a
        reference ``schedule_at`` call would have — so tie-breaking
        against heap events is byte-identical to the chain it replaces.
        The entry is pushed directly rather than through
        :meth:`Simulator.schedule`, which would wrap ``fn`` a second
        time for anything that instruments ``schedule``.
        """
        sim = self.sim
        if type(time_ps) is not int:
            time_ps = _as_int_ps(time_ps, "time_ps")
        if time_ps < sim.now_ps:
            raise ValueError(
                f"cannot arm in the past ({time_ps} < now {sim.now_ps})"
            )
        if self._ticket in sim._live:
            raise RuntimeError(f"timer {self.label!r} is already armed")
        ticket = next(sim._tickets)
        heapq.heappush(sim._queue, (time_ps, self.priority, ticket, self.fn))
        sim._live.add(ticket)
        self._ticket = ticket
        self._when = time_ps
        self._arms += 1
        if sim.monitor.enabled:
            sim.monitor.event_scheduled(ticket, time_ps, sim.now_ps)

    def cancel(self) -> None:
        """Disarm without firing.  Idempotent."""
        ticket = self._ticket
        if ticket not in self.sim._live:
            return
        self._ticket = -1
        self._cancels += 1
        self.sim.cancel(Event(self._when, self.priority, ticket))


class BatchSource:
    """A precomputed event stream drained in vectorized chunks.

    Construct via :class:`BatchScheduler` (``periodic`` / ``at_times``).
    Exactly one of two consumers must be provided:

    ``chunk_fn(start_index, times)``
        Called once per drained run with the global index of the first
        quantum and the (sorted) timestamp view — a numpy ``int64``
        array when numpy is available, a plain sequence otherwise.
        ``now_ps`` is already at the last quantum of the run.

    ``fn(index, time_ps)``
        Called once per quantum with ``now_ps`` advanced per event —
        no vectorization, but still no heap traffic.

    If both are given, ``chunk_fn`` is used whenever no invariant
    monitor is attached and ``fn`` on the conformance path.
    """

    __slots__ = (
        "sim", "priority", "label", "tie_ticket", "next_time_ps",
        "_fn", "_chunk_fn", "_times", "_base", "_cursor",
        "_consumed", "_total", "_start_ps", "_period_ps", "_window_size",
    )

    def __init__(self, sim, *, fn=None, chunk_fn=None, priority: int = 0,
                 label: Optional[str] = None, times=None,
                 start_ps: Optional[int] = None,
                 period_ps: Optional[int] = None,
                 count: Optional[int] = None,
                 window: int = DEFAULT_WINDOW) -> None:
        if fn is None and chunk_fn is None:
            raise ValueError("provide fn= and/or chunk_fn=")
        self.sim = sim
        self.priority = priority
        self._fn = fn
        self._chunk_fn = chunk_fn
        self.tie_ticket = TIE_LOSER
        self._consumed = 0
        self._base = 0
        self._cursor = 0
        if times is not None:
            if start_ps is not None or period_ps is not None or count is not None:
                raise ValueError("pass either times= or a periodic spec, not both")
            normalized = [_as_int_ps(t) for t in times]
            if not normalized:
                raise ValueError("times must be non-empty")
            if any(b < a for a, b in zip(normalized, normalized[1:])):
                raise ValueError("times must be sorted (non-decreasing)")
            if normalized[0] < sim.now_ps:
                raise ValueError(
                    f"first event at {normalized[0]} precedes now "
                    f"({sim.now_ps})"
                )
            self._times = (
                _np.asarray(normalized, dtype=_np.int64)
                if _np is not None else normalized
            )
            self._total = len(normalized)
            self._start_ps = None
            self._period_ps = None
            self._window_size = self._total
            self.label = label or "at-times"
        else:
            start_ps = _as_int_ps(start_ps, "start_ps")
            period_ps = _as_int_ps(period_ps, "period_ps")
            if period_ps < 1:
                raise ValueError(f"period_ps must be >= 1, got {period_ps}")
            if count is None or count < 1:
                raise ValueError(f"count must be >= 1, got {count}")
            if start_ps < sim.now_ps:
                raise ValueError(
                    f"first event at {start_ps} precedes now ({sim.now_ps})"
                )
            self._total = count
            self._start_ps = start_ps
            self._period_ps = period_ps
            self._window_size = max(1, window)
            self._times = None
            self.label = label or "periodic"
            self._load_window()
        self.next_time_ps = int(self._times[0])
        sim._activate_source(self)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Quanta not yet fired (across all future windows)."""
        return self._total - self._consumed

    @property
    def exhausted(self) -> bool:
        return self._consumed >= self._total

    def close(self) -> None:
        """Drop all remaining quanta and detach from the kernel."""
        self._consumed = self._total
        self.sim._deactivate_source(self)

    # ------------------------------------------------------------------
    def _load_window(self) -> None:
        """Materialize the next window of a periodic stream."""
        done = self._consumed
        n = min(self._window_size, self._total - done)
        start = self._start_ps + self._period_ps * done
        if _np is not None:
            self._times = start + self._period_ps * _np.arange(
                n, dtype=_np.int64
            )
        else:
            # ``range`` is a real sequence: O(1) indexing/slicing and
            # bisect-compatible, so the fallback stays O(log n) too.
            self._times = range(
                start, start + n * self._period_ps, self._period_ps
            )
        self._base = done
        self._cursor = 0

    def _advance(self) -> None:
        """Move past the cursor; refill or detach when a window empties."""
        if self._cursor >= len(self._times):
            if self._consumed >= self._total:
                self.sim._deactivate_source(self)
                return
            self._load_window()
        self.next_time_ps = int(self._times[self._cursor])

    # -- kernel protocol ----------------------------------------------
    def drain(self, limit_key, until_ps, budget) -> int:
        sim = self.sim
        monitor = sim.monitor
        if monitor.enabled or self._chunk_fn is None:
            return self._drain_one(sim, monitor)
        times = self._times
        i = self._cursor
        hi = len(times)
        if limit_key is not None:
            limit_time = limit_key[0]
            # Our tie rank against the next pending event: win ties only
            # when strictly higher priority (TIE_LOSER never wins).
            if (self.priority, self.tie_ticket) < (limit_key[1], limit_key[2]):
                hi = _search_right(times, limit_time, i)
            else:
                hi = _search_left(times, limit_time, i)
        if until_ps is not None:
            hi = min(hi, _search_right(times, until_ps, i))
        if budget is not None and budget < hi - i:
            hi = i + budget
        if hi <= i:
            # The kernel only calls drain when our head event is due;
            # the cuts above can never exclude it.
            hi = i + 1
        view = times[i:hi]
        start_index = self._base + i
        count = hi - i
        self._cursor = hi
        self._consumed += count
        self._advance()
        # Advance the clock to the end of the run *before* dispatch:
        # anything the consumer schedules lands at or after this
        # instant, so no event can be missed inside the drained window.
        sim.now_ps = int(times[hi - 1])
        chunk_fn = self._chunk_fn
        profiler = sim._profiler
        if profiler is None:
            chunk_fn(start_index, view)
        else:
            started = perf_counter()
            chunk_fn(start_index, view)
            profiler.record(chunk_fn, perf_counter() - started)
        return count

    def _drain_one(self, sim, monitor) -> int:
        """Conformance path: one quantum, per-event ticket accounting."""
        times = self._times
        i = self._cursor
        when = int(times[i])
        if monitor.enabled:
            # Allocate a real ticket per quantum so ticket conservation
            # (scheduled == fired + discarded + live) covers the fast
            # path.  The ticket is born and fired at the same instant;
            # heap events still win ties via the TIE_LOSER merge rank.
            ticket = next(sim._tickets)
            monitor.event_scheduled(ticket, when, sim.now_ps)
            monitor.event_fired(ticket, when, sim.now_ps)
        index = self._base + i
        self._cursor = i + 1
        self._consumed += 1
        self._advance()
        sim.now_ps = when
        fn = self._fn
        target = fn if fn is not None else self._chunk_fn
        profiler = sim._profiler
        started = perf_counter() if profiler is not None else 0.0
        if fn is not None:
            fn(index, when)
        else:
            self._chunk_fn(index, times[i:i + 1])
        if profiler is not None:
            profiler.record(target, perf_counter() - started)
        return 1


def _search_left(times, value, lo: int) -> int:
    """First index with ``times[i] >= value`` (ghost-free, sorted)."""
    if _np is not None and isinstance(times, _np.ndarray):
        return max(lo, int(_np.searchsorted(times, value, side="left")))
    return bisect.bisect_left(times, value, lo)


def _search_right(times, value, lo: int) -> int:
    """First index with ``times[i] > value``."""
    if _np is not None and isinstance(times, _np.ndarray):
        return max(lo, int(_np.searchsorted(times, value, side="right")))
    return bisect.bisect_right(times, value, lo)


class BatchScheduler:
    """Factory for batched event sources on one :class:`Simulator`.

    Obtain via :attr:`repro.sim.Simulator.batch`; every source it
    creates drains through the owning kernel's ordinary ``run()`` loop,
    so ``until_ps`` / ``max_events`` / ``stop()`` semantics, monitors
    and profilers all keep working.
    """

    def __init__(self, sim) -> None:
        self.sim = sim

    def timer(self, fn: Callable[[], None], priority: int = 0,
              label: Optional[str] = None) -> ChainedTimer:
        """A disarmed :class:`ChainedTimer` bound to this kernel."""
        return ChainedTimer(self.sim, fn, priority, label)

    def periodic(self, start_ps: int, period_ps: int, count: int,
                 fn=None, *, chunk_fn=None, priority: int = 0,
                 label: Optional[str] = None,
                 window: int = DEFAULT_WINDOW) -> BatchSource:
        """``count`` quanta at ``start_ps + k * period_ps``."""
        return BatchSource(
            self.sim, fn=fn, chunk_fn=chunk_fn, priority=priority,
            label=label, start_ps=start_ps, period_ps=period_ps,
            count=count, window=window,
        )

    def at_times(self, times: Sequence[int], fn=None, *, chunk_fn=None,
                 priority: int = 0,
                 label: Optional[str] = None) -> BatchSource:
        """Explicit sorted absolute timestamps (any integer sequence)."""
        return BatchSource(
            self.sim, fn=fn, chunk_fn=chunk_fn, priority=priority,
            label=label, times=times,
        )


__all__ = [
    "BatchScheduler",
    "BatchSource",
    "ChainedTimer",
    "DEFAULT_WINDOW",
    "HAVE_NUMPY",
    "TIE_LOSER",
]
