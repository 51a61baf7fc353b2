"""Event-driven simulation kernel.

Time is a global integer picosecond counter.  Each :class:`ClockDomain`
maps that global time base onto its own cycle counter, so modules that
logically live in different domains (cores at 166/200 MHz, SDRAM at
500 MHz, the Ethernet bit clock) can interact without rounding drift.

Events scheduled for the same picosecond run in (priority, insertion
order), which gives deterministic simulations — a property the test
suite relies on heavily.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.check.monitor import NULL_MONITOR
from repro.units import cycle_time_ps


def _as_int_ps(value, what: str = "time_ps") -> int:
    """Normalize a picosecond delay or timestamp to a built-in ``int``.

    The one integer-picosecond policy for every kernel entry point
    (:meth:`Simulator.schedule`, :meth:`repro.sim.batch.ChainedTimer.arm`,
    the :class:`repro.sim.batch.BatchSource` timestamps).  Heap keys
    must stay homogeneous: a float ``delay_ps`` would produce a float
    ``when`` that compares against int keys and then leaks into
    ``now_ps`` the moment the event fires, silently turning every
    downstream timestamp into a float.  Whole-valued floats (and any
    ``__index__``-able integer type, e.g. ``numpy.int64``) are accepted
    and converted; fractional values are rejected loudly.
    """
    if type(value) is int:
        return value
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise TypeError(
            f"{what} must be a whole number of picoseconds, got {value!r}"
        )
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{what} must be an integer picosecond count, got "
            f"{type(value).__name__} {value!r}"
        ) from None


class Event(NamedTuple):
    """Handle for a scheduled callback.

    The kernel hands one back from :meth:`Simulator.schedule`; holding on
    to it allows cancellation.  The ticket is unique per scheduled
    event, so duplicate (time, callback) pairs stay distinct.
    """

    time_ps: int
    priority: int
    ticket: int


# ``Event(...)`` runs the generated Python-level ``__new__``; building
# the tuple directly is what that ``__new__`` does, minus the frame.
_new_event = tuple.__new__


class ClockDomain:
    """A named clock with its own frequency.

    Provides conversions between global picosecond time and local cycle
    counts, and cycle-aligned scheduling helpers.
    """

    def __init__(self, name: str, frequency_hz: float) -> None:
        self.name = name
        self.frequency_hz = frequency_hz
        self.period_ps = cycle_time_ps(frequency_hz)

    def cycles_to_ps(self, cycles: float) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds.

        Rounding policy: **round half up**.  Costs landing exactly on a
        half picosecond always round to the *later* picosecond, for any
        clock.  Python's built-in ``round`` (banker's rounding, half to
        even) is deliberately not used: it rounds half-cycle costs to
        the nearest even picosecond, so two otherwise-symmetric
        configurations whose costs straddle an odd/even boundary drift
        apart by ±1 ps — an invisible asymmetry that a vectorized fast
        path would have baked in.  Durations are non-negative, so
        ``floor(x + 0.5)`` implements the policy exactly.
        """
        return math.floor(cycles * self.period_ps + 0.5)

    def ps_to_cycles(self, time_ps: int) -> float:
        """Express a picosecond duration in (fractional) cycles."""
        return time_ps / self.period_ps

    def current_cycle(self, now_ps: int) -> int:
        """Number of full cycles elapsed at global time ``now_ps``."""
        return now_ps // self.period_ps

    def next_edge(self, now_ps: int) -> int:
        """Global time of the next rising edge at or after ``now_ps``."""
        remainder = now_ps % self.period_ps
        if remainder == 0:
            return now_ps
        return now_ps + self.period_ps - remainder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockDomain({self.name!r}, {self.frequency_hz / 1e6:.1f} MHz)"


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        core_clk = sim.add_clock("core", mhz(166))
        sim.schedule(core_clk.cycles_to_ps(10), lambda: ...)
        sim.run(until_ps=seconds_to_ps(1e-3))
    """

    def __init__(self) -> None:
        self.now_ps: int = 0
        self.clocks: Dict[str, ClockDomain] = {}
        self._queue: List[tuple] = []
        self._tickets = itertools.count()
        self._cancelled: set = set()
        self._live: set = set()  # tickets physically present in the heap
        self._stopped = False
        self.events_processed = 0
        self._profiler = None  # duck-typed: .record(callback, wall_seconds)
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR
        # Active ``BatchSource`` streams (see ``repro.sim.batch``).  The
        # general run loop merges them with the heap by (time, priority,
        # tie ticket); while the list is empty ``run`` takes the
        # heap-only loop.  ``ChainedTimer``s never appear here: they
        # are ordinary heap entries.
        self._batch_sources: List = []
        self._batch_scheduler = None

    # ------------------------------------------------------------------
    # Clock management
    # ------------------------------------------------------------------
    def add_clock(self, name: str, frequency_hz: float) -> ClockDomain:
        """Register (or fetch, if identical) a clock domain."""
        existing = self.clocks.get(name)
        if existing is not None:
            if existing.frequency_hz != frequency_hz:
                raise ValueError(
                    f"clock {name!r} already registered at "
                    f"{existing.frequency_hz} Hz, not {frequency_hz} Hz"
                )
            return existing
        domain = ClockDomain(name, frequency_hz)
        self.clocks[name] = domain
        return domain

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_ps: int,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Run ``callback`` after ``delay_ps`` picoseconds.

        Lower ``priority`` runs first among events at the same instant.
        ``delay_ps`` must be a whole number of picoseconds: whole-valued
        floats and ``__index__``-able integers (e.g. ``numpy.int64``)
        are normalized to ``int`` at this boundary, fractional values
        raise ``TypeError`` (see :func:`_as_int_ps`).
        """
        if type(delay_ps) is not int:
            delay_ps = _as_int_ps(delay_ps, "delay_ps")
        if delay_ps < 0:
            raise ValueError(f"cannot schedule in the past (delay {delay_ps})")
        ticket = next(self._tickets)
        when = self.now_ps + delay_ps
        heapq.heappush(self._queue, (when, priority, ticket, callback))
        self._live.add(ticket)
        if self.monitor.enabled:
            self.monitor.event_scheduled(ticket, when, self.now_ps)
        return _new_event(Event, (when, priority, ticket))

    def schedule_at(
        self,
        time_ps: int,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Run ``callback`` at absolute global time ``time_ps``."""
        return self.schedule(time_ps - self.now_ps, callback, priority)

    def schedule_cycles(
        self,
        clock: ClockDomain,
        cycles: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Run ``callback`` after ``cycles`` cycles of ``clock``."""
        return self.schedule(clock.cycles_to_ps(cycles), callback, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event.  Cancelling a fired event is a no-op.

        Only tickets still physically present in the heap are recorded:
        a fired (or already-cancelled-and-popped) ticket never re-enters
        the queue, so adding it to ``_cancelled`` would leak the entry
        forever and silently degrade :attr:`pending_events` from O(1) to
        O(n) for the rest of the simulation.
        """
        if event.ticket in self._live:
            if self.monitor.enabled:
                self.monitor.event_cancelled(event.ticket)
            self._cancelled.add(event.ticket)
            # Opportunistic ghost compaction: once cancelled entries
            # dominate the heap, one O(n) rebuild reclaims them all —
            # the same work ``peek_next_time``'s pruning loop does at
            # the head, applied to the whole queue.  Amortized O(1) per
            # cancel, and it keeps cancel-heavy runs from dragging a
            # heap full of dead weight through every push and pop.
            if len(self._cancelled) > 64 and \
                    2 * len(self._cancelled) > len(self._queue):
                self._compact_ghosts()

    def _compact_ghosts(self) -> None:
        """Drop every cancelled entry from the heap in one pass.

        Mutates ``_queue`` in place (slice assignment) so any local
        alias held by a running ``run()`` loop stays valid.
        """
        cancelled = self._cancelled
        if self.monitor.enabled:
            for ticket in cancelled:
                self.monitor.event_discarded(ticket)
        self._queue[:] = [
            entry for entry in self._queue if entry[2] not in cancelled
        ]
        heapq.heapify(self._queue)
        self._live.difference_update(cancelled)
        cancelled.clear()

    def stop(self) -> None:
        """Stop the event loop after the current callback returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Batched fast path
    # ------------------------------------------------------------------
    @property
    def batch(self):
        """The :class:`repro.sim.batch.BatchScheduler` for this kernel.

        Factory for chained timers (heap entries under the kernel's own
        tickets) and batched chunk streams that drain through this same
        run loop — see ``repro.sim.batch`` for the conformance rules.
        """
        if self._batch_scheduler is None:
            from repro.sim.batch import BatchScheduler

            self._batch_scheduler = BatchScheduler(self)
        return self._batch_scheduler

    def _activate_source(self, source) -> None:
        if source not in self._batch_sources:
            self._batch_sources.append(source)

    def _deactivate_source(self, source) -> None:
        try:
            self._batch_sources.remove(source)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Attribute each callback's host wall time to ``profiler``.

        ``profiler`` needs one method, ``record(callback, wall_seconds)``
        (see :class:`repro.obs.profiler.SimProfiler`).  Profiling never
        alters simulated time or event order — only host-side cost.
        Pass ``None`` to detach.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue empties, when simulated time would pass
        ``until_ps``, when ``max_events`` callbacks have run, or when a
        callback calls :meth:`stop`.  Returns the number of events
        processed during this call.

        The common case — no profiler, monitor, event budget or batch
        source — runs :meth:`_run_heap`, a tight heap-only loop.  The
        general loop serves everything else, and takes over mid-run if
        a callback activates a batch source.  Both pop the same
        ``(time, priority, ticket)`` keys, so they fire the same events
        in the same order.
        """
        self._stopped = False
        if (max_events is None and self._profiler is None
                and not self.monitor.enabled and not self._batch_sources):
            processed = self._run_heap(until_ps)
            if not self._batch_sources:
                return processed
            return processed + self._run_general(until_ps, None)
        return self._run_general(until_ps, max_events)

    def _run_heap(self, until_ps: Optional[int]) -> int:
        """Heap-only loop; returns early if a batch source activates."""
        queue = self._queue
        sources = self._batch_sources
        cancelled = self._cancelled
        live_discard = self._live.discard
        pop = heapq.heappop
        limit = math.inf if until_ps is None else until_ps
        processed = 0
        try:
            while queue:
                if self._stopped or sources:
                    return processed
                entry = pop(queue)
                when = entry[0]
                if when > limit:
                    # Put the head back: the next run() resumes from it.
                    heapq.heappush(queue, entry)
                    if self.now_ps < until_ps:
                        self.now_ps = until_ps
                    return processed
                ticket = entry[2]
                live_discard(ticket)
                if ticket in cancelled:
                    cancelled.discard(ticket)
                    continue
                self.now_ps = when
                entry[3]()
                processed += 1
            if not sources and until_ps is not None and self.now_ps < until_ps:
                self.now_ps = until_ps
            return processed
        finally:
            self.events_processed += processed

    def _run_general(self, until_ps: Optional[int], max_events: Optional[int]) -> int:
        """The loop with profiler, monitor, budget and batch sources."""
        processed = 0
        profiler = self._profiler
        monitor = self.monitor
        queue = self._queue
        while queue or self._batch_sources:
            if self._stopped:
                break
            if max_events is not None and processed >= max_events:
                break
            # Pick the next due dispatcher: the heap head or the
            # earliest batch source, ordered by (time, priority, tie
            # ticket).  A BatchSource carries an infinite tie rank, so
            # same-instant heap events always run first.
            source = None
            if self._batch_sources:
                sources = self._batch_sources
                source = sources[0]
                source_key = (
                    source.next_time_ps, source.priority, source.tie_ticket
                )
                for other in sources[1:]:
                    other_key = (
                        other.next_time_ps, other.priority, other.tie_ticket
                    )
                    if other_key < source_key:
                        source, source_key = other, other_key
                limit_key = None
                if queue:
                    head = queue[0]
                    head_key = (head[0], head[1], head[2])
                    if head_key < source_key:
                        source = None
                    else:
                        limit_key = head_key
            if source is not None:
                when = source.next_time_ps
                if until_ps is not None and when > until_ps:
                    self.now_ps = max(self.now_ps, until_ps)
                    break
                # The drain horizon is the next pending event anywhere
                # else — heap head or a later batch source.
                for other in self._batch_sources:
                    if other is not source:
                        other_key = (
                            other.next_time_ps, other.priority,
                            other.tie_ticket,
                        )
                        if limit_key is None or other_key < limit_key:
                            limit_key = other_key
                budget = (
                    None if max_events is None else max_events - processed
                )
                fired = source.drain(limit_key, until_ps, budget)
                processed += fired
                self.events_processed += fired
                continue
            when, _priority, ticket, callback = queue[0]
            if until_ps is not None and when > until_ps:
                # Clamp instead of assigning unconditionally: a caller
                # passing ``until_ps < now_ps`` must not move simulated
                # time backwards (the drained-queue path below already
                # guards the same way).
                self.now_ps = max(self.now_ps, until_ps)
                break
            heapq.heappop(queue)
            self._live.discard(ticket)
            if ticket in self._cancelled:
                self._cancelled.discard(ticket)
                if monitor.enabled:
                    monitor.event_discarded(ticket)
                continue
            if monitor.enabled:
                monitor.event_fired(ticket, when, self.now_ps)
            self.now_ps = when
            if profiler is None:
                callback()
            else:
                started = perf_counter()
                callback()
                profiler.record(callback, perf_counter() - started)
            processed += 1
            self.events_processed += 1
        else:
            # Queue and batch sources drained completely.
            if until_ps is not None and self.now_ps < until_ps:
                self.now_ps = until_ps
        return processed

    def peek_next_time(self) -> Optional[int]:
        """Global time of the next pending event, or None if idle."""
        while self._queue and self._queue[0][2] in self._cancelled:
            _, _, ticket, _ = heapq.heappop(self._queue)
            self._live.discard(ticket)
            self._cancelled.discard(ticket)
            if self.monitor.enabled:
                self.monitor.event_discarded(ticket)
        best = self._queue[0][0] if self._queue else None
        for source in self._batch_sources:
            when = source.next_time_ps
            if best is None or when < best:
                best = when
        return best

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued — O(1).

        Cancelled events linger in the heap as ghosts until their pop
        (or a compaction); counting them would make observability
        reports overstate queue depth, so they are excluded.  The count
        is an exact subtraction rather than a scan: ``cancel()`` only
        records tickets still physically in the heap and every pop or
        compaction removes the ticket from both structures, so
        ``_cancelled`` is always a subset of the heap's tickets.
        Active batch sources report their remaining quanta on top.
        """
        pending = len(self._queue) - len(self._cancelled)
        for source in self._batch_sources:
            pending += source.pending
        return pending
