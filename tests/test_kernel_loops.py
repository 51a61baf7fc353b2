"""One event heap: the heap-only run loop against the general loop.

``Simulator.run`` serves the common case (no profiler, monitor, event
budget or batch source) with a tight heap-only loop and everything else
with the general loop.  ``ChainedTimer`` firings are ordinary heap
entries under the ticket the reference ``schedule_at`` chain would have
taken.  These tests hold the two loops to identical behaviour, the
timer to the chain it replaces, and product ``--fast`` runs to the heap
alone (no batch source ever activates).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.check.monitor import InvariantMonitor
from repro.obs.profiler import SimProfiler
from repro.sim import Simulator


class _NullProfiler:
    """Attaching any profiler routes ``run`` through the general loop."""

    def record(self, callback, wall_s):
        pass


# ----------------------------------------------------------------------
# Random programs: callbacks that schedule, cancel, arm, disarm, stop
# ----------------------------------------------------------------------
_ACTION = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 40), st.integers(0, 2)),
    st.tuples(st.just("schedule_at"), st.integers(0, 40), st.integers(0, 2)),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("arm"), st.integers(0, 2), st.integers(0, 40)),
    st.tuples(st.just("disarm"), st.integers(0, 2)),
    st.tuples(st.just("stop")),
)

_PROGRAM = st.fixed_dictionaries({
    "initial": st.lists(
        st.tuples(st.integers(0, 60), st.integers(0, 2)),
        min_size=1, max_size=8,
    ),
    "armed": st.lists(st.integers(0, 60), max_size=3),
    "actions": st.lists(_ACTION, max_size=80),
    "per_callback": st.integers(1, 3),
    "slices": st.lists(st.integers(0, 120), max_size=4),
})


def _execute(program, mode):
    """Run ``program``; returns everything observable about the run.

    ``mode`` is ``"lean"`` (plain kernel), ``"profiled"`` (a no-op
    profiler forces the general loop) or ``"monitored"`` (an
    ``InvariantMonitor``, also the general loop).
    """
    sim = Simulator()
    if mode == "profiled":
        sim.attach_profiler(_NullProfiler())
    elif mode == "monitored":
        sim.monitor = InvariantMonitor()
    actions = iter(program["actions"])
    handles = []
    fired = []

    def make(label):
        def callback():
            fired.append((label, sim.now_ps))
            for _ in range(program["per_callback"]):
                action = next(actions, None)
                if action is None:
                    return
                perform(action)
        return callback

    def perform(action):
        kind = action[0]
        label = f"e{len(handles)}"
        if kind == "schedule":
            handles.append(sim.schedule(action[1], make(label), action[2]))
        elif kind == "schedule_at":
            handles.append(sim.schedule_at(
                sim.now_ps + action[1], make(label), action[2]
            ))
        elif kind == "cancel":
            if handles:
                sim.cancel(handles[action[1] % len(handles)])
        elif kind == "arm":
            timer = timers[action[1]]
            if not timer.pending:
                timer.arm(sim.now_ps + action[2])
        elif kind == "disarm":
            timers[action[1]].cancel()
        else:
            sim.stop()

    timers = [
        sim.batch.timer(make(f"t{index}"), priority=index % 2)
        for index in range(3)
    ]
    for delay, priority in program["initial"]:
        handles.append(sim.schedule(delay, make(f"e{len(handles)}"), priority))
    for index, when in enumerate(program["armed"]):
        timers[index].arm(when)

    observed = []
    horizon = 0
    for step in program["slices"] + [None]:
        if step is None:
            processed = sim.run()
        else:
            horizon += step
            processed = sim.run(until_ps=horizon)
        observed.append((
            processed, sim.now_ps, sim.events_processed,
            sim.pending_events, sim.peek_next_time(),
            [timer.pending for timer in timers],
        ))
    # A stop() may have left events behind: drain them too.
    while sim.pending_events:
        observed.append((sim.run(), sim.now_ps, sim.events_processed))
    assert sim._batch_sources == []
    return {
        "fired": fired,
        "observed": observed,
        "timer_fired": [timer.fired for timer in timers],
        "sim": sim,
    }


def _public(outcome):
    return {key: value for key, value in outcome.items() if key != "sim"}


class TestLeanLoopEqualsGeneralLoop:
    @given(_PROGRAM)
    @settings(max_examples=300, deadline=None)
    def test_random_programs_agree(self, program):
        lean = _execute(program, "lean")
        profiled = _execute(program, "profiled")
        monitored = _execute(program, "monitored")
        assert _public(lean) == _public(profiled)
        assert _public(lean) == _public(monitored)
        monitor = monitored["sim"].monitor
        monitor.check_ticket_conservation()
        assert not monitor.violations

    @pytest.mark.parametrize("profiled", [False, True])
    def test_events_processed_exact_when_a_callback_raises(self, profiled):
        sim = Simulator()
        if profiled:
            sim.attach_profiler(_NullProfiler())
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(2, boom)
        sim.schedule(3, lambda: fired.append(3))
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_processed == 1
        assert sim.now_ps == 2
        assert sim.run() == 1
        assert fired == [1, 3]
        assert sim.events_processed == 2

    @pytest.mark.parametrize("profiled", [False, True])
    def test_batch_source_activated_mid_run_hands_over(self, profiled):
        sim = Simulator()
        if profiled:
            sim.attach_profiler(_NullProfiler())
        order = []

        def start_stream():
            order.append(("start", sim.now_ps))
            sim.batch.periodic(
                sim.now_ps, 10, 4,
                fn=lambda index, when: order.append(("quantum", when)),
            )

        sim.schedule(5, start_stream)
        sim.schedule(25, lambda: order.append(("heap", sim.now_ps)))
        assert sim.run(until_ps=100) == 6
        assert order == [
            ("start", 5), ("quantum", 5), ("quantum", 15),
            ("heap", 25), ("quantum", 25), ("quantum", 35),
        ]
        assert sim.now_ps == 100
        assert sim.events_processed == 6


# ----------------------------------------------------------------------
# A ChainedTimer chain fires exactly like the schedule_at chain
# ----------------------------------------------------------------------
class TestTimerChainEqualsScheduleAtChain:
    @given(
        gaps=st.lists(st.integers(0, 30), min_size=1, max_size=25),
        others=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 1)), max_size=25,
        ),
        priority=st.integers(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_order(self, gaps, others, priority):
        def drive(use_timer):
            sim = Simulator()
            order = []
            steps = iter(gaps)

            def pump():
                order.append(("pump", sim.now_ps))
                gap = next(steps, None)
                if gap is None:
                    return
                if use_timer:
                    timer.arm(sim.now_ps + gap)
                else:
                    sim.schedule_at(sim.now_ps + gap, pump, priority)

            timer = sim.batch.timer(pump, priority=priority)
            for index, (when, prio) in enumerate(others):
                sim.schedule_at(
                    when, lambda i=index: order.append((i, sim.now_ps)), prio
                )
                if index == len(others) // 2:
                    # Arm mid-way so the pump's first ticket interleaves.
                    if use_timer:
                        timer.arm(0)
                    else:
                        sim.schedule_at(0, pump, priority)
            if not others:
                if use_timer:
                    timer.arm(0)
                else:
                    sim.schedule_at(0, pump, priority)
            sim.run()
            return order, sim.events_processed, sim.now_ps

        assert drive(use_timer=True) == drive(use_timer=False)


# ----------------------------------------------------------------------
# Product --fast runs: timers in the heap, never a batch source
# ----------------------------------------------------------------------
def _fast_fabric():
    from repro.fabric import FabricSimulator, FabricSpec, RpcFlowSpec, StreamFlowSpec
    from repro.host.rss import RssSpec
    from repro.nic.config import NicConfig
    from repro.qos import QosSpec
    from repro.units import mhz

    spec = FabricSpec(
        nics=3, switch=True,
        rpc_flows=(RpcFlowSpec(client=0, server=2, concurrency=2,
                               qos_class="guaranteed", name="rpc"),),
        stream_flows=(
            StreamFlowSpec(src=1, dst=2, udp_payload_bytes=1472,
                           offered_fraction=0.4, qos_class="best-effort",
                           name="cross"),
        ),
        qos=QosSpec.mixed_criticality(scheduler="drr", pause=True, seed=3),
        seed=3,
    )
    config = NicConfig(cores=2, core_frequency_hz=mhz(133))
    return FabricSimulator(config, spec, fast=True, rss=RssSpec(rings=2))


class TestFastFabricUsesTheHeapOnly:
    def test_batch_sources_stay_empty_throughout(self):
        fabric = _fast_fabric()
        activated = []
        fabric.sim._activate_source = activated.append
        fabric.run(warmup_s=0.02e-3, measure_s=0.06e-3)
        assert activated == []
        assert fabric.sim._batch_sources == []
        # The timers did run, as heap entries.
        pacer = fabric.flows["cross"]._timer
        rings = [
            ring.timer
            for endpoint in fabric.endpoints
            for ring in endpoint.rss_host.rings
        ]
        assert pacer.fired > 0
        assert sum(timer.fired for timer in rings) > 0

    def test_profiler_attributes_timer_callbacks_to_their_function(self):
        fabric = _fast_fabric()
        profiler = SimProfiler()
        fabric.sim.attach_profiler(profiler)
        fabric.run(warmup_s=0.02e-3, measure_s=0.06e-3)
        keys = [key for key, _count, _wall in profiler.top(10_000)]
        assert not [key for key in keys if "ChainedTimer" in key]
        assert "repro.fabric.flows.StreamFlowRuntime._post_batch[cross]" in keys
        assert any(
            key.startswith("repro.host.rss.HostQueueModel._make_drain.<locals>.drain")
            for key in keys
        )
