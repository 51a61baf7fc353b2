"""Differential property test: the NIC's handler charge path.

The throughput simulator charges handler costs from plain counts
(``_charge`` with a scale factor, ``_charge_ordering``, the lock spin
charge inside ``_acquire_lock``) instead of composing a profile object
per charge.  The reference here is that composition: build the scaled
or composed :class:`OpProfile`, cost it with
:meth:`CoreCostModel.cost`, and accumulate the :class:`HandlerCost`
field by field.  Every accumulator must come out bit-identical (compared
by ``repr``, which round-trips floats and tells ``-0.0`` from ``0.0``),
and an input either path rejects must be rejected by both.
"""

import copy
import dataclasses

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.cpu.costmodel import CoreCostModel, OpProfile
from repro.firmware.ordering import OrderingCost
from repro.firmware.profiles import IDEAL_PROFILES, FirmwareProfiles
from repro.nic import NicConfig, ThroughputSimulator
from repro.nic.throughput import FUNCTION_NAMES
from repro.units import mhz


class _Reference:
    """The composing charge path, accumulating in the same order."""

    def __init__(self, simulator):
        self.model = simulator.config.cost_model
        self.fn = copy.deepcopy(simulator.fn)
        self.totals = copy.deepcopy(simulator._cost_totals)
        self.core_accesses = simulator._core_accesses
        self.window_accesses = simulator._contention_window_accesses

    def charge(self, fn_name, profile, wait, frames=0):
        cost = self.model.cost(profile, wait)
        stats = self.fn[fn_name]
        stats.instructions += profile.instructions
        stats.loads += profile.loads
        stats.stores += profile.stores
        stats.cycles += cost.total_cycles
        stats.imiss_cycles += cost.imiss_cycles
        stats.load_cycles += cost.load_cycles
        stats.conflict_cycles += cost.conflict_cycles
        stats.pipeline_cycles += cost.pipeline_cycles
        stats.frames += frames
        totals = self.totals
        totals.instructions += cost.instructions
        totals.execution_cycles += cost.execution_cycles
        totals.imiss_cycles += cost.imiss_cycles
        totals.load_cycles += cost.load_cycles
        totals.conflict_cycles += cost.conflict_cycles
        totals.pipeline_cycles += cost.pipeline_cycles
        self.core_accesses += profile.accesses
        self.window_accesses += profile.accesses
        return cost.total_cycles


def _state(fn, totals, core_accesses, window_accesses):
    return repr((
        [dataclasses.astuple(fn[name]) for name in FUNCTION_NAMES],
        dataclasses.astuple(totals),
        core_accesses,
        window_accesses,
    ))


def _outcome(call):
    try:
        return repr(call())
    except ValueError:
        return "ValueError"


fractions = st.floats(min_value=0.0, max_value=1.0)
counts = st.floats(min_value=0.0, max_value=5_000.0)
waits = st.one_of(
    st.floats(min_value=0.0, max_value=25.0),
    st.floats(min_value=-5.0, max_value=-1e-9),
)
factors = st.one_of(
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=0.0, max_value=64.0),
    st.floats(min_value=-64.0, max_value=-1e-9),
)


@st.composite
def profiles(draw):
    instructions = draw(counts)
    load_share = draw(fractions)
    store_share = draw(fractions) * (1.0 - load_share)
    try:
        return OpProfile(
            instructions,
            instructions * load_share,
            instructions * store_share,
            draw(fractions),
            draw(fractions),
        )
    except ValueError:  # the shares rounded over the instruction budget
        assume(False)


cost_models = st.builds(
    CoreCostModel,
    imiss_rate=st.floats(min_value=0.0, max_value=0.02),
    imiss_penalty_cycles=st.floats(min_value=0.0, max_value=40.0),
    store_buffer_pressure=fractions,
    load_stall_cycles=st.floats(min_value=0.0, max_value=4.0),
)

# Ordering costs come from the boards as plain counts; some here break
# the memory-op budget and must be rejected.
ordering_costs = st.builds(
    OrderingCost,
    st.floats(min_value=0.0, max_value=200.0),
    st.floats(min_value=0.0, max_value=120.0),
    st.floats(min_value=0.0, max_value=120.0),
)

operations = st.one_of(
    st.tuples(st.just("scaled"), profiles(), factors, st.integers(0, 16)),
    st.tuples(st.just("reentrant"), st.sampled_from(sorted(IDEAL_PROFILES)),
              factors, st.integers(0, 16)),
    st.tuples(st.just("ordering"), ordering_costs),
    st.tuples(st.just("lock"), st.floats(min_value=0.0, max_value=60.0)),
)


class TestChargePathMatchesComposition:
    @given(
        model=cost_models,
        reentrancy=profiles(),
        spin_loop=profiles(),
        spin_loop_cycles=st.floats(min_value=1.0, max_value=12.0),
        steps=st.lists(st.tuples(operations, waits, st.sampled_from(FUNCTION_NAMES)),
                       min_size=1, max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_accumulation(
        self, model, reentrancy, spin_loop, spin_loop_cycles, steps
    ):
        firmware = FirmwareProfiles(
            reentrancy_per_frame=reentrancy,
            spin_loop=spin_loop,
            spin_loop_cycles=spin_loop_cycles,
        )
        config = NicConfig(
            cores=2, core_frequency_hz=mhz(133), firmware=firmware, cost_model=model
        )
        simulator = ThroughputSimulator(config, 1472)
        reference = _Reference(simulator)
        period = simulator.core_clock.period_ps
        now = 0
        for (kind, *args), wait, fn_name in steps:
            simulator._conflict_wait = wait
            if kind == "scaled":
                profile, factor, frames = args
                new = _outcome(lambda: simulator._charge(fn_name, profile, factor, frames))
                old = _outcome(lambda: reference.charge(
                    fn_name, profile.scaled(factor), wait, frames))
            elif kind == "reentrant":
                task, factor, frames = args
                new = _outcome(lambda: simulator._charge(
                    fn_name, simulator._reentrant_profiles[task], factor, frames))
                old = _outcome(lambda: reference.charge(
                    fn_name,
                    IDEAL_PROFILES[task].per_frame.plus(reentrancy).scaled(factor),
                    wait,
                    frames,
                ))
            elif kind == "ordering":
                (cost,) = args
                new = _outcome(lambda: simulator._charge_ordering(fn_name, cost))
                old = _outcome(lambda: reference.charge(
                    fn_name, OpProfile(**dataclasses.asdict(cost)), wait))
            else:
                # Every acquire is at t=0, so each one after the first
                # spins until the holds before it have ended.
                (hold,) = args
                lock = simulator.locks["txq"]
                spin = (max(now, lock.free_at_ps) - now) / period

                def old_lock():
                    cycles = reference.charge(fn_name, firmware.lock_acquire_release, wait)
                    if spin > 0:
                        cycles += reference.charge(
                            fn_name, firmware.spin_cost(spin), wait)
                        reference.fn[fn_name].lock_wait_cycles += spin
                    return cycles

                new = _outcome(lambda: simulator._acquire_lock("txq", now, hold, fn_name))
                old = _outcome(old_lock)
            assert new == old, (kind, args, wait)
            assert _state(
                simulator.fn, simulator._cost_totals,
                simulator._core_accesses, simulator._contention_window_accesses,
            ) == _state(
                reference.fn, reference.totals,
                reference.core_accesses, reference.window_accesses,
            )

    def test_invalid_inputs_rejected_on_both_paths(self):
        simulator = ThroughputSimulator(NicConfig(cores=2, core_frequency_hz=mhz(133)), 1472)
        model = simulator.config.cost_model
        profile = OpProfile(10.0, 2.0, 1.0)
        cases = [
            # (conflict wait, new path, composing path)
            (0.5, lambda: simulator._charge("send_frame", profile, -1.0),
             lambda: model.cost(profile.scaled(-1.0), 0.5)),
            (0.5, lambda: simulator._charge_ordering("send_frame", OrderingCost(1.0, 2.0, 0.0)),
             lambda: model.cost(OpProfile(1.0, 2.0, 0.0), 0.5)),
            (-0.5, lambda: simulator._charge("send_frame", profile),
             lambda: model.cost(profile, -0.5)),
        ]
        for wait, new, old in cases:
            simulator._conflict_wait = wait
            assert _outcome(new) == _outcome(old) == "ValueError"
        assert all(dataclasses.astuple(stats) == dataclasses.astuple(type(stats)())
                   for stats in simulator.fn.values())
