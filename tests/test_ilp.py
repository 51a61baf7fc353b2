"""ILP limit analyzer (Table 2's machinery)."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.ilp import (
    BranchModel,
    IlpConfig,
    IssueOrder,
    PipelineModel,
    TABLE2_CONFIGS,
    analyze_trace,
    ipc_table,
)
from repro.isa.trace import TraceEntry


def _entry(dest=None, sources=(), load=False, store=False, branch=False,
           jump=False, taken=False, addr=None, pc=0):
    return TraceEntry(
        pc=pc,
        mnemonic="synthetic",
        sources=tuple(sources),
        destination=dest,
        is_load=load,
        is_store=store,
        is_branch=branch,
        is_jump=jump,
        taken=taken,
        mem_address=addr,
    )


def _independent(n):
    """n mutually independent ALU instructions."""
    return [_entry(dest=i + 1) for i in range(n)]


def _chain(n):
    """n serially dependent ALU instructions."""
    return [_entry(dest=1, sources=(1,)) for _ in range(n)]


IO = IssueOrder.IN_ORDER
OOO = IssueOrder.OUT_OF_ORDER
PERFECT = PipelineModel.PERFECT
STALLS = PipelineModel.STALLS
PBP = BranchModel.PBP


# ----------------------------------------------------------------------
# Reference scheduler: first fit by testing one cycle at a time
# ----------------------------------------------------------------------
def _reference_ipc(trace, config):
    """The analyzer's schedule, found the slow way.

    Each instruction starts at its ready cycle and moves one cycle at a
    time until the cycle has an issue slot, is not closed by a no-BP
    control op, and has a memory port / branch slot when it needs one.
    ``analyze_trace`` skips full cycles instead; it must agree exactly.
    """
    stalls = config.pipeline is STALLS
    load_latency = 2 if stalls else 1
    mem_ports = 1 if stalls else 0  # 0 = unlimited
    branch_slots = 1 if config.branch is BranchModel.PBP1 else 0
    nobp = config.branch is BranchModel.NOBP
    in_order = config.issue_order is IO
    slots, mem, branches, closed = {}, {}, {}, set()

    def fits(cycle, is_mem, is_control):
        if slots.get(cycle, 0) >= config.width or cycle in closed:
            return False
        if is_mem and mem_ports and mem.get(cycle, 0) >= mem_ports:
            return False
        if is_control and branch_slots and branches.get(cycle, 0) >= branch_slots:
            return False
        return True

    ready, last_store, last_issue, barrier, max_cycle = {}, {}, 0, 0, 0
    for entry in trace:
        earliest = max([0] + [ready.get(reg, 0) for reg in entry.sources if reg])
        if entry.is_load and entry.mem_address is not None:
            word = entry.mem_address & ~3
            if word in last_store:
                earliest = max(earliest, last_store[word] + 1)
        if nobp:
            earliest = max(earliest, barrier)
        if in_order:
            earliest = max(earliest, last_issue)
        is_mem, is_control = entry.is_memory, entry.is_control
        cycle = earliest
        while not fits(cycle, is_mem, is_control):
            cycle += 1
        slots[cycle] = slots.get(cycle, 0) + 1
        if is_mem:
            mem[cycle] = mem.get(cycle, 0) + 1
        if is_control:
            branches[cycle] = branches.get(cycle, 0) + 1
            if nobp:
                closed.add(cycle)
        if entry.destination:
            ready[entry.destination] = cycle + (load_latency if entry.is_load else 1)
        if entry.is_store and entry.mem_address is not None:
            last_store[entry.mem_address & ~3] = cycle
        if nobp and is_control:
            penalty = 2 if (entry.taken and stalls) else 1
            barrier = max(barrier, cycle + penalty)
        if in_order:
            last_issue = max(last_issue, cycle)
        max_cycle = max(max_cycle, cycle)
    return len(trace) / (max_cycle + 1)


#: Every issue order x width {1, 2, 3, 4, 8} x pipeline x branch model.
_ALL_CONFIGS = [
    IlpConfig(order, width, pipeline, branch)
    for order, width, pipeline, branch in itertools.product(
        IssueOrder, (1, 2, 3, 4, 8), PipelineModel, BranchModel
    )
]

_REG = st.integers(0, 5)
_ENTRY = st.builds(
    lambda kind, dest, sources, addr, taken: _entry(
        dest=dest if kind in ("alu", "load") else None,
        sources=sources,
        load=kind == "load",
        store=kind == "store",
        branch=kind == "branch",
        jump=kind == "jump",
        taken=taken if kind in ("branch", "jump") else False,
        addr=addr if kind in ("load", "store") else None,
    ),
    kind=st.sampled_from(("alu", "alu", "load", "store", "branch", "jump")),
    dest=st.one_of(st.none(), _REG),
    sources=st.lists(_REG, max_size=2),
    # A few words, addressed with non-zero low bits too, so stores and
    # loads alias through the same word from different byte offsets.
    addr=st.one_of(st.none(), st.integers(0, 23)),
    taken=st.booleans(),
)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(trace=st.lists(_ENTRY, min_size=1, max_size=40))
    def test_random_traces(self, trace):
        for config in _ALL_CONFIGS:
            assert analyze_trace(trace, config) == _reference_ipc(trace, config), config

    @pytest.mark.parametrize("kernel", ["order_sw", "order_rmw"])
    @pytest.mark.parametrize(
        "iterations", [1, 2, pytest.param(4, marks=pytest.mark.slow)]
    )
    def test_captured_firmware_traces(self, kernel, iterations):
        from repro.firmware.kernels import capture_trace

        trace = capture_trace(kernel, iterations=iterations)
        for config in TABLE2_CONFIGS:
            assert analyze_trace(trace, config) == _reference_ipc(trace, config), config


class TestSkipPaths:
    """Out-of-order schedules worked out by hand, one per skip map."""

    def test_memory_port_skip(self):
        # OOO-2/stalls/pbp.  The one memory port puts the 4 independent
        # loads in cycles 0, 1, 2, 3 (each skips the cycles whose port
        # is taken), leaving one issue slot in each.  The 4 independent
        # ALU ops are ready at cycle 0 and fill those slots, each
        # skipping the cycles the previous ones filled: 8 ops in 4
        # cycles, IPC 8 / 4 = 2.0.
        trace = [_entry(dest=i + 1, load=True, addr=16 * i) for i in range(4)]
        trace += [_entry(dest=i + 5) for i in range(4)]
        assert analyze_trace(trace, IlpConfig(OOO, 2, STALLS, PBP)) == 2.0

    def test_branch_slot_skip(self):
        # OOO-2/perfect/pbp1.  One branch slot per cycle puts the 4
        # independent branches in cycles 0-3; the 4 ALU ops take the
        # second slot of each: IPC 8 / 4 = 2.0.
        trace = [_entry(branch=True) for _ in range(4)]
        trace += [_entry(dest=i + 1) for i in range(4)]
        assert analyze_trace(trace, IlpConfig(OOO, 2, PERFECT, BranchModel.PBP1)) == 2.0

    def test_nobp_closed_cycle(self):
        # OOO-4/perfect/nobp.  The branch issues in cycle 0 and ends it:
        # cycle 0 still has 3 free slots, but the 3 independent ALU ops
        # after the branch must go past it, to cycle 1 (the not-taken
        # penalty is one cycle).  4 ops in 2 cycles: IPC 2.0; with
        # prediction all 4 share cycle 0 (IPC 4.0).
        trace = [_entry(branch=True)] + [_entry(dest=i + 1) for i in range(3)]
        assert analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, BranchModel.NOBP)) == 2.0
        assert analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, PBP)) == 4.0
        # Under stalls a taken branch also kills the next fetch cycle:
        # the ALU ops go to cycle 2, so 4 ops take 3 cycles.
        taken = [_entry(branch=True, taken=True)] + trace[1:]
        assert analyze_trace(taken, IlpConfig(OOO, 4, STALLS, BranchModel.NOBP)) == 4 / 3


class TestConfig:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            IlpConfig(IO, 0, PERFECT, PBP)

    def test_label(self):
        config = IlpConfig(OOO, 2, STALLS, BranchModel.NOBP)
        assert config.label == "OOO-2/stalls/nobp"

    def test_table2_config_count(self):
        # 2 orders x 3 widths x 2 pipelines x 3 branch models
        assert len(TABLE2_CONFIGS) == 36

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_trace([], IlpConfig(IO, 1, PERFECT, PBP))


class TestDataflowLimits:
    def test_independent_ops_fill_width(self):
        trace = _independent(40)
        assert analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, PBP)) == pytest.approx(4.0)

    def test_serial_chain_is_ipc_one(self):
        trace = _chain(40)
        for width in (1, 2, 4):
            ipc = analyze_trace(trace, IlpConfig(OOO, width, PERFECT, PBP))
            assert ipc == pytest.approx(1.0)

    def test_width_one_caps_ipc(self):
        trace = _independent(40)
        assert analyze_trace(trace, IlpConfig(IO, 1, PERFECT, PBP)) == pytest.approx(1.0)

    def test_ipc_never_exceeds_width(self):
        trace = _independent(100)
        for config in TABLE2_CONFIGS:
            assert analyze_trace(trace, config) <= config.width + 1e-9

    def test_load_use_latency_under_stalls(self):
        # load -> use on width 1: perfect gives 1.0; stalls add a bubble.
        trace = []
        for _ in range(20):
            trace.append(_entry(dest=1, load=True, addr=0))
            trace.append(_entry(dest=2, sources=(1,)))
        perfect = analyze_trace(trace, IlpConfig(IO, 1, PERFECT, PBP))
        stalled = analyze_trace(trace, IlpConfig(IO, 1, STALLS, PBP))
        assert perfect == pytest.approx(1.0)
        assert stalled < perfect

    def test_one_memory_port_under_stalls(self):
        trace = [_entry(dest=i + 1, load=True, addr=16 * i) for i in range(40)]
        ipc = analyze_trace(trace, IlpConfig(OOO, 4, STALLS, PBP))
        assert ipc == pytest.approx(1.0, abs=0.05)

    def test_store_load_forwarding_dependence(self):
        # A load from the word a store just wrote cannot issue in the
        # same cycle as the store, even out-of-order.
        with_dep = [
            _entry(store=True, sources=(3,), addr=64),
            _entry(dest=4, load=True, addr=64),
        ]
        without_dep = [
            _entry(store=True, sources=(3,), addr=64),
            _entry(dest=4, load=True, addr=128),
        ]
        dep_ipc = analyze_trace(with_dep, IlpConfig(OOO, 4, PERFECT, PBP))
        free_ipc = analyze_trace(without_dep, IlpConfig(OOO, 4, PERFECT, PBP))
        assert dep_ipc == pytest.approx(1.0)
        assert free_ipc == pytest.approx(2.0)


class TestBranchModels:
    def _branchy(self, n, taken=True):
        trace = []
        for i in range(n):
            trace.append(_entry(dest=1))
            trace.append(_entry(branch=True, sources=(2,), taken=taken))
        return trace

    def test_nobp_ends_issue_cycle(self):
        trace = self._branchy(20, taken=False)
        pbp = analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, PBP))
        nobp = analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, BranchModel.NOBP))
        assert nobp < pbp

    def test_pbp1_limits_branches_per_cycle(self):
        trace = [_entry(branch=True, taken=False) for _ in range(40)]
        pbp = analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, PBP))
        pbp1 = analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, BranchModel.PBP1))
        assert pbp == pytest.approx(4.0)
        assert pbp1 == pytest.approx(1.0)

    def test_taken_branch_penalty_only_with_stalls(self):
        taken = self._branchy(20, taken=True)
        nobp_perfect = analyze_trace(taken, IlpConfig(IO, 1, PERFECT, BranchModel.NOBP))
        nobp_stalls = analyze_trace(taken, IlpConfig(IO, 1, STALLS, BranchModel.NOBP))
        assert nobp_stalls < nobp_perfect


class TestOrderingRelations:
    """Relations Table 2 depends on, over a realistic trace."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.firmware.kernels import capture_trace
        return capture_trace("order_sw", iterations=2)

    # NOTE: the scheduler is greedy earliest-fit, which exhibits the
    # classic Graham scheduling anomalies: tightening a constraint can
    # occasionally *improve* the greedy schedule by a fraction of a
    # percent.  The monotonicity assertions therefore carry a 2%
    # relative tolerance.
    TOL = 0.02

    def test_ooo_geq_inorder(self, trace):
        for width in (1, 2, 4):
            for pipeline in (PERFECT, STALLS):
                for branch in BranchModel:
                    io = analyze_trace(trace, IlpConfig(IO, width, pipeline, branch))
                    ooo = analyze_trace(trace, IlpConfig(OOO, width, pipeline, branch))
                    assert ooo >= io * (1 - self.TOL)

    def test_wider_is_no_slower(self, trace):
        for order in (IO, OOO):
            ipc1 = analyze_trace(trace, IlpConfig(order, 1, STALLS, PBP))
            ipc2 = analyze_trace(trace, IlpConfig(order, 2, STALLS, PBP))
            ipc4 = analyze_trace(trace, IlpConfig(order, 4, STALLS, PBP))
            assert ipc1 <= ipc2 * (1 + self.TOL)
            assert ipc2 <= ipc4 * (1 + self.TOL)

    def test_better_branch_prediction_no_slower(self, trace):
        for order in (IO, OOO):
            for width in (1, 2, 4):
                pbp = analyze_trace(trace, IlpConfig(order, width, STALLS, PBP))
                pbp1 = analyze_trace(trace, IlpConfig(order, width, STALLS, BranchModel.PBP1))
                nobp = analyze_trace(trace, IlpConfig(order, width, STALLS, BranchModel.NOBP))
                assert pbp >= pbp1 * (1 - self.TOL)
                assert pbp1 >= nobp * (1 - self.TOL)

    def test_perfect_pipeline_no_slower(self, trace):
        for config in TABLE2_CONFIGS:
            if config.pipeline is not PipelineModel.STALLS:
                continue
            perfect = IlpConfig(config.issue_order, config.width, PERFECT, config.branch)
            assert analyze_trace(trace, perfect) >= analyze_trace(trace, config) * (1 - self.TOL)

    def test_paper_trend_io_hazards_dominate(self, trace):
        """In-order: removing pipeline hazards helps more than branch
        prediction (the paper's first 'obvious and well-known trend')."""
        base = analyze_trace(trace, IlpConfig(IO, 4, STALLS, BranchModel.NOBP))
        fix_pipeline = analyze_trace(trace, IlpConfig(IO, 4, PERFECT, BranchModel.NOBP))
        fix_branches = analyze_trace(trace, IlpConfig(IO, 4, STALLS, PBP))
        assert (fix_pipeline - base) > (fix_branches - base) * 0.8

    def test_paper_trend_ooo_branches_dominate(self, trace):
        """Out-of-order: branch prediction matters more than hazards."""
        base = analyze_trace(trace, IlpConfig(OOO, 4, STALLS, BranchModel.NOBP))
        fix_pipeline = analyze_trace(trace, IlpConfig(OOO, 4, PERFECT, BranchModel.NOBP))
        fix_branches = analyze_trace(trace, IlpConfig(OOO, 4, STALLS, PBP))
        assert (fix_branches - base) > (fix_pipeline - base)

    def test_single_issue_inorder_sustains_high_fraction(self, trace):
        """The design point: IO-1 with stalls and no BP stays near 0.9
        IPC, motivating simple cores (Section 2.2)."""
        ipc = analyze_trace(trace, IlpConfig(IO, 1, STALLS, BranchModel.NOBP))
        assert 0.7 <= ipc <= 1.0

    def test_ipc_table_covers_all_configs(self, trace):
        table = ipc_table(trace)
        assert set(table) == set(TABLE2_CONFIGS)
