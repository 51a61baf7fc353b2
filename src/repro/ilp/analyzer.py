"""Trace-driven IPC limit analysis.

The scheduler walks the dynamic trace once in program order and assigns
each instruction an issue cycle subject to the selected constraints:

data dependences
    True (read-after-write) register dependences through a last-writer
    table, plus store→load ordering through the same memory word (the
    conservative memory dependence an idealized machine must respect).

pipeline model
    ``PERFECT`` — every producer's result is available the next cycle,
    no structural hazards.  ``STALLS`` — a five-stage pipeline with all
    forwarding paths: load results arrive one cycle later than ALU
    results (the classic load-use stall) and only one memory operation
    can issue per cycle.

branch model
    ``PBP`` — any number of branches issue per cycle, all perfectly
    predicted.  ``PBP1`` — at most one (perfectly predicted) branch per
    cycle.  ``NOBP`` — no prediction: a control instruction ends the
    issue cycle, so nothing younger issues in the same cycle.

issue order
    ``IN_ORDER`` — an instruction cannot issue before any older
    instruction.  ``OUT_OF_ORDER`` — only the constraints above apply;
    scheduling is greedy earliest-fit in program order, which is optimal
    for this resource model.

Earliest-fit is amortized: a cycle that runs out of issue slots, memory
ports or branch slots stays full, so per-resource skip maps (union-find
with path halving) jump past full cycles instead of testing each one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.isa.trace import TraceEntry


class IssueOrder(enum.Enum):
    IN_ORDER = "in-order"
    OUT_OF_ORDER = "out-of-order"


class PipelineModel(enum.Enum):
    PERFECT = "perfect"
    STALLS = "stalls"


class BranchModel(enum.Enum):
    PBP = "pbp"      # perfect prediction, unlimited branches/cycle
    PBP1 = "pbp1"    # perfect prediction, one branch/cycle
    NOBP = "nobp"    # no prediction: branch ends the issue cycle


@dataclass(frozen=True)
class IlpConfig:
    """One processor configuration for the limit study."""

    issue_order: IssueOrder
    width: int
    pipeline: PipelineModel
    branch: BranchModel

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"issue width must be >= 1, got {self.width}")

    @property
    def label(self) -> str:
        order = "IO" if self.issue_order is IssueOrder.IN_ORDER else "OOO"
        return f"{order}-{self.width}/{self.pipeline.value}/{self.branch.value}"


# The paper's Table 2 sweeps in-order and out-of-order cores at widths
# 1, 2, and 4 under both pipelines and all three branch models.
TABLE2_WIDTHS = (1, 2, 4)
TABLE2_CONFIGS: List[IlpConfig] = [
    IlpConfig(order, width, pipeline, branch)
    for order in (IssueOrder.IN_ORDER, IssueOrder.OUT_OF_ORDER)
    for width in TABLE2_WIDTHS
    for pipeline in (PipelineModel.PERFECT, PipelineModel.STALLS)
    for branch in (BranchModel.PBP, BranchModel.PBP1, BranchModel.NOBP)
]


def _skip(full: Dict[int, int], cycle: int) -> int:
    """First cycle at or after ``cycle`` that is not in ``full``.

    ``full`` maps each full cycle to a later candidate; the walk halves
    the path it follows, so repeated queries stay near-constant time.
    """
    while cycle in full:
        following = full[cycle]
        if following in full:
            following = full[cycle] = full[following]
        cycle = following
    return cycle


class _CycleResources:
    """Per-cycle issue-slot / memory-port / branch-slot bookkeeping.

    A cycle never gets a resource back once it runs out, so each
    resource keeps a skip map over its full cycles and :meth:`first_fit`
    jumps straight past them.  Memory ports and branch slots are either
    unlimited or one per cycle, so one use fills a limited cycle.
    """

    def __init__(self, width: int, one_mem_port: bool, one_branch_slot: bool) -> None:
        self.width = width
        self.one_mem_port = one_mem_port
        self.one_branch_slot = one_branch_slot
        self._slots: Dict[int, int] = {}
        self._slot_full: Dict[int, int] = {}
        self._mem_full: Dict[int, int] = {}
        self._branch_full: Dict[int, int] = {}

    def first_fit(self, earliest: int, is_mem: bool, is_control: bool) -> int:
        """Earliest cycle at or after ``earliest`` with every needed resource."""
        cycle = earliest
        while True:
            free = cycle = _skip(self._slot_full, cycle)
            if is_mem:
                cycle = _skip(self._mem_full, cycle)
            if is_control:
                cycle = _skip(self._branch_full, cycle)
            if cycle == free:
                return cycle

    def take(self, cycle: int, is_mem: bool, is_control: bool) -> None:
        slots = self._slots.get(cycle, 0) + 1
        self._slots[cycle] = slots
        if slots >= self.width:
            self._slot_full[cycle] = cycle + 1
        if is_mem and self.one_mem_port:
            self._mem_full[cycle] = cycle + 1
        if is_control and self.one_branch_slot:
            self._branch_full[cycle] = cycle + 1


def analyze_trace(trace: Sequence[TraceEntry], config: IlpConfig) -> float:
    """Schedule ``trace`` under ``config`` and return its IPC."""
    if not trace:
        raise ValueError("cannot analyze an empty trace")

    stalls = config.pipeline is PipelineModel.STALLS
    load_latency = 2 if stalls else 1
    nobp = config.branch is BranchModel.NOBP
    in_order = config.issue_order is IssueOrder.IN_ORDER

    # NOBP needs no branch limit: the fetch barrier below ends the cycle.
    resources = _CycleResources(
        config.width,
        one_mem_port=stalls,
        one_branch_slot=config.branch is BranchModel.PBP1,
    )
    ready_cycle: Dict[int, int] = {}         # register -> cycle its value is ready
    last_store_issue: Dict[int, int] = {}    # word address -> issue cycle
    last_issue_cycle = 0                     # youngest issued instruction's cycle
    control_barrier = 0                      # NOBP: first cycle fetch reopens
    max_cycle = 0

    for entry in trace:
        earliest = 0
        for reg in entry.sources:
            if reg:
                earliest = max(earliest, ready_cycle.get(reg, 0))
        if entry.is_load and entry.mem_address is not None:
            word = entry.mem_address & ~3
            if word in last_store_issue:
                earliest = max(earliest, last_store_issue[word] + 1)
        if nobp:
            earliest = max(earliest, control_barrier)
        if in_order:
            earliest = max(earliest, last_issue_cycle)

        is_mem = entry.is_memory
        is_control = entry.is_control
        cycle = resources.first_fit(earliest, is_mem, is_control)
        resources.take(cycle, is_mem, is_control)

        if entry.destination is not None and entry.destination != 0:
            latency = load_latency if entry.is_load else 1
            ready_cycle[entry.destination] = cycle + latency
        if entry.is_store and entry.mem_address is not None:
            last_store_issue[entry.mem_address & ~3] = cycle
        if nobp and is_control:
            # Without prediction a control op ends the issue cycle: every
            # younger instruction issues at or after the barrier, so the
            # op's own cycle takes nothing more.  In the realistic
            # pipeline a *taken* one also kills the fetch slot past the
            # delay slot (static not-taken fetch redirect).
            penalty = 2 if (entry.taken and stalls) else 1
            control_barrier = max(control_barrier, cycle + penalty)
        if in_order:
            last_issue_cycle = max(last_issue_cycle, cycle)
        max_cycle = max(max_cycle, cycle)

    total_cycles = max_cycle + 1
    return len(trace) / total_cycles


def ipc_table(
    trace: Sequence[TraceEntry],
    configs: Iterable[IlpConfig] = TABLE2_CONFIGS,
) -> Dict[IlpConfig, float]:
    """IPC for every configuration (the body of Table 2)."""
    return {config: analyze_trace(trace, config) for config in configs}
