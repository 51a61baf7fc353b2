"""Per-layer span ledger, installed from outside the simulator.

The ledger wraps the layers' public entry points -- every public method
of every class, and every public module-level function, defined in the
modules of one layer -- plus each callable handed to
``Simulator.schedule`` and to the ``sim.batch.timer`` factory.
A wrapped call opens a span (layer, start, end, parent) only when it
crosses a layer boundary, i.e. when the innermost open span belongs to
another layer; calls within a layer run straight through.

Spans are folded into per-layer totals as they close, so memory stays
bounded however long the run: a layer's *self* time is its spans'
durations minus the time covered by their child spans.  The benchmark
opens one root span around the timed call; its self time is the part
of the traced wall time no layer claimed (``unattributed``), so

    sum(self_ns over layers) + unattributed_ns == traced wall ns

holds exactly when every span closed in order.  Nothing here changes
what the simulator computes: wrappers pass arguments, results and
exceptions through untouched, which the benchmark checks by comparing
the traced run's result digest with an untraced run's.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import math
import pkgutil
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Layer name -> module prefixes (under ``repro.``) whose code it owns.
#: The names are the package names; ``fabric`` is split in two because
#: its wire/switch graph and its flow bookkeeping are separate layers.
#: ``fabric.endpoint`` is the NIC model attached to the wire, so it is
#: ``nic``.  Modules not listed (``check``, ``faults``, ``units``,
#: ``cli``) are not wrapped: their time stays with their caller.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim",),
    "nic": ("nic", "fabric.endpoint"),
    "cpu": ("cpu",),
    "firmware": ("firmware",),
    "mem": ("mem",),
    "assists": ("assists",),
    "host": ("host",),
    "net": ("net",),
    "fabric.wire": ("fabric.wire", "fabric.topology"),
    "fabric.flows": ("fabric.flows", "fabric.flowtable", "fabric.sim",
                     "fabric.spec", "fabric.scale"),
    "qos": ("qos",),
    "obs": ("obs",),
    "exp": ("exp",),
    "ilp": ("ilp",),
    "isa": ("isa",),
    "analysis": ("analysis",),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)
ROOT = len(LAYERS)  # index of the benchmark's root span ("unattributed")


def layer_of_module(module: str) -> Optional[int]:
    """Index of the layer owning ``module`` (longest prefix wins)."""
    if not module.startswith("repro."):
        return None
    name = module[len("repro."):]
    best, best_len = None, -1
    for index, prefixes in enumerate(LAYER_MODULES.values()):
        for prefix in prefixes:
            if (name == prefix or name.startswith(prefix + ".")) and len(prefix) > best_len:
                best, best_len = index, len(prefix)
    return best


def owning_module(fn) -> str:
    """Module that defines the code of callable ``fn``."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(fn).__module__
    return module or ""


class Ledger:
    """Span stack plus per-layer call counts and self times."""

    def __init__(self) -> None:
        self.calls: List[int] = [0] * (len(LAYERS) + 1)
        self.self_ns: List[int] = [0] * (len(LAYERS) + 1)
        # Per-callback inclusive host time, ns (sim.callback_us_*).
        self.callback_ns = array("q")
        # Each open span is [layer, child_ns]; the sentinel at the
        # bottom belongs to no layer and must stay empty.
        self.stack: List[list] = [[-1, 0]]
        self._patches: List[Tuple[object, str, object]] = []

    # -- span wrappers ---------------------------------------------------
    def wrap(self, fn: Callable, layer: int) -> Callable:
        """``fn`` opening a ``layer`` span when called across a boundary."""
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        clock = perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            calls[layer] += 1
            span = [layer, 0]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - span[1]
                stack[-1][1] += elapsed

        return spanned

    def wrap_callback(self, fn: Callable) -> Callable:
        """A kernel callback: always a span, attributed by owning module."""
        if getattr(fn, "__ledger_callback__", False):
            return fn
        layer = layer_of_module(owning_module(fn))
        if layer is None:
            layer = ROOT
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        samples = self.callback_ns
        clock = perf_counter_ns

        def callback(*args, **kwargs):
            calls[layer] += 1
            span = [layer, 0]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - span[1]
                stack[-1][1] += elapsed
                samples.append(elapsed)

        callback.__ledger_callback__ = True
        return callback

    # -- root span ---------------------------------------------------------
    def measure(self, call: Callable[[], object]) -> Tuple[object, int]:
        """Run ``call`` under the root span; returns (result, wall ns)."""
        if len(self.stack) != 1:
            raise RuntimeError("ledger root span opened twice")
        # Spans closed while building the simulator are not part of it.
        self.calls[:] = [0] * len(self.calls)
        self.self_ns[:] = [0] * len(self.self_ns)
        del self.callback_ns[:]
        self.stack[0][1] = 0
        root = [ROOT, 0]
        self.stack.append(root)
        start = perf_counter_ns()
        try:
            result = call()
        finally:
            wall = perf_counter_ns() - start
            closed = self.stack.pop() is root
            self.self_ns[ROOT] += wall - root[1]
        if not closed or len(self.stack) != 1 or self.stack[0][1] != 0:
            raise RuntimeError("ledger spans did not close in order")
        return result, wall

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's entry points and the kernel's callbacks."""
        modules = _layer_modules()
        wrapped_functions: Dict[int, Callable] = {}
        for module in modules:
            layer = layer_of_module(module.__name__)
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    self._wrap_class(value, layer)
                elif (inspect.isfunction(value)
                      and value.__module__ == module.__name__
                      and not inspect.isgeneratorfunction(value)):
                    wrapped_functions[id(value)] = self.wrap(value, layer)
        # ``from x import f`` copies the function into the importer's
        # globals, so rebind it wherever it was copied.
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrapped_functions.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patch(module, name, wrapper)
        self._wrap_kernel()

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: int) -> None:
        if issubclass(cls, (enum.Enum, BaseException)):
            return
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            kind = type(member) if isinstance(member, (staticmethod, classmethod)) else None
            fn = member.__func__ if kind else member
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                wrapped = self.wrap(fn, layer)
                self._patch(cls, name, kind(wrapped) if kind else wrapped)

    def _wrap_kernel(self) -> None:
        from repro.sim.batch import BatchScheduler
        from repro.sim.kernel import Simulator

        wrap_callback = self.wrap_callback
        schedule = Simulator.__dict__["schedule"]  # already a sim span

        def scheduled(sim, delay_ps, callback, priority=0):
            return schedule(sim, delay_ps, wrap_callback(callback), priority)

        self._patch(Simulator, "schedule", functools.wraps(schedule)(scheduled))

        timer = BatchScheduler.__dict__["timer"]

        def timed(scheduler, fn, priority=0, label=None):
            return timer(scheduler, wrap_callback(fn), priority,
                         label or getattr(fn, "__name__", None))

        self._patch(BatchScheduler, "timer", functools.wraps(timer)(timed))

    # -- report ------------------------------------------------------------
    def report(self, frames: float, traced_wall_ns: int) -> Dict[str, float]:
        """Per-layer metrics of one traced run, plus the self-time check."""
        out: Dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            out[f"{layer}.calls_per_frame"] = self.calls[index] / frames
            out[f"{layer}.self_ns_per_frame"] = self.self_ns[index] / frames
            out[f"{layer}.share"] = self.self_ns[index] / traced_wall_ns
        out["trace.unattributed_share"] = self.self_ns[ROOT] / traced_wall_ns
        samples = sorted(self.callback_ns)
        out["sim.callback_samples"] = len(samples)
        out["sim.callback_us_p50"] = _nearest_rank(samples, 0.50) / 1e3
        out["sim.callback_us_p99"] = _nearest_rank(samples, 0.99) / 1e3
        return out

    def identity_holds(self, traced_wall_ns: int) -> bool:
        """Layer self times plus the unattributed remainder == wall."""
        return sum(self.self_ns) == traced_wall_ns and min(self.self_ns) >= 0


def _nearest_rank(samples, q: float) -> float:
    if not samples:
        return 0.0
    return float(samples[max(1, math.ceil(q * len(samples))) - 1])


def _layer_modules():
    """Import and return every module owned by some layer."""
    import repro

    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of_module(info.name) is None:
            continue
        found.append(importlib.import_module(info.name))
    return found
