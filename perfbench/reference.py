"""A fixed pure-Python computation that gauges how fast the host runs now.

On a shared host the speed of single-threaded Python code moves by
30-40% for seconds to minutes at a time.  ``run.py`` scales every
measured time by ``REFERENCE_S`` over samples taken in the same worker
process, before it imports the simulator and after the run call, so
that the reported times read as host seconds at the reference host's
usual speed and a change of the host's speed cancels out.

The computation uses only the standard library and shares no code with
the simulator, so a change to the simulator cannot move it.  It mixes
the kinds of work the simulator does: a heap-driven event loop over
small objects, compiling and running generated class definitions (as an
import does), and building and serialising dictionaries.  Changing it
changes the scale of every time this benchmark reports: compare runs
only when both used the same version of this file.
"""

from __future__ import annotations

import gc
import heapq
import json
import time
from typing import Tuple

#: Seconds one ``sample()`` takes on the reference host (2-vCPU Xeon VM,
#: Python 3.11.7) at its usual speed: the median over 444 samples.
REFERENCE_S = 0.13

_SOURCE = "\n".join(
    f"class Node{i}:\n"
    f"    __slots__ = ('a', 'b', 'c')\n"
    f"    def __init__(self, a, b):\n"
    f"        self.a = a; self.b = b; self.c = {{}}\n"
    f"    def step(self, x):\n"
    f"        self.c[x & 7] = self.c.get(x & 7, 0) + self.a * x - self.b\n"
    f"        return self.c[x & 7] if x % 3 else -x\n"
    f"def fn{i}(x, y=2):\n"
    f"    return [Node{i}(k, y).step(x + k) for k in range(3)]\n"
    for i in range(60)
)


class _Port:
    def __init__(self) -> None:
        self.busy = 0.0
        self.seen = {}

    def handle(self, now: int, seq: int, heap: list) -> None:
        self.busy += (seq % 13) * 0.5
        key = seq & 31
        self.seen[key] = self.seen.get(key, 0) + 1
        if seq < 60000:
            heapq.heappush(heap, (now + 1 + (seq * 2654435761) % 89, seq + 8))


def _events() -> float:
    ports = [_Port() for _ in range(64)]
    heap = [(i, i) for i in range(8)]
    while heap:
        now, seq = heapq.heappop(heap)
        ports[seq & 63].handle(now, seq, heap)
    return sum(port.busy for port in ports)


def _modules() -> int:
    total = 0
    for round_ in range(6):
        space = {}
        exec(compile(_SOURCE, f"<reference{round_}>", "exec"), space)
        total += sum(len(space[f"fn{i}"](i)) for i in range(60))
    return total


def _records() -> int:
    rows = [{"id": i, "name": f"flow{i}", "bytes": i * 1500, "tags": [str(i % 7), "x"]}
            for i in range(4000)]
    for _ in range(3):
        rows = json.loads(json.dumps(rows))
    return len(rows)


def sample() -> Tuple[float, float]:
    """Wall and CPU seconds of one run of the fixed computation."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    _events()
    _modules()
    _records()
    measured = time.perf_counter() - wall0, time.process_time() - cpu0
    gc.collect()  # the generated classes are cyclic garbage; free it now
    return measured
