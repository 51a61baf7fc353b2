"""One repetition of one workload, in a fresh single-threaded process.

Started by ``run.py`` (which puts ``src`` on ``PYTHONPATH``); not meant
to be run by hand.  Modes:

* ``setup``: take one reference sample, import and build, then exit
  (extra ``setup_s`` samples);
* ``timed``: take one reference sample, build and run untouched, then
  take another (the end-to-end metrics);
* ``events``: as ``timed``, also counting kernel events;
* ``traced``: install the span ledger, build and run (layer metrics).

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _threads() -> int:
    """Threads of this process (Linux), 1 where it cannot be read."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


def _count_events():
    """Sum of ``Simulator.run`` return values (events fired) from now on."""
    from repro.sim.kernel import Simulator

    counter = [0]
    run = Simulator.run

    def counted(sim, *args, **kwargs):
        fired = run(sim, *args, **kwargs)
        counter[0] += fired
        return fired

    Simulator.run = counted
    return counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "events", "traced"))
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() just before this process started")
    args = parser.parse_args()

    from workloads import workload

    bench = workload(args.workload, ROOT)
    # The first reference sample is taken before the simulator is
    # imported, so that its own memory stays below the run's peak; its
    # time is left out of setup_s.
    reference = []
    sampling_ns = 0
    if args.mode in ("setup", "timed"):
        started = time.monotonic_ns()
        from reference import sample

        reference.append(sample())
        sampling_ns = time.monotonic_ns() - started
    ledger = events = None
    if args.mode == "traced":
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    elif args.mode == "events":
        events = _count_events()
    state = bench.build(args.seed)
    setup_ns = time.monotonic_ns() - args.spawned_ns - sampling_ns
    out = {"setup_s": setup_ns / 1e9, "reference": reference}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if ledger is not None:
        result, wall_ns = ledger.measure(lambda: bench.run(state))
        frames = bench.frames(state)
        out["traced_wall_s"] = wall_ns / 1e9
        out["layers"] = ledger.report(frames, wall_ns)
        out["identity_holds"] = ledger.identity_holds(wall_ns)
        out["events"] = out["layers"]["sim.callback_samples"]
        ledger.uninstall()
    else:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result = bench.run(state)
        out["wall_s"] = time.perf_counter() - wall0
        out["cpu_s"] = time.process_time() - cpu0
        if events is not None:
            out["events"] = events[0]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "timed":
        reference.append(sample())
    out["threads"] = _threads()
    out["digest"] = bench.digest(result)
    out["model"] = bench.model(state, result)
    out["checks"] = bench.checks(state, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
