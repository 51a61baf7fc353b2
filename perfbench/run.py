"""The repository benchmark: host-time cost of the simulator's product paths.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fabric_switched --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` repeats the workload in fresh worker processes, as many
times as fill ``--seconds`` on the reference host, and reports the
end-to-end metrics, with every time scaled to the reference host's
usual speed by ``reference.py``.  ``--trace 1`` runs it once untraced and twice
under the span ledger, and reports the per-layer metrics.  The number
of repetitions depends only on the arguments, so every run of one seed
checks the same operations.  Every run checks the workload's outputs; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Workloads, metrics and the layer-to-end-to-end mapping are described in
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # nothing lands in the source tree

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import LAYERS  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from workloads import KNOWN_FALSE_POSITIVES, NAMES, REP_SECONDS  # noqa: E402

#: Fewest timed repetitions (and setup samples) a ``--trace 0`` run takes.
MIN_REPS = 3
MIN_SETUP_SAMPLES = 15
#: Traced repetitions, so exact counts are compared in every run.
TRACED_REPS = 2
#: A run starts no worker that could end after this many seconds.
DEADLINE_S = 160.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls_per_frame"] = "calls/frame"
        units[f"{layer}.self_ns_per_frame"] = "ns/frame"
        units[f"{layer}.share"] = "fraction"
    units.update({
        "sim.events": "count",
        "sim.ns_per_event": "ns/event",
        "sim.callback_us_p50": "us",
        "sim.callback_us_p99": "us",
        "sim.callback_samples": "count",
        "trace.overhead_s": "s",
        "trace.unattributed_share": "fraction",
        "model.delivered": "frames",
        "model.lost": "frames",
        "model.mac_drops": "frames",
        "model.link_drops": "frames",
        "model.rtt_p50_us": "us",
        "model.rtt_p99_us": "us",
        "model.goodput_gbps": "Gb/s",
    })
    return units


class BenchError(RuntimeError):
    """A worker failed: the run reports no result."""


class Runner:
    """Starts workers one at a time and keeps the run's check tallies."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.known = KNOWN_FALSE_POSITIVES.get(workload, frozenset())
        self.env = dict(os.environ)
        self.env.pop("REPRO_CACHE_DIR", None)  # never hit the result cache
        # Imports read bytecode compiled once into the build directory,
        # as an installed simulator would, not the source tree.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env.update({
            "REPRO_SWEEP_JOBS": "1",  # never fork sweep workers
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONPYCACHEPREFIX": str(ROOT / ".bench_build" / "pycache"),
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def spawn(self, mode: str) -> dict:
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before a required worker")
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"),
                 "--workload", self.workload, "--seed", str(self.seed),
                 "--mode", mode, "--spawned-ns", str(spawned)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                timeout=timeout, check=False, text=True,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from error
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        record = json.loads(lines[-1])
        if mode != "setup":
            self.tally(record)
        return record

    def tally(self, record: dict) -> None:
        """Count the worker's output checks as operations."""
        if record["threads"] != 1:
            self.expect(False, f"worker ran {record['threads']} threads")
        for name, ok in sorted(record["checks"].items()):
            self.attempted += 1
            if not ok:
                self.failed += 1
                known = name in self.known
                print(f"check failed: {name}"
                      + (" (known verifier false positive)" if known else ""),
                      file=sys.stderr)
                if not known:
                    self.correct = False

    def same_output(self, first: dict, other: dict, what: str) -> None:
        """One operation: two runs of one seed gave the same result."""
        self.attempted += 1
        if first["digest"] != other["digest"] or first["model"] != other["model"]:
            self.failed += 1
            self.expect(False, f"{what}: result differs between runs of one seed")

    def expect(self, ok: bool, message: str) -> None:
        """A self-check of the benchmark: failing makes the run incorrect."""
        if not ok:
            self.correct = False
            print(f"self-check failed: {message}", file=sys.stderr)

    def repeat(self, mode: str, count: int) -> list:
        """``count`` ``mode`` workers, one after the other."""
        return [self.spawn(mode) for _ in range(count)]


def timed_reps(workload: str, seconds: float) -> int:
    """Repetitions that fill ``seconds`` on the reference host.

    A fixed count, not a deadline, so that the operations a run checks
    do not depend on how fast the host happens to be."""
    return max(MIN_REPS, math.ceil(seconds / REP_SECONDS[workload]))


def end_to_end(runner: Runner, seconds: float) -> dict:
    runner.spawn("setup")  # compiles bytecode on a fresh checkout; not counted
    reps = runner.repeat("timed", timed_reps(runner.workload, seconds))
    for rep in reps[1:]:
        runner.same_output(reps[0], rep, "timed repetitions")
    setups = reps + [runner.spawn("setup")
                     for _ in range(MIN_SETUP_SAMPLES - len(reps))]
    # Each time is scaled by REFERENCE_S over the reference samples taken
    # in the same processes, so a slow spell of the host cancels out.
    # The run call is scaled by the mean of all the run's samples (a
    # ratio of totals); each set-up by its own process's first sample.
    samples = [ref for rep in reps for ref in rep["reference"]]
    wall_speed = REFERENCE_S / statistics.fmean(wall for wall, _ in samples)
    cpu_speed = REFERENCE_S / statistics.fmean(cpu for _, cpu in samples)
    wall = statistics.fmean(rep["wall_s"] for rep in reps)
    cpu = statistics.fmean(rep["cpu_s"] for rep in reps)
    setup = [rep["setup_s"] * REFERENCE_S / rep["reference"][0][0] for rep in setups]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall * wall_speed,
        "cpu_s": cpu * cpu_speed,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
    }
    print(f"{runner.workload}: {len(reps)} timed repetitions, unscaled wall_s "
          + " ".join(f"{rep['wall_s']:.3f}" for rep in reps)
          + f" (mean {wall:.3f}); host speed {wall_speed:.3f} of the reference; "
          + f"{len(setup)} setup_s samples, unscaled median "
          + f"{statistics.median(rep['setup_s'] for rep in setups):.3f}",
          file=sys.stderr)
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(runner: Runner) -> dict:
    untraced = runner.spawn("events")
    traced = runner.repeat("traced", TRACED_REPS)

    exact = [name for name in traced[0]["layers"] if name.endswith(".calls_per_frame")]
    for rep in traced:
        runner.same_output(untraced, rep, "traced vs untraced")
        runner.expect(rep["events"] == untraced["events"],
                      f"traced run fired {rep['events']} events, untraced "
                      f"{untraced['events']}")
        runner.expect(rep["identity_holds"],
                      "layer self times + unattributed != traced wall time")
        for name in exact:
            runner.expect(rep["layers"][name] == traced[0]["layers"][name],
                          f"{name} differs between traced runs of one seed")

    values = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(rep["traced_wall_s"] for rep in traced)
    values["sim.events"] = untraced["events"]
    values["sim.ns_per_event"] = untraced["wall_s"] * 1e9 / untraced["events"]
    values["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    values.update(untraced["model"])
    print(f"{runner.workload}: untraced {untraced['wall_s']:.3f} s, traced "
          f"{traced_wall:.3f} s over {len(traced)} traced repetitions",
          file=sys.stderr)
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "paper_report" and not (ROOT / "evaluation.txt").is_file():
        print(f"no reference report at {ROOT / 'evaluation.txt'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics = per_layer(runner)
        else:
            metrics = end_to_end(runner, args.seconds)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
