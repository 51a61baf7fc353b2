"""Figure 8 — full-duplex throughput vs UDP datagram size for the
software-only (200 MHz) and RMW-enhanced (166 MHz) configurations, with
the Ethernet duplex limit as reference.

Paper: both configurations track the Ethernet limit at large frames and
saturate at roughly 2.2 M frames/s for small frames, where processing
(not the link) is the bottleneck.

The 14-point sweep and the two saturation points run as one experiment
engine call (``repro.exp``), so the saturation points, which repeat the
sweep's 100-byte pair, are not simulated again: set
``REPRO_SWEEP_JOBS=4`` to fan it across cores and ``REPRO_CACHE_DIR=...``
to make re-runs incremental (docs/experiments.md)."""

import pytest

from benchmarks._helpers import emit, run_once
from repro.analysis import render_series
from repro.analysis.figures import (
    figure8_curves,
    figure8_specs,
    saturation_rates,
    saturation_specs,
)
from repro.exp import run_specs


def _experiment():
    sweep = figure8_specs()
    results = run_specs(sweep + saturation_specs(udp_payload_bytes=100),
                        label="figure8")
    return figure8_curves(results[:len(sweep)]), saturation_rates(results[len(sweep):])


def bench_figure8_framesizes(benchmark):
    curves, rates = run_once(benchmark, _experiment)

    for name in ("ethernet_limit", "software_200mhz", "rmw_166mhz"):
        emit(render_series(name, curves[name], "UDP bytes", "Gb/s"))
    emit(
        "saturation frame rates (100 B datagrams): "
        f"software {rates['software_200mhz'] / 1e6:.2f} Mfps, "
        f"rmw {rates['rmw_166mhz'] / 1e6:.2f} Mfps (paper: ~2.2 Mfps both)"
    )

    limit = dict(curves["ethernet_limit"])
    software = dict(curves["software_200mhz"])
    rmw = dict(curves["rmw_166mhz"])

    # Maximum-sized frames: both configurations at the Ethernet limit.
    assert software[1472] >= 0.95 * limit[1472]
    assert rmw[1472] >= 0.95 * limit[1472]
    # Small frames: processing-bound, far below the link limit.
    assert software[18] < 0.25 * limit[18]
    assert rmw[18] < 0.25 * limit[18]
    # Throughput grows monotonically with datagram size for every curve.
    for name in ("software_200mhz", "rmw_166mhz"):
        values = [v for _s, v in curves[name]]
        assert values == sorted(values)
    # Both saturate at the same order of magnitude, ~2 M frames/s.
    assert 1.2e6 < rates["software_200mhz"] < 3.0e6
    assert 1.2e6 < rates["rmw_166mhz"] < 3.0e6
    assert rates["rmw_166mhz"] == pytest.approx(rates["software_200mhz"], rel=0.25)
