"""Generators for the paper's measured figures (7 and 8).

All sweep surfaces run through the experiment engine
(:mod:`repro.exp`): points fan out across ``jobs`` worker processes and
hit the content-addressed cache when one is configured (``cache_dir``
argument, or the ``REPRO_SWEEP_JOBS`` / ``REPRO_CACHE_DIR`` environment
knobs for callers that cannot pass arguments, like the benchmark
drivers).  Serial, uncached runs produce numerically identical results
to the pre-engine code: the engine executes the exact same
``ThroughputSimulator(config, payload).run(...)`` per point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.exp import RunSpec, WorkloadSpec, run_spec, run_specs
from repro.firmware.ordering import OrderingMode
from repro.net.ethernet import EthernetTiming
from repro.nic.config import NicConfig, RMW_166MHZ, SOFTWARE_200MHZ
from repro.units import mhz, to_gbps

_DEFAULT_WARMUP_S = 0.4e-3
_DEFAULT_MEASURE_S = 0.8e-3

# Figure 7's axes: the paper sweeps core frequency for 1-8 cores with
# the (software-ordered) frame-parallel firmware and 4 scratchpad banks.
FIGURE7_CORE_COUNTS = (1, 2, 4, 6, 8)
FIGURE7_FREQUENCIES_MHZ = (100, 125, 150, 166, 175, 200)

# Figure 8's x axis: UDP datagram sizes from tiny to maximum.
FIGURE8_UDP_SIZES = (18, 100, 200, 400, 800, 1200, 1472)


def figure7_specs(
    core_counts: Sequence[int] = FIGURE7_CORE_COUNTS,
    frequencies_mhz: Sequence[float] = FIGURE7_FREQUENCIES_MHZ,
    ordering: OrderingMode = OrderingMode.SOFTWARE,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
) -> List[RunSpec]:
    """Figure 7's grid points, cores-major; see :func:`figure7_scaling`."""
    return [
        RunSpec(
            config=NicConfig(
                cores=cores,
                core_frequency_hz=mhz(frequency),
                ordering_mode=ordering,
            ),
            workload=WorkloadSpec(udp_payload_bytes=1472),
            warmup_s=warmup_s,
            measure_s=measure_s,
            label=f"fig7/{cores}c@{frequency:g}MHz",
        )
        for cores in core_counts for frequency in frequencies_mhz
    ]


def figure7_curves(
    results: Sequence[object],
    core_counts: Sequence[int] = FIGURE7_CORE_COUNTS,
    frequencies_mhz: Sequence[float] = FIGURE7_FREQUENCIES_MHZ,
) -> Dict[int, List[Tuple[float, float]]]:
    """Assemble :func:`figure7_specs`' results into Figure 7's curves."""
    points = [(cores, frequency)
              for cores in core_counts for frequency in frequencies_mhz]
    curves: Dict[int, List[Tuple[float, float]]] = {}
    for (cores, frequency), result in zip(points, results):
        curves.setdefault(cores, []).append(
            (frequency, result.udp_throughput_gbps)
        )
    return curves


def figure7_scaling(
    core_counts: Sequence[int] = FIGURE7_CORE_COUNTS,
    frequencies_mhz: Sequence[float] = FIGURE7_FREQUENCIES_MHZ,
    ordering: OrderingMode = OrderingMode.SOFTWARE,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[int, List[Tuple[float, float]]]:
    """UDP throughput (Gb/s) vs core frequency, one curve per core count.

    Maximum-sized UDP datagrams (1472 B), duplex saturation streams —
    exactly Figure 7's setup.  Returns {cores: [(MHz, Gb/s), ...]}.
    The whole grid fans out through the experiment engine.
    """
    specs = figure7_specs(core_counts, frequencies_mhz, ordering,
                          warmup_s, measure_s)
    results = run_specs(specs, jobs=jobs, cache_dir=cache_dir, label="figure7")
    return figure7_curves(results, core_counts, frequencies_mhz)


def figure7_ethernet_limit() -> float:
    """The 'Ethernet Limit (Duplex)' reference line of Figure 7, Gb/s."""
    return to_gbps(EthernetTiming().duplex_payload_limit_bps(1472))


def single_core_line_rate_frequency(
    ordering: OrderingMode = OrderingMode.SOFTWARE,
    frequencies_mhz: Sequence[float] = (600, 700, 800, 900, 1000, 1100, 1200),
    target_fraction: float = 0.99,
    cache_dir: Optional[str] = None,
) -> Optional[float]:
    """Find the frequency one core needs for line rate (Section 6.1's
    "a single core would have to operate at 800 MHz").

    The search stays sequential (it early-exits at the crossover, so
    later points are never simulated), but each point goes through the
    engine so overlapping drivers share cached results."""
    for frequency in frequencies_mhz:
        spec = RunSpec(
            config=NicConfig(
                cores=1, core_frequency_hz=mhz(frequency), ordering_mode=ordering
            ),
            workload=WorkloadSpec(udp_payload_bytes=1472),
            warmup_s=_DEFAULT_WARMUP_S,
            measure_s=_DEFAULT_MEASURE_S,
            label=f"fig7-single/{frequency:g}MHz",
        )
        result = run_spec(spec, cache_dir=cache_dir)
        if result.line_rate_fraction() >= target_fraction:
            return frequency
    return None


_LINE_RATE_CONFIGS = (
    ("software_200mhz", SOFTWARE_200MHZ),
    ("rmw_166mhz", RMW_166MHZ),
)


def figure8_specs(
    udp_sizes: Sequence[int] = FIGURE8_UDP_SIZES,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
) -> List[RunSpec]:
    """Figure 8's points, size-major; see :func:`figure8_frame_sizes`."""
    return [
        RunSpec(
            config=config,
            workload=WorkloadSpec(udp_payload_bytes=payload),
            warmup_s=warmup_s,
            measure_s=measure_s,
            label=f"fig8/{key}/{payload}B",
        )
        for payload in udp_sizes for key, config in _LINE_RATE_CONFIGS
    ]


def figure8_curves(
    results: Sequence[object],
    udp_sizes: Sequence[int] = FIGURE8_UDP_SIZES,
) -> Dict[str, List[Tuple[int, float]]]:
    """Assemble :func:`figure8_specs`' results into Figure 8's curves."""
    timing = EthernetTiming()
    curves: Dict[str, List[Tuple[int, float]]] = {
        "ethernet_limit": [
            (payload, to_gbps(timing.duplex_payload_limit_bps(payload)))
            for payload in udp_sizes
        ],
        "software_200mhz": [],
        "rmw_166mhz": [],
    }
    points = [(payload, key)
              for payload in udp_sizes for key, _config in _LINE_RATE_CONFIGS]
    for (payload, key), result in zip(points, results):
        curves[key].append((payload, result.udp_throughput_gbps))
    return curves


def figure8_frame_sizes(
    udp_sizes: Sequence[int] = FIGURE8_UDP_SIZES,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, List[Tuple[int, float]]]:
    """Full-duplex throughput vs UDP datagram size for both line-rate
    configurations, plus the Ethernet duplex limit curve."""
    specs = figure8_specs(udp_sizes, warmup_s, measure_s)
    results = run_specs(specs, jobs=jobs, cache_dir=cache_dir, label="figure8")
    return figure8_curves(results, udp_sizes)


def saturation_specs(
    udp_payload_bytes: int = 100,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
) -> List[RunSpec]:
    """The two saturation points; see :func:`saturation_frame_rates`."""
    return [
        RunSpec(
            config=config,
            workload=WorkloadSpec(udp_payload_bytes=udp_payload_bytes),
            warmup_s=warmup_s,
            measure_s=measure_s,
            label=f"saturation/{key}",
        )
        for key, config in _LINE_RATE_CONFIGS
    ]


def saturation_rates(results: Sequence[object]) -> Dict[str, float]:
    """Assemble :func:`saturation_specs`' results into frame rates."""
    return {
        key: result.total_fps
        for (key, _config), result in zip(_LINE_RATE_CONFIGS, results)
    }


def saturation_frame_rates(
    udp_payload_bytes: int = 100,
    warmup_s: float = _DEFAULT_WARMUP_S,
    measure_s: float = _DEFAULT_MEASURE_S,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, float]:
    """Peak total frame rates in the processing-bound regime (the
    ~2.2 M frames/s saturation Figure 8's discussion reports)."""
    specs = saturation_specs(udp_payload_bytes, warmup_s, measure_s)
    results = run_specs(specs, jobs=jobs, cache_dir=cache_dir, label="saturation")
    return saturation_rates(results)
