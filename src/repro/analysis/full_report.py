"""One-shot regeneration of the paper's entire evaluation section.

:func:`generate_full_report` runs every experiment (Tables 1-6, Figures
3/7/8) and renders a single text report with paper-vs-measured columns —
the programmatic equivalent of reading Section 6.  Used by
``examples/reproduce_paper.py``; the per-experiment benchmarks under
``benchmarks/`` remain the canonical, asserted versions.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from repro.analysis.cache_study import figure3_cache_study
from repro.analysis.figures import (
    figure7_curves,
    figure7_ethernet_limit,
    figure7_specs,
    figure8_curves,
    figure8_specs,
    saturation_rates,
    saturation_specs,
)
from repro.analysis.report import ascii_chart, format_table
from repro.analysis.tables import (
    FUNCTION_LABELS,
    rmw_reductions,
    table1_ideal_profile,
    table2_ilp_limits,
    table3_ipc_breakdown,
    table4_bandwidth,
    table5_rmw_profiles,
    table6_cycles,
)
from repro.exp import RunSpec, WorkloadSpec, run_specs
from repro.firmware.kernels import ordering_instruction_counts
from repro.nic.config import RMW_166MHZ, SOFTWARE_200MHZ


def _split(results: Sequence[object],
           groups: Sequence[Sequence[RunSpec]]) -> List[List[object]]:
    """Cut one engine call's results back into its spec groups."""
    parts, start = [], 0
    for group in groups:
        parts.append(list(results[start:start + len(group)]))
        start += len(group)
    return parts


def generate_full_report(fast: bool = False) -> str:
    """Run everything and return the rendered report.

    ``fast`` shrinks windows/grids (~20 s instead of a few minutes) at
    the cost of 1-3% noise in the measured values.
    """
    warmup = 0.3e-3 if fast else 0.4e-3
    measure = 0.5e-3 if fast else 1.0e-3
    grid = ((2, 6), (150, 200)) if fast else ((1, 2, 4, 6, 8), (100, 150, 166, 175, 200))
    started = time.time()
    sections: List[str] = []

    # Every NIC simulation of the report goes through one engine call,
    # so points shared between sections (the headline configurations
    # recur in Figures 7 and 8) run once, and the engine's cache and
    # worker pool cover all of them.
    headline_specs = [
        RunSpec(config=config, workload=WorkloadSpec(udp_payload_bytes=1472),
                warmup_s=warmup, measure_s=measure, label=f"headline/{name}")
        for name, config in (("software", SOFTWARE_200MHZ), ("rmw", RMW_166MHZ))
    ]
    groups = [
        headline_specs,
        figure7_specs(core_counts=grid[0], frequencies_mhz=grid[1],
                      warmup_s=warmup, measure_s=measure),
        figure8_specs(warmup_s=warmup, measure_s=measure),
        saturation_specs(100, warmup_s=warmup, measure_s=measure),
    ]
    results = run_specs([spec for group in groups for spec in group],
                        label="report")
    (software, rmw), results7, results8, saturation = _split(results, groups)

    # -- headline ---------------------------------------------------------
    sections.append(format_table(
        ["Configuration", "UDP Gb/s", "Line-rate fraction", "Core util"],
        [
            ["software-only 6x200 MHz", software.udp_throughput_gbps,
             software.line_rate_fraction(), software.core_utilization],
            ["RMW-enhanced 6x166 MHz", rmw.udp_throughput_gbps,
             rmw.line_rate_fraction(), rmw.core_utilization],
        ],
        title="Headline: both line-rate configurations",
    ))

    # -- Table 1 ----------------------------------------------------------
    table1 = table1_ideal_profile()
    sections.append(format_table(
        ["Function", "Instructions", "Data accesses"],
        [
            [label, row["instructions"], row["data_accesses"]]
            for label, row in table1.items()
            if not label.startswith("(derived)")
        ],
        title="Table 1: ideal per-frame costs",
    ))
    derived = table1["(derived) line-rate MIPS"]
    sections.append(
        f"derived: {derived['total']:.0f} MIPS total (paper 435), "
        f"{table1['(derived) control bandwidth Gb/s']['total']:.2f} Gb/s control "
        "(paper 4.8), "
        f"{table1['(derived) frame data bandwidth Gb/s']['total']:.1f} Gb/s frame data "
        "(paper 39.5)"
    )

    # -- Table 2 ----------------------------------------------------------
    table2 = table2_ilp_limits(iterations=2 if fast else 4)
    columns = ["perfect/pbp", "perfect/nobp", "stalls/pbp", "stalls/pbp1", "stalls/nobp"]
    sections.append(format_table(
        ["Config"] + columns,
        [[f'{r["order"]}-{r["width"]}'] + [r[c] for c in columns] for r in table2],
        title="Table 2: theoretical peak IPC",
    ))

    # -- Figure 3 ----------------------------------------------------------
    figure3 = figure3_cache_study(frames=600 if fast else 1000)
    sections.append(format_table(
        ["Cache size", "Hit %", "Invalidating writes %"],
        [
            [size, 100 * stats.hit_ratio, 100 * stats.write_invalidation_ratio]
            for size, stats in sorted(figure3.items())
        ],
        title="Figure 3: MESI cache study (paper: plateau <~55%, inval <1%)",
    ))

    # -- Table 3 ----------------------------------------------------------
    table3 = table3_ipc_breakdown(result=software)
    paper3 = {"execution": 0.72, "imiss": 0.01, "load": 0.12,
              "conflict": 0.05, "pipeline": 0.10, "total": 1.00}
    sections.append(format_table(
        ["Component", "Measured", "Paper"],
        [[name, table3[name], paper3[name]] for name in paper3],
        title="Table 3: IPC breakdown, 6x200 MHz",
    ))

    # -- Table 4 ----------------------------------------------------------
    table4 = table4_bandwidth(result=software)
    sections.append(format_table(
        ["Memory", "Required", "Peak", "Consumed (Gb/s)"],
        [[name, d["required"], d["peak"], d["consumed"]] for name, d in table4.items()],
        title="Table 4: memory bandwidth",
    ))

    # -- Tables 5 and 6 -----------------------------------------------------
    table5 = table5_rmw_profiles(software, rmw)
    reductions = rmw_reductions(table5)
    isa_counts = ordering_instruction_counts(16)
    sections.append(format_table(
        ["RMW reduction", "Measured %", "Paper %"],
        [
            ["send ordering+dispatch instructions",
             reductions["send_ordering_instructions_pct"], 51.5],
            ["recv ordering+dispatch instructions",
             reductions["recv_ordering_instructions_pct"], 30.8],
            ["send ordering+dispatch accesses",
             reductions["send_ordering_accesses_pct"], 65.0],
            ["recv ordering+dispatch accesses",
             reductions["recv_ordering_accesses_pct"], 35.2],
            ["ISA-level ordering kernel instructions",
             100 * (1 - isa_counts["order_rmw"] / isa_counts["order_sw"]), "-"],
        ],
        title="Table 5: setb/update savings",
    ))
    table6 = table6_cycles(software, rmw)
    sections.append(format_table(
        ["Function", "Software @200", "RMW @166 (cycles/packet)"],
        [
            [FUNCTION_LABELS.get(name, name),
             row["software_cycles"], row["rmw_cycles"]]
            for name, row in table6.items()
        ],
        title="Table 6: cycles per packet (paper: send -28.4%, recv -4.7%)",
    ))

    # -- Figures 7 and 8 ----------------------------------------------------
    figure7 = figure7_curves(results7, core_counts=grid[0], frequencies_mhz=grid[1])
    rows7 = []
    for cores, series in sorted(figure7.items()):
        rows7.append([cores] + [gbps for _f, gbps in series])
    sections.append(format_table(
        ["Cores \\ MHz"] + [str(f) for f in grid[1]],
        rows7,
        title=f"Figure 7: UDP Gb/s vs frequency (Ethernet duplex limit "
              f"{figure7_ethernet_limit():.2f} Gb/s)",
    ))
    limit = figure7_ethernet_limit()
    chart_series = {
        f"{cores} cores": series for cores, series in sorted(figure7.items())
    }
    chart_series["limit"] = [(grid[1][0], limit), (grid[1][-1], limit)]
    sections.append(ascii_chart(
        "Figure 7 (rendered)", chart_series, x_label="MHz", y_label="Gb/s"
    ))

    figure8 = figure8_curves(results8)
    rows8 = []
    for index, (payload, limit) in enumerate(figure8["ethernet_limit"]):
        rows8.append([
            payload, limit,
            figure8["software_200mhz"][index][1],
            figure8["rmw_166mhz"][index][1],
        ])
    sections.append(format_table(
        ["UDP bytes", "Ethernet limit", "Software @200", "RMW @166 (Gb/s)"],
        rows8,
        title="Figure 8: throughput vs datagram size",
    ))
    rates = saturation_rates(saturation)
    sections.append(
        f"saturation frame rates: software {rates['software_200mhz'] / 1e6:.2f} M/s, "
        f"RMW {rates['rmw_166mhz'] / 1e6:.2f} M/s (paper: ~2.2 M/s both)"
    )

    elapsed = time.time() - started
    header = (
        "Reproduction of 'An Efficient Programmable 10 Gigabit Ethernet "
        "Network Interface Card' (HPCA 2005)\n"
        f"full evaluation regenerated in {elapsed:.1f} s"
        + (" (fast mode)" if fast else "")
    )
    return "\n\n".join([header] + sections)
