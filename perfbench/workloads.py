"""The benchmark's workloads: what each builds, runs and checks.

Every workload drives a product entry point of the simulator --
``FabricSimulator.run`` or ``generate_full_report`` -- and exposes the
same small interface to the worker process:

* ``build(seed)``: everything up to a ready simulator (counted in
  ``setup_s`` together with interpreter start-up and imports);
* ``run(state)``: the timed call;
* ``checks(state, result)``: output checks, name -> passed;
* ``digest(result)``: a canonical hash of the result, compared across
  processes and between traced and untraced runs;
* ``model(state, result)``: deterministic simulated outputs;
* ``frames(state)``: the divisor of the per-frame layer metrics.

Why each workload exists is written in ``NOTES.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Dict

#: Simulated windows of the fabric workloads (seconds).
WARMUP_S = 0.2e-3
MEASURE_S = 1.5e-3

#: Checks known to fail on the named workload because of a verifier
#: false positive, not because the run's output is wrong.  They still
#: count as failed operations; they only do not make the run incorrect.
#: ``FabricMacReceiver.skip_backlog`` drops frames without consuming
#: ordering sequence numbers, which ``NicEndpoint`` corrects for but
#: ``verify_conservation`` (standalone-NIC identity) does not.
KNOWN_FALSE_POSITIVES = {
    "fabric_datacenter": frozenset({
        "nic7.rx.seq_conservation",
        "nic7.rx.fault_identity",
    }),
}


class FabricWorkload:
    """An 8-NIC fabric run through ``FabricSimulator.run``."""

    def checks(self, fabric, result) -> Dict[str, bool]:
        from repro.check.verify import verify_conservation

        checked = verify_conservation(fabric, raise_on_failure=False)
        return {name: bool(ok) for name, ok in checked.items()}

    def run(self, fabric):
        return fabric.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)

    def digest(self, result) -> str:
        from repro.check.golden import golden_digest

        return golden_digest(result)

    def model(self, fabric, result) -> Dict[str, float]:
        flows = result.flows.values()
        primary = result.primary_flow
        return {
            "model.delivered": sum(flow.delivered for flow in flows),
            "model.lost": sum(flow.lost for flow in flows),
            "model.mac_drops": result.mac_drops,
            "model.link_drops": result.switch_drops,
            "model.rtt_p50_us": primary.rtt.p50_us,
            "model.rtt_p99_us": primary.rtt.p99_us,
            "model.goodput_gbps": result.aggregate_goodput_gbps,
        }

    def frames(self, fabric) -> int:
        """Frames delivered end to end over the whole run."""
        return sum(flow.delivered for flow in fabric.flows.values())


class FabricSwitched(FabricWorkload):
    """``repro fabric --switch`` at the paper's headline NIC."""

    def build(self, seed: int):
        from repro.fabric import FabricSimulator, FabricSpec, RpcFlowSpec, StreamFlowSpec
        from repro.nic.config import RMW_166MHZ

        ring = tuple(
            StreamFlowSpec(src=i, dst=(i + 1) % 8, udp_payload_bytes=1472,
                           offered_fraction=0.5, name=f"ring{i}")
            for i in range(7)
        )
        rpc = (RpcFlowSpec(client=0, server=4, request_payload_bytes=64,
                           response_payload_bytes=1472, concurrency=8,
                           name="rpc"),)
        spec = FabricSpec(nics=8, switch=True, rpc_flows=rpc,
                          stream_flows=ring, seed=seed)
        return FabricSimulator(RMW_166MHZ, spec)


class FabricDatacenter(FabricWorkload):
    """Leaf-spine + ECMP + DRR/RED/pause QoS + 4-ring RSS, fast path."""

    def build(self, seed: int):
        from repro.fabric import FabricSimulator, FabricSpec, RpcFlowSpec, StreamFlowSpec
        from repro.fabric.topology import TopologySpec
        from repro.host.rss import RssSpec
        from repro.nic.config import NicConfig
        from repro.qos import QosSpec
        from repro.units import mhz

        streams = tuple(
            StreamFlowSpec(src=src, dst=7, imix=True, offered_fraction=0.45,
                           qos_class="best-effort", name=f"elephant{src}")
            for src in (0, 1, 2)
        ) + (
            StreamFlowSpec(src=4, dst=2, udp_payload_bytes=1472,
                           offered_fraction=0.5, qos_class="best-effort",
                           name="cross"),
        )
        rpc = (
            RpcFlowSpec(client=0, server=7, concurrency=8,
                        qos_class="guaranteed", name="rpc"),
            RpcFlowSpec(client=5, server=6, concurrency=4,
                        qos_class="guaranteed", name="rpc2"),
        )
        spec = FabricSpec(
            nics=8, switch=True, rpc_flows=rpc, stream_flows=streams,
            seed=seed,
            qos=QosSpec.mixed_criticality(scheduler="drr", pause=True, seed=seed),
            topology=TopologySpec.leaf_spine(racks=2, hosts_per_rack=4,
                                             spines=2, ecmp_seed=seed),
        )
        config = NicConfig(cores=4, core_frequency_hz=mhz(133))
        return FabricSimulator(config, spec, fast=True, rss=RssSpec(rings=4))


#: The report's only run-dependent line.
_TIMING_LINE = re.compile(r"^full evaluation regenerated in [0-9.]+ s.*$", re.M)


def _normalized(text: str) -> str:
    return _TIMING_LINE.sub("full evaluation regenerated in <elapsed>", text).rstrip("\n")


class PaperReport:
    """``generate_full_report(fast=False)``: the evaluation.txt rebuild.

    The report has no seed; every seed gives the same text.
    """

    def __init__(self, root: Path) -> None:
        self.reference = root / "evaluation.txt"

    def build(self, seed: int):
        from repro.analysis.full_report import generate_full_report

        return generate_full_report

    def run(self, generate):
        return generate(fast=False)

    def checks(self, generate, text: str) -> Dict[str, bool]:
        expected = _normalized(self.reference.read_text())
        return {"report.matches_evaluation_txt": _normalized(text) == expected}

    def digest(self, text: str) -> str:
        return hashlib.sha256(_normalized(text).encode("utf-8")).hexdigest()

    def model(self, generate, text: str) -> Dict[str, float]:
        """No fabric runs here, so the fabric outputs are all zero."""
        return dict.fromkeys(
            ("model.delivered", "model.lost", "model.mac_drops",
             "model.link_drops", "model.rtt_p50_us", "model.rtt_p99_us",
             "model.goodput_gbps"),
            0,
        )

    def frames(self, generate) -> int:
        """Per run: the report is one unit of work."""
        return 1


NAMES = ("fabric_switched", "fabric_datacenter", "paper_report")

#: Host seconds of one timed repetition (worker start to exit, the two
#: reference samples included) on the reference host (2-vCPU Xeon VM);
#: ``run.py`` divides ``--seconds`` by it to get a fixed repetition count.
REP_SECONDS = {
    "fabric_switched": 3.4,
    "fabric_datacenter": 2.6,
    "paper_report": 14.5,
}


def workload(name: str, root: Path):
    if name == "fabric_switched":
        return FabricSwitched()
    if name == "fabric_datacenter":
        return FabricDatacenter()
    if name == "paper_report":
        return PaperReport(root)
    raise ValueError(f"unknown workload {name!r} (have {', '.join(NAMES)})")
