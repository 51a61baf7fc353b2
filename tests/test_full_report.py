"""The one-shot evaluation report."""

import re

import pytest

import repro.exp.runner as runner
from repro.analysis.full_report import generate_full_report
from repro.nic.throughput import ThroughputSimulator

# Regenerating the whole evaluation takes seconds even in fast mode:
# excluded from tier-1 (`-m "not slow"`), always run in CI (`-m ""`).
pytestmark = pytest.mark.slow

_TIMING_LINE = re.compile(r"^full evaluation regenerated in .*$", re.M)


def _counted_report(monkeypatch, cache_dir):
    """A serial fast report using ``cache_dir``.

    Returns the report, the content keys the engine executed, and the
    number of NIC simulations run by any path.
    """
    executed = []
    simulations = []
    execute = runner.execute_spec
    simulate = ThroughputSimulator.run

    def counting_execute(spec):
        executed.append(spec.key)
        return execute(spec)

    def counting_run(self, *args, **kwargs):
        simulations.append(self)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(runner, "execute_spec", counting_execute)
    monkeypatch.setattr(ThroughputSimulator, "run", counting_run)
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    return generate_full_report(fast=True), executed, len(simulations)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report-cache")


@pytest.fixture(scope="module")
def counted(cache_dir):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _counted_report(monkeypatch, cache_dir)


@pytest.fixture(scope="module")
def report(counted):
    return counted[0]


class TestFullReport:
    def test_contains_every_section(self, report):
        for section in (
            "Headline",
            "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6",
            "Figure 3", "Figure 7", "Figure 8",
        ):
            assert section in report

    def test_reports_paper_reference_values(self, report):
        for reference in ("435", "4.8", "39.5", "51.5", "30.8", "2.2 M/s"):
            assert reference in report

    def test_mentions_both_configurations(self, report):
        assert "software-only 6x200 MHz" in report
        assert "RMW-enhanced 6x166 MHz" in report

    def test_plain_text(self, report):
        assert isinstance(report, str)
        assert len(report.splitlines()) > 60


class TestOneEngineCall:
    def test_each_distinct_point_runs_once(self, counted):
        # Fast mode has 22 NIC points: 2 headline, 4 Figure 7 (2 core
        # counts x 2 clocks), 14 Figure 8 (7 sizes x 2 configs) and 2
        # saturation.  5 repeat another: headline software = Figure 7
        # 6 cores @ 200 MHz = Figure 8 software/1472 B (2 repeats),
        # headline RMW = Figure 8 rmw/1472 B, and both saturation
        # points = Figure 8's 100 B pair.  22 - 5 = 17.
        _report, executed, simulations = counted
        assert simulations == 17
        assert len(executed) == 17
        assert len(set(executed)) == len(executed)

    def test_repeat_report_is_all_cache_hits(self, counted, cache_dir, monkeypatch):
        report, _executed, _simulations = counted
        again, executed, simulations = _counted_report(monkeypatch, cache_dir)
        assert simulations == 0
        assert executed == []
        assert _TIMING_LINE.sub("", again) == _TIMING_LINE.sub("", report)
