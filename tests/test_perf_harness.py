"""Tests for the perf harness (`repro perf`) and the parallel runner."""

from __future__ import annotations

import json

import pytest

from repro.bench.memo import ReplayRunner
from repro.bench.perf import (
    FULL_PERF,
    SMOKE_PERF,
    PerfCase,
    compare_to_baseline,
    load_baseline,
    perf_cases,
    perf_scale,
    run_perf,
    write_report,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.nand.spec import sim_spec
from repro.scenario.spec import ScenarioSpec

#: A tiny spec so the harness tests replay in milliseconds.
TINY = ScenarioSpec(
    workload="web-sql", num_requests=400, device=sim_spec(blocks_per_chip=48)
)


def tiny_cases() -> list[PerfCase]:
    return [
        PerfCase("figure/conventional", TINY),
        PerfCase("figure/ppb", TINY.with_(ftl="ppb")),
    ]


class TestPerfHarness:
    def test_scales(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        assert perf_scale() is FULL_PERF
        assert perf_scale(smoke=True) is SMOKE_PERF
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert perf_scale() is SMOKE_PERF

    def test_case_matrix_covers_all_ftls_and_reliability(self):
        cases = perf_cases(SMOKE_PERF)
        names = [case.name for case in cases]
        assert names == [
            "figure/conventional",
            "figure/fast",
            "figure/ppb",
            "reliability/refresh",
            "dftl/mapping-cache",
            "timed/queueing",
            "timed/closed-loop",
            "reliability/fault-injection",
        ]
        reliability = cases[3].spec
        assert reliability.reliability is not None
        assert reliability.refresh
        # The demand-paged mapper, cache-constrained so misses are live.
        dftl = cases[4].spec
        assert dftl.ftl == "dftl"
        assert dftl.mapping is not None
        assert dftl.mapping.resolve_cache_entries(1000) < 1000
        # The DES kernel case: channel-parallel timed mode at saturation.
        queueing = cases[5].spec
        assert queueing.mode == "timed"
        assert queueing.device.num_chips > 1
        assert queueing.device.num_channels > 1
        assert queueing.effective_arrival.scale > 1.0
        assert queueing.effective_arrival.queue_depth > 0
        # The closed-loop case: fixed population on a multi-plane device.
        closed = cases[6].spec
        assert closed.mode == "timed"
        assert closed.effective_arrival.is_closed
        assert closed.effective_arrival.queue_depth > 0
        assert closed.device.planes_per_chip > 1
        # The reliability-QoS loop case: faults + triage under queueing.
        faulted = cases[-1].spec
        assert faulted.mode == "timed"
        assert faulted.faults is not None and faulted.faults.rate > 0
        assert faulted.reliability is not None
        assert faulted.reliability.refresh_triage == "holds"
        assert faulted.reliability.state_skew > 1.0
        assert faulted.refresh

    def test_run_and_report_roundtrip(self, tmp_path):
        report = run_perf(scale=SMOKE_PERF, repeats=1, cases=tiny_cases())
        assert len(report.measurements) == 2
        for measurement in report.measurements:
            assert measurement.wall_s > 0
            assert measurement.pages > 0
            assert measurement.pages_per_sec > 0
        path = tmp_path / "BENCH_perf.json"
        write_report(report, str(path))
        payload = load_baseline(str(path))
        assert payload["scale"] == SMOKE_PERF.name
        assert set(payload["cases"]) == {"figure/conventional", "figure/ppb"}
        rendered = report.render()
        assert "figure/ppb" in rendered and "pages/s" in rendered

    def test_repeats_validated(self):
        with pytest.raises(ConfigError):
            run_perf(scale=SMOKE_PERF, repeats=0, cases=tiny_cases())


class TestBaselineGate:
    def _report(self):
        return run_perf(scale=SMOKE_PERF, repeats=1, cases=tiny_cases()[:1])

    def test_within_tolerance_passes(self):
        report = self._report()
        baseline = {
            "scale": SMOKE_PERF.name,
            "cases": {
                "figure/conventional": {
                    "pages_per_sec": report.measurements[0].pages_per_sec
                }
            },
        }
        assert compare_to_baseline(report, baseline, tolerance=0.30) == []

    def test_regression_fails(self):
        report = self._report()
        baseline = {
            "scale": SMOKE_PERF.name,
            "cases": {
                "figure/conventional": {
                    "pages_per_sec": report.measurements[0].pages_per_sec * 10.0
                }
            },
        }
        failures = compare_to_baseline(report, baseline, tolerance=0.30)
        assert len(failures) == 1
        assert "figure/conventional" in failures[0]

    def test_faster_than_baseline_passes(self):
        report = self._report()
        baseline = {
            "scale": SMOKE_PERF.name,
            "cases": {
                "figure/conventional": {
                    "pages_per_sec": report.measurements[0].pages_per_sec / 10.0
                }
            },
        }
        assert compare_to_baseline(report, baseline, tolerance=0.30) == []

    def test_scale_mismatch_fails_loudly(self):
        report = self._report()
        baseline = {"scale": "perf", "cases": {}}
        failures = compare_to_baseline(report, baseline)
        assert failures and "scale" in failures[0]

    def test_unknown_cases_ignored(self):
        report = self._report()
        baseline = {"scale": SMOKE_PERF.name, "cases": {"figure/other": {"pages_per_sec": 1e9}}}
        assert compare_to_baseline(report, baseline) == []

    def test_bad_tolerance_rejected(self):
        report = self._report()
        with pytest.raises(ConfigError):
            compare_to_baseline(report, {"scale": SMOKE_PERF.name, "cases": {}}, tolerance=1.5)

    def test_load_baseline_rejects_non_reports(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_baseline(str(path))

    @pytest.mark.parametrize("text", ["[1, 2]", '"cases"', "null"])
    def test_load_baseline_rejects_non_object_json(self, tmp_path, text):
        path = tmp_path / "junk.json"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_baseline(str(path))


class TestParallelRunner:
    def test_workers_validated(self):
        with pytest.raises(ConfigError):
            ReplayRunner(workers=0)

    def test_run_many_single_process_matches_run(self):
        sequential = ReplayRunner()
        expected = [sequential.run(TINY), sequential.run(TINY.with_(ftl="fast"))]
        runner = ReplayRunner()
        results = runner.run_many([TINY, TINY.with_(ftl="fast")])
        assert [r.read_us for r in results] == [r.read_us for r in expected]
        assert runner.stats.misses == 2
        # Identical replays are absorbed by the memo.
        again = runner.run_many([TINY])
        assert again[0] is results[0]
        assert runner.stats.hits >= 1

    def test_run_many_parallel_is_byte_identical(self):
        specs = [TINY, TINY.with_(ftl="fast")]
        sequential = ReplayRunner().run_many(specs)
        parallel_runner = ReplayRunner(workers=2)
        parallel = parallel_runner.run_many(specs)
        assert parallel_runner.stats.misses == 2
        for seq, par in zip(sequential, parallel):
            assert par.read_us == seq.read_us
            assert par.write_us == seq.write_us
            assert par.erase_count == seq.erase_count
            assert par.ftl.stats.snapshot() == seq.ftl.stats.snapshot()
        # The pool results live in the memo: re-requesting hits.
        assert parallel_runner.run(specs[0]) is parallel[0]


class TestPerfCli:
    def test_cli_writes_report_and_gates(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert (
            main(
                [
                    "perf",
                    "--scale",
                    "smoke",
                    "--repeats",
                    "1",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["scale"] == SMOKE_PERF.name
        # Gate the run against its own report: trivially within tolerance.
        gated = tmp_path / "gated.json"
        assert (
            main(
                [
                    "perf",
                    "--scale",
                    "smoke",
                    "--repeats",
                    "1",
                    "--output",
                    str(gated),
                    "--baseline",
                    str(out),
                    "--tolerance",
                    "0.9",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "within" in captured.out

    def test_cli_corrupt_baseline_errors_cleanly(self, tmp_path):
        corrupt = tmp_path / "corrupt.json"
        corrupt.write_text('{"cases": {')  # truncated JSON
        assert (
            main(
                [
                    "perf",
                    "--scale",
                    "smoke",
                    "--repeats",
                    "1",
                    "--output",
                    str(tmp_path / "r.json"),
                    "--baseline",
                    str(corrupt),
                ]
            )
            == 2
        )
        # The baseline is checked before measuring: no report is written.
        assert not (tmp_path / "r.json").exists()

    def test_cli_missing_baseline_errors(self, tmp_path):
        assert (
            main(
                [
                    "perf",
                    "--scale",
                    "smoke",
                    "--repeats",
                    "1",
                    "--output",
                    str(tmp_path / "r.json"),
                    "--baseline",
                    str(tmp_path / "missing.json"),
                ]
            )
            == 2
        )
        assert not (tmp_path / "r.json").exists()
