"""Tests for the §III-A steady-state / variance methodology."""

import pytest

from repro.core.steady import (VarianceReport, WindowMeasurement,
                               coefficient_of_variation, find_min_warmup,
                               measure_after_warmup, repeated_runs)
from repro.uarch.machine import get_machine
from repro.workloads.dotnet import dotnet_category_specs


def spec_of(name):
    return next(s for s in dotnet_category_specs() if s.name == name)


def window(i, cpi):
    return WindowMeasurement(index=i, instructions=1000, cycles=cpi * 1000,
                             cpi=cpi, l1i_mpki=1.0, llc_mpki=0.1,
                             jit_started=0)


class TestCoefficientOfVariation:
    def test_constant_is_zero(self):
        assert coefficient_of_variation([2.0, 2.0, 2.0]) == 0.0

    def test_known_value(self):
        # mean 10, sample std 1 -> CV 0.1
        cv = coefficient_of_variation([9.0, 10.0, 11.0])
        assert cv == pytest.approx(0.1)

    def test_short_series_zero(self):
        assert coefficient_of_variation([5.0]) == 0.0

    def test_zero_mean_safe(self):
        assert coefficient_of_variation([-1.0, 1.0]) == 0.0


class TestVarianceReport:
    def test_discard_first(self):
        r = VarianceReport(windows=(window(0, 9.0), window(1, 1.0),
                                    window(2, 1.0)),
                           discarded_first=True)
        assert len(r.measured) == 2
        assert r.cpi_cv == 0.0
        assert r.mean_cpi == pytest.approx(1.0)

    def test_steady_threshold(self):
        steady = VarianceReport(
            windows=(window(0, 1.0), window(1, 1.01), window(2, 0.99)),
            discarded_first=False)
        assert steady.is_steady(0.05)
        noisy = VarianceReport(
            windows=(window(0, 1.0), window(1, 2.0), window(2, 0.5)),
            discarded_first=False)
        assert not noisy.is_steady(0.05)


class TestRepeatedRuns:
    """The microbenchmark protocol: 15 runs, first discarded (§III-A)."""

    def test_first_window_is_the_cold_one(self):
        report = repeated_runs(spec_of("System.Runtime"),
                               get_machine("i9"), runs=6,
                               window_instructions=25_000)
        cold = report.windows[0]
        warm_cpis = [w.cpi for w in report.measured]
        # Cold start: worse CPI and more JIT than the steady windows.
        assert cold.cpi > min(warm_cpis)
        assert cold.jit_started >= max(w.jit_started
                                       for w in report.measured[2:])

    def test_steady_state_reached(self):
        # SeekUnroll: tiny method set, no tiering — fully warm quickly.
        report = repeated_runs(spec_of("SeekUnroll"),
                               get_machine("i9"), runs=8,
                               window_instructions=25_000)
        # Dropping early windows, the remainder is steady per the paper's
        # 5% criterion.
        tail = VarianceReport(windows=report.windows[3:],
                              discarded_first=False)
        assert tail.is_steady(0.05)


class TestWarmupSearch:
    """The ASP.NET protocol: progressively reduce warmup (§III-A)."""

    def test_finds_acceptable_warmup(self):
        result = find_min_warmup(spec_of("System.MathBenchmarks"),
                                 get_machine("i9"),
                                 max_warmup=100_000, min_warmup=12_500,
                                 windows=3, window_instructions=20_000)
        assert result.min_warmup_instructions <= 100_000
        assert result.reports
        warmups = [w for w, _ in result.reports]
        assert warmups == sorted(warmups, reverse=True)

    def test_accepted_reports_are_steady(self):
        result = find_min_warmup(spec_of("System.MathBenchmarks"),
                                 get_machine("i9"),
                                 max_warmup=50_000, min_warmup=12_500,
                                 windows=3, window_instructions=20_000)
        for warmup, report in result.accepted():
            assert report.is_steady()

    def test_measure_after_warmup_no_discard(self):
        report = measure_after_warmup(spec_of("System.Runtime"),
                                      get_machine("i9"),
                                      warmup_instructions=40_000,
                                      windows=3,
                                      window_instructions=15_000)
        assert not report.discarded_first
        assert len(report.measured) == 3


#: Window-by-window reports the §III-A protocol produced when it still
#: drove the core with a tuple generator (System.Runtime: 4 windows of
#: 15k; Json: 20k warmup, then 3 windows of 15k; i9, seed 0).  Driving
#: one TraceBufferStream across windows must reproduce them exactly.
_SEED_RUNTIME_WINDOWS = (
    WindowMeasurement(index=0, instructions=15002, cycles=46152.62503703715,
                      cpi=3.07643147827204, l1i_mpki=4.866017864284762,
                      llc_mpki=18.597520330622583, jit_started=5),
    WindowMeasurement(index=1, instructions=15007,
                      cycles=28522.771370370472, cpi=1.900631130163955,
                      l1i_mpki=4.198040914240021,
                      llc_mpki=6.730192576797495, jit_started=2),
    WindowMeasurement(index=2, instructions=15003,
                      cycles=31424.529444444554, cpi=2.0945497196856997,
                      l1i_mpki=5.532226887955742,
                      llc_mpki=6.731986935946144, jit_started=5),
    WindowMeasurement(index=3, instructions=15001,
                      cycles=28804.625296296424, cpi=1.9201803410636906,
                      l1i_mpki=5.3996400239984, llc_mpki=5.599626691553897,
                      jit_started=4),
)
_SEED_JSON_WINDOWS = (
    WindowMeasurement(index=0, instructions=15000, cycles=50137.14228571445,
                      cpi=3.3424761523809634, l1i_mpki=9.266666666666666,
                      llc_mpki=22.666666666666668, jit_started=2),
    WindowMeasurement(index=1, instructions=15000, cycles=48845.08342857156,
                      cpi=3.256338895238104, l1i_mpki=8.6,
                      llc_mpki=18.06666666666667, jit_started=3),
    WindowMeasurement(index=2, instructions=15001,
                      cycles=35667.990285714484, cpi=2.3777075052139516,
                      l1i_mpki=7.932804479701353,
                      llc_mpki=15.332311179254717, jit_started=1),
)


@pytest.mark.parametrize("engine", ["batched", "vector"])
def test_protocol_reports_unchanged_on_stream_engines(engine, monkeypatch):
    """repeated_runs (.NET) and measure_after_warmup (ASP.NET) give the
    exact reports of the tuple-generator protocol on either engine."""
    from repro.workloads.aspnet import aspnet_specs
    monkeypatch.setenv("REPRO_ENGINE", engine)
    m = get_machine("i9")
    report = repeated_runs(spec_of("System.Runtime"), m, runs=4,
                           window_instructions=15_000)
    assert report == VarianceReport(windows=_SEED_RUNTIME_WINDOWS,
                                    discarded_first=True)
    json = next(s for s in aspnet_specs() if s.name == "Json")
    report = measure_after_warmup(json, m, 20_000, windows=3,
                                  window_instructions=15_000)
    assert report == VarianceReport(windows=_SEED_JSON_WINDOWS,
                                    discarded_first=False)
