"""Benchmark-suite integrity tests."""

import pytest

from repro import run_program
from repro.benchsuite import ALL_BENCHMARKS, NPB_BENCHMARKS, PLDS_BENCHMARKS, by_name
from repro.api import AnalysisConfig
from repro.core import DcaAnalyzer


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_benchmark_compiles_and_runs(bench):
    module = bench.compile(fresh=True)
    _, out = run_program(module)
    assert out.strip(), f"{bench.name} produced no output"


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_metadata_references_real_loops(bench):
    assert bench.validate() == []


@pytest.mark.parametrize("bench", ALL_BENCHMARKS, ids=lambda b: b.name)
def test_benchmark_is_deterministic(bench):
    _, first = run_program(bench.compile(fresh=True))
    _, second = run_program(bench.compile(fresh=True))
    assert first == second


def test_suite_composition():
    assert len(NPB_BENCHMARKS) == 10
    assert len(PLDS_BENCHMARKS) == 14
    names = [b.name for b in ALL_BENCHMARKS]
    assert len(names) == len(set(names))
    for bench in PLDS_BENCHMARKS:
        assert bench.table2 is not None
    assert by_name("EP").name == "EP"
    with pytest.raises(KeyError):
        by_name("nope")


@pytest.mark.parametrize("bench", PLDS_BENCHMARKS, ids=lambda b: b.name)
def test_plds_kernel_detected_by_dca(bench):
    module = bench.compile(fresh=True)
    report = DcaAnalyzer(
        module,
        AnalysisConfig(rtol=bench.rtol, liveout_policy=bench.liveout_policy),
    ).analyze()
    kernel = report.loop(bench.table2.kernel_label)
    assert kernel.is_commutative, f"{bench.name}: {kernel.verdict} ({kernel.reason})"


def test_mcf_latent_dependence_is_input_sensitive():
    """Paper §V-B2: mcf's kernel has a dependence unexercised by the
    default (star-shaped) workload; a deep workload exposes it."""
    mcf = by_name("mcf")

    star = mcf.compile(fresh=True)
    report = DcaAnalyzer(star, AnalysisConfig(rtol=mcf.rtol)).analyze()
    assert report.loop("main.L1").is_commutative

    deep = mcf.compile(fresh=True)
    deep.globals["DEEP"].init = 1
    report_deep = DcaAnalyzer(deep, AnalysisConfig(rtol=mcf.rtol)).analyze()
    assert not report_deep.loop("main.L1").is_commutative


def test_dc_hot_loops_are_io_excluded():
    from repro.core import EXCLUDED_IO

    dc = by_name("DC")
    report = DcaAnalyzer(
        dc.compile(fresh=True), AnalysisConfig(rtol=dc.rtol)
    ).analyze()
    excluded = [
        l for l, r in report.results.items() if r.verdict == EXCLUDED_IO
    ]
    assert len(excluded) >= 3  # the view-emitting loops


def test_mg_has_not_exercised_loop():
    from repro.core import NOT_EXERCISED

    mg = by_name("MG")
    report = DcaAnalyzer(
        mg.compile(fresh=True), AnalysisConfig(rtol=mg.rtol)
    ).analyze()
    assert report.loop("main.L9").verdict in (NOT_EXERCISED, "commutative-vacuous")


def test_ep_trial_loop_detected_and_hot():
    from repro.interp.interpreter import Interpreter
    from repro.interp.profiler import Profiler

    ep = by_name("EP")
    module = ep.compile(fresh=True)
    profiler = Profiler()
    Interpreter(module, observers=[profiler]).run()
    assert profiler.coverage("main.L1") > 0.9
    report = DcaAnalyzer(
        ep.compile(fresh=True), AnalysisConfig(rtol=ep.rtol)
    ).analyze()
    assert report.loop("main.L1").is_commutative
