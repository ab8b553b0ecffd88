"""The DCA benchmark: four workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 perfbench/bench.py                  # all workloads, end to end
    python3 perfbench/bench.py --trace 1        # all workloads, per layer
    python3 perfbench/bench.py --workload suite-cold --seed 3 --seconds 10
    python3 perfbench/bench.py --workload suite-warm --trace 1 \\
        --compare perfbench/baselines/layers_baseline.json
    python3 perfbench/bench.py --smoke          # 2 programs, 10 requests
    python3 perfbench/bench.py --write-goldens  # regenerate the goldens

A single-workload run prints, as its last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value",
"unit"}}}`` — the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``.  It exits 1 when a verdict is wrong, an
analysis or request fails, or ``--compare`` flags a layer; 2 when the
checkout has no ``src/repro`` to measure.

Each workload runs in its own process with every ``REPRO_*`` variable
cleared (the CI matrix sets some, e.g. ``REPRO_EXEC_BACKEND``), in
private cache and artifact directories under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH)
SRC = os.path.join(ROOT, "src")
DEFAULT_OUT = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("suite-cold", "suite-warm", "replay-heavy", "serve-mixed")
#: Set-ups per timed run; ``setup_s`` is their median.  Set-up fills
#: caches with a whole pass of analyses, so more would not fit the
#: benchmark's time budget.
SETUP_REPEATS = 2
#: Timed runs measure at least this many passes: 48 per-program samples,
#: twelve of them beyond ``program_p75_ms``.
MIN_PASSES = 2
#: ``--compare`` flags a layer whose time relative to the rest of its
#: analysis rose by more than this many percent.  Between identical runs
#: the compared layers move by at most 7%; a layer slowed by 20% reads
#: +17% to +21%.
THRESHOLD_PCT = 12.0
#: Layers under this share of an analysis are not compared: their
#: relative times swing by up to 25% between identical runs.
MIN_SHARE = 0.01

#: Self time, ms per pass, of the spans every workload enters.
SPAN_TIMES = {
    "session": "session.self_ms",
    "frontend": "frontend.self_ms",
    "dca": "dca.self_ms",
    "selection": "selection.self_ms",
    "profile": "profile.self_ms",
    "golden": "golden.self_ms",
    "instrument.observe": "instrument.observe_ms",
    "codegen.compile": "codegen.compile_ms",
    "engine": "engine.self_ms",
    "verify.capture": "verify.capture_ms",
    "verify.digest": "verify.digest_ms",
}
#: Self times of spans some workload never enters (static filter off,
#: tiering off, every loop served from cache, ...).  A time that is
#: zero on every run of a workload says nothing, so these are in the
#: layer summary only; the metrics carry their call counts.
SUMMARY_SPAN_TIMES = {
    "static": "static.self_ms",
    "tiering": "tiering.self_ms",
    "schedule": "schedule.self_ms",
    "instrument.test": "instrument.test_ms",
    "verify.compare": "verify.compare_ms",
    "cache.lookup": "cache.lookup_ms",
    "cache.store": "cache.store_ms",
}
SPANS = tuple(SPAN_TIMES) + tuple(SUMMARY_SPAN_TIMES)
RATES = ("profile.instr_per_s", "golden.instr_per_s", "schedule.instr_per_s")
RATIOS = (
    "static.decided_ratio",
    "engine.useful_ratio",
    "codegen.disk_hit_ratio",
    "verify.digest_hit_ratio",
    "cache.hit_ratio",
    "serve.coalesced_ratio",
    "serve.rejected_ratio",
    "serve.wait_frac",
)
#: Serve-layer numbers; zero for the in-process suite workloads.
SERVE_LAYERS = {
    "serve.service_mean_ms": "ms",
    "serve.wait_mean_ms": "ms",
    "serve.wait_frac": "ratio",
    "serve.coalesced_ratio": "ratio",
    "serve.rejected_ratio": "ratio",
}


def per_layer_names() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run prints."""
    names = [(metric, "ms") for metric in SPAN_TIMES.values()]
    names += [(f"{span}.calls", "count") for span in SPANS]
    names += [(rate, "1/s") for rate in RATES]
    names += [("codegen.compiles", "count")]
    names += [(ratio, "ratio") for ratio in RATIOS]
    names += [("trace.overhead_frac", "ratio")]
    return names


def _bootstrap() -> None:
    """Measure this checkout's sources, whatever the environment says."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no sources to measure at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)


def _machine() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- timed (end-to-end) run ------------------------------------------------------


def timed_run(workload, rng, seconds: float, repeats: int, min_passes: int):
    """Set up ``repeats`` times, then measure passes until ``seconds``
    have passed and at least ``min_passes`` are done."""
    setups = []
    for _ in range(repeats):
        workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    passes = []
    try:
        start = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - start < seconds:
            passes.append(workload.run_pass(rng))
    finally:
        workload.teardown()
    who = resource.RUSAGE_CHILDREN if workload.name == "serve-mixed" else resource.RUSAGE_SELF
    latencies = [ms for p in passes for ms in p.latencies_ms]
    p75 = (
        statistics.quantiles(latencies, n=4, method="inclusive")[2]
        if len(latencies) > 1 else latencies[0]
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "program_p50_ms": (statistics.median(latencies), "ms"),
        "program_p75_ms": (p75, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    print(
        f"{workload.name}: {len(setups)} set-ups, {len(passes)} passes, "
        f"{len(latencies)} latency samples",
        file=sys.stderr,
    )
    return passes, metrics


# -- traced (per-layer) run ------------------------------------------------------


def _samples(text: str) -> Dict[str, float]:
    """OpenMetrics exposition as {sample{label values}: value}."""
    from repro.obs.export import parse_openmetrics

    out = {}
    for family in parse_openmetrics(text).values():
        for name, labels, value in family["samples"]:
            out[name + "".join(f"{{{v}}}" for _k, v in sorted(labels.items()))] = value
    return out


def _serve_layers(before, after, traced) -> Dict[str, Tuple[float, str]]:
    """Serve-layer numbers from two ``/metrics`` scrapes around the
    traced round and the client's own latencies."""

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    requests = delta("repro_serve_requests_total{analyze}")
    served = delta("repro_serve_request_wall_ms_count")
    service_ms = delta("repro_serve_request_wall_ms_sum") / served
    client_ms = statistics.fmean(traced.latencies_ms)
    values = {
        "serve.service_mean_ms": service_ms,
        "serve.wait_mean_ms": client_ms - service_ms,
        "serve.wait_frac": (client_ms - service_ms) / client_ms,
        "serve.coalesced_ratio": delta("repro_serve_coalesced_total") / requests,
        "serve.rejected_ratio": delta("repro_serve_rejected_total") / requests,
    }
    return {name: (values[name], unit) for name, unit in SERVE_LAYERS.items()}


def layer_metrics(spans, traced) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced pass, summary-only layer
    times included."""
    import tracing

    table = tracing.span_table(spans)
    selfs = tracing.self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def rate(span: str, steps) -> float:
        ns = sum(selfs[s[0]] for s in by_name[span])
        work = sum(steps(s[7]) for s in by_name[span] if s[7] is not None)
        return work / (ns / 1e9) if ns else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {}
    for span, metric in {**SPAN_TIMES, **SUMMARY_SPAN_TIMES}.items():
        row = table.get(span, {"self_ms": 0.0, "calls": 0})
        metrics[metric] = (row["self_ms"], "ms")
        metrics[f"{span}.calls"] = (row["calls"], "count")
    metrics["profile.instr_per_s"] = (rate("profile", int), "1/s")
    metrics["golden.instr_per_s"] = (rate("golden", int), "1/s")
    metrics["schedule.instr_per_s"] = (rate("schedule", lambda i: i[0]), "1/s")

    static = traced.decided_by["static"] + traced.decided_by["static-specs"]
    metrics["static.decided_ratio"] = (
        ratio(static, static + traced.decided_by["dynamic"]), "ratio"
    )
    engine = [s[7] for s in by_name["engine"] if s[7] is not None]
    metrics["engine.useful_ratio"] = (
        ratio(sum(e[1] for e in engine), sum(e[0] for e in engine)), "ratio"
    )
    compiles = [s[7] for s in by_name["codegen.compile"] if s[7] is not None]
    hits = sum(c[1] for c in compiles)
    metrics["codegen.compiles"] = (sum(c[0] for c in compiles), "count")
    metrics["codegen.disk_hit_ratio"] = (
        ratio(hits, hits + sum(c[2] for c in compiles)), "ratio"
    )
    # Digest-first verification: a strict replay's comparison falls back
    # to snapshots_equal only when the content digests differ.
    strict = {s[0]: s[7][1] for s in by_name["schedule"] if s[7] and s[7][2]}
    compared = sum(1 for s in by_name["verify.compare"] if s[4] in strict)
    comparisons = sum(strict.values())
    metrics["verify.digest_hit_ratio"] = (
        1.0 - compared / comparisons if comparisons else 0.0, "ratio"
    )
    lookups = [s[7] for s in by_name["cache.lookup"]]
    metrics["cache.hit_ratio"] = (ratio(sum(map(bool, lookups)), len(lookups)), "ratio")
    return metrics


def stage_check(spans, traced) -> Dict[str, Dict[str, float]]:
    """Per-stage span totals beside the reports' own ``stage_times_ms``.

    Two timing paths measure the same stages; a gap above 10% is
    printed with both numbers.
    """
    import tracing

    spans_ms = tracing.stage_totals(spans)
    check = {}
    for stage, ms in sorted(traced.stage_ms.items()):
        timed = spans_ms.get(stage, 0.0)
        gap = abs(timed - ms) / ms if ms else 0.0
        check[stage] = {"spans_ms": timed, "report_ms": ms, "gap": gap}
        if gap > 0.10:
            print(
                f"stage {stage}: spans {timed:.1f} ms vs stage_times_ms "
                f"{ms:.1f} ms ({gap:.0%} apart)",
                file=sys.stderr,
            )
    return check


def traced_run(workload, rng, out_dir: str):
    """One pass untraced, then one pass traced (for serve, a fresh daemon
    hosted by tracing.py); the per-layer metrics come from the latter."""
    import tracing

    serve = workload.name == "serve-mixed"
    workload.setup()
    try:
        untraced = workload.run_pass(rng)
        if serve:
            workload.teardown()
            workload.traced = True
            workload.setup()
            before = _samples(workload.client.metrics())
            start = time.perf_counter_ns()
            traced = workload.run_pass(rng)
            end = time.perf_counter_ns()
            after = _samples(workload.client.metrics())
        else:
            tracer = tracing.Tracer().install()
            try:
                traced = workload.run_pass(rng, tracer)
            finally:
                tracer.uninstall()
    finally:
        workload.teardown()
    if serve:
        spans = [s for s in workload.spans if start <= s[2] and s[3] <= end]
        metrics = layer_metrics(spans, traced)
        metrics.update(_serve_layers(before, after, traced))
    else:
        spans = tracer.spans
        metrics = layer_metrics(spans, traced)
        metrics.update({name: (0.0, unit) for name, unit in SERVE_LAYERS.items()})
    metrics["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s - 1.0, "ratio")
    summary = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "spans": tracing.span_table(spans),
        "analyses": tracing.analysis_table(spans),
    }
    if not serve:
        summary["stage_check"] = stage_check(spans, traced)
    with open(os.path.join(out_dir, f"trace-{workload.name}.json"), "w") as fh:
        json.dump(tracing.chrome_trace(spans), fh)
    return [untraced, traced], metrics, summary


# -- comparison against committed layer summaries ------------------------------------


def layer_weights(workload_summary) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Layer time metric -> program -> (the layer's share of that
    program's analysis, its self time over the rest of the analysis)."""
    names = {**SPAN_TIMES, **SUMMARY_SPAN_TIMES}
    weights: Dict[str, Dict[str, Tuple[float, float]]] = defaultdict(dict)
    for analysis in workload_summary["analyses"]:
        program, self_ms = analysis["program"], analysis["self_ms"]
        total = sum(self_ms.values())
        for span, ms in self_ms.items():
            if program is not None and span in names and 0 < ms < total:
                weights[names[span]][program] = (ms / total, ms / (total - ms))
    return weights


def compare(summary, baselines: List[dict], workload: str) -> List[str]:
    """Layers whose time relative to the rest of the analysis rose
    beyond :data:`THRESHOLD_PCT` over the median of the baselines: the
    ``repro stats`` rule (latest vs median; obs/ledger.py) per layer.

    Relative, not milliseconds: a machine that runs uniformly slower
    flags no layer (the end-to-end metrics catch that), and a layer
    slowed by x% reads x% whatever its share.  Each program is compared
    with its own baselines and the median change over programs is
    taken, which drops bursts of machine noise that hit a few analyses.
    Layers under :data:`MIN_SHARE` of an analysis are not compared.
    """
    latest = layer_weights(summary)
    prior = [
        layer_weights(b["workloads"][workload])
        for b in baselines
        if workload in b.get("workloads", {})
    ]
    flagged = []
    for name, programs in sorted(latest.items()):
        shares, changes = [], []
        for program, (_share, weight) in programs.items():
            history = [p[name][program] for p in prior if program in p.get(name, {})]
            if history:
                shares.append(statistics.median(h[0] for h in history))
                changes.append(weight / statistics.median(h[1] for h in history) - 1)
        if not changes or statistics.median(shares) < MIN_SHARE:
            continue
        delta_pct = statistics.median(changes) * 100.0
        if delta_pct > THRESHOLD_PCT:
            flagged.append(
                f"{name}: +{delta_pct:.1f}% relative to the rest of the "
                f"analysis (median over {len(changes)} programs)"
            )
    return flagged


# -- entry points -------------------------------------------------------------------


def run_one(args) -> int:
    """One workload in this process; prints the result JSON line."""
    import workloads

    rng = random.Random(f"{args.workload}:{args.seed}")
    workdir = tempfile.mkdtemp(prefix="work-", dir=args.out)
    workload = workloads.make_workload(
        args.workload, args.seed, args.exec_backend, args.smoke, workdir
    )
    try:
        if args.trace:
            passes, metrics, summary = traced_run(workload, rng, args.out)
        elif args.smoke:
            passes, metrics = timed_run(workload, rng, 0, 1, 1)
        else:
            passes, metrics = timed_run(
                workload, rng, args.seconds, SETUP_REPEATS, MIN_PASSES
            )
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    wrong = [w for p in passes for w in p.wrong]
    for line in failures + wrong:
        print(f"{args.workload}: {line}", file=sys.stderr)
    status = 0 if not failures and not wrong else 1
    if args.trace:
        summary.update(seed=args.seed, machine=_machine())
        with open(os.path.join(args.out, f"layers-{args.workload}.json"), "w") as fh:
            json.dump({"workloads": {args.workload: summary}}, fh, indent=1, sort_keys=True)
        if args.compare:
            baselines = []
            for path in args.compare:
                with open(path) as fh:
                    baselines.append(json.load(fh))
            flagged = compare(summary, baselines, args.workload)
            for line in flagged:
                print(f"{args.workload}: regression {line}", file=sys.stderr)
            status = status or (1 if flagged else 0)
        names = per_layer_names()
    else:
        names = [(name, unit) for name, (_v, unit) in metrics.items()]
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(p.attempted for p in passes),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit} for name, unit in names
        },
    }))
    return status


def run_all(args) -> int:
    """Every workload, each in a fresh subprocess; prints a table and,
    with ``--trace 1``, merges the layer summaries into layers.json."""
    status = 0
    merged = {"machine": dict(_machine(), cpu=_cpu_model()), "workloads": {}}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--exec-backend", args.exec_backend,
            "--out", args.out,
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"== {name}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for metric, entry in result["metrics"].items():
            print(f"  {metric:28s} {entry['value']:16.4f} {entry['unit']}")
        status = status or proc.returncode
        if args.trace:
            with open(os.path.join(args.out, f"layers-{name}.json")) as fh:
                merged["workloads"].update(json.load(fh)["workloads"])
    if args.trace:
        with open(os.path.join(args.out, "layers.json"), "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
    return status


def _cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def write_goldens(args) -> int:
    """Regenerate goldens/bench_verdicts.json: one untimed pass of the
    two fixed-config suite workloads."""
    import workloads
    from repro.cache import AnalysisCache

    goldens = {}
    for name in ("suite-cold", "suite-warm"):
        config = workloads.suite_config(name, 0, args.exec_backend)
        with tempfile.TemporaryDirectory(dir=args.out) as tmp:
            cache = None
            if name == "suite-warm":
                cache = AnalysisCache(os.path.join(tmp, "cache"))
            runner = workloads.SuiteRunner(workloads.ALL_BENCHMARKS, config, cache)
            goldens[name] = {
                b.name: workloads.report_verdicts(runner.analyze(b))
                for b in runner.benchmarks
            }
            if cache is not None:
                cache.close()
    with open(workloads.GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, each in a "
                             "fresh subprocess)")
    parser.add_argument("--seed", type=int, default=0,
                        help="program order, replay-heavy schedule seed "
                             "and serve request mix")
    parser.add_argument("--seconds", type=float, default=10,
                        help="minimum measuring time of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--exec-backend", default="codegen",
                        choices=("interp", "compiled", "codegen"),
                        help="execution backend under measurement (only "
                             "codegen numbers are committed)")
    parser.add_argument("--compare", nargs="+", metavar="LAYERS_JSON",
                        help="with --trace 1: flag layers whose share of "
                             "the pass rose over these layer summaries")
    parser.add_argument("--smoke", action="store_true",
                        help="2 programs, 1 pass, 10 serve requests")
    parser.add_argument("--write-goldens", action="store_true",
                        help="regenerate goldens/bench_verdicts.json")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for traces, summaries and working files")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    _bootstrap()
    os.makedirs(args.out, exist_ok=True)
    if args.write_goldens:
        return write_goldens(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
