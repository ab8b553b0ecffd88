"""Command-line interface.

Usage::

    python -m repro run program.mc            # compile + execute
    python -m repro analyze program.mc        # DCA verdict per loop
    python -m repro detect program.mc         # DCA vs all five baselines
    python -m repro profile program.mc        # pipeline cost breakdown
    python -m repro batch DIR ...             # analyze a program corpus
    python -m repro cache stats               # persistent-cache admin
    python -m repro stats                     # cross-run ledger trends
    python -m repro lint program.mc           # static diagnostics only
    python -m repro ir program.mc             # dump the IR

Options: ``--entry NAME`` (default main), ``--arg VALUE`` (one entry
argument, a JSON scalar; repeat per parameter — a wrong count exits 2
with a one-line error), ``--rtol X``, ``--policy
strict|eventual``, ``--cores N`` (adds a simulated speedup to analyze),
``--json`` (machine-readable reports), ``--no-static-filter`` (disable
the static pre-screen and run every loop dynamically), ``--backend
serial|process`` / ``--jobs N`` (fan schedule executions out to worker
processes; ``--jobs N`` alone implies the process backend),
``--exec-backend interp|codegen`` (Python-source-compile executions
instead of tree-walking them, traced or not; env ``REPRO_EXEC_BACKEND``).

Flags always beat the matching ``REPRO_*`` environment variables (see
:mod:`repro.settings` for every variable and the precedence order).

Caching: ``analyze``/``detect``/``profile``/``batch`` accept ``--cache
DIR`` (persistent verdict cache; env ``REPRO_CACHE_DIR``), ``--no-cache``
and ``--cache-mode rw|ro|refresh|off``; ``repro cache
stats|clear|gc|verify`` administers a cache directory.

Observability: ``profile`` runs with full tracing and accepts ``--trace
out.json`` (Chrome trace-event JSON for ``chrome://tracing``),
``--metrics out.json`` and ``--events out.jsonl``; ``analyze``,
``detect`` and ``batch`` accept ``--trace out.json`` (enables tracing
for the run; ``batch`` merges per-program worker traces into one file,
one lane per program) and ``analyze``/``detect`` accept ``--profile``
(per-loop cost breakdown in text output).  ``profile --export
openmetrics|chrome-trace|jsonl`` emits the run's telemetry in a
machine-readable exposition instead of the human-readable tables
(``--export-out FILE`` redirects it to a file).

Trend tracking: ``analyze``/``detect``/``profile``/``batch`` accept
``--ledger DIR`` (append one summary row per run to a sqlite ledger;
env ``REPRO_LEDGER_DIR``; ``--no-ledger`` disables) and ``repro stats``
renders per-series trends against the rolling median, exiting 1 when a
series regressed beyond ``--threshold`` percent — wired for CI.

This module is a thin adapter over :mod:`repro.api`: every command
builds one :class:`~repro.api.AnalysisConfig` and drives an
:class:`~repro.api.AnalysisSession`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import List, Optional

from repro.driver import compile_program, run_program
from repro.interp.compiler import EXEC_BACKENDS
from repro.interp.values import EntryError
from repro.settings import SETTINGS, resolve


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def cmd_run(args: argparse.Namespace) -> int:
    result, out = run_program(
        _read(args.program),
        entry=args.entry,
        args=args.args,
        exec_backend=args.exec_backend,
    )
    sys.stdout.write(out)
    if result is not None:
        print(f"[exit value: {result}]")
    return 0


def _json_scalar(text: str):
    """One ``--arg`` value, read like an entry of a manifest's ``args``."""
    try:
        value = json.loads(text)
    except ValueError:
        value = []  # not JSON at all: rejected like a list
    if isinstance(value, (list, dict)):
        raise argparse.ArgumentTypeError(f"not a JSON scalar: {text!r}")
    return value


def cmd_ir(args: argparse.Namespace) -> int:
    from repro.ir.printer import format_module

    print(format_module(compile_program(_read(args.program))))
    return 0


def _hit_rate_line(report) -> str:
    hits, tested = report.static_hit_rate()
    if not report.static_filter:
        return "static pre-screen: disabled"
    if tested == 0:
        return "static pre-screen: no loops reached the testing stage"
    return (
        f"static pre-screen: decided {hits}/{tested} tested loops "
        f"({hits / tested:.0%}); {report.schedule_executions} schedule "
        "executions performed"
    )


def _obs_session(args: argparse.Namespace):
    """Enable observability when the command asked for a trace; returns
    the enabled context, or None when tracing was not requested."""
    if not getattr(args, "trace", None):
        return None
    import repro.obs as obs

    return obs.enable()


def _obs_finish(args: argparse.Namespace, ctx) -> None:
    """Write the requested trace file and restore the disabled context."""
    if ctx is None:
        return
    import repro.obs as obs

    _write_json(args.trace, ctx.tracer.to_chrome_trace())
    print(f"trace written to {args.trace}", file=sys.stderr)
    obs.disable()


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)


def _config_from_args(args: argparse.Namespace):
    """Build the session config from parsed flags — the only place the
    CLI surface maps onto :class:`repro.api.AnalysisConfig`.  Each
    analysis flag's dest is the config field it sets; flags left unset
    (None) take the config's defaults."""
    from repro.api import AnalysisConfig

    fields = {field.name for field in dataclasses.fields(AnalysisConfig)}
    return AnalysisConfig(**{
        name: value for name, value in vars(args).items()
        if name in fields and value is not None
    })


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import AnalysisSession

    ctx = _obs_session(args)
    try:
        with AnalysisSession(_config_from_args(args)) as session:
            report = session.analyze(
                _read(args.program), source_path=args.program
            )
    finally:
        _obs_finish(args, ctx)
    if args.json:
        print(report.to_json())
        return 0
    print(report.summary())
    commutative = report.commutative_labels()
    print(f"\n{len(commutative)}/{len(report.results)} loops commutative")
    if report.tiering:
        tiers = report.tier_counts()
        rendered = " ".join(
            f"{tier}={tiers[tier]}" for tier in sorted(tiers)
        )
        print(f"tiers: {rendered or '-'}")
    print(_hit_rate_line(report))
    print(report.cost_summary())
    if args.profile:
        print()
        print(report.cost_table())

    pipeline_plans = {
        label: result.pipeline_plan
        for label, result in report.results.items()
        if result.pipeline_plan is not None
    }
    candidates = commutative + sorted(pipeline_plans)
    if args.cores and candidates:
        from repro.parallel import MachineModel, ParallelSimulator

        sim = ParallelSimulator(
            compile_program(_read(args.program)),
            entry=args.entry,
            args=args.args,
            model=MachineModel(cores=args.cores),
        )
        speedup = sim.simulate(
            candidates, pipeline_plans=pipeline_plans or None
        )
        print(f"\nSimulated on {args.cores} cores:")
        print(speedup.summary())
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from repro.api import AnalysisSession

    obs_ctx = _obs_session(args)
    try:
        with AnalysisSession(_config_from_args(args)) as session:
            outcome = session.detect(
                _read(args.program), source_path=args.program
            )
    finally:
        _obs_finish(args, obs_ctx)
    report = outcome.report
    names = outcome.detector_names

    if args.json:
        print(
            json.dumps(
                {
                    "dca": report.to_dict(),
                    "baselines": outcome.baseline_verdicts(),
                    "costs": outcome.costs,
                },
                indent=2,
            )
        )
        return 0

    header = f"{'loop':14s}" + "".join(f"{name[:8]:>10s}" for name in names)
    header += f"{'DCA':>20s}"
    print(header)
    print("-" * len(header))
    for label in sorted(report.results):
        row = f"{label:14s}"
        for name in names:
            res = outcome.baselines[name].get(label)
            row += f"{'yes' if res and res.parallel else '-':>10s}"
        row += f"{report.results[label].verdict:>20s}"
        print(row)
    print(_hit_rate_line(report))
    profile_cost = outcome.costs.get("profile", {})
    print(
        f"cost: DCA {report.executions} executions / "
        f"{report.interp_instructions} instrs; profiled baselines "
        f"{int(profile_cost.get('executions', 0))} execution / "
        f"{int(profile_cost.get('instructions', 0))} instrs"
    )
    if args.profile:
        for name in sorted(outcome.costs):
            if name == "profile":
                continue
            cost = outcome.costs[name]
            print(
                f"  {name:14s} {cost['wall_ms']:8.2f} ms  "
                f"{int(cost['parallel'])}/{int(cost['loops'])} loops parallel"
            )
        print()
        print(report.cost_table())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.api import AnalysisSession

    try:
        with AnalysisSession(_config_from_args(args)) as session:
            report, ctx = session.profile(
                _read(args.program), source_path=args.program
            )
        if args.export:
            text = obs.render_export(ctx, args.export)
            if args.export_out:
                with open(args.export_out, "w") as handle:
                    handle.write(text)
                print(
                    f"{args.export} export written to {args.export_out}",
                    file=sys.stderr,
                )
            else:
                sys.stdout.write(text)
        else:
            print(f"== pipeline profile: {args.program} ==")
            print(report.cost_summary())
            print(_hit_rate_line(report))
            print()
            print(report.cost_table())
            print()
            print("== flame (wall time by span path) ==")
            print(ctx.tracer.flame_summary())
        if args.trace:
            _write_json(args.trace, ctx.tracer.to_chrome_trace())
            print(f"\ntrace written to {args.trace} (load in chrome://tracing)")
        if args.metrics:
            _write_json(
                args.metrics,
                {
                    "program": args.program,
                    "registry": ctx.metrics.to_dict(),
                    "report": report.metrics_dict(),
                },
            )
            print(f"metrics written to {args.metrics}")
        if args.events:
            with open(args.events, "w") as handle:
                jsonl = ctx.events.to_jsonl()
                handle.write(jsonl + "\n" if jsonl else "")
            print(f"events written to {args.events}")
    finally:
        obs.disable()
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    import repro.obs as obs
    from repro.api import AnalysisSession
    from repro.batch import STATUS_OK

    if not args.paths and not args.manifest:
        print("batch: no programs (pass paths and/or --manifest)",
              file=sys.stderr)
        return 2
    if args.server:
        if args.trace:
            print("batch: --trace is not supported with --server",
                  file=sys.stderr)
            return 2
        return _batch_via_server(args)
    config = _config_from_args(args)
    ctx = None
    if args.trace:
        ctx = obs.enable()
    jsonl_handle = open(args.jsonl, "w") if args.jsonl else None

    def stream(outcome) -> None:
        if jsonl_handle is not None:
            jsonl_handle.write(json.dumps(outcome.to_dict()) + "\n")
            jsonl_handle.flush()
        if not args.json:
            if outcome.status == STATUS_OK:
                print(
                    f"  ok           {outcome.path} ({outcome.loops} loops, "
                    f"{outcome.commutative} commutative)"
                )
            else:
                print(f"  {outcome.status:12s} {outcome.path}: {outcome.error}")

    try:
        with AnalysisSession(config) as session:
            result = session.batch(
                paths=args.paths,
                manifest=args.manifest,
                on_result=stream,
                fail_fast=args.fail_fast,
            )
    finally:
        if jsonl_handle is not None:
            jsonl_handle.close()
        if ctx is not None:
            _write_json(args.trace, ctx.tracer.to_chrome_trace())
            print(f"trace written to {args.trace}", file=sys.stderr)
            obs.disable()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
        if jsonl_handle is not None:
            print(f"per-program results written to {args.jsonl}")
    ok = result.status_counts().get(STATUS_OK, 0)
    return 0 if ok == result.programs else 1


def _batch_via_server(args: argparse.Namespace) -> int:
    """``repro batch --server URL``: thin client over a running daemon.

    The server owns backend/cache/ledger policy; the client ships only
    program sources plus the per-request config fields.  Exit codes
    match the local path: 0 all ok, 1 any failure/skip, 2 usage error.
    """
    from repro.batch import discover_programs, load_manifest
    from repro.serve import REQUEST_CONFIG_FIELDS, ServeClient

    specs = discover_programs(args.paths)
    if args.manifest:
        specs.extend(load_manifest(args.manifest))
    if not specs:
        print("batch: empty corpus: no programs found", file=sys.stderr)
        return 2
    programs = []
    for spec in specs:
        with open(spec.path, "r", encoding="utf-8") as fh:
            entry = {"name": spec.path, "source": fh.read()}
        if spec.entry is not None:
            entry["entry"] = spec.entry
        if spec.args is not None:
            entry["args"] = list(spec.args)
        programs.append(entry)
    # Forward every per-request field the user set; the rest take the
    # server's defaults.
    config = {
        name: value for name, value in vars(args).items()
        if name in REQUEST_CONFIG_FIELDS and value is not None
    }

    client = ServeClient(args.server)
    jsonl_handle = open(args.jsonl, "w") if args.jsonl else None
    summary = None
    try:
        for line in client.batch(
            programs, config=config, fail_fast=args.fail_fast
        ):
            if line.get("type") == "summary":
                summary = line
                continue
            if jsonl_handle is not None:
                jsonl_handle.write(json.dumps(line) + "\n")
                jsonl_handle.flush()
            if not args.json:
                if line.get("status") == "ok":
                    print(
                        f"  ok           {line.get('name')} "
                        f"({line.get('loops')} loops, "
                        f"{line.get('commutative')} commutative)"
                    )
                else:
                    print(
                        f"  {line.get('status', 'error'):12s} "
                        f"{line.get('name')}: {line.get('error', '')}"
                    )
    finally:
        if jsonl_handle is not None:
            jsonl_handle.close()
    if summary is None:
        print("batch: server stream ended without a summary",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"Batch {summary.get('programs', len(programs))} programs via "
            f"{args.server}: {summary.get('ok', 0)} ok, "
            f"{summary.get('failed', 0)} failed"
        )
        if args.jsonl:
            print(f"per-program results written to {args.jsonl}")
    return 0 if summary.get("failed", 0) == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import AnalysisServer, resolve_serve_config

    serve_config = resolve_serve_config(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        workers=args.workers,
        default_priority=args.priority,
    )
    server = AnalysisServer(serve_config, base=_config_from_args(args))
    print(
        f"repro serve on http://{serve_config.host}:{serve_config.port} "
        f"({serve_config.workers} workers, "
        f"queue depth {serve_config.queue_depth})",
        file=sys.stderr,
    )
    try:
        server.run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import AnalysisCache

    directory = resolve("cache_dir", args.cache)
    if directory is None:
        print(
            "cache: no directory (pass --cache DIR or set "
            f"{SETTINGS['cache_dir'].env})",
            file=sys.stderr,
        )
        return 2
    with AnalysisCache(directory, mode="ro" if args.cache_command == "stats"
                       else "rw") as cache:
        if args.cache_command == "stats":
            stats = cache.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
                return 0
            print(f"cache at {stats['path']}")
            print(
                f"  {stats['entries']} entries over {stats['modules']} "
                f"modules / {stats['fingerprints']} configs, "
                f"{stats['profiles']} profiles ({stats['size_bytes']} bytes)"
            )
            print(
                f"  {stats['total_hits']} lifetime hits; "
                f"{stats['verifiable_modules']} modules verifiable; "
                f"semantics v{stats['semantics_version']} "
                f"({stats['semantics_purges']} purges)"
            )
            rate = stats.get("lifetime_hit_rate")
            print(
                f"  traffic: {stats['lifetime_lookups']} lookups "
                f"({stats['lifetime_hits']} hits / "
                f"{stats['lifetime_misses']} misses"
                + (f", {rate:.0%} hit rate" if rate is not None else "")
                + f"); {stats['lifetime_invalidations']} invalidations, "
                f"{stats['lifetime_stores']} stores"
            )
            return 0
        if args.cache_command == "clear":
            removed = cache.clear()
            print(f"cleared {removed} entries")
            return 0
        if args.cache_command == "gc":
            result = cache.gc(
                max_age_days=args.max_age_days, max_entries=args.max_entries
            )
            if args.json:
                print(json.dumps(result, indent=2))
            else:
                print(
                    f"gc: removed {result['removed_age']} by age, "
                    f"{result['removed_lru']} by LRU cap, "
                    f"{result['removed_profiles']} profiles; "
                    f"{result['remaining']} entries remain"
                )
            return 0
        # verify: re-execute a sample of cached loops and cross-check.
        result = cache.verify(sample=args.sample, seed=args.seed)
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            profiles = result["profiles"]
            print(
                f"verify: {result['ok']}/{result['checked']} sampled "
                f"entries and {profiles['ok']}/{profiles['checked']} "
                f"profiles match ({len(result['unverifiable'])} "
                "unverifiable)"
            )
            for mismatch in result["mismatches"]:
                print(
                    f"  MISMATCH {mismatch.get('loop', 'profile')} "
                    f"(module {mismatch['module'][:12]}...): "
                    f"{sorted(mismatch['diffs'])}"
                )
        return 1 if result["mismatches"] else 0


def cmd_stats(args: argparse.Namespace) -> int:
    import repro.obs as obs

    directory = resolve("ledger_dir", args.ledger)
    if directory is None:
        print(
            "stats: no ledger (pass --ledger DIR or set "
            f"{SETTINGS['ledger_dir'].env})",
            file=sys.stderr,
        )
        return 2
    with obs.RunLedger(directory) as ledger:
        trends = ledger.trends(window=args.window)
        regressions = ledger.check_regressions(
            threshold_pct=args.threshold, window=args.window
        )
    if args.json:
        print(json.dumps(
            {"trends": trends, "regressions": regressions}, indent=2
        ))
        return 1 if regressions else 0
    if not trends:
        print(f"ledger at {directory}: no runs recorded yet")
        return 0
    print(f"ledger at {directory}: {len(trends)} series")
    header = (
        f"  {'kind':8s} {'program':32s} {'runs':>5s} {'wall ms':>9s} "
        f"{'vs median':>10s} {'saved':>6s} {'hit rate':>9s} tiers"
    )
    print(header)
    print("  " + "-" * (len(header) - 2))
    for trend in trends:
        program = trend["program"]
        if len(program) > 32:
            program = "..." + program[-29:]
        wall_delta = trend["wall_ms_delta_pct"]
        delta = f"{wall_delta:+.1f}%" if wall_delta is not None else "-"
        rate = trend["latest_cache_hit_rate"]
        rate_col = f"{rate:>9.0%}" if rate is not None else f"{'-':>9s}"
        tiers = trend.get("latest_tiers") or {}
        tier_col = (
            " ".join(f"{t}={tiers[t]}" for t in sorted(tiers))
            if tiers
            else "-"
        )
        print(
            f"  {trend['kind']:8s} {program:32s} {trend['runs']:>5d} "
            f"{trend['latest_wall_ms']:>9.2f} {delta:>10s} "
            f"{trend['latest_executions_saved']:>6d} {rate_col} {tier_col}"
        )
    if regressions:
        print()
        for reg in regressions:
            for reason in reg["reasons"]:
                print(f"  REGRESSION {reg['kind']} {reg['program']}: {reason}")
        print(f"\n{len(regressions)} regression(s) vs rolling median "
              f"(threshold {args.threshold:.0f}%, window {args.window})")
        return 1
    print(f"\nno regressions vs rolling median "
          f"(threshold {args.threshold:.0f}%, window {args.window})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.commutativity import (
        PROVEN_COMMUTATIVE,
        StaticCommutativityAnalysis,
    )
    from repro.analysis.diagnostics import Diagnostic, DiagnosticEngine
    from repro.analysis.specs import check_annotations, default_registry

    module = compile_program(_read(args.program))
    registry = default_registry() if resolve("specs", args.specs) else None
    verdicts = StaticCommutativityAnalysis(module, specs=registry).analyze()
    engine = DiagnosticEngine(program=args.program)
    engine.ingest_static(verdicts.values())

    # `commutative` annotations are linted unconditionally: an unsound
    # declaration is an error even when specs are not active, because the
    # next run with REPRO_SPECS=1 would trust it.
    unsound = 0
    for name, report in sorted(check_annotations(module).items()):
        if report.ok:
            engine.add(Diagnostic(
                severity="info", code="DCA-SPEC",
                function=name, loop="-", line=0,
                message=(f"commutative annotation validated as "
                         f"{report.kind}: {report.reason}"),
            ))
        else:
            unsound += 1
            engine.add(Diagnostic(
                severity="warning", code="DCA-SPEC-UNSOUND",
                function=name, loop="-", line=0,
                message=f"unsound commutative annotation: {report.reason}",
            ))

    # Suggestions: re-prove with every self-linked struct in the module
    # declared order-insensitive; loops that flip to proven-commutative
    # only need a declaration, not a rewrite.
    base = registry if registry is not None else default_registry()
    widened = base.extended_with_module_chains(module)
    if widened.digest() != base.digest():
        wide_verdicts = StaticCommutativityAnalysis(
            module, specs=widened
        ).analyze()
        for label, verdict in verdicts.items():
            wide = wide_verdicts.get(label)
            if (verdict.verdict != PROVEN_COMMUTATIVE
                    and wide is not None
                    and wide.verdict == PROVEN_COMMUTATIVE
                    and wide.used_specs):
                engine.add(Diagnostic(
                    severity="note", code="DCA-SPEC-SUGGEST",
                    function=verdict.function, loop=label,
                    line=verdict.line,
                    message=("would be provably commutative if its "
                             "container were declared order-insensitive"),
                    evidence=[e for e in wide.evidence
                              if e.kind.startswith("spec-")],
                ))

    if args.json:
        print(engine.render_json())
    else:
        print(engine.render_text())
    return 1 if unsound else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.sccdag import DEFAULT_MAX_PIPELINE_STAGES
    from repro.obs import EXPORT_FORMATS

    def env(name: str) -> str:
        return SETTINGS[name].env

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dynamic Commutativity Analysis (CGO 2021) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("program", help="MiniC source file")
        p.add_argument("--entry", default="main")

    def arg_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--arg", action="append", type=_json_scalar,
                       dest="args", metavar="VALUE",
                       help="an argument of the entry function, as a JSON "
                            "scalar (repeat in parameter order)")

    def policy_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--policy", choices=("strict", "eventual"),
                       default=None, dest="liveout_policy")

    def exec_backend_flag(p: argparse.ArgumentParser) -> None:
        # Choices derive from the backend registry so a new backend is
        # reachable from the flag the moment it exists — the explicit
        # flag must never accept less than REPRO_EXEC_BACKEND does.
        p.add_argument("--exec-backend", choices=EXEC_BACKENDS,
                       default=None, dest="exec_backend",
                       help="execution backend: tree-walking "
                            "interpreter or Python-source codegen; "
                            "traced runs use it too (default: "
                            f"{SETTINGS['exec_backend'].default}, or "
                            f"{env('exec_backend')})")

    def specs_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--specs", action="store_const", const=True,
                       dest="specs", default=None,
                       help="verify modulo declared commutativity specs "
                            "(order-insensitive containers, monoid "
                            f"accumulators; default: off, or {env('specs')})")
        p.add_argument("--no-specs", action="store_const", const=False,
                       dest="specs",
                       help="force byte-exact verification even when "
                            f"{env('specs')} is set")

    def analysis_flags(p: argparse.ArgumentParser) -> None:
        """Flags shared by analyze/detect/profile/batch/serve.  Every
        default is None: :class:`repro.api.AnalysisConfig` owns them."""
        p.add_argument("--rtol", type=float, default=None)
        p.add_argument("--no-static-filter", action="store_false",
                       dest="static_filter", default=None,
                       help="disable the static pre-screen")
        # Schedule and execution engines.
        p.add_argument("--backend", default=None,
                       choices=SETTINGS["schedule_backend"].choices,
                       help="schedule-execution backend (default: serial, or "
                            f"{env('schedule_backend')}; --jobs N implies "
                            "process)")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the process backend "
                            f"(default: all cores, or {env('schedule_jobs')})")
        exec_backend_flag(p)
        specs_flags(p)
        # Parallelization tiering.
        p.add_argument("--tiering", action="store_const", const=True,
                       dest="tiering", default=None,
                       help="classify every loop into a parallelization "
                            "tier (DOALL/REDUCTION/PIPELINE/SEQUENTIAL) "
                            "and emit schema-2 reports (default: off, or "
                            f"{env('tiering')})")
        p.add_argument("--no-tiering", action="store_const", const=False,
                       dest="tiering",
                       help=f"force tiering off even when {env('tiering')} "
                            "is set")
        p.add_argument("--max-pipeline-stages", type=int, default=None,
                       dest="max_pipeline_stages", metavar="K",
                       help="upper bound on DSWP pipeline stages per "
                            f"loop (default: {DEFAULT_MAX_PIPELINE_STAGES})")
        # Persistent cache.
        p.add_argument("--cache", metavar="DIR", default=None,
                       dest="cache_dir",
                       help="persistent verdict cache directory "
                            f"(default: {env('cache_dir')}, else disabled)")
        p.add_argument("--cache-mode", choices=("rw", "ro", "refresh", "off"),
                       default=None, dest="cache_mode",
                       help="rw reads+writes, ro never writes, refresh "
                            "recomputes and overwrites, off disables")
        p.add_argument("--no-cache", action="store_const", const="off",
                       dest="cache_mode",
                       help="shorthand for --cache-mode off")
        # Run ledger.
        p.add_argument("--ledger", metavar="DIR", default=None,
                       dest="ledger_dir",
                       help="run-ledger directory for cross-run trend "
                            f"tracking (default: {env('ledger_dir')}, else "
                            "disabled)")
        p.add_argument("--no-ledger", action="store_const", const="off",
                       dest="ledger_dir",
                       help="disable run recording even when "
                            f"{env('ledger_dir')} is set")

    p_run = sub.add_parser("run", help="compile and execute a program")
    common(p_run)
    arg_flag(p_run)
    exec_backend_flag(p_run)
    p_run.set_defaults(func=cmd_run)

    p_ir = sub.add_parser("ir", help="dump the compiled IR")
    common(p_ir)
    p_ir.set_defaults(func=cmd_ir)

    p_an = sub.add_parser("analyze", help="run DCA on every loop")
    common(p_an)
    arg_flag(p_an)
    policy_flag(p_an)
    p_an.add_argument("--cores", type=int, default=0,
                      help="also simulate parallel speedup on N cores")
    p_an.add_argument("--json", action="store_true",
                      help="emit the report as JSON")
    p_an.add_argument("--profile", action="store_true",
                      help="include the per-loop cost breakdown table")
    p_an.add_argument("--trace", metavar="FILE",
                      help="enable tracing; write Chrome trace-event JSON")
    analysis_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_det = sub.add_parser("detect", help="DCA vs the five baseline detectors")
    common(p_det)
    arg_flag(p_det)
    p_det.add_argument("--json", action="store_true",
                       help="emit DCA + baseline verdicts as JSON")
    p_det.add_argument("--profile", action="store_true",
                       help="include per-detector and per-loop cost detail")
    p_det.add_argument("--trace", metavar="FILE",
                       help="enable tracing; write Chrome trace-event JSON")
    analysis_flags(p_det)
    p_det.set_defaults(func=cmd_detect)

    p_prof = sub.add_parser(
        "profile",
        help="run DCA with full observability and report pipeline cost",
    )
    common(p_prof)
    arg_flag(p_prof)
    policy_flag(p_prof)
    p_prof.add_argument("--trace", metavar="FILE",
                        help="write Chrome trace-event JSON "
                             "(load in chrome://tracing)")
    p_prof.add_argument("--metrics", metavar="FILE",
                        help="write the metrics registry as JSON")
    p_prof.add_argument("--events", metavar="FILE",
                        help="write the structured event log as JSONL")
    p_prof.add_argument("--export", choices=EXPORT_FORMATS, default=None,
                        help="emit the run's telemetry in the given format "
                             "instead of the human-readable profile "
                             "(openmetrics: Prometheus text exposition; "
                             "chrome-trace: trace-event JSON; jsonl: one "
                             "typed record per line)")
    p_prof.add_argument("--export-out", metavar="FILE", default=None,
                        dest="export_out",
                        help="write the --export payload to FILE instead "
                             "of stdout")
    analysis_flags(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_batch = sub.add_parser(
        "batch",
        help="analyze a corpus of programs (files, directories, manifest)",
        epilog="exit codes: 0 every program analyzed ok; 1 any program "
               "failed (parse-error, fault, worker-lost) or was skipped "
               "by --fail-fast; 2 usage error (no programs, or flags "
               "that cannot be combined).",
    )
    p_batch.add_argument("paths", nargs="*",
                         help="program files and/or directories of *.mc")
    p_batch.add_argument("--manifest", metavar="FILE",
                         help="JSON/JSONL corpus manifest (path strings or "
                              "{path, entry, args} objects)")
    p_batch.add_argument("--entry", default="main")
    policy_flag(p_batch)
    p_batch.add_argument("--json", action="store_true",
                         help="emit the aggregate corpus report as JSON")
    p_batch.add_argument("--jsonl", metavar="FILE",
                         help="stream one JSON line per program as each "
                              "completes")
    p_batch.add_argument("--trace", metavar="FILE",
                         help="enable tracing; merge per-program worker "
                              "traces into one Chrome trace (one lane per "
                              "program)")
    p_batch.add_argument("--fail-fast", action="store_true", dest="fail_fast",
                         help="stop submitting after the first failed "
                              "program; remaining programs are recorded "
                              "as skipped (exit code 1)")
    p_batch.add_argument("--server", metavar="URL", default=None,
                         help="submit the corpus to a running `repro serve` "
                              "daemon instead of analyzing locally "
                              "(e.g. http://127.0.0.1:8421)")
    analysis_flags(p_batch)
    p_batch.set_defaults(func=cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived analysis daemon: HTTP/JSON over a warm engine "
             "pool and shared cache",
    )

    def serve_flag(flag: str, name: str, what: str, **kwargs) -> None:
        row = SETTINGS[name]
        p_serve.add_argument(
            flag, default=None,
            help=f"{what} (default: {row.default}, or {row.env})", **kwargs
        )

    serve_flag("--host", "serve_host", "bind address")
    serve_flag("--port", "serve_port",
               "TCP port; 0 picks a free one", type=int)
    serve_flag("--queue-depth", "serve_queue_depth",
               "admission bound: max queued+running requests before 429",
               type=int, dest="queue_depth")
    serve_flag("--workers", "serve_workers",
               "concurrent analysis worker threads", type=int)
    serve_flag("--priority", "serve_priority",
               "default request priority; lower runs sooner", type=int)
    p_serve.add_argument("--entry", default="main")
    policy_flag(p_serve)
    analysis_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_cache = sub.add_parser(
        "cache", help="administer the persistent analysis cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    def cache_dir_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache", metavar="DIR", default=None,
                       help=f"cache directory (default: {env('cache_dir')})")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p_cstats = cache_sub.add_parser("stats", help="show cache contents")
    cache_dir_flag(p_cstats)
    p_cclear = cache_sub.add_parser("clear", help="drop every cached verdict")
    cache_dir_flag(p_cclear)
    p_cgc = cache_sub.add_parser(
        "gc", help="expire old entries and cap the store size"
    )
    cache_dir_flag(p_cgc)
    p_cgc.add_argument("--max-age-days", type=float, default=None, metavar="D",
                       help="drop entries unused for more than D days")
    p_cgc.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="keep at most N entries (LRU eviction)")
    p_cverify = cache_sub.add_parser(
        "verify",
        help="re-execute a sample of cached loops and cross-check digests",
    )
    cache_dir_flag(p_cverify)
    p_cverify.add_argument("--sample", type=int, default=10, metavar="N",
                           help="number of cached entries to re-execute")
    p_cverify.add_argument("--seed", type=int, default=0, metavar="S",
                           help="sampling seed")
    p_cache.set_defaults(func=cmd_cache)

    p_stats = sub.add_parser(
        "stats",
        help="cross-run trends and regression checks from the run ledger",
    )
    p_stats.add_argument("--ledger", metavar="DIR", default=None,
                         help="run-ledger directory "
                              f"(default: {env('ledger_dir')})")
    p_stats.add_argument("--json", action="store_true",
                         help="emit trends and regressions as JSON")
    p_stats.add_argument("--threshold", type=float, default=20.0,
                         metavar="PCT",
                         help="regression threshold as a percentage vs the "
                              "rolling median (default: 20)")
    p_stats.add_argument("--window", type=int, default=10, metavar="N",
                         help="rolling-median window of prior runs per "
                              "series (default: 10)")
    p_stats.set_defaults(func=cmd_stats)

    p_lint = sub.add_parser(
        "lint", help="static commutativity diagnostics (no execution)"
    )
    common(p_lint)
    p_lint.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")
    specs_flags(p_lint)
    p_lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EntryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
