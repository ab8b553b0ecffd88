"""The analysis daemon: config resolution, HTTP surface, coalescing,
admission control, batch streaming, and the metrics endpoint.

Server-backed tests host the daemon on a background thread via
:func:`repro.serve.serving` with ``port=0`` (a free port per test) and a
temp-dir cache/ledger, so tests are hermetic and parallel-safe.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import AnalysisConfig, AnalysisSession
from repro.obs.export import parse_openmetrics
from repro.obs.ledger import RunLedger
from repro.serve import (
    AnalysisServer,
    ServeClient,
    ServeConfig,
    resolve_serve_config,
    serving,
)
from repro.settings import SETTINGS

SERVE_HOST_ENV = SETTINGS["serve_host"].env
SERVE_PORT_ENV = SETTINGS["serve_port"].env
SERVE_QUEUE_DEPTH_ENV = SETTINGS["serve_queue_depth"].env
SERVE_WORKERS_ENV = SETTINGS["serve_workers"].env
SERVE_PRIORITY_ENV = SETTINGS["serve_priority"].env

GOOD = """
func void main() {
  int[] a = new int[16];
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) { a[i] = i * 2; }
  for (int i = 0; i < 16; i = i + 1) { s += a[i]; }
  print(s);
}
"""

#: Big enough that the analysis is still in flight when concurrent
#: duplicate requests arrive — the coalescing tests depend on overlap.
SLOW = """
func void main() {
  int[] a = new int[2000];
  int s = 0;
  for (int i = 0; i < 2000; i = i + 1) { a[i] = i * 3; }
  for (int i = 0; i < 2000; i = i + 1) { s += a[i]; }
  for (int i = 0; i < 2000; i = i + 1) { a[i] = a[i] + s; }
  print(s);
}
"""

BROKEN = "func void main( {"


# ---------------------------------------------------------------------------
# resolve_serve_config: explicit flag > env var > default
# ---------------------------------------------------------------------------


class TestResolveServeConfig:
    def test_defaults(self):
        cfg = resolve_serve_config(environ={})
        assert cfg == ServeConfig() == ServeConfig(
            host="127.0.0.1",
            port=8421,
            queue_depth=64,
            workers=4,
            default_priority=10,
        )

    def test_env_beats_default(self):
        cfg = resolve_serve_config(
            environ={
                SERVE_HOST_ENV: "0.0.0.0",
                SERVE_PORT_ENV: "9000",
                SERVE_QUEUE_DEPTH_ENV: "7",
                SERVE_WORKERS_ENV: "2",
                SERVE_PRIORITY_ENV: "3",
            }
        )
        assert cfg.host == "0.0.0.0"
        assert cfg.port == 9000
        assert cfg.queue_depth == 7
        assert cfg.workers == 2
        assert cfg.default_priority == 3

    def test_explicit_beats_env(self):
        cfg = resolve_serve_config(
            host="10.0.0.1",
            port=1234,
            queue_depth=5,
            workers=1,
            default_priority=0,
            environ={
                SERVE_HOST_ENV: "0.0.0.0",
                SERVE_PORT_ENV: "9000",
                SERVE_QUEUE_DEPTH_ENV: "7",
                SERVE_WORKERS_ENV: "2",
                SERVE_PRIORITY_ENV: "3",
            },
        )
        assert cfg.host == "10.0.0.1"
        assert cfg.port == 1234
        assert cfg.queue_depth == 5
        assert cfg.workers == 1
        assert cfg.default_priority == 0

    def test_empty_env_value_means_default(self):
        cfg = resolve_serve_config(environ={SERVE_PORT_ENV: ""})
        assert cfg.port == 8421

    def test_non_integer_env_rejected(self):
        with pytest.raises(ValueError, match="REPRO_SERVE_PORT"):
            resolve_serve_config(environ={SERVE_PORT_ENV: "abc"})

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(workers=0)
        with pytest.raises(ValueError):
            ServeConfig(port=70000)


# ---------------------------------------------------------------------------
# Server fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def server(tmp_path):
    srv = AnalysisServer(
        ServeConfig(port=0, workers=2, queue_depth=8),
        base=AnalysisConfig(
            cache_dir=str(tmp_path / "cache"),
            ledger_dir=str(tmp_path / "ledger"),
        ),
    )
    with serving(srv):
        yield srv


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.port}")


# ---------------------------------------------------------------------------
# Basic HTTP surface
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_healthz(self, client, server):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_limit"] == 8
        assert health["workers"] == 2
        assert health["cache"] is True

    def test_analyze_round_trip(self, client):
        status, headers, data = client.analyze(GOOD, name="good.mc")
        assert status == 200
        assert data["kind"] == "analyze"
        report = data["report"]
        assert len(report["loops"]) == 2
        counts = report["verdict_counts"]
        assert counts.get("commutative", 0) + counts.get(
            "commutative-vacuous", 0
        ) == 2
        assert headers.get("X-Repro-Module-Digest") == data["module_digest"]

    def test_detect_round_trip(self, client):
        status, _, data = client.analyze(GOOD, kind="detect")
        assert status == 200
        assert data["kind"] == "detect"
        assert sorted(data["baselines"]) == [
            "dep-profiling", "discopop", "icc", "idioms", "polly",
        ]

    def test_detect_passes_entry_args(self, client):
        source = (
            "func int main(int n) {\n"
            "  int[] a = new int[n];\n"
            "  for (int i = 0; i < n; i = i + 1) { a[i] = i * 2; }\n"
            "  return a[n - 1];\n"
            "}\n"
        )
        status, _, data = client.request_json(
            "POST", "/v1/detect", {"source": source, "args": [8]}
        )
        assert status == 200, data
        assert data["kind"] == "detect"
        assert len(data["report"]["loops"]) == 1

    def test_parse_error_is_400(self, client):
        status, _, data = client.analyze(BROKEN)
        assert status == 400
        assert data["status"] == "parse-error"
        assert data["error"]

    def test_missing_source_is_400(self, client):
        status, _, data = client.request_json(
            "POST", "/v1/analyze", {"config": {}}
        )
        assert status == 400
        assert "source" in data["error"]

    def test_unknown_config_field_is_400(self, client):
        status, _, data = client.request_json(
            "POST",
            "/v1/analyze",
            {"source": GOOD, "config": {"backend": "process"}},
        )
        assert status == 400
        assert "backend" in data["error"]

    def test_unknown_endpoint_is_404(self, client):
        status, _, _ = client.request_json("GET", "/v2/nope")
        assert status == 404

    def test_get_on_analyze_is_405(self, client):
        status, _, _ = client.request_json("GET", "/v1/analyze")
        assert status == 405

    def test_malformed_json_body_is_400(self, client):
        status, _, data = client.request("POST", "/v1/analyze")
        assert status == 400

    def test_config_overrides_apply(self, client):
        status, _, data = client.analyze(
            GOOD, config={"static_filter": False}
        )
        assert status == 200
        assert data["report"]["static_filter"] is False

    def test_tiering_accepted_per_request(self, client):
        status, _, data = client.analyze(
            GOOD, config={"tiering": True, "max_pipeline_stages": 3}
        )
        assert status == 200
        report = data["report"]
        assert report["report_schema_version"] == 2
        assert sum(report["tier_counts"].values()) == len(report["loops"])
        for loop in report["loops"].values():
            assert loop["verdict"]["tier"] in (
                "DOALL", "REDUCTION", "PIPELINE", "SEQUENTIAL"
            )

    def test_untiered_request_keeps_schema_1(self, client):
        # Explicit off (the server may inherit REPRO_TIERING from its
        # environment, e.g. the tests-tiering CI job).
        status, _, data = client.analyze(GOOD, config={"tiering": False})
        assert status == 200
        report = data["report"]
        assert "report_schema_version" not in report
        assert "tier_counts" not in report
        for loop in report["loops"].values():
            assert isinstance(loop["verdict"], str)


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------


class TestCoalescing:
    def test_concurrent_duplicates_run_one_analysis(self, client, server):
        """K identical concurrent submissions -> one analysis, K-1
        coalesced joins, byte-identical bodies."""
        before = server.metrics.value("serve.analyses", 0)
        k = 4
        with ThreadPoolExecutor(k) as pool:
            results = list(
                pool.map(
                    lambda _: client.request(
                        "POST", "/v1/analyze", {"source": SLOW}
                    ),
                    range(k),
                )
            )
        assert [status for status, _, _ in results] == [200] * k
        bodies = {body for _, _, body in results}
        assert len(bodies) == 1, "coalesced responses must be byte-identical"
        coalesced = sum(
            1
            for _, headers, _ in results
            if headers.get("X-Repro-Coalesced") == "1"
        )
        analyses = server.metrics.value("serve.analyses", 0) - before
        assert analyses == 1
        assert coalesced == k - 1

    def test_same_module_from_other_source_joins_flight(
        self, client, server, monkeypatch
    ):
        """Two source texts that compile to one module digest: the later
        request dissolves its own flight into the earlier one, so one
        analysis runs and one response is a coalesced join."""
        before = server.metrics.value("serve.analyses", 0)
        joins = server.metrics.value("serve.coalesced", 0)
        execute = server._execute_job

        def held(job):
            # Hold the leader's analysis until the other request joined.
            deadline = time.monotonic() + 30
            while (
                server.metrics.value("serve.coalesced", 0) == joins
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            return execute(job)

        monkeypatch.setattr(server, "_execute_job", held)
        with ThreadPoolExecutor(2) as pool:
            results = list(
                pool.map(
                    lambda source: client.request(
                        "POST", "/v1/analyze", {"source": source}
                    ),
                    (GOOD, GOOD + "\n\n"),
                )
            )
        assert [status for status, _, _ in results] == [200, 200]
        assert len({body for _, _, body in results}) == 1
        coalesced = [h.get("X-Repro-Coalesced") for _, h, _ in results]
        assert coalesced.count("1") == 1
        assert server.metrics.value("serve.analyses", 0) - before == 1

    def test_different_configs_do_not_coalesce(self, client, server):
        before = server.metrics.value("serve.analyses", 0)
        with ThreadPoolExecutor(2) as pool:
            futs = [
                pool.submit(
                    client.analyze, SLOW, config={"schedule_seed": seed}
                )
                for seed in (1, 2)
            ]
            results = [f.result() for f in futs]
        assert [r[0] for r in results] == [200, 200]
        assert server.metrics.value("serve.analyses", 0) - before == 2

    def test_sequential_duplicates_hit_warm_cache(self, client, tmp_path):
        # static_filter off forces the dynamic stage, whose verdicts are
        # what the persistent cache stores.
        config = {"static_filter": False}
        first = client.analyze(GOOD, name="warm.mc", config=config)
        second = client.analyze(GOOD, name="warm.mc", config=config)
        assert first[0] == second[0] == 200
        # Not coalesced (no overlap): the second request replays from
        # the shared rw cache.  Everything except this run's stage wall
        # times reproduces the cold report exactly.
        a, b = first[2], second[2]
        a["report"]["metrics"].pop("stage_times_ms")
        b["report"]["metrics"].pop("stage_times_ms")
        assert a == b
        # The server's ledger rows carry per-request cache accounting.
        with RunLedger(str(tmp_path / "ledger")) as ledger:
            rows = [
                row for row in ledger.runs() if row["program"] == "warm.mc"
            ]
        assert len(rows) == 2
        assert any(row["cache_hits"] > 0 for row in rows)
        assert any(row["cache_misses"] > 0 for row in rows)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_overflow_yields_429_with_retry_after(self, tmp_path):
        srv = AnalysisServer(
            ServeConfig(port=0, workers=1, queue_depth=1),
            base=AnalysisConfig(cache_mode="off", ledger_dir="off"),
        )
        with serving(srv):
            client = ServeClient(f"http://127.0.0.1:{srv.port}")
            payloads = [
                {"source": SLOW.replace("2000", str(2000 + n))}
                for n in range(6)
            ]
            with ThreadPoolExecutor(len(payloads)) as pool:
                results = list(
                    pool.map(
                        lambda p: client.request("POST", "/v1/analyze", p),
                        payloads,
                    )
                )
            statuses = sorted(status for status, _, _ in results)
            assert 429 in statuses, statuses
            rejected = next(r for r in results if r[0] == 429)
            assert int(rejected[1]["Retry-After"]) >= 1
            body = json.loads(rejected[2])
            assert body["queue_limit"] == 1
            assert srv.metrics.value("serve.rejected", 0) >= 1

    def test_rejected_requests_do_not_leak_slots(self, tmp_path):
        srv = AnalysisServer(
            ServeConfig(port=0, workers=1, queue_depth=1),
            base=AnalysisConfig(cache_mode="off", ledger_dir="off"),
        )
        with serving(srv):
            client = ServeClient(f"http://127.0.0.1:{srv.port}")
            with ThreadPoolExecutor(4) as pool:
                list(
                    pool.map(
                        lambda n: client.request(
                            "POST",
                            "/v1/analyze",
                            {"source": SLOW.replace("2000", str(3000 + n))},
                        ),
                        range(4),
                    )
                )
            # Once everything drains, a fresh request must be admitted.
            status, _, _ = client.analyze(GOOD)
            assert status == 200
            assert client.healthz()["queue_depth"] == 0


# ---------------------------------------------------------------------------
# Batch streaming
# ---------------------------------------------------------------------------


class TestBatchEndpoint:
    def test_streams_results_and_summary(self, client):
        lines = list(
            client.batch(
                [
                    {"name": "good.mc", "source": GOOD},
                    {"name": "broken.mc", "source": BROKEN},
                ]
            )
        )
        assert [ln["type"] for ln in lines] == ["result", "result", "summary"]
        good, broken, summary = lines
        assert good["status"] == "ok"
        assert good["loops"] == 2
        assert broken["status"] == "parse-error"
        assert summary["programs"] == 2
        assert summary["ok"] == 1
        assert summary["failed"] == 1
        assert summary["status_counts"] == {"ok": 1, "parse-error": 1}

    def test_fail_fast_skips_rest(self, client):
        lines = list(
            client.batch(
                [
                    {"name": "broken.mc", "source": BROKEN},
                    {"name": "good.mc", "source": GOOD},
                ],
                fail_fast=True,
            )
        )
        assert lines[0]["status"] == "parse-error"
        assert lines[1]["status"] == "skipped"
        assert "broken.mc" in lines[1]["error"]
        assert lines[2]["status_counts"] == {"parse-error": 1, "skipped": 1}

    def test_reports_flag_includes_full_report(self, client):
        lines = list(
            client.batch([{"name": "g", "source": GOOD}], reports=True)
        )
        assert "verdict_counts" in lines[0]["report"]

    def test_empty_batch_is_400(self, client):
        status, _, data = client.request_json(
            "POST", "/v1/batch", {"programs": []}
        )
        assert status == 400


# ---------------------------------------------------------------------------
# Metrics endpoint
# ---------------------------------------------------------------------------


class TestMetricsEndpoint:
    def test_round_trips_through_strict_parser(self, client):
        client.analyze(GOOD)
        client.healthz()
        families = parse_openmetrics(client.metrics())
        assert "repro_serve_analyses" in families
        assert "repro_serve_queue_depth" in families
        # Endpoint counters collapse into one labeled family.
        requests = families["repro_serve_requests"]
        endpoints = {
            labels["endpoint"] for _, labels, _ in requests["samples"]
        }
        assert {"analyze", "healthz"} <= endpoints
        responses = families["repro_serve_responses"]
        codes = {labels["code"] for _, labels, _ in responses["samples"]}
        assert "200" in codes

    def test_content_type_is_openmetrics(self, client, server):
        status, headers, _ = client.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith(
            "application/openmetrics-text"
        )


# ---------------------------------------------------------------------------
# Ledger integration
# ---------------------------------------------------------------------------


class TestServeLedger:
    def test_each_served_request_lands_one_row(self, client, server, tmp_path):
        client.analyze(GOOD, name="ledgered.mc")
        client.analyze(GOOD, name="ledgered.mc", kind="detect")
        with RunLedger(str(tmp_path / "ledger")) as ledger:
            rows = ledger.runs()
        kinds = sorted(row["kind"] for row in rows)
        assert kinds == ["serve-analyze", "serve-detect"]
        assert all(row["program"] == "ledgered.mc" for row in rows)

    def test_tiered_row_matches_session_row(self, client, tmp_path):
        # A tiering-on served analysis stores the tier counts that a
        # session row for the same program stores, not {}.
        client.analyze(GOOD, name="tiered.mc", config={"tiering": True})
        session_ledger = str(tmp_path / "session-ledger")
        config = AnalysisConfig(
            tiering=True, cache_mode="off", ledger_dir=session_ledger
        )
        with AnalysisSession(config) as session:
            session.analyze(GOOD, source_path="tiered.mc")
        with RunLedger(str(tmp_path / "ledger")) as ledger:
            (served,) = ledger.runs(kind="serve-analyze")
        with RunLedger(session_ledger) as ledger:
            (local,) = ledger.runs(kind="analyze")
        assert served["tiers"] and served["tiers"] == local["tiers"]
        assert served["verdicts"] == local["verdicts"]


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_batch_server_flag(self, server, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "good.mc").write_text(GOOD)
        (tmp_path / "bad.mc").write_text(BROKEN)
        url = f"http://127.0.0.1:{server.port}"
        code = main(
            ["batch", str(tmp_path / "good.mc"), "--server", url,
             "--no-cache"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 ok" in out
        code = main(
            ["batch", str(tmp_path / "good.mc"), str(tmp_path / "bad.mc"),
             "--server", url]
        )
        assert code == 1

    def test_batch_server_jsonl(self, server, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "good.mc").write_text(GOOD)
        out_path = tmp_path / "out.jsonl"
        url = f"http://127.0.0.1:{server.port}"
        code = main(
            ["batch", str(tmp_path / "good.mc"), "--server", url,
             "--jsonl", str(out_path)]
        )
        assert code == 0
        lines = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
            if line
        ]
        assert len(lines) == 1
        assert lines[0]["status"] == "ok"

    def test_batch_server_forwards_request_config_flags(
        self, tmp_path, monkeypatch, capsys
    ):
        """Every per-request flag the user set reaches the daemon —
        tiering and the pipeline-stage bound included."""
        from repro.cli import main

        sent = []

        def fake_batch(self, programs, config=None, fail_fast=False):
            sent.append(config)
            yield {"type": "summary", "programs": 1, "ok": 1, "failed": 0}

        monkeypatch.setattr(ServeClient, "batch", fake_batch)
        (tmp_path / "good.mc").write_text(GOOD)
        code = main(
            ["batch", str(tmp_path / "good.mc"), "--server",
             "http://127.0.0.1:1", "--tiering", "--max-pipeline-stages", "3"]
        )
        assert code == 0
        assert sent == [
            {"entry": "main", "tiering": True, "max_pipeline_stages": 3}
        ]

    def test_batch_server_rejects_trace(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "good.mc").write_text(GOOD)
        code = main(
            ["batch", str(tmp_path / "good.mc"),
             "--server", "http://127.0.0.1:1",
             "--trace", str(tmp_path / "t.json")]
        )
        assert code == 2

    def test_serve_is_registered(self, capsys):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "1"]
        )
        assert args.port == 0
        assert args.workers == 1
        assert args.queue_depth is None


# ---------------------------------------------------------------------------
# Local batch fail-fast (the non-server satellite)
# ---------------------------------------------------------------------------


class TestLocalFailFast:
    def test_serial_fail_fast_skips_rest(self, tmp_path):
        from repro.batch import run_batch

        (tmp_path / "a_bad.mc").write_text(BROKEN)
        (tmp_path / "b_good.mc").write_text(GOOD)
        # Pinned serial: under REPRO_SCHEDULE_BACKEND=process both
        # programs are in flight before the first one fails.
        result = run_batch(
            AnalysisConfig(cache_mode="off", backend="serial"),
            paths=[str(tmp_path)],
            fail_fast=True,
        )
        assert [o.status for o in result.outcomes] == [
            "parse-error", "skipped",
        ]
        assert "a_bad.mc" in result.outcomes[1].error
        assert "skipped" in result.summary()

    def test_serial_all_ok_never_skips(self, tmp_path):
        from repro.batch import run_batch

        (tmp_path / "a.mc").write_text(GOOD)
        (tmp_path / "b.mc").write_text(GOOD)
        result = run_batch(
            AnalysisConfig(cache_mode="off"),
            paths=[str(tmp_path)],
            fail_fast=True,
        )
        assert [o.status for o in result.outcomes] == ["ok", "ok"]

    def test_pooled_fail_fast_records_skips(self, tmp_path):
        from repro.batch import run_batch

        (tmp_path / "a_bad.mc").write_text(BROKEN)
        for n in range(4):
            (tmp_path / f"g{n}.mc").write_text(GOOD)
        result = run_batch(
            AnalysisConfig(cache_mode="off", backend="process", jobs=2),
            paths=[str(tmp_path)],
            fail_fast=True,
        )
        counts = result.status_counts()
        assert counts.get("parse-error") == 1
        assert counts.get("skipped", 0) >= 1
        assert result.programs == 5

    def test_cli_fail_fast_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "a_bad.mc").write_text(BROKEN)
        (tmp_path / "b_good.mc").write_text(GOOD)
        code = main(
            ["batch", str(tmp_path), "--fail-fast", "--no-cache",
             "--backend", "serial"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "skipped" in out
