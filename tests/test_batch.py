"""Batch corpus driver: discovery, containment, aggregation, CLI.

Failure containment is the core contract under test: a corpus where one
program fails to parse and another faults at runtime must still produce
an outcome for every program — recorded statuses, never exceptions —
on both the serial path and the process-pool fan-out.
"""

import json
import os

import pytest

import repro.batch as batch
import repro.obs as obs
from repro.api import AnalysisConfig, AnalysisSession
from repro.batch import (
    STATUS_FAULT,
    STATUS_OK,
    STATUS_PARSE_ERROR,
    STATUS_WORKER_LOST,
    discover_programs,
    load_manifest,
    run_batch,
)
from repro.cli import main
from repro.core.schedule_engine import shutdown_shared_pools

GOOD = """
func void main() {
  int[] a = new int[16];
  int s = 0;
  for (int i = 0; i < 16; i = i + 1) { a[i] = i * 2; }
  for (int i = 0; i < 16; i = i + 1) { s += a[i]; }
  print(s);
}
"""

BROKEN = "func void main( {"

FAULTY = """
func void main() {
  int[] a = new int[4];
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { s += a[i]; }
  print(s);
}
"""


@pytest.fixture
def corpus(tmp_path):
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "a_good.mc").write_text(GOOD)
    (directory / "b_broken.mc").write_text(BROKEN)
    (directory / "c_faulty.mc").write_text(FAULTY)
    (directory / "notes.txt").write_text("not a program")
    return directory


def _config(**kwargs):
    defaults = dict(cache_mode="off")
    defaults.update(kwargs)
    return AnalysisConfig(**defaults)


# ---------------------------------------------------------------------------
# Discovery and manifests
# ---------------------------------------------------------------------------


def test_discover_scans_directories_sorted(corpus, tmp_path):
    extra = tmp_path / "solo.mc"
    extra.write_text(GOOD)
    specs = discover_programs([str(corpus), str(extra)])
    assert [s.path.rsplit("/", 1)[-1] for s in specs] == [
        "a_good.mc", "b_broken.mc", "c_faulty.mc", "solo.mc",
    ]


def test_discover_rejects_missing_path(tmp_path):
    with pytest.raises(FileNotFoundError):
        discover_programs([str(tmp_path / "nope.mc")])


def test_manifest_json_array(tmp_path):
    (tmp_path / "p.mc").write_text(GOOD)
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps(["p.mc"]))
    specs = load_manifest(str(manifest))
    # Relative manifest paths resolve against the manifest's directory.
    assert specs[0].path == str(tmp_path / "p.mc")


def test_manifest_object_entries_override_config(tmp_path):
    manifest = tmp_path / "corpus.json"
    manifest.write_text(
        json.dumps(
            {"programs": [{"path": "p.mc", "entry": "work", "args": [3]}]}
        )
    )
    spec = load_manifest(str(manifest))[0]
    assert spec.entry == "work"
    assert spec.args == (3,)


def test_manifest_jsonl(tmp_path):
    manifest = tmp_path / "corpus.jsonl"
    manifest.write_text('"one.mc"\n{"path": "two.mc"}\n# comment\n')
    specs = load_manifest(str(manifest))
    assert [s.path for s in specs] == [
        str(tmp_path / "one.mc"), str(tmp_path / "two.mc"),
    ]


def test_manifest_entry_without_path_rejected(tmp_path):
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps([{"entry": "main"}]))
    with pytest.raises(ValueError):
        load_manifest(str(manifest))


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        run_batch(_config(), paths=[])


# ---------------------------------------------------------------------------
# Failure containment + aggregation
# ---------------------------------------------------------------------------


def _check_mixed_result(result):
    assert result.programs == 3
    by_name = {o.path.rsplit("/", 1)[-1]: o for o in result.outcomes}
    assert by_name["a_good.mc"].status == STATUS_OK
    assert by_name["a_good.mc"].loops == 2
    assert by_name["b_broken.mc"].status == STATUS_PARSE_ERROR
    assert "expected" in by_name["b_broken.mc"].error
    assert by_name["c_faulty.mc"].status == STATUS_FAULT
    assert "out of bounds" in by_name["c_faulty.mc"].error
    assert result.status_counts() == {
        STATUS_OK: 1, STATUS_PARSE_ERROR: 1, STATUS_FAULT: 1,
    }
    aggregate = result.to_dict()
    assert aggregate["programs"] == 3
    assert aggregate["loops"] == 2
    assert aggregate["commutative_loops"] == 2


def test_serial_batch_contains_failures(corpus):
    result = run_batch(_config(), paths=[str(corpus)])
    _check_mixed_result(result)


def test_process_batch_contains_failures(corpus):
    result = run_batch(
        _config(backend="process", jobs=2), paths=[str(corpus)]
    )
    _check_mixed_result(result)


@pytest.fixture
def fresh_pools():
    # Pool workers fork from this process: start from no pool so they
    # inherit the test's patches, and drop them again afterwards.
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


def test_process_batch_records_dead_worker(tmp_path, monkeypatch, fresh_pools):
    for name in ("a.mc", "b_dies.mc", "c.mc"):
        (tmp_path / name).write_text(GOOD)
    real = batch.analyze_program_spec

    def dies_on_b(config, spec, index, *args, **kwargs):
        if spec.path.endswith("b_dies.mc"):
            os._exit(17)
        return real(config, spec, index, *args, **kwargs)

    monkeypatch.setattr(batch, "analyze_program_spec", dies_on_b)
    with obs.enabled() as ctx:
        result = run_batch(
            _config(backend="process", jobs=2), paths=[str(tmp_path)]
        )
    assert [o.path.rsplit("/", 1)[-1] for o in result.outcomes] == [
        "a.mc", "b_dies.mc", "c.mc",
    ]
    assert [o.status for o in result.outcomes] == [
        STATUS_OK, STATUS_WORKER_LOST, STATUS_OK,
    ]
    assert ctx.metrics.value("batch.pool_rebuilds") >= 1
    lost = result.outcomes[1].path
    assert any(
        span.name == "batch.program"
        and span.args.get("synthetic")
        and span.args.get("path") == lost
        for span in ctx.tracer.spans
    )


def test_outcomes_stay_in_corpus_order_and_stream(corpus):
    streamed = []
    result = run_batch(
        _config(backend="process", jobs=2),
        paths=[str(corpus)],
        on_result=streamed.append,
    )
    assert [o.index for o in result.outcomes] == [0, 1, 2]
    # Streaming sees every outcome exactly once (completion order).
    assert sorted(o.index for o in streamed) == [0, 1, 2]


def test_manifest_overrides_apply_per_program(tmp_path):
    (tmp_path / "alt.mc").write_text(
        """
func void work() {
  int s = 0;
  for (int i = 0; i < 8; i = i + 1) { s += i; }
  print(s);
}
"""
    )
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"path": "alt.mc", "entry": "work"}]))
    result = run_batch(_config(), manifest=str(manifest))
    assert result.outcomes[0].status == STATUS_OK
    assert result.outcomes[0].loops == 1


def test_session_batch_entry_point(corpus):
    with AnalysisSession(_config()) as session:
        result = session.batch(paths=[str(corpus)])
    _check_mixed_result(result)


def test_batch_shares_cache_across_programs(tmp_path, corpus):
    config = _config(
        cache_mode="rw", cache_dir=str(tmp_path / "cache"),
        static_filter=False,
    )
    cold = run_batch(config, paths=[str(corpus)])
    warm = run_batch(config, paths=[str(corpus)])
    assert sum(o.cache_misses for o in cold.outcomes) > 0
    assert sum(o.cache_misses for o in warm.outcomes) == 0
    assert sum(o.cache_hits for o in warm.outcomes) == sum(
        o.cache_misses for o in cold.outcomes
    )
    ok = [o for o in warm.outcomes if o.status == STATUS_OK]
    assert ok and all(o.report for o in ok)


# ---------------------------------------------------------------------------
# CLI adapter
# ---------------------------------------------------------------------------


def test_cli_batch_text_output(corpus, capsys):
    # Exit code 1: not every program analyzed cleanly.
    assert main(["batch", str(corpus), "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "3 programs: 1 ok, 1 parse-error, 1 fault" in out


def test_cli_batch_json_and_jsonl(corpus, tmp_path, capsys):
    jsonl = tmp_path / "results.jsonl"
    code = main(
        ["batch", str(corpus), "--json", "--jsonl", str(jsonl), "--no-cache"]
    )
    assert code == 1
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["programs"] == 3
    lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert len(lines) == 3
    assert {l["status"] for l in lines} == {
        STATUS_OK, STATUS_PARSE_ERROR, STATUS_FAULT,
    }


def test_cli_batch_all_ok_exit_zero(tmp_path, capsys):
    (tmp_path / "p.mc").write_text(GOOD)
    assert main(["batch", str(tmp_path / "p.mc"), "--no-cache"]) == 0
    assert "1 programs: 1 ok" in capsys.readouterr().out


def test_cli_batch_requires_programs(capsys):
    assert main(["batch", "--no-cache"]) == 2


def test_cli_batch_merged_trace(corpus, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    main(
        ["batch", str(corpus), "--backend", "process", "--jobs", "2",
         "--trace", str(trace), "--no-cache"]
    )
    capsys.readouterr()
    events = json.loads(trace.read_text())["traceEvents"]
    # Worker spans land on per-program lanes of the merged trace.
    assert {e["name"] for e in events} & {"batch.program"}
    assert len({e["tid"] for e in events}) > 1
