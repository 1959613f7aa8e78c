"""Self-test of the benchmark harness on tiny populations; runs in seconds.

    python3 -m pytest bench/test_harness.py

Each workload kind goes through the same code paths as a benchmark run:
input generation and caching, an untraced and a traced ``all`` run, the
output checks, the standalone passes and the per-layer metrics.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402
from workloads import Workload, prepare_inputs  # noqa: E402

TINY_USERS = 200


def tiny_bench(tmp_path: Path, kind: str) -> run.Bench:
    return run.Bench(SRC, tmp_path / kind, Workload(kind, TINY_USERS), seed=5, name=f"tiny_{kind}")


@pytest.mark.parametrize("kind", ["bootstrap", "daily", "graph"])
def test_workload_runs_and_traces(tmp_path, kind):
    bench = tiny_bench(tmp_path, kind)
    child, run_dir = bench.run_all(0)
    assert bench.check(child, run_dir) == []
    metrics = run.run_metrics(child, run_dir / "out")
    assert metrics["latent_rho"] > 0.5
    assert metrics["events_per_s"] > 0

    traced, traced_dir = bench.run_all(1, traced=True)
    # Same outputs and manifest as the untraced run.
    assert bench.check(traced, traced_dir) == []
    trace = json.loads((traced_dir / "spans.json").read_text())
    assert "bench.count_errors" not in trace["counts"]
    layers = run.layer_metrics(trace, bench.passes(traced_dir), traced, metrics["wall_s"])
    assert set(layers) == set(run.layer_units())

    expected = bench.meta["expected_load"]
    assert layers["ingest.accepted_events"] == expected["accepted"]
    assert layers["ingest.rejected.duplicates"] == expected["duplicates"]
    assert layers["ingest.rejected.malformed"] == expected["malformed"]
    assert layers["ingest.load_batch_calls"] == 4
    assert layers["pipeline.load_store_calls"] == 2
    assert layers["hierarchy.scored_users"] > 0
    assert layers["lineio.decode_events_s"] > 0
    assert layers["features.normalize_s"] > 0
    for stage in run.STAGES:
        assert 0 <= layers[f"pipeline.stage.{stage}.self_s"] <= layers[f"pipeline.stage.{stage}_s"]
    assert 0.5 < layers["bench.span_coverage"] <= 1.0
    assert (layers["graph.pagerank_calls"] == 3) == (kind == "graph")
    if kind == "daily":
        assert bench.meta["injected"]["truncated"] == expected["malformed"] > 0
        assert bench.meta["injected"]["redelivered"] >= expected["duplicates"] > 0
        assert expected["expired"] > 0


def test_inputs_are_deterministic_and_reverified(tmp_path):
    workload = Workload("daily", 100)
    meta = prepare_inputs(workload, 3, tmp_path / "a")
    assert prepare_inputs(workload, 3, tmp_path / "b") == meta
    assert prepare_inputs(workload, 4, tmp_path / "c")["inputs"] != meta["inputs"]

    (tmp_path / "a" / "events.txt").write_text("tampered\n")
    assert prepare_inputs(workload, 3, tmp_path / "a") == meta
    assert (tmp_path / "a" / "events.txt").read_bytes() == (tmp_path / "b" / "events.txt").read_bytes()


def test_changed_output_fails_the_check(tmp_path):
    bench = tiny_bench(tmp_path, "bootstrap")
    child, run_dir = bench.run_all(0)
    assert bench.check(child, run_dir) == []
    snapshot = run_dir / "out" / "snapshot.txt"
    snapshot.write_text(snapshot.read_text() + "u99999\t1.0\t0.01\t\n")
    assert any("outputs" in p for p in bench.check(child, run_dir))


def test_times_are_scaled_by_their_own_host_factor():
    raw = [{"host_factor": 2.0, "wall_s": 8.0, "cpu_s": 6.0, "accepted": 100, "latent_rho": 0.9},
           {"host_factor": 0.5, "setup_s": 1.0}]
    fast, setup = run.scale_times(raw)
    assert fast == {"host_factor": 2.0, "wall_s": 4.0, "cpu_s": 3.0, "accepted": 100,
                    "latent_rho": 0.9, "events_per_s": 25.0}
    assert setup == {"host_factor": 0.5, "setup_s": 2.0}
    assert raw[0]["wall_s"] == 8.0


def test_refuses_to_run_without_engine_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "graph_1400"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
