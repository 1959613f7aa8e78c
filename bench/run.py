#!/usr/bin/env python3
"""Benchmark of the influence engine's daily batch job.

    python3 bench/run.py --workload bootstrap_700 [--seed 13] [--seconds 30] [--trace 0|1]

Run it from the repository root; the engine is imported from ``src/``.
Inputs come from ``bench/workloads.py`` and are cached under
``.bench_cache/`` by workload and seed; generating them is never timed.

One benchmark run is a closed loop: one ``influence-score all`` child
process at a time, each a fresh interpreter, so ``os.wait4`` gives that
run's own CPU time and peak RSS. Runs repeat until ``--seconds`` have
passed, and at least ``MIN_RUNS`` times. Set-up time is measured in its
own children, one after each run and at least ``SETUP_RUNS`` times.

The host's CPUs switch between a fast and a slower speed every few
seconds, so timing metrics are reported at a reference host speed. The
runner and its children are pinned to one CPU; while a child runs, a
thread of the runner times a small fixed probe on that CPU every
``PROBE_INTERVAL_S``. A child's host factor is the probes' mean time over
``PROBE_REFERENCE_S``; its wall time (less the probes' own time) and CPU
time are divided by it. The raw times and factors are kept in the full
record. Every run is checked:

- it exits with status 0;
- ``snapshot.txt``, ``features/*.txt`` and ``models/*.model`` match the
  digests in ``bench/expected_digests.json`` for the default seed, and the
  digests of the first run of that workload and seed otherwise;
- ``ingest/load_report.txt`` reports exactly the counts the inputs imply;
- ``manifest.txt`` matches the first run of that workload and seed.

With ``--trace 1`` a further run executes under ``bench/traced.py``, which
records spans around each layer, and standalone passes time the
per-record functions; the per-layer metrics replace the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (medians). The full
record, with quartiles, environment and per-run values, is written to
``.bench_cache/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, prepare_inputs, sha256_file

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 13
MIN_RUNS = 3
SETUP_RUNS = 5
PROBE_INTERVAL_S = 0.1
# Typical time of one speed probe on a 2-vCPU Xeon virtual machine; it only
# scales the reported times and never changes their ratios.
PROBE_REFERENCE_S = 0.0004
SCALED = ("setup_s", "wall_s", "cpu_s")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "1/s",
    "latent_rho": "rho",
    "pair_accuracy": "ratio",
}

STAGES = ("ingest", "features", "train", "score", "evaluate", "simulate")
# (span name, report calls too)
TIMED_SPANS = (
    ("pipeline.load_store", True),
    ("pipeline.write_manifest", False),
    ("ingest.load_batch", True),
    ("lineio.write_lines", True),
    ("features.aggregate_dynamic", False),
    ("features.aggregate_longlasting", False),
    ("features.compute_global_maxima", False),
    ("features.dump_table", False),
    ("graph.pagerank", True),
    ("graph.graph_summary", False),
    ("training.preprocess_labels", False),
    ("training.build_design", False),
    ("training.evaluate_model", False),
    ("nnls.solve", False),
    ("hierarchy.score_population", False),
    ("hierarchy.save_snapshot", False),
    ("hierarchy.load_snapshot", False),
    ("evaluation.rank_correlation", False),
    ("population.run_campaign", False),
)
COUNTS = (
    "ingest.accepted_events",
    "ingest.rejected.expired",
    "ingest.rejected.duplicates",
    "ingest.rejected.malformed",
    "ingest.rejected.unknown-network",
    "ingest.rejected.unknown-content",
    "ingest.rejected.unknown-action",
    "ingest.rejected.self-reaction",
    "ingest.rejected.bad-timestamp",
    "lineio.bytes_written",
    "features.raw_cells",
    "features.feature_keys",
    "graph.pagerank_iterations",
    "graph.pagerank_unconverged",
    "training.design_rows",
    "nnls.outer_iterations",
    "nnls.unconverged",
    "hierarchy.scored_users",
)
PASSES = (
    "lineio.decode_events_s",
    "lineio.decode_edges_s",
    "events.validate_events_s",
    "features.normalize_s",
)
# ROADMAP Baseline, taken on bootstrap_5k: calls per run and wall time.
BASELINE_CALLS = {"ingest.load_batch_calls": 4, "pipeline.load_store_calls": 2}
BASELINE_WALL_S = {"bootstrap_5k": (41.0, 45.0)}

SETUP_CODE = """
import sys
import influence_engine.cli
from influence_engine.hierarchy import load_tree
from influence_engine.pipeline import RunConfig
from influence_engine.registry import FeatureRegistry
cfg = RunConfig.from_file(sys.argv[1])
FeatureRegistry.load(cfg.registry_path)
load_tree(cfg.tree_path)
"""


def layer_units() -> dict[str, str]:
    units = {}
    for stage in STAGES:
        units[f"pipeline.stage.{stage}_s"] = "s"
        units[f"pipeline.stage.{stage}.self_s"] = "s"
        units[f"pipeline.stage.{stage}.rss_mb"] = "MB"
    for name, with_calls in TIMED_SPANS:
        units[f"{name}_s"] = "s"
        if with_calls:
            units[f"{name}_calls"] = "count"
    units.update(dict.fromkeys(COUNTS, "count"))
    units["lineio.bytes_written"] = "B"
    units.update(dict.fromkeys(PASSES, "s"))
    units["pipeline.startup_s"] = "s"
    units["bench.span_coverage"] = "ratio"
    units["bench.tracing_overhead_s"] = "s"
    units["bench.host_factor"] = "ratio"
    return units


@dataclass
class Child:
    returncode: int
    started: float  # time.perf_counter() at spawn; CLOCK_MONOTONIC on Linux
    wall_s: float  # less the probes' own time
    cpu_s: float
    peak_rss_mb: float
    host_factor: float
    probe_s: float  # the probes' own time on the child's CPU


class Bench:
    """One workload and seed: inputs, runs and reference under ``case_dir``,
    the engine imported from ``src``."""

    def __init__(self, src: Path, case_dir: Path, workload, seed: int, name: str):
        self.name = name
        self.seed = seed
        self.case_dir = case_dir
        self.inputs = case_dir / "inputs"
        self.meta = prepare_inputs(workload, seed, self.inputs)
        self.config = self.inputs / "config.json"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p
        )
        self.reference_path = self.case_dir / "reference.json"
        self.reference = self._load_reference()

    def _load_reference(self) -> dict:
        ref = {}
        if self.reference_path.exists():
            ref = json.loads(self.reference_path.read_text())
            if ref.get("inputs") != self.meta["inputs"]:
                ref = {}
        ref["inputs"] = self.meta["inputs"]
        if self.seed == DEFAULT_SEED:
            expected = json.loads((BENCH / "expected_digests.json").read_text())
            if self.name in expected:
                ref["outputs"] = expected[self.name]
        return ref

    def spawn(self, argv: list[str], log: Path) -> Child:
        """Run one child to completion; wall time is spawn to exit."""
        with log.open("wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=self.case_dir
            )
            try:
                with SpeedProbe() as probe:
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start - probe.busy_s
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            returncode=proc.returncode,
            started=start,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            host_factor=probe.host_factor(),
            probe_s=probe.busy_s,
        )

    def measure_setup(self) -> dict[str, float]:
        log = self.case_dir / "setup.log"
        child = self.spawn([sys.executable, "-c", SETUP_CODE, str(self.config)], log)
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed; see {log}")
        return {"setup_s": child.wall_s, "host_factor": child.host_factor,
                "probe_s": child.probe_s}

    def run_dir(self, index: int) -> Path:
        return self.case_dir / "runs" / str(index)

    def run_all(self, index: int, traced: bool = False) -> tuple[Child, Path]:
        run_dir = self.run_dir(index)
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        out = run_dir / "out"
        cli_args = ["all", "--config", str(self.config), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced.py"), "run", str(run_dir / "spans.json")]
        else:
            argv = [sys.executable, "-m", "influence_engine.cli"]
        return self.spawn(argv + cli_args, run_dir / "stdout.txt"), run_dir

    def run_and_check(self, index: int, traced: bool = False):
        """One checked run: (child, metrics record, problems, spans or None)."""
        child, run_dir = self.run_all(index, traced)
        problems = self.check(child, run_dir)
        record: dict = {}
        trace = None
        if child.returncode == 0:
            try:
                record = run_metrics(child, run_dir / "out")
                if traced:
                    trace = json.loads((run_dir / "spans.json").read_text())
            except (OSError, KeyError, ValueError, StopIteration) as exc:
                problems.append(f"unreadable report: {exc!r}")
        record["failed"] = bool(problems)
        return child, record, problems, trace

    def check(self, child: Child, run_dir: Path) -> list[str]:
        """Problems with one run's outputs; an empty list means it passed."""
        if child.returncode != 0:
            return [f"exit status {child.returncode} (see {run_dir / 'stdout.txt'})"]
        out = run_dir / "out"
        try:
            found = {
                "outputs": output_digests(out),
                "manifest": sha256_file(out / "manifest.txt"),
            }
            report = parse_fields((out / "ingest" / "load_report.txt").read_text())
        except OSError as exc:
            return [f"missing output: {exc}"]
        problems = []
        for key, value in found.items():
            if value != self.reference.setdefault(key, value):
                problems.append(f"{key} digests differ from the reference")
        self.reference_path.write_text(json.dumps(self.reference, indent=2, sort_keys=True))
        for key, expected in self.meta["expected_load"].items():
            if report.get(key) != str(expected):
                problems.append(f"load_report {key}={report.get(key)}, expected {expected}")
        return problems

    def passes(self, run_dir: Path) -> dict[str, float]:
        result = run_dir / "passes.json"
        argv = [sys.executable, str(BENCH / "traced.py"), "passes", str(self.inputs),
                str(run_dir / "out"), str(result)]
        child = self.spawn(argv, run_dir / "passes.log")
        if child.returncode != 0:
            raise RuntimeError(f"standalone passes failed; see {run_dir / 'passes.log'}")
        return json.loads(result.read_text())


_PROBE_KEYS = [f"u{i}\tk{i % 13}" for i in range(1500)]


def _probe_work() -> None:
    counts: dict = {}
    for key in _PROBE_KEYS:
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())


def probe_sample() -> float:
    """Seconds for a fixed bit of the engine's kind of work: count string
    keys into a dict and sort the items. It uses no engine code, and only
    its second, cache-warm pass is timed, so only the CPU's speed moves it
    and not what the child left in the caches."""
    _probe_work()
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class SpeedProbe:
    """Times ``probe_sample`` every ``PROBE_INTERVAL_S`` on a thread until
    the block ends; the child shares the pinned CPU, so the samples see
    the speed it ran at."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0  # the probes' own time, both passes
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            self.samples.append(probe_sample())
            self.busy_s += time.perf_counter() - start

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def host_factor(self) -> float:
        samples = self.samples or [probe_sample()]
        return statistics.fmean(samples) / PROBE_REFERENCE_S


def output_digests(out: Path) -> dict[str, str]:
    paths = [out / "snapshot.txt", *sorted((out / "features").glob("*.txt")),
             *sorted((out / "models").glob("*.model"))]
    return {p.relative_to(out).as_posix(): sha256_file(p) for p in paths}


def parse_fields(line: str) -> dict[str, str]:
    """``key=value`` tokens of one tab-separated report line."""
    return dict(tok.split("=", 1) for tok in line.strip().split("\t") if "=" in tok)


def run_metrics(child: Child, out: Path) -> dict[str, float]:
    """One run's metrics; times are raw until ``scale_times``."""
    accepted = int(parse_fields((out / "ingest" / "load_report.txt").read_text())["accepted"])
    eval_lines = (out / "eval_report.txt").read_text().splitlines()
    rho = next(float(parse_fields(l)["rho"]) for l in eval_lines if l.startswith("latent_spearman"))
    accuracies = [
        float(parse_fields(l)["accuracy"])
        for l in (out / "model_report.txt").read_text().splitlines()
        if "accuracy=" in l
    ]
    return {
        "host_factor": child.host_factor,
        "probe_s": child.probe_s,
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "peak_rss_mb": child.peak_rss_mb,
        "events_per_s": accepted / child.wall_s,
        "latent_rho": rho,
        "pair_accuracy": statistics.fmean(accuracies),
        "accepted": accepted,
    }


def scale_times(records: list[dict]) -> list[dict]:
    """Records with times divided by their own ``host_factor``, and events
    per second from the scaled wall time."""
    scaled = []
    for raw in records:
        record = dict(raw)
        for key in SCALED:
            if key in record:
                record[key] = raw[key] / raw["host_factor"]
        if "accepted" in record:
            record["events_per_s"] = record["accepted"] / record["wall_s"]
        scaled.append(record)
    return scaled


def layer_metrics(trace: dict, passes: dict[str, float], traced: Child,
                  median_wall: float) -> dict[str, float]:
    total: defaultdict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    children: defaultdict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in trace["spans"]:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            children[parent] += end - start
    self_time: defaultdict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in enumerate(trace["spans"]):
        self_time[name] += end - start - children[index]

    metrics = {}
    for stage in STAGES:
        span = f"pipeline.stage.{stage}"
        metrics[f"{span}_s"] = total[span]
        metrics[f"{span}.self_s"] = self_time[span]
        metrics[f"{span}.rss_mb"] = trace["counts"].get(f"{span}.rss_mb", 0.0)
    for name, with_calls in TIMED_SPANS:
        metrics[f"{name}_s"] = total[name]
        if with_calls:
            metrics[f"{name}_calls"] = calls[name]
    for name in COUNTS:
        metrics[name] = trace["counts"].get(name, 0)
    metrics.update(passes)
    # The child's perf_counter shares the parent's clock, so the time from
    # spawn to the first stage is interpreter start, imports and config.
    stage_starts = [start for name, start, *_ in trace["spans"] if name.startswith("pipeline.stage.")]
    metrics["pipeline.startup_s"] = min(stage_starts, default=traced.started) - traced.started
    covered = metrics["pipeline.startup_s"] + metrics["pipeline.write_manifest_s"] + sum(
        total[f"pipeline.stage.{s}"] for s in STAGES
    )
    # The spans include the probes' interruptions, so the probes count too.
    metrics["bench.span_coverage"] = covered / (traced.wall_s + traced.probe_s)
    # Both at the reference host speed, as wall_s is reported.
    metrics["bench.tracing_overhead_s"] = traced.wall_s / traced.host_factor - median_wall
    # The layer times are as measured; this is the traced run's own factor.
    metrics["bench.host_factor"] = traced.host_factor
    return metrics


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU. The
    vCPUs of a shared virtual machine slow down at different times, so the
    speed probe and the children must share a CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def environment(root: Path) -> dict:
    import importlib.metadata

    import numpy

    # The children's BLAS sees only the pinned CPU; ask a fresh interpreter.
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy, run; print(run.blas_threads(numpy))"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": probe.stdout.strip() or None,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "git": git_revision(root),
    }


def blas_threads(numpy) -> int | None:
    """Threads of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision(root: Path) -> dict | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=30)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        dirty = bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None
    return {"revision": head.stdout.strip(), "dirty": dirty}


def cross_check(name: str, median_wall: float, layers: dict[str, float] | None) -> list[str]:
    """Notes where a run disagrees with the ROADMAP Baseline; never a failure."""
    notes = []
    if name in BASELINE_WALL_S:
        lo, hi = BASELINE_WALL_S[name]
        if not lo <= median_wall <= hi:
            notes.append(f"wall_s {median_wall:.2f} outside the Baseline's {lo:g}-{hi:g} s")
    for key, expected in BASELINE_CALLS.items() if layers is not None else ():
        if layers[key] != expected:
            notes.append(f"{key}={layers[key]}, Baseline has {expected}")
    return notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "influence_engine").is_dir():
        print(f"no engine sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    pin_to_one_cpu()
    env = environment(root)
    cache = root / ".bench_cache"
    bench = Bench(root / "src", cache / f"{args.workload}-s{args.seed}",
                  WORKLOADS[args.workload], args.seed, args.workload)
    # Runs and set-up children alternate; stop when the next pair would
    # end after --seconds.
    raw_runs: list[dict] = []
    raw_setup: list[dict] = []
    failures: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        begun = time.perf_counter()
        _, record, problems, _ = bench.run_and_check(len(raw_runs))
        failures += [f"run {len(raw_runs)}: {p}" for p in problems]
        raw_runs.append(record)
        if not args.trace:
            raw_setup.append(bench.measure_setup())
        now = time.perf_counter()
        if len(raw_runs) >= MIN_RUNS and now + (now - begun) > deadline:
            break
    while not args.trace and len(raw_setup) < SETUP_RUNS:
        raw_setup.append(bench.measure_setup())
    per_run = scale_times(raw_runs)
    setup = [r["setup_s"] for r in scale_times(raw_setup)]
    factors = [r["host_factor"] for r in raw_runs + raw_setup if "host_factor" in r]
    ok_runs = [r for r in per_run if "wall_s" in r]
    attempted, failed = len(per_run), sum(r["failed"] for r in per_run)

    summary = {"setup_s": quartiles(setup)} if setup else {}
    for key in END_TO_END_UNITS:
        if key != "setup_s" and ok_runs:
            summary[key] = quartiles([r[key] for r in ok_runs])
    median_wall = (statistics.median(r["wall_s"] for r in raw_runs if "wall_s" in r)
                   if ok_runs else None)

    layers = trace = None
    if args.trace and ok_runs:
        child, record, problems, trace = bench.run_and_check(len(per_run), traced=True)
        failures += [f"traced run: {p}" for p in problems]
        attempted += 1
        failed += record["failed"]
        if trace is not None:
            layers = layer_metrics(trace, bench.passes(bench.run_dir(len(per_run))),
                                   child, summary["wall_s"]["median"])
    notes = cross_check(args.workload, median_wall, layers) if ok_runs else []
    if trace is not None and trace["counts"].get("bench.count_errors"):
        notes.append("the tracer could not read some counters; they read 0")

    print(f"workload {args.workload} seed {args.seed}: {attempted} runs, {failed} failed,"
          f" {len(setup)} set-up runs; injected {bench.meta['injected']}")
    print("environment " + json.dumps(env, sort_keys=True))
    factor = quartiles(factors)
    print(f"host_factor {factor['median']:.6g} ratio (median, q1 {factor['q1']:.6g},"
          f" q3 {factor['q3']:.6g}: probe time over {PROBE_REFERENCE_S * 1e3:g} ms); the"
          f" times below are each child's measured time divided by its own factor")
    if ok_runs:
        print(f"raw wall_s {median_wall:.6g} s (median, as measured)")
    for key, stats in summary.items():
        print(f"{key} {stats['median']:.6g} {END_TO_END_UNITS[key]} (median,"
              f" q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']})")
    print(f"run_fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})")
    units = layer_units()
    for key, value in (layers or {}).items():
        print(f"{key} {value:.6g} {units[key]} (traced run)")
    for line in failures:
        print(f"FAIL {line}")
    for line in notes:
        print(f"note {line}")

    results = cache / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "environment": env,
         "inputs": bench.meta, "summary": summary, "layers": layers, "setup_s": setup,
         "runs": per_run, "raw_setup": raw_setup, "raw_runs": raw_runs,
         "failures": failures, "notes": notes}, indent=2, sort_keys=True))

    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in (layers or {}).items()}
        wanted = units
    else:
        metrics = {k: {"value": v["median"], "unit": END_TO_END_UNITS[k]}
                   for k, v in summary.items()}
        wanted = END_TO_END_UNITS
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok_runs else 1


if __name__ == "__main__":
    sys.exit(main())
