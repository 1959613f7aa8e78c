"""Child process for the traced benchmark run and the standalone passes.

    python3 bench/traced.py run SPANS_JSON all --config CFG --out OUT
    python3 bench/traced.py passes INPUT_DIR OUT_DIR RESULT_JSON

``run`` wraps the engine's public functions where each stage looks them
up, runs the CLI, and writes the spans and counts once at the end. A name
that the engine no longer has is skipped, so its metrics read zero.

``passes`` times the per-record functions (decode, validate, normalize)
over a whole input file each, instead of wrapping every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

# Return shapes a later engine version may change; the run must not fail
# because a counter could not be read.
_COUNT_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class Tracer:
    """In-memory spans: (name, start, end, parent index, enclosing stage)."""

    def __init__(self):
        self.run_id = f"{os.getpid()}-{time.time_ns()}"
        self.spans: list = []
        self.stack: list[int] = []
        self.stage: str | None = None
        self.counts: Counter = Counter()

    def wrap(self, fn, name: str, on_result=None, stage: str | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            outer_stage = self.stage
            self.stage = stage or outer_stage
            index = len(self.spans)
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (name, start, time.perf_counter(), parent, self.stage)
                self.stack.pop()
            if on_result is not None:
                try:
                    on_result(self, result, args)
                except _COUNT_ERRORS:
                    self.counts["bench.count_errors"] += 1
            self.stage = outer_stage
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = getattr(owner, attr, None)
        if callable(fn):
            setattr(owner, attr, self.wrap(fn, name, on_result))

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"run_id": self.run_id, "spans": self.spans, "counts": self.counts})
        )


# -- counters read off return values ----------------------------------------

def _load_report(tracer, result, args):
    if tracer.stage != "ingest":
        return
    report = result[1]
    c = tracer.counts
    c["ingest.accepted_events"] += report.accepted_events
    c["ingest.rejected.expired"] += report.expired_events
    c["ingest.rejected.duplicates"] += report.duplicate_events
    c["ingest.rejected.malformed"] += report.malformed_lines
    for reason, n in report.rejected.items():
        c[f"ingest.rejected.{reason}"] += n


def _stage_counts(tracer, result, args):
    tracer.counts[f"pipeline.stage.{tracer.stage}.rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if tracer.stage == "features":
        tracer.counts["features.raw_cells"] += result["raw_cells"]
        tracer.counts["features.feature_keys"] += result["feature_keys"]


def _pagerank(tracer, result, args):
    tracer.counts["graph.pagerank_iterations"] += result.iterations
    tracer.counts["graph.pagerank_unconverged"] += not result.converged


def _design(tracer, result, args):
    tracer.counts["training.design_rows"] += result[0].shape[0]


def _nnls(tracer, result, args):
    tracer.counts["nnls.outer_iterations"] += result.iterations
    tracer.counts["nnls.unconverged"] += not result.converged


def _scored(tracer, result, args):
    tracer.counts["hierarchy.scored_users"] += len(result.entries)


def _written(tracer, result, args):
    tracer.counts["lineio.bytes_written"] += os.path.getsize(args[0])


def _module(name: str):
    try:
        return importlib.import_module(f"influence_engine.{name}")
    except ImportError:
        return None


def install(tracer: Tracer) -> None:
    features, lineio, pipeline, training = map(
        _module, ("features", "lineio", "pipeline", "training")
    )
    for stage, fn in list(getattr(pipeline, "_STAGE_FUNCS", {}).items()):
        pipeline._STAGE_FUNCS[stage] = tracer.wrap(
            fn, f"pipeline.stage.{stage}", _stage_counts, stage=stage
        )
    for attr, name, on_result in (
        ("load_batch", "ingest.load_batch", _load_report),
        ("load_store", "pipeline.load_store", None),
        ("write_manifest", "pipeline.write_manifest", None),
        ("graph_summary", "graph.graph_summary", None),
        ("preprocess_labels", "training.preprocess_labels", None),
        ("score_population", "hierarchy.score_population", _scored),
        ("save_snapshot", "hierarchy.save_snapshot", None),
        ("load_snapshot", "hierarchy.load_snapshot", None),
        ("rank_correlation", "evaluation.rank_correlation", None),
        ("run_campaign", "population.run_campaign", None),
    ):
        tracer.patch(pipeline, attr, name, on_result)
    for attr, name, on_result in (
        ("aggregate_dynamic", "features.aggregate_dynamic", None),
        ("aggregate_longlasting", "features.aggregate_longlasting", None),
        ("compute_global_maxima", "features.compute_global_maxima", None),
        ("dump_table", "features.dump_table", None),
        ("pagerank", "graph.pagerank", _pagerank),
    ):
        tracer.patch(features, attr, name, on_result)
    for attr, name, on_result in (
        ("build_design", "training.build_design", _design),
        ("nnls", "nnls.solve", _nnls),
        ("evaluate_model", "training.evaluate_model", None),
    ):
        tracer.patch(training, attr, name, on_result)
    tracer.patch(lineio, "write_lines", "lineio.write_lines", _written)


def traced_run(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from influence_engine import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(Path(spans_path))


# -- standalone passes -------------------------------------------------------

def _decode_pass(decoder, lines: list[str]) -> tuple[float, list]:
    decoded = []
    start = time.perf_counter()
    for line in lines:
        try:
            decoded.append(decoder(line))
        except (ValueError, KeyError):
            pass  # malformed; load_batch counts these
    return time.perf_counter() - start, decoded


def standalone_passes(input_dir: str, out_dir: str, result_path: str) -> int:
    from influence_engine import lineio
    from influence_engine.registry import FeatureRegistry

    events, features = _module("events"), _module("features")
    inputs, out = Path(input_dir), Path(out_dir)
    registry = FeatureRegistry.load(inputs / "registry.json")
    decode_event = getattr(lineio, "decode_event", None)
    decode_edge = getattr(lineio, "decode_edge", None)
    validate_event = getattr(events, "validate_event", None)
    normalize = getattr(features, "normalize", None)
    result = dict.fromkeys(
        (
            "lineio.decode_events_s",
            "lineio.decode_edges_s",
            "events.validate_events_s",
            "features.normalize_s",
        ),
        0.0,
    )

    if decode_event is not None:
        lines = list(lineio.read_lines(inputs / "events.txt"))
        result["lineio.decode_events_s"], decoded = _decode_pass(decode_event, lines)
        if validate_event is not None:
            start = time.perf_counter()
            for event in decoded:
                validate_event(event, registry)
            result["events.validate_events_s"] = time.perf_counter() - start
    if decode_edge is not None:
        lines = list(lineio.read_lines(inputs / "edges.txt"))
        result["lineio.decode_edges_s"], _ = _decode_pass(decode_edge, lines)

    maxima_path = out / "features" / "maxima.txt"
    raw_path = out / "features" / "raw_features.txt"
    if normalize is not None and maxima_path.exists() and raw_path.exists():
        maxima = dict(line.split("\t") for line in lineio.read_lines(maxima_path))
        cells = []
        for line in lineio.read_lines(raw_path):
            _, key, value = line.split("\t")
            cells.append((float(value), float(maxima[key])))
        start = time.perf_counter()
        for raw, maximum in cells:
            normalize(raw, maximum)
        result["features.normalize_s"] = time.perf_counter() - start

    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "run":
        sys.exit(traced_run(rest[0], rest[1:]))
    if mode == "passes":
        sys.exit(standalone_passes(*rest))
    sys.exit(f"unknown mode {mode!r}")
