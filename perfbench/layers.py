"""Per-layer metrics from the traces of one traced repetition.

Times are span durations summed over calls (inclusive of nested spans; spans
in worker threads add up, so with jobs > 1 a layer can exceed wall time),
scaled to the reference speed by the command's calibration (see calib.py).
A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

from collections import defaultdict

VARIANTS = ("baseline", "no_theta", "no_phi", "no_chi", "middle", "beginning")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "corpus.load_s": ("s", "lower"),
    "corpus.alignments_s": ("s", "lower"),
    "corpus.annotations_s": ("s", "lower"),
    "corpus.fingerprint_s": ("s", "lower"),
    "corpus.fingerprint_calls": ("count", "lower"),
    "corpus.tokens": ("count", "higher"),
    "projection.parallel_nps_s": ("s", "lower"),
    "projection.parallel_nps_calls": ("count", "lower"),
    "projection.parallel_nps": ("count", "lower"),
    "projection.hit_ratio": ("ratio", "higher"),
    "projection.inside_outside_s": ("s", "lower"),
    "projection.inside_outside_calls": ("count", "lower"),
    "projection.partition_s": ("s", "lower"),
    "projection.dump_s": ("s", "lower"),
    "extraction.candidates_s": ("s", "lower"),
    "extraction.candidates": ("count", "lower"),
    "extraction.theta_s": ("s", "lower"),
    "extraction.theta_survivors": ("count", "lower"),
    "extraction.exact_s": ("s", "lower"),
    "extraction.exact_in": ("count", "lower"),
    "extraction.exact_survivors": ("count", "higher"),
    "extraction.markers": ("count", "higher"),
    "extraction.yield": ("ratio", "higher"),
    "extraction.write_s": ("s", "lower"),
    "stats.fisher_calls": ("count", "lower"),
    "stats.fisher_s": ("s", "lower"),
    "stats.support_terms": ("count", "lower"),
    "silver.build_s": ("s", "lower"),
    "silver.suffixes": ("count", "higher"),
    "evaluation.pipeline_runs": ("count", "lower"),
    **{f"evaluation.{v}_s": ("s", "lower") for v in VARIANTS},
    "analysis.group_s": ("s", "lower"),
    "analysis.assign_calls": ("count", "lower"),
    "analysis.matrix_s": ("s", "lower"),
    "analysis.matrix_cells": ("count", "higher"),
    "analysis.export_s": ("s", "lower"),
    "analysis.report_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "higher"),
    "trace_overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly across the repetitions of a run.
EXACT_COUNTS = (
    "extraction.candidates",
    "stats.fisher_calls",
    "projection.parallel_nps",
    "evaluation.pipeline_runs",
    "analysis.assign_calls",
    "analysis.matrix_cells",
)


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Every per-layer metric except trace_overhead_s and cli.bytes_written,
    which need the untraced run and the output tree."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, int] = defaultdict(int)
    variant_s: dict[str, float] = defaultdict(float)
    aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    tokens = 0
    cli_self = 0.0
    for trace in traces:
        scale = trace.get("scale", 1.0)
        command_span = None
        layer_intervals = []
        for _id, name, start, end, _parent, _thread, _command, span_attrs in trace["spans"]:
            if name.startswith("cli.command:"):
                command_span = (start, end)
                continue
            seconds[name] += (end - start) * scale
            calls[name] += 1
            for key, value in span_attrs.items():
                if isinstance(value, int):
                    attrs[f"{name}.{key}"] += value
            if name == "extraction.run_pipeline" and span_attrs.get("variant"):
                variant_s[span_attrs["variant"]] += (end - start) * scale
                calls["evaluation.pipeline_runs"] += 1
            if name == "corpus.load_corpus":
                tokens = max(tokens, span_attrs.get("tokens", 0))
            if not name.startswith("cli."):
                layer_intervals.append((start, end))
        for name, (n, secs, extra) in trace["aggregates"].items():
            aggregates[name][0] += n
            aggregates[name][1] += secs * scale
            aggregates[name][2] += extra
        if command_span is not None:
            cli_self += scale * ((command_span[1] - command_span[0]) - _union_length(layer_intervals))

    fisher = aggregates["stats.fisher_exact_two_sided"]
    candidates = attrs["extraction.build_candidate_counts.candidates"]
    markers = attrs["extraction.extract_markers_for_language.markers"]
    pairs = attrs["projection.build_parallel_np_set.pairs"]
    metrics = {
        "corpus.load_s": seconds["corpus.load_corpus"],
        "corpus.alignments_s": seconds["corpus.load_alignment"],
        "corpus.annotations_s": seconds["corpus.load_np_annotation"],
        "corpus.fingerprint_s": seconds["corpus.corpus_fingerprint"],
        "corpus.fingerprint_calls": calls["corpus.corpus_fingerprint"],
        "corpus.tokens": tokens,
        "projection.parallel_nps_s": seconds["projection.build_parallel_np_set"],
        "projection.parallel_nps_calls": calls["projection.build_parallel_np_set"],
        "projection.parallel_nps": attrs["projection.build_parallel_np_set.nps"],
        "projection.hit_ratio": attrs["projection.build_parallel_np_set.hits"] / pairs if pairs else 0.0,
        "projection.inside_outside_s": seconds["projection.build_inside_outside"],
        "projection.inside_outside_calls": calls["projection.build_inside_outside"],
        "projection.partition_s": seconds["projection.partition_word_types"],
        "projection.dump_s": seconds["projection.dump_parallel_nps"],
        "extraction.candidates_s": seconds["extraction.build_candidate_counts"],
        "extraction.candidates": candidates,
        "extraction.theta_s": seconds["extraction.frequency_filter"],
        "extraction.theta_survivors": attrs["extraction.frequency_filter.survivors"],
        "extraction.exact_s": seconds["extraction.inside_outside_filter"],
        "extraction.exact_in": attrs["extraction.inside_outside_filter.tested"],
        "extraction.exact_survivors": attrs["extraction.inside_outside_filter.survivors"],
        "extraction.markers": markers,
        "extraction.yield": markers / candidates if candidates else 0.0,
        "extraction.write_s": seconds["extraction.write_marker_file"],
        "stats.fisher_calls": fisher[0],
        "stats.fisher_s": fisher[1],
        "stats.support_terms": fisher[2],
        "silver.build_s": seconds["silver.build_silver"],
        "silver.suffixes": attrs["silver.build_silver.suffixes"],
        "evaluation.pipeline_runs": calls["evaluation.pipeline_runs"],
        **{f"evaluation.{v}_s": variant_s[v] for v in VARIANTS},
        "analysis.group_s": seconds["analysis.group_by_marker_combination"],
        "analysis.assign_calls": aggregates["analysis.assign_marker"][0],
        "analysis.matrix_s": seconds["analysis.build_cooccurrence_matrix"],
        "analysis.matrix_cells": attrs["analysis.build_cooccurrence_matrix.cells"],
        "analysis.export_s": seconds["analysis.export_matrix"],
        "analysis.report_s": seconds["analysis.render_group_report"],
        "cli.self_s": cli_self,
    }
    return metrics
