"""Run one casemark CLI command in-process with spans around each layer.

    python3 perfbench/tracer.py --spans FILE --command-id N -- extract --config run.yaml --out DIR

The package itself is not changed: this script wraps the public functions of
casemark's modules from outside and patches each wrapper into every casemark
module that binds the function by name (`extraction` binds
`fisher_exact_two_sided`, `build_parallel_np_set` and `corpus_fingerprint`;
`evaluation` binds `run_pipeline`; `cli` binds the corpus loaders and
`corpus_fingerprint`), so calls are seen wherever they are looked up.

Functions called once per layer step get a span each: name, start, end,
parent span, thread and command id, plus counts taken from their arguments
and results. Functions called once per candidate or per NP (the exact test,
marker assignment) are summed per thread into aggregates instead, so the
trace stays small. Everything is kept in memory and written to FILE when
the command ends.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
import traceback

# (module, function, how): "span" records one span per call, "aggregate" sums
# calls and time per thread.
WRAPPED = (
    ("corpus", "load_corpus", "span"),
    ("corpus", "load_alignment", "span"),
    ("corpus", "load_np_annotation", "span"),
    ("corpus", "corpus_fingerprint", "span"),
    ("projection", "build_parallel_np_set", "span"),
    ("projection", "build_inside_outside", "span"),
    ("projection", "partition_word_types", "span"),
    ("projection", "dump_parallel_nps", "span"),
    ("extraction", "run_pipeline", "span"),
    ("extraction", "extract_markers_for_language", "span"),
    ("extraction", "build_candidate_counts", "span"),
    ("extraction", "frequency_filter", "span"),
    ("extraction", "inside_outside_filter", "span"),
    ("extraction", "write_marker_file", "span"),
    ("extraction", "read_marker_file", "span"),
    ("stats", "fisher_exact_two_sided", "aggregate"),
    ("silver", "build_silver", "span"),
    ("silver", "write_silver_file", "span"),
    ("silver", "read_silver_file", "span"),
    ("evaluation", "run_ablation", "span"),
    ("evaluation", "render_ablation_table", "span"),
    ("evaluation", "render_results_table", "span"),
    ("evaluation", "render_diff_table", "span"),
    ("analysis", "group_by_marker_combination", "span"),
    ("analysis", "assign_marker", "aggregate"),
    ("analysis", "build_cooccurrence_matrix", "span"),
    ("analysis", "export_matrix", "span"),
    ("analysis", "render_group_report", "span"),
    ("cli", "load_run_config", "span"),
)


class Tracer:
    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, command, attrs]
        self._main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggregates: list[dict] = []
        self.ablation_base = None  # config of the enclosing run_ablation call

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        # A worker thread's first span hangs under the main thread's open span.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = [len(self.spans), name, time.perf_counter(), None, parent,
                    threading.get_ident(), self.command_id, {}]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    def aggregate(self, name: str) -> list:
        table = getattr(self._local, "aggregates", None)
        if table is None:
            table = self._local.aggregates = {}
            with self._lock:
                self._aggregates.append(table)
        entry = table.get(name)
        if entry is None:
            entry = table[name] = [0, 0.0, 0]  # calls, seconds, extra count
        return entry

    def dump(self) -> dict:
        merged: dict[str, list] = {}
        for table in self._aggregates:
            for name, (calls, seconds, extra) in table.items():
                entry = merged.setdefault(name, [0, 0.0, 0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += extra
        return {"command_id": self.command_id, "spans": self.spans, "aggregates": merged}


def _support(table) -> int:
    row1, row2, col1 = table.a + table.b, table.c + table.d, table.a + table.c
    return min(row1, col1) - max(0, col1 - row2) + 1


def _variant(tracer: Tracer, config):
    from casemark.extraction import ABLATION_VARIANTS

    base = tracer.ablation_base
    if base is None:
        return None
    return next((v for v in ABLATION_VARIANTS if base.with_variant(v) == config), "other")


def _attrs(tracer: Tracer, qualname: str, args, kwargs, result) -> dict:
    """Counts taken at the layer boundary from a call's arguments and result."""
    if qualname == "corpus.load_corpus":
        return {"tokens": sum(len(t) for verses in result.versions.values() for t in verses.values())}
    if qualname == "projection.build_parallel_np_set":
        corpus, annotations = args[0], args[1]
        targets = len(corpus.versions) - len(annotations)
        return {"nps": len(result), "hits": sum(len(p.projections) for p in result),
                "pairs": len(result) * targets}
    if qualname == "extraction.build_candidate_counts":
        return {"candidates": len(result)}
    if qualname == "extraction.frequency_filter":
        return {"survivors": len(result)}
    if qualname == "extraction.inside_outside_filter":
        return {"tested": len(set(args[0] if args else kwargs["candidates"])), "survivors": len(result)}
    if qualname == "extraction.extract_markers_for_language":
        return {"markers": len(result)}
    if qualname == "extraction.run_pipeline":
        config = args[3] if len(args) > 3 else kwargs["config"]
        return {"variant": _variant(tracer, config)}
    if qualname == "silver.build_silver":
        return {"suffixes": len(result.suffixes)}
    if qualname == "analysis.build_cooccurrence_matrix":
        return {"cells": len(result.cells)}
    return {}


def _span_wrapper(tracer: Tracer, qualname: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if qualname == "evaluation.run_ablation":
            tracer.ablation_base = args[3] if len(args) > 3 else kwargs["config"]
        span = tracer.open(qualname)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
            if qualname == "evaluation.run_ablation":
                tracer.ablation_base = None
        span[7] = _attrs(tracer, qualname, args, kwargs, result)
        return result

    return wrapper


def _aggregate_wrapper(tracer: Tracer, qualname: str, func):
    clock = time.perf_counter
    support = qualname == "stats.fisher_exact_two_sided"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return func(*args, **kwargs)
        finally:
            elapsed = clock() - start
            entry = tracer.aggregate(qualname)
            entry[0] += 1
            entry[1] += elapsed
            if support:
                entry[2] += _support(args[0])

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every wrapped function in every casemark module binding it."""
    import casemark.cli  # noqa: F401  (imports every layer module)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "casemark" or name.startswith("casemark.")]
    for module_name, func_name, how in WRAPPED:
        original = getattr(sys.modules[f"casemark.{module_name}"], func_name)
        qualname = f"{module_name}.{func_name}"
        make = _span_wrapper if how == "span" else _aggregate_wrapper
        wrapper = make(tracer, qualname, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the trace as JSON")
    parser.add_argument("--command-id", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer(args.command_id)
    install(tracer)
    from casemark import cli

    span = tracer.open(f"cli.command:{cli_args[0]}")
    code = 1
    try:
        code = cli.main(cli_args)
    except Exception:  # the trace is still written for a failed command
        traceback.print_exc()
    finally:
        tracer.close(span)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
