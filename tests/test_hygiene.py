"""Guards for deletions and drift: no module keeps an import it no longer
uses, every function the benchmark tracer wraps still exists, a traced
`analyze` and `project` still run, and the README's table of flags per
subcommand matches the parser.

The first two checks read source files with `ast` only; the tracer is never
imported, only run in a subprocess.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import casemark
from casemark import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casemark"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def wrapped_functions() -> list[tuple[str, str]]:
    """The (module, function) pairs of the tracer's WRAPPED tuple."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return [(module, function) for module, function, _how in ast.literal_eval(node.value)]
    raise AssertionError(f"no WRAPPED assignment in {TRACER}")


class TestUnusedImports:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_every_import_is_used(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == []

    def test_detects_an_unused_import(self):
        source = "from typing import Optional, Sequence\nimport os.path\nx: Sequence[int] = ()\n"
        assert unused_imports(source) == ["Optional", "os"]

    def test_attribute_access_counts_as_a_use(self):
        assert unused_imports("import os.path\nos.path.join('a')\n") == []


class TestTracerTargets:
    def test_wrapped_tuple_is_read(self):
        assert ("extraction", "run_pipeline") in wrapped_functions()

    @pytest.mark.parametrize("module, function", wrapped_functions())
    def test_every_wrapped_function_exists(self, module, function):
        assert callable(getattr(importlib.import_module(f"casemark.{module}"), function, None))


class TestTracedCommands:
    """The benchmark traces each command by wrapping the layer functions from
    outside and reading counts off their results, so a change of what those
    functions return can break a traced run alone."""

    @staticmethod
    def traced(tmp_path, config, out, command) -> dict:
        spans = tmp_path / f"{command}.json"
        src = str(Path(casemark.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, str(TRACER), "--spans", str(spans), "--", command, "--config", str(config), "--out", str(out)]
        run = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stdout + run.stderr
        return {span[1]: span[7] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}

    def test_analyze_and_project(self, workdir, tmp_path):
        config, out = workdir
        assert cli.main(["extract", "--config", str(config)]) == 0
        analyze = self.traced(tmp_path, config, out, "analyze")
        matrix_lines = (out / "analysis" / "matrix.tsv").read_bytes().splitlines()
        assert analyze["analysis.build_cooccurrence_matrix"] == {"cells": len(matrix_lines)}
        project = self.traced(tmp_path, config, out, "project")
        nps = project["projection.build_parallel_np_set"]
        # One dump line per NP and one per projection.
        dump_lines = (out / "nps" / "parallel_nps.tsv").read_bytes().splitlines()
        assert nps["nps"] + nps["hits"] == len(dump_lines)


def readme_flag_table() -> dict[str, set[str]]:
    """The README's "subcommand | flags" table: each subcommand named in a
    row's first cell mapped to the backticked flags of its second cell."""
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    for line in lines:
        if line.startswith("| subcommand | flags"):
            break
    else:
        raise AssertionError(f"no subcommand | flags table in {README}")
    next(lines)  # the | --- | --- | rule
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        commands, flags = line.strip("|").split("|")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = set(re.findall(r"`(--[^`]+)`", flags))
    return table


class TestReadmeFlagTable:
    def test_matches_the_parser(self):
        expected = {}
        for command, (_handler, _help, flags) in cli._COMMANDS.items():
            expected[command] = set(flags)
            if "--suffix-only" in flags:  # one BooleanOptionalAction, two spellings
                expected[command].add("--no-suffix-only")
        assert readme_flag_table() == expected
