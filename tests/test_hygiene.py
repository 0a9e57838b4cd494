"""Guards for deletions and drift: no module keeps an import it no longer
uses, the package root exports nothing and no file imports a name from it,
no module imports `dataclasses` and a fresh `import casemark.cli` loads none
of the code-inspection modules, only `corpus.write_output` writes files,
every output file has a failed-write test, one function of the CLI parses
the corpus inputs and one builds the manifests' input record (and the CLI
never names `corpus_fingerprint`), every function the benchmark tracer
wraps still exists, a traced `extract`, `analyze` and `project` still run,
the README's table of flags per subcommand matches the parser, and its
example configuration names every accepted config key.

The import, writer, loader, record and tracer checks read source files with
`ast` only; the tracer is never imported, only run in a subprocess, as is
the fresh import.
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
import yaml

from test_atomic_writes import CLI_WRITERS, world  # world: a fixture of the last TestSingleWriter test

import casemark
from casemark import cli
from casemark.extraction import PipelineConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casemark"
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
MODULES = sorted(PACKAGE.glob("*.py"))
SUBMODULES = {p.stem for p in MODULES} - {"__init__"}
# Every Python file of the package, its tests and the benchmark.
SOURCES = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))


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


def root_imports(source: str) -> list[str]:
    """The names that `source` imports from the package root, as in
    `from casemark import X`, that are not modules of the package."""
    return sorted(
        alias.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) == ("casemark", 0)
        for alias in node.names if alias.name not in SUBMODULES
    )


def dataclasses_imports(source: str) -> list[int]:
    """The lines of `source` that import `dataclasses` or a name from it."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "dataclasses"
    )


def file_writes(source: str, writer=None) -> list[int]:
    """The lines of the calls in `source`, outside the function named
    `writer`, that open a file for writing, appending or creating, create a
    directory, or write, rename or replace a file. A mode that is not a
    string literal counts as a write."""
    tree = ast.parse(source)
    exempt = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == writer for inner in ast.walk(node)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" or isinstance(func, ast.Attribute) and func.attr == "open":
            positional = node.args[1:] if isinstance(func, ast.Name) else node.args  # open(file, mode), path.open(mode)
            modes = [k.value for k in node.keywords if k.arg == "mode"] or positional[:1]
            writes = any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)
        elif isinstance(func, ast.Attribute):
            on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
            writes = func.attr in {"mkdir", "makedirs", "write_text", "write_bytes", "rename"} or on_os and func.attr == "replace"
        else:
            writes = False
        if writes:
            lines.append(node.lineno)
    return sorted(lines)


def users_of(source: str, names, attributes_only: bool = False) -> list[str]:
    """The top-level functions and classes of `source` that name one of
    `names`, as a name or an attribute (only as an attribute if
    `attributes_only`), and `<module>` for a use elsewhere outside an
    import."""
    users = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any(isinstance(inner, ast.Attribute) and inner.attr in names
               or not attributes_only and isinstance(inner, ast.Name) and inner.id in names
               for inner in ast.walk(node)):
            users.add(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>")
    return sorted(users)


def identifiers(source: str) -> set[str]:
    """Every identifier of `source`: each name, attribute, argument, definition
    and imported name or alias."""
    fields = ("id", "attr", "arg", "name", "asname")
    return {value for node in ast.walk(ast.parse(source)) for field in fields
            if isinstance(value := getattr(node, field, None), str)}


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


class TestNoPackageRootExports:
    """Each public name is imported from the module that defines it."""

    def test_package_root_holds_only_its_docstring(self):
        body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        assert len(body) == 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value.value, str)

    def test_no_file_imports_a_name_from_the_package_root(self):
        found = {}
        for path in SOURCES:
            names = root_imports(path.read_text(encoding="utf-8"))
            if names:
                found[path.relative_to(ROOT).as_posix()] = names
        assert found == {}

    def test_detects_a_root_import(self):
        source = "from casemark import cli, ParallelCorpus\nfrom casemark.corpus import load_corpus\n"
        assert root_imports(source) == ["ParallelCorpus"]


class TestImportPath:
    """Every command's process imports `casemark.cli` before its first stage.
    `dataclasses` would bring `inspect`, `ast` and `dis` with it, and each
    decorated class would compile generated source: the records are
    NamedTuples or plain classes instead."""

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_module_imports_dataclasses(self, path):
        assert dataclasses_imports(path.read_text(encoding="utf-8")) == []

    def test_detects_a_dataclasses_import(self):
        source = "import dataclasses\nfrom dataclasses import dataclass\nimport os, dataclasses as dc\nimport dataclass\n"
        assert dataclasses_imports(source) == [1, 2, 3]

    def test_a_fresh_import_loads_no_code_inspection_module(self):
        code = (
            "import sys\nbefore = set(sys.modules)\nimport casemark.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


class TestOneLoader:
    """In the CLI, `_load_corpus_inputs` is the one function that parses the
    verse, annotation and alignment files, so every command that reads them
    checks and loads them in one way."""

    PARSERS = {"load_corpus", "load_np_annotation", "load_alignment"}

    def test_only_load_corpus_inputs_names_the_parsers(self):
        assert users_of((PACKAGE / "cli.py").read_text(encoding="utf-8"), self.PARSERS) == ["_load_corpus_inputs"]

    def test_detects_each_kind_of_use(self):
        source = (
            "from .corpus import load_corpus\nimport corpus\n"
            "def a():\n    return load_corpus()\n"
            "def b():\n    return corpus.load_alignment\n"
            "class C:\n    parse = load_np_annotation\n"
            "parse = load_corpus\n"
            "def d():\n    return load_corpus_inputs()\n"
        )
        assert users_of(source, self.PARSERS) == ["<module>", "C", "a", "b"]


class TestOneInputRecord:
    """In the CLI, `_input_record` is the one function that reads the run's
    `inputs`, so `manifest.json` and `nps/manifest.json` record the inputs in
    one way, and no command fingerprints the parsed corpus."""

    CLI = (PACKAGE / "cli.py").read_text(encoding="utf-8")

    def test_only_input_record_reads_the_inputs(self):
        assert users_of(self.CLI, {"inputs"}, attributes_only=True) == ["_input_record"]

    def test_cli_never_names_corpus_fingerprint(self):
        assert "corpus_fingerprint" not in identifiers(self.CLI)

    def test_detects_each_kind_of_use(self):
        source = "def a(config):\n    inputs = 1\n    return inputs\ndef b(config):\n    return config.inputs\n"
        assert users_of(source, {"inputs"}, attributes_only=True) == ["b"]
        for line in ("from .corpus import corpus_fingerprint as f", "import corpus as c\nc.corpus_fingerprint",
                     "def f(corpus_fingerprint): pass", "corpus_fingerprint = 1"):
            assert "corpus_fingerprint" in identifiers(line)


class TestSingleWriter:
    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_only_write_output_writes_files(self, path):
        writer = "write_output" if path.name == "corpus.py" else None
        assert file_writes(path.read_text(encoding="utf-8"), writer) == []

    def test_detects_each_kind_of_write(self):
        writes = [
            'open(p, "w")', 'open(p, mode="a", encoding="utf-8")', 'p.open("x")', 'open(p, "r+")', "open(p, mode)",
            "p.mkdir()", "os.makedirs(d)", "os.replace(a, b)", "os.rename(a, b)", "p.rename(q)",
            "p.write_text(t)", "p.write_bytes(b)",
        ]
        reads = ["open(p)", 'open(p, "rb")', 'open(p, encoding="utf-8")', "p.open()", 's.replace("a", "b")']
        assert file_writes("\n".join(writes + reads)) == list(range(1, len(writes) + 1))

    def test_only_the_named_function_may_write(self):
        source = "def write_output(p):\n    open(p, 'w')\n\ndef other(p):\n    open(p, 'w')\n"
        assert file_writes(source, "write_output") == [5]
        assert file_writes(source) == [2, 5]

    def test_every_output_file_has_a_failed_write_test(self, world):
        """Each file the six commands write is a CLI_WRITERS entry, up to the
        language stem, so a new output file gets the failed-write test."""
        _config, out, _verse_files = world
        written = set()
        for path in filter(Path.is_file, out.rglob("*")):
            relative = path.relative_to(out)
            if relative.stem in {"english", "latin"}:
                relative = relative.with_stem("latin")
            written.add(relative.as_posix())
        assert written == {relative for relative, _command, _exit_code in CLI_WRITERS}


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

    def test_extract(self, workdir, tmp_path):
        config, out = workdir  # one language: lingua
        extract = self.traced(tmp_path, config, out, "extract")
        markers = (out / "markers" / "lingua.tsv").read_bytes().splitlines()
        assert markers
        assert extract["extraction.extract_markers_for_language"] == {"markers": len(markers)}

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

    def test_analyze_after_project(self, workdir, tmp_path):
        """The benchmark's traced `analyze` runs after `project`: it reads
        the NPs from the dump and loads no corpus."""
        config, out = workdir
        assert cli.main(["extract", "--config", str(config)]) == 0
        assert cli.main(["project", "--config", str(config)]) == 0
        analyze = self.traced(tmp_path, config, out, "analyze")
        matrix_lines = (out / "analysis" / "matrix.tsv").read_bytes().splitlines()
        assert matrix_lines
        assert analyze["analysis.build_cooccurrence_matrix"] == {"cells": len(matrix_lines)}
        assert "corpus.load_corpus" not in analyze
        assert "projection.build_parallel_np_set" not in analyze


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


def readme_example_config() -> dict:
    """The YAML block that follows "Example configuration:" in the README."""
    block = re.search(r"Example configuration:\n\n```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, f"no example configuration in {README}"
    return yaml.safe_load(block.group(1))


class TestReadmeConfigExample:
    def test_names_every_accepted_key(self):
        example = readme_example_config()
        assert set(example) == set(cli.CONFIG_KEYS)
        for section in ("pipeline", "analysis"):
            _kind, keys = cli.CONFIG_KEYS[section]
            assert set(example[section]) == set(keys), section

    def test_pipeline_keys_are_the_pipeline_config_fields(self):
        # `suffix_only` is the YAML spelling of `positions`.
        fields = set(PipelineConfig._fields) - {"positions"} | {"suffix_only"}
        assert set(cli.CONFIG_KEYS["pipeline"][1]) == fields
