"""Command-line front end.

A YAML run configuration names the inputs; the flags a subcommand reads
override individual keys. Subcommands: extract, silver, eval, ablate, analyze,
project. All outputs are deterministic: re-running with identical config and
inputs reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from . import analysis, evaluation, extraction, projection, silver
from .corpus import VersionId, load_alignment, load_corpus, load_np_annotation, open_input, write_output
from .errors import CasemarkError, ConfigurationError, CorpusError
from .extraction import ABLATION_VARIANTS, POSITIONS, PipelineConfig

# The shape of a key whose value, null included, must pass `test`; the error
# reads "config key K must be <wording>, got V".
_Check = namedtuple("_Check", "wording test")
_STRINGS = (list, str)
# Every accepted config key and its shape, as `_check_shapes` reads it. The
# values of `object` keys are checked later (the thresholds by PipelineConfig);
# `jobs` is ignored: runs are single-threaded, and existing configs still set it.
CONFIG_KEYS = {
    "verse_files": _STRINGS, "alignment_files": _STRINGS, "annotation_files": _STRINGS,
    "paradigm_files": (dict, str), "verse_allowlist": _STRINGS, "verse_allowlist_file": str,
    "output_dir": _Check("of type str", lambda v: isinstance(v, str)),
    "markers_dir": str, "silver_dir": str, "jobs": object,
    "pipeline": (dict, {"theta": object, "phi": object, "chi": object,
                        "suffix_only": _Check("true or false", lambda v: isinstance(v, bool)),
                        "languages": _STRINGS, "exclude_languages": _STRINGS}),
    "analysis": (dict, {"languages": _STRINGS,
                        "samples_per_group": _Check("an integer >= 0", lambda v: type(v) is int and v >= 0)}),
}


class RunConfig(NamedTuple):
    verse_files: list[Path]
    alignment_files: list[Path]
    annotation_files: list[Path]
    # Every file of the three lists, keyed by its path as the config names it
    # (a glob expanded against the config directory), for the manifest.
    inputs: dict[str, Path]
    paradigm_files: dict[str, Path]
    verse_allowlist: Optional[frozenset[str]]
    pipeline: PipelineConfig
    output_dir: Path
    markers_dir: Path
    silver_dir: Path
    analysis_languages: Optional[tuple[str, ...]]
    samples_per_group: int


def _require_existing(paths, what: str) -> None:
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        raise ConfigurationError(f"missing {what}: {', '.join(missing)}")


def _check_shapes(section: dict, shapes: dict, prefix: str = "") -> dict:
    """`section` checked, without its null values. Each key must be in
    `shapes` and hold a value of its shape there: a type; a `_Check`; or a
    `(container, element)` pair, where each element of the list, or each value
    of the mapping, is of the element type and each key of the mapping is a
    language name that can name a file (a dict as the element holds a nested
    mapping's shapes). Null stands for an absent key, except under a `_Check`,
    which sees it, and under `object` (`phi: null` turns that test off)."""
    unknown = sorted(set(section) - set(shapes))
    if unknown:
        where = f"bad {prefix[:-1]} config: " if prefix else ""
        raise ConfigurationError(f"{where}unknown config keys: {', '.join(prefix + key for key in unknown)}")
    checked = {}
    for key, value in section.items():
        shape, name = shapes[key], prefix + key
        if isinstance(shape, _Check):
            if not shape.test(value):
                raise ConfigurationError(f"config key {name} must be {shape.wording}, got {value!r}")
        elif value is None and shape is not object:
            continue
        else:
            kind, element = shape if isinstance(shape, tuple) else (shape, None)
            if not isinstance(value, kind):
                raise ConfigurationError(f"config key {name} must be of type {kind.__name__}, got {value!r}")
            if isinstance(element, dict):
                value = _check_shapes(value, element, f"{name}.")
            elif element is not None:
                bad = [item for item in (value.values() if kind is dict else value) if not isinstance(item, element)]
                if bad:
                    raise ConfigurationError(f"config key {name} must hold {element.__name__} values, got {bad[0]!r}")
                names = value if kind is dict else ()
                bad = [k for k in names if not isinstance(k, str) or k in ("", ".", "..") or "/" in k or "\0" in k]
                if bad:
                    raise ConfigurationError(f"config key {name} must be keyed by plain file names, got {bad[0]!r}")
        checked[key] = value
    return checked


def load_run_config(path, flags: Optional[dict] = None) -> RunConfig:
    """Read a YAML run configuration, with the parsed `flags` (argparse dests
    to values) in place of the keys they override. Relative paths resolve
    against the config file's directory, and a relative `out` flag against
    the working directory; a glob expands as in the shell."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    with open_input(path) as handle:
        try:
            raw = yaml.safe_load(handle) or {}
        except yaml.YAMLError as exc:
            raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {path} must hold a mapping at top level")
    raw, flags = _check_shapes(raw, CONFIG_KEYS), dict(flags or {})
    variant = flags.pop("ablate", "baseline")
    if "out" in flags:
        raw["output_dir"] = Path(flags.pop("out")).absolute()
    pipeline = {**raw.get("pipeline", {}), **flags}

    for key in ("languages", "exclude_languages"):
        if key in pipeline:
            pipeline[key] = tuple(pipeline[key])
    pipeline["positions"] = frozenset({"final"}) if pipeline.pop("suffix_only", True) else POSITIONS
    analysis_raw = raw.get("analysis", {})
    analysis_languages = tuple(analysis_raw.get("languages", ())) or None
    repeated = sorted({lang for lang in analysis_languages or () if analysis_languages.count(lang) > 1})
    if repeated:
        raise ConfigurationError(f"config key analysis.languages repeats {', '.join(repeated)}")

    base = path.parent
    inputs = {}

    def paths(key) -> list[Path]:
        resolved = []
        for entry in raw.get(key, ()):
            is_glob = any(ch in entry for ch in "*?[")
            names = glob.glob(entry, root_dir=base) if is_glob else [entry]
            matches = sorted((base / name, name) for name in names)
            if not matches:
                raise ConfigurationError(f"glob {entry!r} matched no files")
            inputs.update((name, match) for match, name in matches)
            resolved += [match for match, _name in matches]
        return resolved

    allowlist = frozenset(raw["verse_allowlist"]) if "verse_allowlist" in raw else None
    if raw.get("verse_allowlist_file"):
        with open_input(base / raw["verse_allowlist_file"]) as handle:
            from_file = frozenset(line.strip() for line in handle if line.strip())
        allowlist = from_file if allowlist is None else allowlist | from_file
    output_dir = base / raw.get("output_dir", "out")
    return RunConfig(
        verse_files=paths("verse_files"),
        alignment_files=paths("alignment_files"),
        annotation_files=paths("annotation_files"),
        inputs=inputs,
        paradigm_files={language: base / p for language, p in raw.get("paradigm_files", {}).items()},
        verse_allowlist=allowlist,
        pipeline=PipelineConfig(**pipeline).with_variant(variant),
        output_dir=output_dir,
        markers_dir=base / raw["markers_dir"] if "markers_dir" in raw else output_dir / "markers",
        silver_dir=base / raw["silver_dir"] if "silver_dir" in raw else output_dir / "silver",
        analysis_languages=analysis_languages,
        samples_per_group=analysis_raw.get("samples_per_group", 5),
    )


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_corpus_inputs(config: RunConfig):
    """The corpus, then the NP annotations and the alignments parsed against it."""
    _require_existing(config.verse_files, "verse files")
    _require_existing(config.alignment_files, "alignment files")
    _require_existing(config.annotation_files, "annotation files")
    corpus = load_corpus(config.verse_files, config.verse_allowlist)
    annotations = [load_np_annotation(p, corpus) for p in config.annotation_files]
    return corpus, annotations, [load_alignment(p, corpus) for p in config.alignment_files]


def _require_named(named, available, what: str) -> None:
    """Each language of `named` must be one of `available`, those with `what`."""
    missing = sorted(set(named or ()) - set(available))
    if missing:
        raise ConfigurationError(f"no {what} for languages: {', '.join(missing)}")


def _select(config: RunConfig, available, what: str) -> list[str]:
    """The languages of `available`, those with `what`, that the run selects,
    sorted. A language the selection names that is not available, or a
    selection of none of them, is a configuration error: a typo would
    otherwise select nothing and still exit 0."""
    _require_named(config.pipeline.languages, available, what)
    selected = sorted(filter(config.pipeline.wants_language, available))
    if available and not selected:
        raise ConfigurationError(f"the language selection selects none of the languages with {what}")
    return selected


def _per_language(command: str, items, step) -> int:
    """`step(language, item)` for each `(language, item)` of `items`. A step
    that fails is reported as `<command>: <language>: <error>` on stderr, and
    the next one runs; 1 if any failed. An error in `items` ends the command."""
    failed = 0
    for language, item in items:
        try:
            step(language, item)
        except (CasemarkError, OSError) as exc:
            print(f"{command}: {language}: {exc}", file=sys.stderr)
            failed = 1
    return failed


def cmd_extract(config: RunConfig) -> int:
    corpus, annotations, alignments = _load_corpus_inputs(config)
    _select(config, corpus.languages(), "verse files")
    marker_sets = extraction.extract_marker_sets(corpus, annotations, alignments, config.pipeline)
    manifest = {"pipeline": config.pipeline._asdict(), **_input_record(config)}
    written = []  # only these go in the manifest: `eval` would score an earlier file of the others

    def write_manifest(languages):
        # default=sorted writes the positions set as a sorted list.
        text = json.dumps({**manifest, "languages": languages}, sort_keys=True, indent=2, default=sorted)
        write_output(config.output_dir / "manifest.json", text + "\n")

    def write(language, marker_set):
        extraction.write_marker_file(marker_set, config.markers_dir / f"{language}.tsv")
        write_manifest([*written, language])
        written.append(language)  # not when its manifest failed: the language failed

    # Rewritten after each language, so a run cut short leaves a manifest of the files it wrote.
    write_manifest(written)
    return _per_language("extract", marker_sets, write)


def cmd_silver(config: RunConfig) -> int:
    if not config.paradigm_files:
        print("silver: no paradigm files configured, nothing to build", file=sys.stderr)
        return 0
    selected = _select(config, config.paradigm_files, "paradigm files")
    languages = {lang: config.paradigm_files[lang] for lang in selected}
    _require_existing(languages.values(), "paradigm files")
    diagnostics = ["language\tparadigms_used\tsuffixes_emitted\n"]

    def build(language, path):
        standard = silver.build_silver(path, language)
        silver.write_silver_file(standard, config.silver_dir / f"{language}.txt")
        counts = standard.diagnostics
        diagnostics.append(f"{language}\t{counts['paradigms_used']}\t{counts['suffixes_emitted']}\n")

    failed = _per_language("silver", languages.items(), build)
    write_output(config.silver_dir / "diagnostics.tsv", "".join(diagnostics))
    return failed


def _output_files(directory: Path, kind: str, pattern: str, command: str) -> dict[str, Path]:
    """The files matching `pattern` in the `kind` directory, by language (the
    file stem). As for the config globs, a hidden file does not match."""
    if not directory.is_dir():
        raise ConfigurationError(f"{kind} directory {directory} does not exist (run `{command}` first?)")
    return {Path(name).stem: directory / name for name in sorted(glob.glob(pattern, root_dir=directory))}


def _read_markers(config: RunConfig, wanted) -> dict:
    """The marker sets of the languages `wanted` accepts. In
    `<output_dir>/markers`, which `extract` owns, a marker file of a language
    that `<output_dir>/manifest.json` does not list is stale, left by an
    earlier extract, and is not read; any other `markers_dir` holds given
    marker files and is read whole."""
    manifest, extracted = config.output_dir / "manifest.json", None
    if config.markers_dir == config.output_dir / "markers" and manifest.exists():
        try:
            with open_input(manifest) as handle:
                extracted = json.load(handle)["languages"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ConfigurationError(f"manifest {manifest} lists no languages: {exc!r}") from None
        if not isinstance(extracted, list) or not all(isinstance(language, str) for language in extracted):
            raise ConfigurationError(f"manifest {manifest} must list its languages as strings, got {extracted!r}")
    files = _output_files(config.markers_dir, "markers", "*.tsv", "extract")
    return {
        language: extraction.read_marker_file(p)
        for language, p in files.items()
        if wanted(language) and (extracted is None or language in extracted)
    }


def _read_silver(config: RunConfig) -> dict:
    """The silver standards of the languages the run selects; each language it names must have one."""
    files = _output_files(config.silver_dir, "silver", "*.txt", "silver")
    selected = _select(config, files, "silver standards")
    return {language: silver.read_silver_file(files[language]) for language in selected}


def cmd_eval(config: RunConfig) -> int:
    gold = _read_silver(config)
    predicted = _read_markers(config, gold.__contains__)
    if not predicted:
        raise ConfigurationError("nothing to evaluate: no language has both markers and a silver standard")
    per_language = {lang: evaluation.score(predicted[lang].grams(), gold[lang]) for lang in predicted}
    eval_dir = config.output_dir / "eval"
    table = evaluation.render_results_table(per_language)
    write_output(eval_dir / "results.tsv", table)
    for lang in predicted:
        diff = evaluation.render_diff_table(predicted[lang].grams(), gold[lang])
        write_output(eval_dir / "diff" / f"{lang}.tsv", diff)
    print(table, end="")
    return 0


def cmd_ablate(config: RunConfig) -> int:
    corpus, annotations, alignments = _load_corpus_inputs(config)
    _select(config, corpus.languages(), "verse files")
    rows = evaluation.run_ablation(corpus, annotations, alignments, config.pipeline, _read_silver(config))
    table = evaluation.render_ablation_table(rows)
    write_output(config.output_dir / "ablation" / "ablation.tsv", table)
    print(table, end="")
    return 0


def _input_record(config: RunConfig) -> dict:
    """What both manifests record of the inputs: the SHA-256 of each input
    file, keyed by its name in the config; the verse, annotation and
    alignment files by name in config order (a name in `inputs` does not say
    which list holds it, or how often); the SHA-256 of the effective verse
    allowlist's sorted ids, one per line, or None without one."""
    names = {path: name for name, path in config.inputs.items()}
    allowlist = config.verse_allowlist
    if allowlist is not None:
        allowlist = hashlib.sha256("\n".join(sorted(allowlist)).encode("utf-8")).hexdigest()
    return {
        "inputs": {name: _sha256(path) for name, path in config.inputs.items()},
        "verse_files": [names[p] for p in config.verse_files],
        "verse_allowlist": allowlist,
        "annotation_files": [names[p] for p in config.annotation_files],
        "alignment_files": [names[p] for p in config.alignment_files],
    }


def _dumped_np_text(config: RunConfig, dump: Path) -> Optional[str]:
    """The text of `project`'s NP dump `dump`, if the record beside it is
    these inputs' `_input_record` with that dump's SHA-256 as `parallel_nps`;
    None on any miss, never an error. The dump is read once: its bytes are
    hashed for the compare, then decoded. An equal record means that
    `project` parsed these very verse, annotation and alignment bytes under
    this allowlist, and projected them without an error, so no input is
    parsed here."""
    try:
        stored = json.loads(dump.with_name("manifest.json").read_bytes())  # before any hashing
        data = dump.read_bytes()
        if stored != {**_input_record(config), "parallel_nps": hashlib.sha256(data).hexdigest()}:
            return None
        return data.decode("utf-8")
    except (OSError, ValueError, RecursionError):  # RecursionError: JSON nested too deep
        return None


def cmd_analyze(config: RunConfig) -> int:
    # The names are checked first, from the file names alone, as `load_corpus` takes the versions.
    versions = {VersionId.from_filename(p) for p in config.verse_files}
    _require_named(config.analysis_languages, {version.language for version in versions}, "verse files")
    sources = {VersionId.from_filename(p) for p in config.annotation_files}
    # A language with annotated sources alone has no projection to read a marker from: it
    # is an error to name one, and no default groups by it.
    unannotated = {version.language for version in versions if version not in sources}
    _require_named(config.analysis_languages, unannotated, "unannotated versions")
    marker_sets = _read_markers(config, set(config.analysis_languages or unannotated).__contains__)
    languages = config.analysis_languages or sorted(marker_sets)
    _require_named(languages, marker_sets, "marker files")
    dump = config.output_dir / "nps" / "parallel_nps.tsv"
    text = _dumped_np_text(config, dump)
    if text is None:  # a miss: parse and project as `project` does, to the text its dump would hold
        corpus, annotations, alignments = _load_corpus_inputs(config)
        text = projection.format_parallel_nps(projection.build_parallel_np_set(corpus, annotations, alignments), corpus)
    try:
        parallel_nps = projection.read_parallel_nps(text, {str(version) for version in sources})
    except ValueError as exc:  # only a hit's text can fail: a dump under a matching record, not written by `project`
        raise CorpusError(f"{dump}: {exc}") from None
    analysis_dir = config.output_dir / "analysis"
    groups = analysis.group_by_marker_combination(parallel_nps, marker_sets, languages)
    write_output(analysis_dir / "groups.txt", analysis.render_group_report(groups, config.samples_per_group))
    matrix = analysis.build_cooccurrence_matrix(parallel_nps)
    analysis.export_matrix(matrix, analysis_dir)
    return 0


def cmd_project(config: RunConfig) -> int:
    corpus, annotations, alignments = _load_corpus_inputs(config)
    parallel_nps = projection.build_parallel_np_set(corpus, annotations, alignments)
    dump = config.output_dir / "nps" / "parallel_nps.tsv"
    projection.dump_parallel_nps(parallel_nps, corpus, dump)
    # After the dump: a run cut short between the two writes leaves a record that no longer matches it.
    record = json.dumps({**_input_record(config), "parallel_nps": _sha256(dump)}, sort_keys=True, indent=2)
    write_output(dump.with_name("manifest.json"), record + "\n")
    return 0


_FLAGS = {
    "--out": dict(help="output directory (overrides config)"),
    "--languages": dict(type=lambda text: [lang for lang in text.split(",") if lang],
                        help="comma-separated language allowlist"),
    "--theta": dict(type=int, help="frequency threshold override"),
    "--phi": dict(type=float, help="p-value threshold override"),
    "--chi": dict(type=float, help="odds-ratio threshold override"),
    "--suffix-only": dict(action=argparse.BooleanOptionalAction, help="keep word-final grams only, or all grams"),
    "--ablate": dict(choices=ABLATION_VARIANTS, help="apply one ablation variant to the pipeline config"),
}
_SCOPE_FLAGS = ("--out", "--languages")
_PIPELINE_FLAGS = (*_SCOPE_FLAGS, "--theta", "--phi", "--chi", "--suffix-only")

# Each subcommand: its handler, its help line and the flags it reads.
_COMMANDS = {
    "extract": (cmd_extract, "run the extraction pipeline and write marker files", (*_PIPELINE_FLAGS, "--ablate")),
    "silver": (cmd_silver, "build silver-standard suffix sets from paradigm files", _SCOPE_FLAGS),
    "eval": (cmd_eval, "score marker files against silver standards", _SCOPE_FLAGS),
    "ablate": (cmd_ablate, "run the ablation grid and write the variant table", _PIPELINE_FLAGS),
    "analyze": (cmd_analyze, "group NPs by marker combination and export the cooccurrence matrix", ("--out",)),
    "project": (cmd_project, "dump the projected parallel NP set", ("--out",)),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="casemark",
        description="Extract nominal case markers from a verse-parallel corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_handler, help_text, flags) in _COMMANDS.items():
        # A flag left out is absent from the parsed namespace, not None.
        cmd = commands[name] = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", required=True, help="path to the YAML run configuration")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser, commands


def main(argv=None) -> int:
    """Run one subcommand; its exit code. The command runs with the cyclic
    garbage collector paused: its records, dicts and tuples form no cycles,
    so reference counting frees them, and the collector would only rescan
    live data. The caller's collector state comes back on every exit."""
    parser, commands = _build_parser()
    parsed, unknown = parser.parse_known_args(argv)
    flags = vars(parsed)
    command, config_path = flags.pop("command"), flags.pop("config")
    if unknown:  # reported with the usage line of the subcommand, which lists its flags
        commands[command].error(f"unrecognized arguments: {' '.join(unknown)}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[command][0](load_run_config(config_path, flags))
    except (CasemarkError, OSError) as exc:
        print(f"casemark {command}: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    """The `casemark` console script and `python -m casemark.cli`: `main()`,
    then an exit with its code that skips the interpreter's teardown once
    stdout and stderr are flushed. Every output file is closed by then, and
    tearing down the modules and objects of a finished command costs tens of
    milliseconds. An exception, argparse's `SystemExit` included, leaves
    as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
