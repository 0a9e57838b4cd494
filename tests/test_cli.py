import gc
import hashlib
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import tiny_corpus_files, write_lines
from synthcorpus import build_fixture

import casemark
from casemark import cli, extraction, projection
from casemark.cli import CONFIG_KEYS, load_run_config, main
from casemark.errors import ConfigurationError


def snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def given_markers(workdir, tmp_path):
    """`workdir` with a configured `markers_dir` (so no manifest hides a file
    in it) and no language selection (so none is dropped by name), after
    `extract` and `silver`: the config, the output and the markers directory."""
    config, out = workdir
    text = config.read_text(encoding="utf-8").replace('  languages: ["lingua"]\n', "")
    given = tmp_path / "given"
    config = write_lines(tmp_path / "given.yaml", [text, f'markers_dir: "{given}"'])
    assert main(["extract", "--config", str(config)]) == 0
    assert main(["silver", "--config", str(config)]) == 0
    return config, out, given


def wrong_type_lines():
    """For each key of `CONFIG_KEYS` whose shape is not `object`, a config
    that gives it the value 5.5, which no such shape accepts."""
    for key, shape in CONFIG_KEYS.items():
        if shape is not object:
            yield [f"{key}: 5.5"]
        if isinstance(shape, tuple) and isinstance(shape[1], dict):
            yield from ([f"{key}: {{{inner}: 5.5}}"] for inner, kind in shape[1].items() if kind is not object)


class TestExtract:
    def test_writes_each_language_as_it_is_selected(self, workdir, monkeypatch):
        config, _out = workdir
        events, select, write = [], extraction.extract_markers_for_language, extraction.write_marker_file

        def selecting(grams, pipeline):
            events.append("select")
            return select(grams, pipeline)

        def writing(marker_set, path):
            events.append(f"write {marker_set.language}")
            write(marker_set, path)

        monkeypatch.setattr(extraction, "extract_markers_for_language", selecting)
        monkeypatch.setattr(extraction, "write_marker_file", writing)
        assert main(["extract", "--config", str(config), "--languages", "english,lingua,tercia"]) == 0
        assert events == ["select", "write english", "select", "write lingua", "select", "write tercia"]

    def test_writes_marker_files_and_manifest(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        markers = (out / "markers" / "lingua.tsv").read_text(encoding="utf-8")
        grams = [line.split("\t")[0] for line in markers.splitlines()]
        assert grams == ["ibus$", "um$"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["pipeline"]["theta"] == 5
        assert manifest["languages"] == ["lingua"]
        assert all(len(digest) == 64 for digest in manifest["inputs"].values())

    def test_manifest_records_the_inputs_as_project_does(self, workdir):
        """`manifest.json` holds the input record of `nps/manifest.json`, with
        the pipeline and languages where that holds the dump's hash, so an
        inline allowlist shows in both."""
        config, out = workdir
        for command in ("extract", "project"):
            assert main([command, "--config", str(config)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        record = json.loads((out / "nps" / "manifest.json").read_text(encoding="utf-8"))
        del manifest["pipeline"], manifest["languages"], record["parallel_nps"]
        assert manifest == record
        assert manifest["verse_allowlist"] is None
        write_lines(config, [config.read_text(encoding="utf-8"), "verse_allowlist: [v003, v001, v002]"])
        assert main(["extract", "--config", str(config)]) == 0
        allowed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert allowed["verse_allowlist"] == hashlib.sha256(b"v001\nv002\nv003").hexdigest()

    def test_threshold_override_changes_results(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config), "--theta", "61"]) == 0
        # theta above the planted type counts filters everything out
        markers = (out / "markers" / "lingua.tsv").read_text(encoding="utf-8")
        assert markers == ""

    def test_languages_flag_overrides(self, workdir, tmp_path):
        config, out = workdir
        assert main(["extract", "--config", str(config), "--languages", "tercia"]) == 0
        assert (out / "markers" / "tercia.tsv").exists()
        assert not (out / "markers" / "lingua.tsv").exists()

    @pytest.mark.parametrize("languages", ["nosuch", "lingua,nosuch"])
    def test_language_without_verse_files_exits_2_naming_it(self, workdir, capsys, languages):
        config, out = workdir
        assert main(["extract", "--config", str(config), "--languages", languages]) == 2
        assert capsys.readouterr().err == "casemark extract: no verse files for languages: nosuch\n"
        assert not out.exists()

    def test_pipeline_language_without_verse_files_exits_2_naming_it(self, workdir, tmp_path, capsys):
        config, out = workdir
        text = config.read_text(encoding="utf-8").replace('languages: ["lingua"]', 'languages: ["lingua", "klingon"]')
        typo = write_lines(tmp_path / "typo.yaml", [text])
        assert main(["extract", "--config", str(typo)]) == 2
        assert capsys.readouterr().err == "casemark extract: no verse files for languages: klingon\n"
        assert not out.exists()

    def test_ablate_flag_applies_variant(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config), "--ablate", "no_phi"]) == 0
        markers = (out / "markers" / "lingua.tsv").read_text(encoding="utf-8")
        grams = [line.split("\t")[0] for line in markers.splitlines()]
        assert "tum$" in grams

    def test_missing_alignment_pair_is_a_configuration_error(self, synth, tmp_path):
        config = tmp_path / "broken.yaml"
        write_lines(
            config,
            [
                "verse_files:",
                *[f'  - "{p}"' for p in synth.fixture.verse_files],
                "alignment_files:",
                f'  - "{synth.fixture.alignment_files[0]}"',
                "annotation_files:",
                *[f'  - "{p}"' for p in synth.fixture.annotation_files],
                f'output_dir: "{tmp_path / "out"}"',
            ],
        )
        assert main(["extract", "--config", str(config)]) == 2

    def test_missing_input_file_is_a_configuration_error(self, tmp_path):
        config = tmp_path / "broken.yaml"
        write_lines(
            config,
            [
                "verse_files:",
                '  - "nope-x1.txt"',
                '  - "nope-x2.txt"',
            ],
        )
        assert main(["extract", "--config", str(config)]) == 2


class TestNonAsciiIndices:
    """Indices that pass str.isdigit but not int() are parse errors (exit 2)."""

    def run_project(self, tmp_path, link, span):
        verse_files = tiny_corpus_files(tmp_path, {"alpha-a1.txt": {"v1": "a b"}, "beta-b1.txt": {"v1": "x y"}})
        alignment = write_lines(tmp_path / "align.tsv", ["#\talpha-a1\tbeta-b1", f"v1\t{link}"])
        annotation = write_lines(tmp_path / "alpha-a1.np", [f"v1\t{span}"])
        config = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{alignment}"]',
                f'annotation_files: ["{annotation}"]',
                f'output_dir: "{tmp_path / "out"}"',
            ],
        )
        return main(["project", "--config", str(config)])

    def test_superscript_link_index(self, tmp_path, capsys):
        assert self.run_project(tmp_path, "0-\u00b2", "0:1") == 2
        assert "bad link" in capsys.readouterr().err

    def test_superscript_span_end(self, tmp_path, capsys):
        assert self.run_project(tmp_path, "0-0", "0:\u00b9") == 2
        assert "bad span" in capsys.readouterr().err


class TestSilverCommand:
    def test_builds_silver_files(self, workdir):
        config, out = workdir
        assert main(["silver", "--config", str(config)]) == 0
        assert (out / "silver" / "lingua.txt").read_text(encoding="utf-8") == "ibus$\num$\n"
        diagnostics = (out / "silver" / "diagnostics.tsv").read_text(encoding="utf-8")
        assert "lingua\t1\t2" in diagnostics

    def test_no_paradigms_warns_but_succeeds(self, workdir, tmp_path, capsys):
        config, out = workdir
        lines = config.read_text(encoding="utf-8").splitlines()
        without = write_lines(tmp_path / "without.yaml", [line for line in lines if "paradigm" not in line])
        assert main(["silver", "--config", str(without)]) == 0
        assert "nothing to build" in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_perfect_match_scores_one(self, workdir, capsys):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["silver", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config)]) == 0
        results = (out / "eval" / "results.tsv").read_text(encoding="utf-8")
        assert "lingua\t1.0000\t1.0000\t1.0000" in results
        assert (out / "eval" / "diff" / "lingua.tsv").exists()

    def test_nothing_to_evaluate(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["silver", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config), "--languages", "tercia"]) == 2

    def test_scores_only_the_languages_of_the_last_extract(self, workdir):
        # lingua's marker file is left from the first extract; the manifest
        # of the second lists tercia only.
        config, out = workdir
        both = ["--languages", "lingua,tercia"]
        assert main(["silver", "--config", str(config)]) == 0
        write_lines(out / "silver" / "tercia.txt", ["a$", "um$"])
        assert main(["extract", "--config", str(config), *both]) == 0
        assert main(["extract", "--config", str(config), "--languages", "tercia"]) == 0
        assert (out / "markers" / "lingua.tsv").exists()
        assert main(["eval", "--config", str(config), *both]) == 0
        results = (out / "eval" / "results.tsv").read_text(encoding="utf-8")
        assert [line.split("\t")[0] for line in results.splitlines()] == ["language", "tercia", "average"]
        assert not (out / "eval" / "diff" / "lingua.tsv").exists()
        # Without a manifest, every marker file is scored, as before.
        (out / "manifest.json").unlink()
        assert main(["eval", "--config", str(config), *both]) == 0
        results = (out / "eval" / "results.tsv").read_text(encoding="utf-8")
        assert [line.split("\t")[0] for line in results.splitlines()] == ["language", "lingua", "tercia", "average"]

    def test_reads_only_the_marker_files_it_scores(self, given_markers):
        # notes.tsv is no marker file, and `notes` has no silver standard.
        config, out, given = given_markers
        assert main(["eval", "--config", str(config)]) == 0
        before = snapshot(out)
        write_lines(given / "notes.tsv", ["this is not a marker file"])
        assert main(["eval", "--config", str(config)]) == 0
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "manifest", ["{", "[]", '{"languages": 5}', "{}", '{"languages": "lingua"}', '{"languages": ["lingua", 5]}']
    )
    def test_manifest_without_languages_exits_2(self, workdir, capsys, manifest):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["silver", "--config", str(config)]) == 0
        (out / "manifest.json").write_text(manifest, encoding="utf-8")
        assert main(["eval", "--config", str(config)]) == 2
        assert "manifest" in capsys.readouterr().err


class TestAblateCommand:
    def test_grid_written(self, workdir):
        config, out = workdir
        assert main(["silver", "--config", str(config)]) == 0
        assert main(["ablate", "--config", str(config)]) == 0
        table = (out / "ablation" / "ablation.tsv").read_text(encoding="utf-8")
        lines = table.splitlines()
        assert lines[0] == "variant\tprecision\trecall\tf1"
        assert [line.split("\t")[0] for line in lines[1:]] == [
            "baseline", "no_theta", "no_phi", "no_chi", "middle", "beginning",
        ]
        assert lines[1] == "baseline\t1.0000\t1.0000\t1.0000"

    # The whole table, pinned by SHA-256 (hashes taken before the variants
    # shared one exact test per theta).
    EXPECTED = {
        (): "57c2927c0f34da99984e1f8fe7fbae4dd026babd359377639910665bcfefcf37",
        ("--theta", "1"): "2fa0c56fbf5068d134b9a99a52112b5a5e3c8c2191c91a930ae7387f9758c60e",
    }

    @pytest.mark.parametrize("flags", list(EXPECTED))
    def test_sha256_of_the_table(self, workdir, flags):
        config, out = workdir
        assert main(["silver", "--config", str(config)]) == 0
        assert main(["ablate", "--config", str(config), *flags]) == 0
        assert hashlib.sha256((out / "ablation" / "ablation.tsv").read_bytes()).hexdigest() == self.EXPECTED[flags]


class TestLanguageSelection:
    """`extract`, `silver`, `ablate` and `eval` check the language selection
    before they count or write anything: a named language without the inputs
    the command needs, or a selection of no language, exits 2."""

    @pytest.fixture
    def ready(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["silver", "--config", str(config)]) == 0
        return config, out, snapshot(out)

    @pytest.mark.parametrize(
        "command, languages, message",
        [
            ("ablate", "lingua,nosuch", "no verse files for languages: nosuch"),
            ("ablate", "nosuch", "no verse files for languages: nosuch"),
            ("ablate", "lingua,english", "no silver standards for languages: english"),
            ("ablate", "english,tercia", "no silver standards for languages: english, tercia"),
            ("eval", "lingua,nosuch", "no silver standards for languages: nosuch"),
            ("eval", "lingua,tercia", "no silver standards for languages: tercia"),
            ("silver", "lingua,nosuch", "no paradigm files for languages: nosuch"),
            ("silver", "klingon", "no paradigm files for languages: klingon"),
        ],
    )
    def test_named_language_without_inputs_exits_2(self, ready, capsys, command, languages, message):
        config, out, before = ready
        capsys.readouterr()
        assert main([command, "--config", str(config), "--languages", languages]) == 2
        assert capsys.readouterr() == ("", f"casemark {command}: {message}\n")
        assert snapshot(out) == before

    @pytest.mark.parametrize(
        "command, what",
        [("extract", "verse files"), ("silver", "paradigm files"), ("ablate", "verse files"), ("eval", "silver standards")],
    )
    @pytest.mark.parametrize(
        "flags, pipeline",
        [
            (["--languages", ""], []),
            (["--languages", ","], []),
            ([], ["  languages: []"]),
            ([], ["  languages: null", "  exclude_languages: [english, lingua, tercia]"]),
        ],
        ids=["empty flag", "comma flag", "empty list", "all excluded"],
    )
    def test_empty_selection_exits_2(self, ready, tmp_path, capsys, command, what, flags, pipeline):
        config, out, before = ready
        text = config.read_text(encoding="utf-8").replace('  languages: ["lingua"]\n', "".join(f"{line}\n" for line in pipeline))
        selection = write_lines(tmp_path / "selection.yaml", [text])
        capsys.readouterr()
        assert main([command, "--config", str(selection), *flags]) == 2
        message = f"casemark {command}: the language selection selects none of the languages with {what}\n"
        assert capsys.readouterr() == ("", message)
        assert snapshot(out) == before


class TestHiddenFiles:
    def test_hidden_files_are_no_languages(self, given_markers):
        """A hidden file, such as the `._lingua.tsv` that macOS writes
        beside `lingua.tsv`, is not read as the language `._lingua`."""
        config, out, given = given_markers
        commands = ("eval", "ablate", "analyze")
        for command in commands:
            assert main([command, "--config", str(config)]) == 0
        before = snapshot(out)
        write_lines(given / "._lingua.tsv", ["not a marker line"])
        hidden = write_lines(out / "silver" / "._lingua.txt", ["not a silver line"])
        for command in commands:
            assert main([command, "--config", str(config)]) == 0
        hidden.unlink()
        assert snapshot(out) == before


class TestAnalyzeAndProject:
    def test_analyze_outputs(self, workdir):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        assert (out / "analysis" / "groups.txt").read_text(encoding="utf-8").startswith("group\t")
        for name in ("matrix.tsv", "rows.txt", "cols.txt"):
            assert (out / "analysis" / name).exists()

    @pytest.mark.parametrize("analysis, malformed", [([], "zzz.tsv"), (["analysis:", "  languages: [lingua]"], "tercia.tsv")])
    def test_analyze_reads_only_the_marker_files_it_groups(self, workdir, tmp_path, analysis, malformed):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        groups = (out / "analysis" / "groups.txt").read_bytes()
        write_lines(out / "markers" / malformed, ["not a marker line"])
        # Grouped: analysis.languages when set, else the languages with an unannotated version.
        limited = write_lines(tmp_path / "limited.yaml", [config.read_text(encoding="utf-8"), *analysis])
        assert main(["analyze", "--config", str(limited)]) == 0
        assert (out / "analysis" / "groups.txt").read_bytes() == groups

    def test_default_languages_skip_a_source_only_language(self, workdir):
        """Without `analysis.languages`, `analyze` groups only the languages
        with an unannotated version: english, whose one version is the
        annotated source, gets no column, and its marker file is not read."""
        config, out = workdir
        assert main(["extract", "--config", str(config), "--languages", "english,lingua"]) == 0
        write_lines(out / "markers" / "english.tsv", ["not a marker line"])
        assert main(["analyze", "--config", str(config)]) == 0
        lines = (out / "analysis" / "groups.txt").read_text(encoding="utf-8").splitlines()
        keys = [line.split("\t")[1] for line in lines if line.startswith("group\t")]
        assert keys and all(key.startswith("lingua=") and " " not in key for key in keys)

    def test_analyze_skips_marker_files_the_manifest_does_not_list(self, workdir, tmp_path):
        """As in `eval`: lingua's marker file is stale after an extract of tercia alone."""
        config, out = workdir
        assert main(["extract", "--config", str(config), "--languages", "lingua,tercia"]) == 0
        assert main(["extract", "--config", str(config), "--languages", "tercia"]) == 0
        assert (out / "markers" / "lingua.tsv").exists()
        assert main(["analyze", "--config", str(config)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["extract", "--config", str(config), "--languages", "tercia", "--out", str(fresh)]) == 0
        assert main(["analyze", "--config", str(config), "--out", str(fresh)]) == 0
        groups = (out / "analysis" / "groups.txt").read_bytes()
        assert groups == (fresh / "analysis" / "groups.txt").read_bytes()
        # Without a manifest, every marker file is read.
        (out / "manifest.json").unlink()
        assert main(["analyze", "--config", str(config)]) == 0
        assert (out / "analysis" / "groups.txt").read_bytes() != groups

    def test_a_configured_markers_dir_is_read_whole(self, workdir, tmp_path):
        """The manifest governs only `<output_dir>/markers`, which `extract`
        owns: `eval` and `analyze` read every marker file given in another
        `markers_dir`, also after an extract of one language into it."""
        config, out = workdir
        assert main(["extract", "--config", str(config), "--languages", "lingua,tercia"]) == 0
        given, out2 = tmp_path / "given", tmp_path / "out2"
        shutil.copytree(out / "markers", given)
        lines = [config.read_text(encoding="utf-8"), f'markers_dir: "{given}"', "analysis:", "  languages: [lingua, tercia]"]
        configured = write_lines(tmp_path / "given.yaml", lines)
        assert main(["silver", "--config", str(configured), "--out", str(out2)]) == 0
        assert main(["extract", "--config", str(configured), "--languages", "tercia", "--out", str(out2)]) == 0
        assert json.loads((out2 / "manifest.json").read_text(encoding="utf-8"))["languages"] == ["tercia"]
        assert main(["analyze", "--config", str(configured), "--out", str(out2)]) == 0
        assert main(["eval", "--config", str(configured), "--out", str(out2)]) == 0
        assert (out2 / "eval" / "results.tsv").read_text(encoding="utf-8").splitlines()[1].startswith("lingua\t")

    def test_repeated_analysis_language_exits_2(self, workdir, tmp_path, capsys):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        repeated = write_lines(
            tmp_path / "repeated.yaml", [config.read_text(encoding="utf-8"), "analysis:", "  languages: [lingua, lingua]"]
        )
        assert main(["analyze", "--config", str(repeated)]) == 2
        assert "analysis.languages repeats lingua" in capsys.readouterr().err
        assert not (out / "analysis").exists()

    @pytest.mark.parametrize(
        "copies, named, message",
        [
            (["zzz"], ["zzz"], "no verse files for languages: zzz"),
            (["zzz", "yyy"], ["zzz", "yyy"], "no verse files for languages: yyy, zzz"),
            (["zzz"], ["zzz", "tercia"], "no verse files for languages: zzz"),
            ([], ["tercia"], "no marker files for languages: tercia"),
            (["english"], ["english"], "no unannotated versions for languages: english"),
            (["english", "zzz"], ["english", "zzz"], "no verse files for languages: zzz"),
            (["english"], ["english", "tercia"], "no unannotated versions for languages: english"),
        ],
    )
    def test_analysis_language_without_inputs_exits_2(self, workdir, tmp_path, capsys, copies, named, message):
        """A marker file is not enough: a language with no verse file, or
        whose every version is an annotated source (english), has no
        projection and would read `-` in every group. As for `extract
        --languages`, each such language is named and nothing is written;
        verse files come first, then unannotated versions."""
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        given = tmp_path / "given"
        given.mkdir()
        for language in ("lingua", *copies):
            shutil.copy(out / "markers" / "lingua.tsv", given / f"{language}.tsv")
        lines = [config.read_text(encoding="utf-8"), f'markers_dir: "{given}"', "analysis:"]
        configured = write_lines(tmp_path / "given.yaml", [*lines, f"  languages: [lingua, {', '.join(named)}]"])
        capsys.readouterr()
        assert main(["analyze", "--config", str(configured)]) == 2
        assert capsys.readouterr() == ("", f"casemark analyze: {message}\n")
        assert not (out / "analysis").exists()

    @pytest.mark.parametrize("broken", ["missing", "malformed"])
    def test_a_cold_analyze_checks_the_names_before_it_reads_an_input(self, workdir, tmp_path, capsys, broken):
        """The language names are checked against the file names and the
        marker files before any input is parsed, as on a reuse of the dump:
        a cold run reports a named language without verse files, not an
        alignment file that is missing or does not parse."""
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        alignment = tmp_path / "broken.tsv"
        if broken == "malformed":
            write_lines(alignment, ["no header"])
        text = config.read_text(encoding="utf-8").replace("alignment_files:\n", f'alignment_files:\n  - "{alignment}"\n')
        configured = write_lines(tmp_path / "broken.yaml", [text, "analysis:", "  languages: [lingua, zzz]"])
        capsys.readouterr()
        assert main(["analyze", "--config", str(configured)]) == 2
        assert capsys.readouterr() == ("", "casemark analyze: no verse files for languages: zzz\n")
        configured = write_lines(tmp_path / "broken.yaml", [text])
        assert main(["analyze", "--config", str(configured)]) == 2
        assert str(alignment) in capsys.readouterr().err
        assert not (out / "analysis").exists()

    def test_project_dumps_parallel_nps(self, workdir):
        config, out = workdir
        assert main(["project", "--config", str(config)]) == 0
        dump = (out / "nps" / "parallel_nps.tsv").read_text(encoding="utf-8")
        assert dump.count("\n") == 3000  # 1000 NPs x (source + 2 projections)


class TestDumpReuse:
    """After `project`, `analyze` in the same output directory reads the NP
    set back from the dump when `nps/manifest.json` is the record that the
    current inputs and that dump give, and parses no verse file and projects
    nothing; on any other record, or none, it parses and projects as a cold
    run does. Either way its `analysis/` files are the bytes of a cold
    `analyze` in a fresh output directory."""

    @pytest.fixture
    def ready(self, synth, workdir, tmp_path, monkeypatch):  # workdir writes the paradigm file that is copied
        """A copy of the fixture's inputs with given marker files, after
        `project`; the config, the output directory, the cold `analysis/`
        files and the list of `build_parallel_np_set` calls from here on."""
        root = relative_workdir(synth, tmp_path / "m1")
        config = root / "run.yaml"
        assert main(["extract", "--config", str(config), "--out", str(tmp_path / "extracted")]) == 0
        shutil.copytree(tmp_path / "extracted" / "markers", root / "given")
        write_lines(config, [config.read_text(encoding="utf-8"), "markers_dir: given"])
        assert main(["project", "--config", str(config)]) == 0
        cold = self.cold(config, tmp_path / "cold")
        calls, build = [], projection.build_parallel_np_set
        monkeypatch.setattr(projection, "build_parallel_np_set", lambda *args: calls.append(1) or build(*args))
        return config, root / "out", cold, calls

    @staticmethod
    def cold(config, out):
        assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
        return snapshot(out / "analysis")

    def test_analyze_after_project_reads_the_dump(self, ready, monkeypatch):
        config, out, cold, calls = ready
        record = json.loads((out / "nps" / "manifest.json").read_text(encoding="utf-8"))
        assert record["parallel_nps"] == hashlib.sha256((out / "nps" / "parallel_nps.tsv").read_bytes()).hexdigest()
        assert record["verse_files"] == sorted(name for name in record["inputs"] if name.startswith("verses/"))
        assert record["verse_allowlist"] is None

        def no_parse(*args):
            raise AssertionError("a verse file was parsed")

        monkeypatch.setattr(cli, "load_corpus", no_parse)
        assert main(["analyze", "--config", str(config)]) == 0
        assert calls == []
        assert snapshot(out / "analysis") == cold
        assert len(cold) == 4 and all(cold.values())

    @staticmethod
    def unhyphenate_a_projection(text):
        """The dump text with the version field of its first projection
        line, a line of no source, made `nohyphen`."""
        lines = [line.split("\t") for line in text.splitlines()]
        next(fields for fields in lines if fields[1] != "english-e1")[1] = "nohyphen"
        return "".join("\t".join(fields) + "\n" for fields in lines)

    @pytest.mark.parametrize(
        "forge", [lambda _text: "v1\tbad line\n", unhyphenate_a_projection], ids=["two fields", "version nohyphen"],
    )
    def test_a_matching_record_over_an_unreadable_dump_exits_2(self, ready, capsys, forge):
        """A dump that `project` cannot write, under a record rewritten to
        its hash, is a hit; its text does not read as a dump, and `analyze`
        exits 2 naming the dump before it writes anything."""
        config, out, _cold, calls = ready
        dump = out / "nps" / "parallel_nps.tsv"
        dump.write_text(forge(dump.read_text(encoding="utf-8")), encoding="utf-8")
        record = json.loads(dump.with_name("manifest.json").read_text(encoding="utf-8"))
        record["parallel_nps"] = hashlib.sha256(dump.read_bytes()).hexdigest()
        dump.with_name("manifest.json").write_text(json.dumps(record), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"casemark analyze: {dump}: ") and err.count("\n") == 1
        assert calls == []
        assert not (out / "analysis").exists()

    @staticmethod
    def lower_first_link(root):
        """One byte of an alignment file changed: the target index of a
        link, to a lower one, so the file stays valid."""
        path = root / "alignments" / "align_english-e1_lingua-l1.tsv"
        data = bytearray(path.read_bytes())
        at = re.search(rb"-[1-9]", data).start() + 1
        data[at] = ord("0")
        path.write_bytes(bytes(data))

    @staticmethod
    def change_a_verse_byte(root):
        """One byte of a target's verse file changed: the first letter of
        its first token, so the file stays valid and a row changes."""
        path = root / "verses" / "lingua-l1.txt"
        data = bytearray(path.read_bytes())
        at = data.index(b"\t") + 1
        data[at] = ord("y" if data[at] == ord("z") else "z")
        path.write_bytes(bytes(data))

    @staticmethod
    def allow_some_verses(root):
        config = root / "run.yaml"
        write_lines(config, [config.read_text(encoding="utf-8"), "verse_allowlist: [v001, v002, v003, v010, v011]"])

    @staticmethod
    def edit_a_dump_line(root):
        path = root / "out" / "nps" / "parallel_nps.tsv"
        first, rest = path.read_text(encoding="utf-8").split("\n", 1)
        path.write_text(first + "x\n" + rest, encoding="utf-8")

    @pytest.mark.parametrize(
        "change",
        [
            lower_first_link,
            change_a_verse_byte,
            allow_some_verses,
            edit_a_dump_line,
            lambda root: (root / "out" / "nps" / "manifest.json").unlink(),
            lambda root: (root / "out" / "nps" / "manifest.json").write_text("{not json", encoding="utf-8"),
            lambda root: (root / "out" / "nps" / "manifest.json").write_text("[]\n", encoding="utf-8"),
            lambda root: (root / "out" / "nps" / "manifest.json").write_text("[" * 100000, encoding="utf-8"),
        ],
        ids=["alignment byte", "verse byte", "allowlist added", "dump line edited", "record deleted", "record not JSON",
             "record a list", "record nested too deep"],
    )
    def test_any_other_record_is_a_miss(self, ready, tmp_path, change):
        config, out, _cold, calls = ready
        change(config.parent)
        cold = self.cold(config, tmp_path / "cold_after")  # the inputs may have changed
        calls.clear()
        assert main(["analyze", "--config", str(config)]) == 0
        assert calls == [1]
        assert snapshot(out / "analysis") == cold

    def test_a_changed_allowlist_file_is_a_miss(self, ready, tmp_path):
        """The record holds the hash of the effective allowlist, not only of
        the input files: the allowlist file is not one of them."""
        config, out, _cold, calls = ready
        allowlist = write_lines(config.parent / "allow.txt", ["v001", "v002", "v003", "v010", "v011"])
        write_lines(config, [config.read_text(encoding="utf-8"), "verse_allowlist_file: allow.txt"])
        assert main(["project", "--config", str(config)]) == 0
        calls.clear()
        assert main(["analyze", "--config", str(config)]) == 0
        assert calls == []
        assert snapshot(out / "analysis") == self.cold(config, tmp_path / "cold_allowed")
        write_lines(allowlist, ["v001", "v002", "v010"])
        cold = self.cold(config, tmp_path / "cold_after")
        calls.clear()
        assert main(["analyze", "--config", str(config)]) == 0
        assert calls == [1]
        assert snapshot(out / "analysis") == cold

    def test_a_file_listed_twice_is_checked_as_before(self, ready, capsys):
        """The input hashes are keyed by name, so they do not show an
        annotation file listed twice; the record's list of names does, and
        `analyze` reports the duplicate as a cold run does."""
        config, out, _cold, calls = ready
        text = config.read_text(encoding="utf-8")
        name = re.search(r'annotation_files: \["(.*)"\]', text).group(1)
        config.write_text(text.replace(f'["{name}"]', f'["{name}", "{name}"]'), encoding="utf-8")
        capsys.readouterr()
        assert main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "casemark analyze: duplicate annotation for version english-e1\n"
        assert calls == [1]


class TestAnalysisFileBytes:
    """The `analyze` and `project` outputs of the synthetic fixture, pinned
    by SHA-256 (hashes taken before the matrix was counted row by row).
    `groups.txt` depends on the marker files; the matrix and the NP dump do
    not. The second `groups.txt` hash was taken again when `analyze` stopped
    grouping by english, a source-only language, by default: the only change
    was its `english=-` column."""

    MATRIX = {
        "analysis/rows.txt": "3b5845bbe304c08fda7e91027bbb425fb3da717ea9b42df41cc8678f522d76cd",
        "analysis/cols.txt": "568e82419e8f6b824d593c3d30260b3fe6dfccf8d8052d9159b7253a59b106ef",
        "analysis/matrix.tsv": "2548f36858c956fe12523fc00ffb33c5eb0f4dd1116c6e912cb14553f82f8fb3",
        "nps/parallel_nps.tsv": "08a339b7e07ca714722cdc7af4a8f237f0589eb88bd0b110beb7934d78f7c215",
    }
    GROUPS = {
        (): "f7138e50017b63060e90365297ff55ed57fe2cc3231b08e21f5186de93363b09",
        ("--languages", "english,lingua,tercia", "--theta", "1", "--no-suffix-only"):
            "8f41bbb3e7a65fcbf2aa721b70a7dec5a07508396ee6c3447872a5693bde628e",
    }

    @pytest.mark.parametrize("flags", list(GROUPS))
    def test_sha256_of_each_file(self, workdir, flags):
        config, out = workdir
        assert main(["extract", "--config", str(config), *flags]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        assert main(["project", "--config", str(config)]) == 0
        expected = {"analysis/groups.txt": self.GROUPS[flags], **self.MATRIX}
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected} == expected


def run_module(*argv, **env) -> subprocess.CompletedProcess:
    """`python -m casemark.cli *argv` in a new interpreter that imports this
    checkout's package, with `env` added to its environment; stdout and
    stderr are captured as bytes. The child's stdout is block-buffered, as in
    a pipeline, whatever PYTHONUNBUFFERED says here."""
    src = str(Path(casemark.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child_env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    child_env.update(env, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "casemark.cli", *argv], env=child_env, capture_output=True)


class TestHashSeedIndependence:
    """Set and Counter iteration orders follow the string hash seed, so each
    run goes to a new interpreter under a different PYTHONHASHSEED."""

    COMMANDS = (
        ("extract", "--theta", "1", "--no-suffix-only", "--languages", "english,lingua,tercia"),
        ("silver",),
        ("ablate",),
        ("project",),
        ("analyze",),
    )

    def run_all(self, config, out, hash_seed):
        for command in self.COMMANDS:
            run_module(*command, "--config", str(config), "--out", str(out), PYTHONHASHSEED=hash_seed).check_returncode()
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    def test_outputs_are_byte_identical_across_hash_seeds(self, workdir, tmp_path):
        config, _out = workdir
        first = self.run_all(config, tmp_path / "seed0", "0")
        second = self.run_all(config, tmp_path / "seed1", "1")
        assert first == second
        assert {"manifest.json", "ablation/ablation.tsv", "nps/parallel_nps.tsv", "analysis/matrix.tsv"} <= {
            str(path) for path in first
        }
        # At theta 1 with every position kept, more than the two planted suffixes pass.
        assert len(first[Path("markers/lingua.tsv")].splitlines()) > 2


class TestProcessExit:
    """A command run as `python -m casemark.cli` ends in `cli.run`, which
    flushes stdout and stderr and then exits without the interpreter's
    teardown: no printed output, no exit code and no output file is lost."""

    def test_printed_tables_are_the_written_ones(self, workdir):
        config, out = workdir
        for command in ("extract", "silver"):
            assert main([command, "--config", str(config)]) == 0
        for command, table in (("ablate", "ablation/ablation.tsv"), ("eval", "eval/results.tsv")):
            run = run_module(command, "--config", str(config))
            assert (run.returncode, run.stderr) == (0, b""), command
            assert run.stdout == (out / table).read_bytes() != b""

    def test_a_bad_config_exits_2(self, tmp_path):
        config = write_lines(tmp_path / "run.yaml", ["no_such_key: 1"])
        run = run_module("extract", "--config", str(config))
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr.decode() == "casemark extract: unknown config keys: no_such_key\n"

    def test_a_usage_error_exits_2(self):
        run = run_module("extract")
        assert (run.returncode, run.stdout) == (2, b"")
        assert run.stderr.decode().endswith("error: the following arguments are required: --config\n")

    def test_a_failed_language_exits_1_after_the_others(self, workdir):
        config, out = workdir
        (out / "markers" / "english.tsv").mkdir(parents=True)  # no file can replace a directory
        run = run_module("extract", "--config", str(config), "--languages", "english,lingua,tercia")
        assert (run.returncode, run.stdout) == (1, b"")
        assert run.stderr.decode().startswith("extract: english: ")
        assert sorted(p.name for p in (out / "markers").iterdir() if p.is_file()) == ["lingua.tsv", "tercia.tsv"]
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["languages"] == ["lingua", "tercia"]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The cyclic garbage collector switched on or off for the test, as the
    parameter says, and back as it was afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """`main` reads the config and runs the command with the cyclic garbage
    collector paused, and gives the caller its collector state back on every
    way out. Argparse runs before the pause."""

    def test_no_collection_runs_inside_a_command(self, synth, workdir, tmp_path, monkeypatch):
        config = relative_workdir(synth, tmp_path / "m1") / "run.yaml"
        events, read_config = [], cli.load_run_config

        def paused(*args):  # the first call after the pause
            events.append("command")
            return read_config(*args)

        def hook(phase, info):
            if phase == "start":
                events.append(f"collect generation {info['generation']}")

        monkeypatch.setattr(cli, "load_run_config", paused)
        gc.callbacks.append(hook)
        try:
            for command in ("extract", "silver", "eval", "ablate", "project", "analyze"):
                events.clear()
                assert main([command, "--config", str(config)]) == 0, command
                assert events[events.index("command"):] == ["command"], command
        finally:
            gc.callbacks.remove(hook)

    def test_every_exit_gives_the_caller_its_collector_state(self, workdir, tmp_path, monkeypatch, collector):
        config, out = workdir
        bad = write_lines(tmp_path / "bad.yaml", ["no_such_key: 1"])
        (out / "markers" / "english.tsv").mkdir(parents=True)  # no file can replace a directory
        for code, argv in (
            (0, ["silver", "--config", str(config)]),
            (1, ["extract", "--config", str(config), "--languages", "english,lingua,tercia"]),
            (2, ["extract", "--config", str(bad)]),
        ):
            assert main(argv) == code
            assert gc.isenabled() is collector, code
        with pytest.raises(SystemExit):
            main(["extract"])
        assert gc.isenabled() is collector

        def crash(*args):
            raise RuntimeError("crash")

        monkeypatch.setattr(cli, "load_run_config", crash)
        with pytest.raises(RuntimeError):
            main(["silver", "--config", str(config)])
        assert gc.isenabled() is collector


class TestCyclicGarbage:
    """What pausing the collector rests on: `extract`, `project` and
    `analyze` leave a bounded number of objects in cycles for it, argparse's
    parsers among them, and the same number on twice the verses. A change
    that builds a cycle per verse or per NP fails here."""

    def garbage(self, root, n_verses) -> dict[str, int]:
        fixture = build_fixture(root, n_verses=n_verses)
        names = {"verse_files": fixture.verse_files, "alignment_files": fixture.alignment_files,
                 "annotation_files": fixture.annotation_files}
        config = write_lines(root / "run.yaml", [
            *(f"{key}: {json.dumps([str(p) for p in paths])}" for key, paths in names.items()),
            f"pipeline: {{theta: {fixture.theta}}}",
        ])
        found = {}
        for command in ("extract", "project", "analyze"):
            gc.collect()
            assert main([command, "--config", str(config)]) == 0, command
            found[command] = gc.collect()
        return found

    @pytest.mark.parametrize("collector", [False], ids=["collector-off"], indirect=True)
    def test_the_same_on_twice_the_verses(self, tmp_path, collector):
        small, large = (self.garbage(tmp_path / str(n), n) for n in (500, 1000))
        assert small == large
        assert max(small.values()) < 2000


def relative_workdir(synth, root):
    """The synthetic fixture and `workdir`'s paradigm file copied under
    `root`, with a `run.yaml` there that names every input relative to
    itself (the verse files by a glob) and writes to `out`; returns `root`."""
    fixture = synth.fixture
    groups = {"verses": fixture.verse_files, "alignments": fixture.alignment_files, ".": fixture.annotation_files}
    for directory, paths in groups.items():
        (root / directory).mkdir(parents=True, exist_ok=True)
        for path in paths:
            shutil.copy(path, root / directory / path.name)
    shutil.copy(fixture.root / "lingua.paradigms.tsv", root)
    write_lines(
        root / "run.yaml",
        [
            'verse_files: ["verses/*.txt"]',
            "alignment_files:",
            *[f'  - "alignments/{p.name}"' for p in fixture.alignment_files],
            f'annotation_files: ["{fixture.annotation_files[0].name}"]',
            "paradigm_files: {lingua: lingua.paradigms.tsv}",
            f"pipeline: {{theta: {fixture.theta}}}",
            "output_dir: out",
        ],
    )
    return root


def run_every_command(config, cwd, monkeypatch, commands=("extract", "silver", "ablate", "project", "analyze")):
    """Each of `commands` (by default every subcommand) on `config` from the
    working directory `cwd`, then the output tree of the config's `out`."""
    monkeypatch.chdir(cwd)
    for command in commands:
        assert main([command, "--config", str(config)]) == 0, command
    return snapshot(cwd / Path(config).parent / "out")


class TestWorkingDirectoryIndependence:
    def test_own_directory_and_its_parent_give_the_same_tree(self, synth, workdir, tmp_path, monkeypatch):
        root = relative_workdir(synth, tmp_path / "m1")
        first = run_every_command("run.yaml", root, monkeypatch)
        shutil.rmtree(root / "out")
        assert run_every_command("m1/run.yaml", tmp_path, monkeypatch) == first
        inputs = json.loads(first[Path("manifest.json")])["inputs"]
        assert sorted(json.loads(first[Path("nps/manifest.json")])["inputs"]) == sorted(inputs)
        assert sorted(inputs) == sorted(
            [f"verses/{p.name}" for p in synth.fixture.verse_files]
            + [f"alignments/{p.name}" for p in synth.fixture.alignment_files]
            + [p.name for p in synth.fixture.annotation_files]
        )


class TestLineOrderInvariance:
    """Shuffling the lines of every verse, annotation and alignment file (the
    alignment header kept first) changes no output but the input hashes in
    `manifest.json` and `nps/manifest.json`. The rest of each manifest stays:
    the pipeline and languages, or the dump's hash, and the file lists and
    the allowlist hash."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_shuffled_input_lines_change_no_output(self, synth, workdir, tmp_path, monkeypatch, seed):
        plain = run_every_command("run.yaml", relative_workdir(synth, tmp_path / "plain"), monkeypatch)
        root, rng = relative_workdir(synth, tmp_path / "shuffled"), random.Random(seed)
        for path in [*root.glob("verses/*"), *root.glob("alignments/*"), *root.glob("*.np")]:
            lines = path.read_text(encoding="utf-8").splitlines()
            head = 1 if path.parent.name == "alignments" else 0
            body = lines[head:]
            rng.shuffle(body)
            write_lines(path, lines[:head] + body)
        shuffled = run_every_command("run.yaml", root, monkeypatch)
        for relative in ("manifest.json", "nps/manifest.json"):
            manifests = [json.loads(tree.pop(Path(relative))) for tree in (plain, shuffled)]
            inputs = [manifest.pop("inputs") for manifest in manifests]
            assert inputs[0].keys() == inputs[1].keys()
            assert all(inputs[0][name] != inputs[1][name] for name in inputs[0])  # every input was reordered
            assert manifests[0] == manifests[1]  # pipeline, languages, file lists, allowlist and dump hashes
        assert shuffled == plain
        assert {"markers/lingua.tsv", "silver/lingua.txt", "ablation/ablation.tsv", "nps/parallel_nps.tsv"} <= {
            str(path) for path in plain
        }


def copy_alignment(root, version, copy):
    """The alignment of `english-e1` with `version` under `root`, copied as
    its alignment with `copy`, with a header that names `copy`, and listed in
    `root/run.yaml`."""
    lines = (root / "alignments" / f"align_english-e1_{version}.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"#\tenglish-e1\t{version}"
    name = f"alignments/align_english-e1_{copy}.tsv"
    write_lines(root / name, [f"#\tenglish-e1\t{copy}", *lines[1:]])
    config = (root / "run.yaml").read_text(encoding="utf-8")
    listed = config.replace("alignment_files:\n", f'alignment_files:\n  - "{name}"\n')
    (root / "run.yaml").write_text(listed, encoding="utf-8")


class TestDuplicatedEditionInvariance:
    """A copy of the unannotated edition `lingua-l1` as `lingua-l2`, aligned
    like it, changes no marker, silver or ablation file; the NP dump gains a
    `lingua-l2` line after each `lingua-l1` line, the same but for the
    version."""

    COMMANDS = ("extract", "silver", "ablate", "project")

    def test_copied_edition_adds_only_its_np_lines(self, synth, workdir, tmp_path, monkeypatch):
        plain = run_every_command("run.yaml", relative_workdir(synth, tmp_path / "plain"), monkeypatch, self.COMMANDS)
        root = relative_workdir(synth, tmp_path / "copied")
        shutil.copy(root / "verses" / "lingua-l1.txt", root / "verses" / "lingua-l2.txt")
        copy_alignment(root, "lingua-l1", "lingua-l2")
        copied = run_every_command("run.yaml", root, monkeypatch, self.COMMANDS)
        for tree in (plain, copied):
            del tree[Path("manifest.json")]
        records = [json.loads(tree.pop(Path("nps/manifest.json"))) for tree in (plain, copied)]
        # The dump changes, and with it the record; the copy adds one input of each kind.
        added = {"verses/lingua-l2.txt", "alignments/align_english-e1_lingua-l2.tsv"}
        assert records[1]["inputs"] == {**records[0]["inputs"], **{name: records[1]["inputs"][name] for name in added}}
        assert len(records[1]["inputs"]) == len(records[0]["inputs"]) + 2
        dump = Path("nps/parallel_nps.tsv")
        plain_nps, copied_nps = plain.pop(dump).decode().splitlines(), copied.pop(dump).decode().splitlines()
        assert copied == plain
        assert {"markers/lingua.tsv", "silver/lingua.txt", "ablation/ablation.tsv"} <= {str(path) for path in plain}
        expected = []
        for line in plain_nps:
            expected.append(line)
            if "\tlingua-l1\t" in line:
                expected.append(line.replace("\tlingua-l1\t", "\tlingua-l2\t"))
        assert (len(plain_nps), len(copied_nps)) == (3000, 4000)
        assert copied_nps == expected


class TestLanguageRenameInvariance:
    """Renaming the language `lingua` to `zeta`, in its verse file's name and
    in its alignment's file name and header, moves it from the middle of the
    language order to its end; `extract` then writes the bytes of
    `markers/lingua.tsv` to `markers/zeta.tsv`, and every other marker file
    as before."""

    def test_renamed_language_keeps_its_marker_file(self, synth, workdir, tmp_path, monkeypatch):
        plain = run_every_command("run.yaml", relative_workdir(synth, tmp_path / "plain"), monkeypatch, ("extract",))
        root = relative_workdir(synth, tmp_path / "renamed")
        (root / "verses" / "lingua-l1.txt").rename(root / "verses" / "zeta-l1.txt")
        alignment = root / "alignments" / "align_english-e1_lingua-l1.tsv"
        lines = alignment.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#\tenglish-e1\tlingua-l1"
        write_lines(root / "alignments" / "align_english-e1_zeta-l1.tsv", ["#\tenglish-e1\tzeta-l1", *lines[1:]])
        alignment.unlink()
        config = (root / "run.yaml").read_text(encoding="utf-8")
        (root / "run.yaml").write_text(config.replace("_lingua-l1.tsv", "_zeta-l1.tsv"), encoding="utf-8")
        renamed = run_every_command("run.yaml", root, monkeypatch, ("extract",))
        markers = [{path.name: data for path, data in tree.items() if path.parent.name == "markers"}
                   for tree in (plain, renamed)]
        assert sorted(markers[0]) == ["english.tsv", "lingua.tsv", "tercia.tsv"]
        assert markers[0]["lingua.tsv"]
        markers[0]["zeta.tsv"] = markers[0].pop("lingua.tsv")
        assert markers[1] == markers[0]


class TestRelabeledLanguageInvariance:
    """A target language added over the same verses changes no other marker
    file. When it is `lingua` with every token relabeled by a fixed
    permutation of the characters its tokens use, its marker file holds
    lingua's lines with each gram relabeled and the counts, p-values and odds
    ratios unchanged. The relabeling is injective and ASCII, so NFC leaves it
    alone; the verse ids stay as they are."""

    def test_added_language_has_the_relabeled_markers(self, synth, workdir, tmp_path, monkeypatch):
        plain = run_every_command("run.yaml", relative_workdir(synth, tmp_path / "plain"), monkeypatch, ("extract",))
        root = relative_workdir(synth, tmp_path / "added")
        lines = (root / "verses" / "lingua-l1.txt").read_text(encoding="utf-8").splitlines()
        verses = [line.split("\t") for line in lines]
        letters = "".join(sorted({letter for _verse, text in verses for letter in text} - {" "}))
        relabel = str.maketrans(letters, letters[1:] + letters[0])
        write_lines(root / "verses" / "quarta-q1.txt",
                    [f"{verse}\t{text.translate(relabel)}" for verse, text in verses])
        copy_alignment(root, "lingua-l1", "quarta-q1")
        added = run_every_command("run.yaml", root, monkeypatch, ("extract",))
        markers = [{path.name: data for path, data in tree.items() if path.parent.name == "markers"}
                   for tree in (plain, added)]
        quarta = markers[1].pop("quarta.tsv").decode().splitlines()
        assert markers[1] == markers[0]
        lingua = markers[0]["lingua.tsv"].decode().splitlines()
        relabeled = ["\t".join([gram.translate(relabel), *rest]) for gram, *rest in map(str.split, lingua)]
        assert sorted(quarta) == sorted(relabeled) != sorted(lingua)


class TestUnsharedVerseInvariance:
    """A line with a fresh verse id in one verse file only, a verse that no
    other version has, changes no output of any subcommand but that file's
    input hash in `manifest.json` and `nps/manifest.json`. The rest of each
    manifest stays: the pipeline and languages, or the dump's hash, and the
    file lists and the allowlist hash."""

    def test_verse_of_one_version_changes_only_its_input_hash(self, synth, workdir, tmp_path, monkeypatch):
        plain = run_every_command("run.yaml", relative_workdir(synth, tmp_path / "plain"), monkeypatch)
        root = relative_workdir(synth, tmp_path / "unshared")
        verses = root / "verses" / "lingua-l1.txt"
        verses.write_text(verses.read_text(encoding="utf-8") + "v999\tsatorum nova\n", encoding="utf-8")
        unshared = run_every_command("run.yaml", root, monkeypatch)
        for relative in ("manifest.json", "nps/manifest.json"):
            manifests = [json.loads(tree.pop(Path(relative))) for tree in (plain, unshared)]
            inputs = [manifest.pop("inputs") for manifest in manifests]
            assert inputs[0].keys() == inputs[1].keys()
            assert [name for name in inputs[0] if inputs[0][name] != inputs[1][name]] == ["verses/lingua-l1.txt"]
            assert manifests[0] == manifests[1]  # pipeline, languages, file lists, allowlist and dump hashes
        assert unshared == plain
        assert {"markers/lingua.tsv", "silver/lingua.txt", "ablation/ablation.tsv", "nps/parallel_nps.tsv",
                "analysis/groups.txt"} <= {str(path) for path in plain}


class TestRunConfigLoading:
    def test_unknown_keys_rejected(self, tmp_path):
        config = write_lines(tmp_path / "c.yaml", ["bogus_key: 1"])
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            load_run_config(config)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_lines(sub / "alpha-a1.txt", ["v1\ta"])
        config = write_lines(sub / "c.yaml", ["verse_files:", '  - "alpha-a1.txt"'])
        loaded = load_run_config(config)
        assert loaded.verse_files[0] == sub / "alpha-a1.txt"

    def test_glob_expansion(self, synth, tmp_path):
        root = synth.fixture.root
        config = write_lines(tmp_path / "c.yaml", ["verse_files:", f'  - "{root}/*.txt"'])
        loaded = load_run_config(config)
        assert len(loaded.verse_files) >= 3

    def test_glob_matches_in_every_part_of_the_path(self, tmp_path):
        (tmp_path / "a").mkdir()
        write_lines(tmp_path / "a" / "x.txt", ["v1\ta"])
        config = write_lines(tmp_path / "c.yaml", ['verse_files: ["*/x.txt"]'])
        assert load_run_config(config).verse_files == [tmp_path / "a" / "x.txt"]

    def test_inputs_are_keyed_as_the_config_names_them(self, tmp_path, monkeypatch):
        (tmp_path / "sub" / "a").mkdir(parents=True)
        for name in ("x-1.txt", "y-1.txt", "z.np"):
            write_lines(tmp_path / "sub" / "a" / name, ["v1\ta"])
        absolute = tmp_path / "sub" / "a" / "z.np"
        config = write_lines(
            tmp_path / "sub" / "c.yaml", ['verse_files: ["a/*.txt"]', f'annotation_files: ["{absolute}"]']
        )
        monkeypatch.chdir(tmp_path)
        loaded = load_run_config("sub/c.yaml")
        assert loaded.inputs == {
            "a/x-1.txt": Path("sub/a/x-1.txt"),
            "a/y-1.txt": Path("sub/a/y-1.txt"),
            str(absolute): absolute,
        }

    def test_glob_skips_hidden_files(self, tmp_path):
        (tmp_path / "a").mkdir()
        for name in ("y.txt", ".y.txt", "._lingua-a1.txt"):
            write_lines(tmp_path / "a" / name, ["v1\ta"])
        config = write_lines(tmp_path / "c.yaml", ['verse_files: ["a/*.txt"]'])
        assert load_run_config(config).verse_files == [tmp_path / "a" / "y.txt"]

    def test_flags_give_the_config_of_the_keys_they_override(self, tmp_path, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        plain = write_lines(sub / "plain.yaml", ["jobs: 1"])
        keyed = write_lines(
            sub / "keyed.yaml",
            ["pipeline: {theta: 5, phi: 0.5, chi: 1, suffix_only: false, languages: [a, b]}", "output_dir: d"],
        )
        argv = ["--theta", "5", "--phi", "0.5", "--chi", "1", "--no-suffix-only", "--languages", "a,b", "--out", "d"]
        flags = vars(cli._build_parser()[0].parse_args(["extract", "--config", str(plain), *argv]))
        del flags["command"], flags["config"]
        monkeypatch.chdir(tmp_path)
        from_flags, from_keys = load_run_config(plain, flags), load_run_config(keyed)
        assert from_flags.pipeline == from_keys.pipeline
        assert from_keys.pipeline.languages == ("a", "b")
        # A relative --out resolves against the working directory, output_dir against the config's.
        assert (from_flags.output_dir, from_flags.markers_dir) == (Path.cwd() / "d", Path.cwd() / "d" / "markers")
        assert (from_keys.output_dir, from_keys.silver_dir) == (sub / "d", sub / "d" / "silver")

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_run_config(tmp_path / "absent.yaml")

    def test_bad_pipeline_key(self, tmp_path):
        config = write_lines(tmp_path / "c.yaml", ["pipeline:", "  nope: 1"])
        with pytest.raises(ConfigurationError, match="bad pipeline config"):
            load_run_config(config)

    def test_unknown_analysis_key_rejected(self, tmp_path):
        config = write_lines(tmp_path / "c.yaml", ["analysis:", "  sample_per_group: 1"])
        with pytest.raises(ConfigurationError, match="unknown config keys: analysis.sample_per_group"):
            load_run_config(config)

    def test_verse_allowlist_sources_merge(self, tmp_path):
        write_lines(tmp_path / "allow.txt", ["v1", "v2"])
        config = write_lines(
            tmp_path / "c.yaml",
            ['verse_allowlist: ["v3"]', 'verse_allowlist_file: "allow.txt"'],
        )
        assert load_run_config(config).verse_allowlist == {"v1", "v2", "v3"}

    def test_suffix_only_is_the_spelling_of_positions(self, tmp_path):
        default = write_lines(tmp_path / "a.yaml", ["pipeline:", "  theta: 5"])
        assert load_run_config(default).pipeline.positions == {"final"}
        off = write_lines(tmp_path / "b.yaml", ["pipeline:", "  suffix_only: false"])
        assert load_run_config(off).pipeline.positions == {"final", "initial", "internal"}
        direct = write_lines(tmp_path / "c.yaml", ["pipeline:", "  positions: [final]"])
        with pytest.raises(ConfigurationError, match="bad pipeline config"):
            load_run_config(direct)


class TestConfigShapes:
    """A YAML value of the wrong shape is a configuration error (exit 2),
    never a traceback."""

    @pytest.mark.parametrize(
        "lines",
        [
            ["pipeline: [1]"],
            ["pipeline: {languages: 5}"],
            ["pipeline: {exclude_languages: 5}"],
            ["analysis: {languages: 5}"],
            ["analysis: [1]"],
            ["verse_files: 5"],
            ["annotation_files: {a: 1}"],
            ["paradigm_files: [1]"],
            ["verse_allowlist: 5"],
            ["output_dir: 5"],
            *wrong_type_lines(),
        ],
    )
    def test_exits_2_without_traceback(self, tmp_path, capsys, lines):
        config = write_lines(tmp_path / "c.yaml", lines)
        assert main(["project", "--config", str(config)]) == 2
        # The one message format of the shape checks, and nothing else.
        assert re.fullmatch(r"casemark project: config key [\w.]+ must be [^,]+, got .+\n", capsys.readouterr().err)

    @pytest.mark.parametrize("key", ['"../../evil"', "1", '""', '"."', '".."', '"a/b"'])
    def test_paradigm_file_keys_must_be_plain_file_names(self, tmp_path, capsys, key):
        # `silver` writes <silver_dir>/<key>.txt.
        (tmp_path / "run").mkdir()
        write_lines(tmp_path / "run" / "p.tsv", ["dom\tdomus\tN;NOM;SG", "dom\tdomibus\tN;DAT;PL"])
        config = write_lines(tmp_path / "run" / "c.yaml", [f"paradigm_files: {{lingua: p.tsv, {key}: p.tsv}}"])
        before = snapshot(tmp_path)
        assert main(["silver", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config key paradigm_files must be keyed by plain file names, got " in err
        assert "Traceback" not in err
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize(
        "command, lines",
        [
            ("silver", ["verse_files: [5]"]),
            ("extract", ["alignment_files: [a.txt, 5]"]),
            ("project", ["annotation_files: [[a.txt]]"]),
            ("silver", ["paradigm_files: {lingua: 5}"]),
            ("silver", ["paradigm_files: {lingua: null}"]),
            ("extract", ["pipeline: {languages: [5]}"]),
            ("extract", ["pipeline: {exclude_languages: [lingua, {a: 1}]}"]),
            ("analyze", ["analysis: {languages: [5]}"]),
            # YAML reads these unquoted verse ids as the numbers 1.0 and 262657 (octal).
            ("project", ["verse_allowlist: [01.000]"]),
            ("project", ["verse_allowlist: [01001001]"]),
        ],
    )
    def test_non_string_elements_exit_2_without_traceback(self, tmp_path, capsys, command, lines):
        config = write_lines(tmp_path / "c.yaml", lines)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "must hold str values" in err
        assert "Traceback" not in err

    def test_max_gram_length_is_no_longer_accepted(self, tmp_path, capsys):
        config = write_lines(tmp_path / "c.yaml", ["pipeline: {max_gram_length: 3}"])
        assert main(["extract", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "bad pipeline config" in err and "max_gram_length" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["use_p_filter", "use_ratio_filter"])
    def test_filter_switches_are_no_longer_accepted(self, tmp_path, capsys, key):
        # `phi: null` and `chi: null` switch the tests off instead.
        config = write_lines(tmp_path / "c.yaml", [f"pipeline: {{{key}: false}}"])
        assert main(["extract", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "bad pipeline config" in err and key in err
        assert "Traceback" not in err

    def test_malformed_yaml_exits_2_without_traceback(self, tmp_path, capsys):
        config = write_lines(tmp_path / "c.yaml", ["verse_files: [a"])
        assert main(["project", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config file {config} is not valid YAML" in err
        assert "Traceback" not in err


class TestConfigValues:
    """A YAML value of the right type but outside its domain is a
    configuration error (exit 2) that names the key; no output is written."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pipeline: {theta: 31.5}", "theta must be an integer >= 1, got 31.5"),
            ("pipeline: {theta: true}", "theta must be an integer >= 1, got True"),
            ("pipeline: {theta: '97'}", "theta must be an integer >= 1, got '97'"),
            ("pipeline: {chi: true}", "phi and chi must be numbers or null"),
            ("pipeline: {phi: true}", "phi and chi must be numbers or null"),
            ("pipeline: {chi: '0.3'}", "phi and chi must be numbers or null"),
            ("pipeline: {chi: .nan}", "chi must be >= 0, got nan"),
            ("analysis: {samples_per_group: -2}", "analysis.samples_per_group must be an integer >= 0, got -2"),
            ("analysis: {samples_per_group: true}", "analysis.samples_per_group must be an integer >= 0, got True"),
            ("analysis: {samples_per_group: null}", "analysis.samples_per_group must be an integer >= 0, got None"),
            ("analysis: {samples_per_group: x}", "config key analysis.samples_per_group must be an integer >= 0, got 'x'"),
            ("pipeline: {suffix_only: 'false'}", "pipeline.suffix_only must be true or false, got 'false'"),
            ("pipeline: {suffix_only: null}", "pipeline.suffix_only must be true or false, got None"),
            ("pipeline: {suffix_only: 0}", "pipeline.suffix_only must be true or false, got 0"),
            ("pipeline: {suffix_only: 1}", "pipeline.suffix_only must be true or false, got 1"),
        ],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, line, message):
        config = write_lines(tmp_path / "c.yaml", [line])
        assert main(["extract", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["extract", "silver", "eval", "ablate", "analyze", "project"])
    def test_null_output_dir_exits_2_in_every_subcommand(self, tmp_path, capsys, command):
        config = write_lines(tmp_path / "c.yaml", ["output_dir: null"])
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config key output_dir must be of type str, got None" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_zero_samples_per_group_writes_the_group_headers_only(self, workdir, tmp_path):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["analyze", "--config", str(config)]) == 0
        sampled = (out / "analysis" / "groups.txt").read_text(encoding="utf-8").splitlines()
        headers_only = write_lines(
            tmp_path / "zero.yaml", [config.read_text(encoding="utf-8"), "analysis:", "  samples_per_group: 0"]
        )
        assert main(["analyze", "--config", str(headers_only)]) == 0
        groups = (out / "analysis" / "groups.txt").read_text(encoding="utf-8").splitlines()
        assert groups == [line for line in sampled if line.startswith("group\t")]
        assert len(groups) < len(sampled)


class TestNonUtf8Input:
    """An input file holding a byte that is not UTF-8 is a data error that
    names the file, never a traceback: exit 2, or exit 1 for a paradigm file,
    where `silver` reports the language and goes on with the others."""

    @pytest.fixture
    def world(self, tmp_path):
        verse_files = tiny_corpus_files(
            tmp_path, {"english-e1.txt": {"v1": "the houses", "v2": "good deeds"}, "latin-l1.txt": {"v1": "domibus"}},
        )
        (tmp_path / "markers").mkdir()
        (tmp_path / "silver").mkdir()
        files = {
            "verse": verse_files[1],
            "alignment": write_lines(tmp_path / "english-latin.tsv", ["#\tenglish-e1\tlatin-l1", "v1\t1-0"]),
            "annotation": write_lines(tmp_path / "english-e1.np", ["v1\t0:2"]),
            "paradigm": write_lines(tmp_path / "latin.tsv", ["dom\tdomus\tN;NOM;SG", "dom\tdomibus\tN;DAT;PL"]),
            "allowlist": write_lines(tmp_path / "allow.txt", ["v1", "v2"]),
            "marker": write_lines(tmp_path / "markers" / "latin.tsv", ["ibus$\t1\t0\t0.5\tinf"]),
            "silver": write_lines(tmp_path / "silver" / "latin.txt", ["ibus$"]),
        }
        files["config"] = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{files["alignment"]}"]',
                f'annotation_files: ["{files["annotation"]}"]',
                f'paradigm_files: {{latin: "{files["paradigm"]}"}}',
                f'verse_allowlist_file: "{files["allowlist"].name}"',
                f'output_dir: "{tmp_path / "out"}"',
                'markers_dir: "markers"',
                'silver_dir: "silver"',
            ],
        )
        for command in ("project", "eval", "silver"):
            assert main([command, "--config", str(files["config"])]) == 0, command
        return files

    @pytest.mark.parametrize(
        "kind, command, exit_code",
        [
            ("verse", "project", 2),
            ("alignment", "project", 2),
            ("annotation", "project", 2),
            ("marker", "eval", 2),
            ("silver", "eval", 2),
            ("paradigm", "silver", 1),
            ("allowlist", "project", 2),
            ("config", "project", 2),
        ],
    )
    def test_exits_naming_the_file(self, world, capsys, kind, command, exit_code):
        path = world[kind]
        path.write_bytes(b"\xff" + path.read_bytes())
        capsys.readouterr()
        assert main([command, "--config", str(world["config"])]) == exit_code
        err = capsys.readouterr().err
        assert f"{path}:1: not UTF-8 text" in err
        assert "Traceback" not in err


class TestRepeatedVerseId:
    """A verse id may appear once per file in each of the three corpus
    formats; a repeat is a data error (exit 2) naming the file and line."""

    @pytest.mark.parametrize(
        "kind, lines",
        [
            ("verse", ["v1\tdomibus", "v2\tdomus", "v1\tdomus"]),
            ("alignment", ["#\tenglish-e1\tlatin-l1", "v1\t1-0", "v1\t0-0"]),
            ("annotation", ["v1\t0:2", "v2\t0:1", "v1\t1:2"]),
        ],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, kind, lines):
        verse_files = tiny_corpus_files(
            tmp_path,
            {
                "english-e1.txt": {"v1": "the houses", "v2": "good deeds"},
                "latin-l1.txt": {"v1": "domibus", "v2": "domus"},
            },
        )
        paths = {
            "verse": verse_files[1],
            "alignment": write_lines(tmp_path / "english-latin.tsv", ["#\tenglish-e1\tlatin-l1", "v1\t1-0"]),
            "annotation": write_lines(tmp_path / "english-e1.np", ["v1\t0:2"]),
        }
        config = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{paths["alignment"]}"]',
                f'annotation_files: ["{paths["annotation"]}"]',
                f'output_dir: "{tmp_path / "out"}"',
            ],
        )
        assert main(["project", "--config", str(config)]) == 0
        write_lines(paths[kind], lines)
        capsys.readouterr()
        assert main(["project", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{paths[kind]}:3: duplicate verse id 'v1'" in err
        assert "Traceback" not in err


class TestFileNameWithoutVersion:
    """A verse or annotation file names its version `<language>-<edition>`;
    a file name without one is a configuration error (exit 2) naming the
    file."""

    @pytest.mark.parametrize(
        "kind, command, name", [("verse", "extract", "latin.txt"), ("annotation", "project", "english.np")]
    )
    def test_exits_2_naming_the_file(self, tmp_path, capsys, kind, command, name):
        names = {"verse": "latin-l1.txt", "annotation": "english-e1.np", kind: name}
        verses = {"english-e1.txt": {"v1": "the houses"}, names["verse"]: {"v1": "domibus"}}
        verse_files = tiny_corpus_files(tmp_path, verses)
        alignment = write_lines(tmp_path / "english-latin.tsv", ["#\tenglish-e1\tlatin-l1", "v1\t1-0"])
        annotation = write_lines(tmp_path / names["annotation"], ["v1\t0:2"])
        config = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{alignment}"]',
                f'annotation_files: ["{annotation}"]',
                f'output_dir: "{tmp_path / "out"}"',
            ],
        )
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / name}: file name must look like <language>-<edition>.<ext>" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["project", "analyze"])
    @pytest.mark.parametrize("breaker", ["\t", "\n", "\r"], ids=["tab", "newline", "carriage return"])
    def test_a_tab_or_line_break_in_the_version_exits_2(self, tmp_path, capsys, command, breaker):
        """A version name is a field of the NP dump's tab-separated lines, so
        a name holding a tab or a line break would split them: two annotated
        versions, one of them `la<tab>tin-e1`, once made `project` write
        5-field lines and `analyze` fail with a traceback."""
        name = f"la{breaker}tin-e1"
        verses = {f"{name}.txt": {"v1": "domus alba"}, "greek-e1.txt": {"v1": "oikos leukos"}}
        verse_files = tiny_corpus_files(tmp_path, verses)
        annotations = [write_lines(tmp_path / f"{version}.np", ["v1\t0:2"]) for version in (name, "greek-e1")]
        (tmp_path / "markers").mkdir()
        config = write_lines(
            tmp_path / "run.yaml",
            [
                f"verse_files: {json.dumps([str(p) for p in verse_files])}",
                f"annotation_files: {json.dumps([str(p) for p in annotations])}",
                f'output_dir: "{tmp_path / "out"}"',
                'markers_dir: "markers"',
            ],
        )
        assert main([command, "--config", str(config)]) == 2
        message = f"{verse_files[0]}: file name must look like <language>-<edition>.<ext>"
        assert capsys.readouterr() == ("", f"casemark {command}: {message}\n")
        assert not (tmp_path / "out").exists()


class TestFlagsPerSubcommand:
    """Each subcommand accepts exactly the flags it reads; any other flag is
    an argparse usage error."""

    FLAGS = {
        "--out": ["--out", "elsewhere"],
        "--languages": ["--languages", "lingua"],
        "--theta": ["--theta", "3"],
        "--phi": ["--phi", "0.5"],
        "--chi": ["--chi", "9"],
        "--suffix-only": ["--suffix-only"],
        "--no-suffix-only": ["--no-suffix-only"],
        "--ablate": ["--ablate", "middle"],
    }
    PIPELINE = {"--out", "--languages", "--theta", "--phi", "--chi", "--suffix-only", "--no-suffix-only"}
    ACCEPTED = {
        "extract": PIPELINE | {"--ablate"},
        "ablate": PIPELINE,
        "silver": {"--out", "--languages"},
        "eval": {"--out", "--languages"},
        "analyze": {"--out"},
        "project": {"--out"},
    }

    @pytest.mark.parametrize("command, flag", list(itertools.product(ACCEPTED, FLAGS)))
    def test_only_the_flags_the_command_reads(self, tmp_path, capsys, command, flag):
        # The config does not exist: an accepted flag gets as far as reading it.
        argv = [command, "--config", str(tmp_path / "absent.yaml"), *self.FLAGS[flag]]
        if flag in self.ACCEPTED[command]:
            assert main(argv) == 2
            assert "does not exist" in capsys.readouterr().err
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments" in err
            # The usage line is the subcommand's own, which lists the flags it takes.
            assert err.startswith(f"usage: casemark {command} ")


class TestMarkerFileBytes:
    """The marker files of the synthetic fixture, pinned by SHA-256. They
    print p-values and odds ratios with repr. Both come from float + - * /
    alone, which IEEE 754 rounds the same everywhere, so these bytes should
    hold on every machine and every Python version."""

    EXPECTED = {
        (): {
            "english.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "lingua.tsv": "25cf8fd5cbd8eab15af000c9e42b65c87b8a491e3bc40e22301e2d7523a4233c",
            "tercia.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        ("--theta", "1", "--no-suffix-only"): {
            "english.tsv": "385ca1d14487d9f971463d213fdaab17573e4878f5be67e67785921f24ab7ce7",
            "lingua.tsv": "e364f71b9b44bb1f891ab3ae3718bb82bebd3c49eaa315182fca71d0aee84584",
            "tercia.tsv": "59fc99e3dbc81b995b5d39d07b41bdd5e45b173ba7543ff3b1e35141222029b5",
        },
        ("--ablate", "no_phi"): {
            "english.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "lingua.tsv": "aac19943fb39c444d839f7e44547a3fa77874ecb8147f6a6f29f64b2a9c0aa9e",
            "tercia.tsv": "a7f93e478dada8ac0fe4103461070cbf0e303258d1ddaac5b01009fb73ddbb28",
        },
        ("--ablate", "no_chi"): {
            "english.tsv": "1d7f5cbecd7c2ad300bdf8ec736365294c25d3be77a0cda88b295b016841bed3",
            "lingua.tsv": "25cf8fd5cbd8eab15af000c9e42b65c87b8a491e3bc40e22301e2d7523a4233c",
            "tercia.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
        ("--theta", "1", "--ablate", "no_phi"): {
            "english.tsv": "57cefd840fb23c9ec33faba4e0546e84148f2d7d75f3dfad476fcb069cb09467",
            "lingua.tsv": "6688484bfff6b8f33bf9d60d5c950c8a1bb27f7eba3aed4c75af20234d2ec7d3",
            "tercia.tsv": "e6baddda775ac63b7ff189fefd09fb91cf67391274f5df007f1239b5c7701f83",
        },
        ("--theta", "1", "--no-suffix-only", "--ablate", "no_chi"): {
            "english.tsv": "d2616a6347c3b79fdee6611cc10abab5d67d3a9da82df65180117599689f3864",
            "lingua.tsv": "d9e5e08de9ac7463edd955324e83ff69fd349682736b1734ec99543ad8277852",
            "tercia.tsv": "cd5ff2614f0641311ef21e8d160c0904cefad334b53bf378412d2783d3605a32",
        },
    }

    @staticmethod
    def digests(config, out, flags):
        argv = ["extract", "--config", str(config), "--out", str(out), "--languages", "english,lingua,tercia", *flags]
        assert main(argv) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted((out / "markers").glob("*.tsv"))}

    @pytest.mark.parametrize("flags", list(EXPECTED))
    def test_sha256_of_each_marker_file(self, workdir, tmp_path, flags):
        config, _out = workdir
        assert self.digests(config, tmp_path / "pinned", flags) == self.EXPECTED[flags]

    @pytest.mark.parametrize("flags", [flags for flags in EXPECTED if "--ablate" in flags])
    def test_null_threshold_is_the_ablation_variant(self, workdir, tmp_path, flags):
        # `phi: null` (`chi: null`) in the YAML writes the bytes of `--ablate no_phi` (`no_chi`).
        config, _out = workdir
        *other_flags, _ablate, variant = flags
        key = variant.removeprefix("no_")
        nulled = tmp_path / "nulled.yaml"
        nulled.write_text(config.read_text(encoding="utf-8").replace("pipeline:\n", f"pipeline:\n  {key}: null\n"))
        assert self.digests(nulled, tmp_path / "pinned", other_flags) == self.EXPECTED[flags]


class TestMarkerFileWithUndefinedOdds:
    """A marker file holding `NA` odds ratios, pinned by SHA-256. In the
    target language no NP-irrelevant type shares a letter with an NP-relevant
    one, so every candidate's table is [a, b; 0, 0]: the odds ratio is 0/0 and
    the p-value 1, and only a run with both tests off writes such grams."""

    EXPECTED = {
        "english.tsv": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "lingua.tsv": "64ed1ef5f892a3c4f3218d3bc340e058d6ba98184c735307c8dcfacfba458e3e",
    }

    def test_sha256_of_each_marker_file(self, tmp_path):
        verse_files = tiny_corpus_files(
            tmp_path,
            {
                "english-e1.txt": {"v1": "the dog barks", "v2": "a cat sleeps", "v3": "the cow eats"},
                "lingua-l1.txt": {"v1": "kanu bibo", "v2": "tanu obi", "v3": "sanu ibo"},
            },
        )
        links = [f"{verse}\t1-0 2-1" for verse in ("v1", "v2", "v3")]
        alignment = write_lines(tmp_path / "align.tsv", ["#\tenglish-e1\tlingua-l1", *links])
        annotation = write_lines(tmp_path / "english-e1.np", ["v1\t0:2", "v2\t0:2", "v3\t0:2"])
        out = tmp_path / "out"
        config = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{alignment}"]',
                f'annotation_files: ["{annotation}"]',
                "pipeline:",
                "  theta: 2",
                "  phi: null",
                f'output_dir: "{out}"',
            ],
        )
        assert main(["extract", "--config", str(config), "--ablate", "no_chi"]) == 0
        markers = sorted((out / "markers").glob("*.tsv"))
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in markers} == self.EXPECTED
        # The pinned bytes: `anu$`, `nu$` and `u$`, each `3 0 1.0 NA`.
        assert (out / "markers" / "lingua.tsv").read_text(encoding="utf-8").count("\t1.0\tNA\n") == 3


class TestErrorBranches:
    """Error branches that the other tests do not reach: each exits with its
    code and its message on stderr, never a traceback."""

    def test_a_config_that_is_a_list_exits_2(self, tmp_path, capsys):
        config = write_lines(tmp_path / "run.yaml", ["- verse_files", "- alignment_files"])
        assert main(["extract", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"casemark extract: config file {config} must hold a mapping at top level\n")

    def test_a_glob_that_matches_no_file_exits_2(self, tmp_path, capsys):
        config = write_lines(tmp_path / "run.yaml", ['verse_files: ["verses/*.txt"]'])
        assert main(["project", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "casemark project: glob 'verses/*.txt' matched no files\n")

    @pytest.mark.parametrize(
        "command, kind, producer", [("eval", "silver", "silver"), ("analyze", "markers", "extract")]
    )
    def test_a_missing_output_directory_exits_2(self, workdir, capsys, command, kind, producer):
        config, out = workdir
        assert main([command, "--config", str(config)]) == 2
        message = f"{kind} directory {out / kind} does not exist (run `{producer}` first?)"
        assert capsys.readouterr() == ("", f"casemark {command}: {message}\n")
        assert not out.exists()

    def test_an_alignment_header_version_without_a_hyphen_exits_2(self, tmp_path, capsys):
        verse_files = tiny_corpus_files(tmp_path, {"english-e1.txt": {"v1": "the houses"}, "latin-l1.txt": {"v1": "domibus"}})
        alignment = write_lines(tmp_path / "english-latin.tsv", ["#\tenglish\tlatin-l1", "v1\t1-0"])
        annotation = write_lines(tmp_path / "english-e1.np", ["v1\t0:2"])
        config = write_lines(
            tmp_path / "run.yaml",
            [
                "verse_files:",
                *[f'  - "{p}"' for p in verse_files],
                f'alignment_files: ["{alignment}"]',
                f'annotation_files: ["{annotation}"]',
                f'output_dir: "{tmp_path / "out"}"',
            ],
        )
        assert main(["project", "--config", str(config)]) == 2
        message = f"{alignment}:1: version id must look like <language>-<edition>, got 'english'"
        assert capsys.readouterr() == ("", f"casemark project: {message}\n")

    def test_a_silver_language_without_verse_files_exits_2_in_ablate(self, workdir, tmp_path, capsys):
        """With no language selection every silver standard is scored, and
        one of a language with no verse file has no extraction output."""
        config, out = workdir
        text = config.read_text(encoding="utf-8").replace('  languages: ["lingua"]\n', "")
        unselected = write_lines(tmp_path / "unselected.yaml", [text])
        assert main(["silver", "--config", str(unselected)]) == 0
        write_lines(out / "silver" / "zzz.txt", ["um$"])
        capsys.readouterr()
        assert main(["ablate", "--config", str(unselected)]) == 2
        assert capsys.readouterr() == ("", "casemark ablate: no extraction output for silver language 'zzz'\n")
        assert not (out / "ablation").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("um$\t3\t1\t0.5", "expected 5 fields, got 4"),
            ("um$\tthree\t1\t0.5\t2.0", "invalid literal for int() with base 10: 'three'"),
        ],
        ids=["four fields", "count not an integer"],
    )
    def test_a_malformed_marker_file_line_exits_2_in_eval(self, workdir, capsys, line, message):
        config, out = workdir
        assert main(["extract", "--config", str(config)]) == 0
        assert main(["silver", "--config", str(config)]) == 0
        markers = out / "markers" / "lingua.tsv"
        lines = markers.read_text(encoding="utf-8").splitlines()
        write_lines(markers, [*lines, line])
        capsys.readouterr()
        assert main(["eval", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"casemark eval: {markers}:{len(lines) + 1}: {message}\n")
        assert not (out / "eval").exists()

    @pytest.mark.parametrize(
        "line, message",
        [("\tdomus\tN;NOM;SG", "empty lemma or form"), ("dom\tdomus\t;", "empty feature string")],
        ids=["empty lemma", "empty features"],
    )
    def test_a_malformed_paradigm_line_fails_its_language_alone(self, workdir, tmp_path, capsys, line, message):
        config, out = workdir
        broken = write_lines(tmp_path / "zzz.paradigms.tsv", ["dom\tdomibus\tN;DAT;PL", line])
        text = config.read_text(encoding="utf-8").replace('  languages: ["lingua"]\n', "")
        text = text.replace("paradigm_files:\n", f'paradigm_files:\n  zzz: "{broken}"\n')
        both = write_lines(tmp_path / "both.yaml", [text])
        assert main(["silver", "--config", str(both)]) == 1
        assert capsys.readouterr() == ("", f"silver: zzz: {broken}:2: {message}\n")
        assert (out / "silver" / "lingua.txt").read_text(encoding="utf-8") == "ibus$\num$\n"
        assert not (out / "silver" / "zzz.txt").exists()
        assert (out / "silver" / "diagnostics.tsv").read_text(encoding="utf-8").splitlines()[1:] == ["lingua\t1\t2"]
