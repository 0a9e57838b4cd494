"""Every output file is written atomically: a write that fails partway leaves
the previous file as it was and no temporary file behind."""

import builtins
import errno
import json
from pathlib import Path

import pytest

from helpers import tiny_corpus_files, write_lines

from casemark import cli, extraction
from casemark.cli import main
from casemark.corpus import write_output


@pytest.fixture
def world(tmp_path):
    """A two-version corpus with every input the six subcommands read."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    verse_files = tiny_corpus_files(
        inputs,
        {
            "english-e1.txt": {"v1": "the houses", "v2": "good deeds", "v3": "to parents"},
            "latin-l1.txt": {"v1": "domibus", "v2": "operibus bonis", "v3": "patribus"},
        },
    )
    annotation = write_lines(inputs / "english-e1.np", ["v1\t0:2", "v2\t0:2", "v3\t1:2"])
    alignment = write_lines(
        inputs / "english-latin.tsv",
        ["#\tenglish-e1\tlatin-l1", "v1\t1-0", "v2\t0-1 1-0", "v3\t1-0"],
    )
    paradigms = write_lines(
        inputs / "latin.paradigms.tsv",
        ["dom\tdomus\tN;NOM;SG", "dom\tdomus\tN;GEN;SG", "dom\tdomibus\tN;DAT;PL", "dom\tdomibus\tN;ABL;PL"],
    )
    out = tmp_path / "out"
    config = write_lines(
        tmp_path / "run.yaml",
        [
            "verse_files:",
            *[f'  - "{p}"' for p in verse_files],
            f'alignment_files: ["{alignment}"]',
            f'annotation_files: ["{annotation}"]',
            f'paradigm_files: {{latin: "{paradigms}"}}',
            "pipeline: {theta: 1, phi: null, chi: null}",
            f'output_dir: "{out}"',
        ],
    )
    for command in ("silver", "extract", "eval", "ablate", "project", "analyze"):
        assert main([command, "--config", str(config)]) == 0, command
    return config, out, verse_files


def snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class DiskFull:
    """A text handle that writes half of the first chunk, then fails."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()
        return False

    def __getattr__(self, name):
        return getattr(self._handle, name)


def fail_writes_to(monkeypatch, target: Path):
    """Make every file opened for writing in `target`'s directory whose name
    contains `target`'s name (a temporary file for it, or the file itself) fail."""
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        path = Path(file) if isinstance(file, (str, Path)) else None
        if "w" in mode and path is not None and path.parent == target.parent and target.name in path.name:
            return DiskFull(handle)
        return handle

    monkeypatch.setattr(builtins, "open", failing_open)


# (output file under the output directory, subcommand that writes it, its exit code when the write fails)
CLI_WRITERS = [
    ("manifest.json", "extract", 2),
    ("markers/latin.tsv", "extract", 1),
    ("silver/latin.txt", "silver", 1),
    ("silver/diagnostics.tsv", "silver", 2),
    ("eval/results.tsv", "eval", 2),
    ("eval/diff/latin.tsv", "eval", 2),
    ("ablation/ablation.tsv", "ablate", 2),
    ("nps/parallel_nps.tsv", "project", 2),
    ("nps/manifest.json", "project", 2),
    ("analysis/groups.txt", "analyze", 2),
    ("analysis/rows.txt", "analyze", 2),
    ("analysis/cols.txt", "analyze", 2),
    ("analysis/matrix.tsv", "analyze", 2),
]


@pytest.mark.parametrize("relative, command, exit_code", CLI_WRITERS, ids=[w[0] for w in CLI_WRITERS])
def test_failed_write_keeps_the_previous_output(world, monkeypatch, capsys, relative, command, exit_code):
    config, out, _verse_files = world
    target = out / relative
    before = snapshot(out)
    assert before[Path(relative)], "the earlier run should have written a non-empty file"
    capsys.readouterr()
    fail_writes_to(monkeypatch, target)
    assert main([command, "--config", str(config)]) == exit_code
    monkeypatch.undo()
    after = snapshot(out)
    if relative.startswith("markers/"):  # the manifest lists only the languages written
        manifest = json.loads(before.pop(Path("manifest.json")))
        manifest["languages"].remove("latin")
        assert json.loads(after.pop(Path("manifest.json"))) == manifest
    if relative == "silver/latin.txt":  # and the diagnostics the languages whose silver files were written
        rows = before.pop(Path("silver/diagnostics.tsv")).splitlines(keepends=True)
        assert after.pop(Path("silver/diagnostics.tsv")) == b"".join(r for r in rows if not r.startswith(b"latin\t"))
    assert after == before
    stderr = capsys.readouterr().err
    assert "No space left" in stderr
    assert "Traceback" not in stderr


def test_eval_does_not_score_a_marker_file_that_failed_to_write(world, monkeypatch, capsys):
    """latin's marker file is left from an earlier extract with other
    thresholds; the extract whose write of it fails must not list latin in the
    manifest, so that `eval` does not score the earlier file as this run's."""
    config, out, _verse_files = world
    assert main(["extract", "--config", str(config), "--phi", "0.5"]) == 0
    earlier = (out / "markers" / "latin.tsv").read_bytes()
    fail_writes_to(monkeypatch, out / "markers" / "latin.tsv")
    assert main(["extract", "--config", str(config)]) == 1
    monkeypatch.undo()
    assert (out / "markers" / "latin.tsv").read_bytes() == earlier
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["languages"] == ["english"]
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    assert "nothing to evaluate" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [RuntimeError, KeyboardInterrupt])
def test_an_interrupted_extract_leaves_a_manifest_of_the_files_it_wrote(world, monkeypatch, fault):
    """The manifest is rewritten after each language. An extract that stops
    in latin's write leaves one that carries its own pipeline and lists
    english alone, so `eval` does not score latin's marker file, which an
    earlier extract with other thresholds wrote."""
    config, out, _verse_files = world
    english = write_lines(config.parent / "inputs" / "english.paradigms.tsv", ["hous\thouses\tN;NOM;PL"])
    text = config.read_text(encoding="utf-8").replace("paradigm_files: {", f'paradigm_files: {{english: "{english}", ')
    config.write_text(text, encoding="utf-8")
    assert main(["silver", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--phi", "0.5"]) == 0
    earlier = (out / "markers" / "latin.tsv").read_bytes()
    write = extraction.write_marker_file

    def interrupted(marker_set, path):
        if marker_set.language == "latin":
            raise fault("interrupted")
        write(marker_set, path)

    monkeypatch.setattr(extraction, "write_marker_file", interrupted)
    with pytest.raises(fault):
        main(["extract", "--config", str(config)])
    monkeypatch.undo()
    assert (out / "markers" / "latin.tsv").read_bytes() == earlier
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["languages"] == ["english"]
    assert main(["eval", "--config", str(config)]) == 0
    results = (out / "eval" / "results.tsv").read_text(encoding="utf-8")
    assert [line.split("\t")[0] for line in results.splitlines()] == ["language", "english", "average"]
    # The rest of the manifest is this run's: a complete run differs only in its languages.
    assert main(["extract", "--config", str(config)]) == 0
    complete = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert complete["pipeline"]["phi"] is None
    assert complete == {**manifest, "languages": ["english", "latin"]}


def test_a_failed_manifest_rewrite_fails_its_language(world, monkeypatch, capsys):
    """The manifest rewrite after english fails: english is reported as
    failed, and the manifest after latin lists latin alone."""
    config, out, _verse_files = world
    manifests = []

    def second_manifest_fails(path, text):
        if Path(path).name == "manifest.json":
            manifests.append(text)
            if len(manifests) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
        write_output(path, text)

    capsys.readouterr()
    monkeypatch.setattr(cli, "write_output", second_manifest_fails)
    assert main(["extract", "--config", str(config)]) == 1
    monkeypatch.undo()
    assert [json.loads(text)["languages"] for text in manifests] == [[], ["english"], ["latin"]]
    assert (out / "manifest.json").read_text(encoding="utf-8") == manifests[-1]
    assert capsys.readouterr().err.startswith("extract: english: [Errno 28] No space left")


def test_a_directory_that_cannot_be_made_fails_each_file_written_into_it(world, capsys):
    config, out, _verse_files = world
    for path in (out / "markers").iterdir():
        path.unlink()
    (out / "markers").rmdir()
    (out / "markers").write_text("a file where the directory should be\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(config)]) == 1
    stderr = capsys.readouterr().err
    assert [line.split(":")[0:2] for line in stderr.splitlines()] == [["extract", " english"], ["extract", " latin"]]
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["languages"] == []



def test_extract_writes_the_languages_after_a_failed_one(world, monkeypatch, capsys):
    config, out, _verse_files = world
    for path in (out / "markers").iterdir():
        path.unlink()
    capsys.readouterr()
    fail_writes_to(monkeypatch, out / "markers" / "english.tsv")
    assert main(["extract", "--config", str(config)]) == 1
    monkeypatch.undo()
    assert sorted(p.name for p in (out / "markers").iterdir()) == ["latin.tsv"]
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["languages"] == ["latin"]
    assert capsys.readouterr().err.startswith("extract: english: [Errno 28] No space left")


def test_silver_writes_the_languages_after_a_failed_one(world, monkeypatch, capsys):
    """A failed silver-file write is a per-language failure, as in `extract`:
    exit 1, and the later languages and the diagnostics are still written."""
    config, out, _verse_files = world
    english = write_lines(config.parent / "inputs" / "english.paradigms.tsv", ["hous\thouses\tN;NOM;PL"])
    text = config.read_text(encoding="utf-8").replace("paradigm_files: {", f'paradigm_files: {{english: "{english}", ')
    config.write_text(text, encoding="utf-8")
    for path in (out / "silver").iterdir():
        path.unlink()
    capsys.readouterr()
    fail_writes_to(monkeypatch, out / "silver" / "english.txt")
    assert main(["silver", "--config", str(config)]) == 1
    monkeypatch.undo()
    assert sorted(p.name for p in (out / "silver").iterdir()) == ["diagnostics.tsv", "latin.txt"]
    diagnostics = (out / "silver" / "diagnostics.tsv").read_text(encoding="utf-8").splitlines()
    assert [row.split("\t")[0] for row in diagnostics] == ["language", "latin"]
    stderr = capsys.readouterr().err
    assert stderr.startswith("silver: english: [Errno 28] No space left")
    assert "Traceback" not in stderr
