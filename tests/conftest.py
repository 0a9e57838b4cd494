from types import SimpleNamespace

import pytest

from helpers import write_lines
from synthcorpus import build_fixture

from casemark.corpus import load_alignment, load_corpus, load_np_annotation


@pytest.fixture(scope="session")
def synth(tmp_path_factory):
    """The synthetic planted-suffix fixture, built once and loaded."""
    root = tmp_path_factory.mktemp("synth")
    fixture = build_fixture(root)
    corpus = load_corpus(fixture.verse_files)
    annotations = [load_np_annotation(p, corpus) for p in fixture.annotation_files]
    alignments = [load_alignment(p, corpus) for p in fixture.alignment_files]
    return SimpleNamespace(
        fixture=fixture,
        corpus=corpus,
        annotations=annotations,
        alignments=alignments,
    )


LINGUA_PARADIGM = [
    "sator\tsator\tN;NOM;SG",
    "sator\tsator\tN;VOC;SG",
    "sator\tsatorum\tN;GEN;PL",
    "sator\tsatoribus\tN;DAT;PL",
]


@pytest.fixture
def workdir(synth, tmp_path):
    """Config + inputs wired against the session synthetic corpus."""
    root = synth.fixture.root
    write_lines(root / "lingua.paradigms.tsv", LINGUA_PARADIGM)
    out = tmp_path / "out"
    config = tmp_path / "run.yaml"
    write_lines(
        config,
        [
            "verse_files:",
            *[f'  - "{p}"' for p in synth.fixture.verse_files],
            "alignment_files:",
            *[f'  - "{p}"' for p in synth.fixture.alignment_files],
            "annotation_files:",
            *[f'  - "{p}"' for p in synth.fixture.annotation_files],
            "paradigm_files:",
            f'  lingua: "{root / "lingua.paradigms.tsv"}"',
            "pipeline:",
            f"  theta: {synth.fixture.theta}",
            '  languages: ["lingua"]',
            f'output_dir: "{out}"',
            "jobs: 1",
        ],
    )
    return config, out
