"""The benchmark's workloads: generated inputs, run config and command list.

Each workload is one process per CLI command, with `jobs` pinned in the YAML
(never 0, which would record the machine's processor count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from gen import PAPER_THETA, CorpusSpec, Generated, generate

PHI = 0.08
CHI = 0.34


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: CorpusSpec
    commands: tuple[str, ...]  # CLI subcommands, run in order
    main: str  # the command a user of this workload waits on
    jobs: int
    scaled_theta: bool  # theta from the tests/synthcorpus.py rule instead of 97

    def prepare(self, seed: int, root: Path) -> Generated:
        """Generate the inputs under `root` and write `root/run.yaml`."""
        generated = generate(self.spec, seed, root)
        theta = generated.scaled_theta() if self.scaled_theta else PAPER_THETA
        config = {
            "verse_files": ["corpus/*.txt"],
            "alignment_files": ["alignments/*.tsv"],
            "annotation_files": [f"annotations/{s}.np" for s in generated.source_versions],
            "pipeline": {"theta": theta, "phi": PHI, "chi": CHI, "suffix_only": True},
            "output_dir": "out",
            "jobs": self.jobs,
        }
        if "silver" in self.commands:
            config["paradigm_files"] = {
                lang: f"paradigms/{lang}.tsv" for lang in generated.target_languages
            }
        if "analyze" in self.commands:
            config["markers_dir"] = "markers"
            config["analysis"] = {"languages": generated.target_languages, "samples_per_group": 5}
        # JSON is valid YAML and keeps the file independent of PyYAML here.
        (root / "run.yaml").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        generated.theta = theta
        return generated


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="extract-wide",
            why="extract on 1 source and 4 languages x 2 editions at theta 97, jobs 2: loading, "
                "projection, counting and candidates dominate; the one workload where --jobs can show",
            spec=CorpusSpec(verses=2000, languages=4, editions=2, sources=1, stems=6000,
                            nps_per_verse=(2, 4)),
            commands=("extract",),
            main="extract",
            jobs=2,
            scaled_theta=False,
        ),
        Workload(
            name="ablate-grid",
            why="silver then ablate on 2 languages x 1 edition, jobs 1: six pipeline reruns and "
                "the no_theta exact tests dominate, while the corpus loads only once",
            spec=CorpusSpec(verses=800, languages=2, editions=1, sources=1, stems=3000,
                            nps_per_verse=(2, 4), paradigms=300),
            commands=("silver", "ablate"),
            main="ablate",
            jobs=1,
            scaled_theta=True,
        ),
        Workload(
            name="analyze-multisource",
            why="project then analyze with 2 annotated sources and given marker files, jobs 1: "
                "projection, marker assignment and output writing dominate; no extraction runs",
            spec=CorpusSpec(verses=1800, languages=4, editions=1, sources=2, stems=6000,
                            nps_per_verse=(1, 5), markers=40),
            commands=("project", "analyze"),
            main="analyze",
            jobs=1,
            scaled_theta=False,
        ),
    )
}
