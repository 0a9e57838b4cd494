"""Whole runs against the benchmark's independent oracle.

Small seeded corpora from `perfbench/gen.py`, in the shapes of the
benchmark's three workloads (`extract`; `silver` then `ablate`; `project`
then `analyze`), are run through `cli.main`, and `perfbench/check.py`, an
oracle written from the paper's method without casemark, must find no
difference in their outputs. `analyze`, which reads back the NP set that
`project` dumped, must also write what a cold `analyze` writes. The oracle supports set `phi` and `chi`
thresholds only, which is what `Workload.prepare` writes.

`gen.py`, `workloads.py` and `check.py` are loaded by path; while the tests
run, `perfbench/` is on `sys.path` and they are in `sys.modules`, where
`workloads.py` finds `gen`.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from casemark.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The command lists of the benchmark's workloads: the silver standard is
# built from the generated paradigm tables, and `analyze` reads the generated
# marker files.
SHAPES = (("extract",), ("silver", "ablate"), ("project", "analyze"))


@pytest.fixture(scope="module")
def perfbench():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))
        modules = {}
        for name in ("gen", "workloads", "check"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            patch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        yield SimpleNamespace(**modules)


@pytest.mark.parametrize("seed", range(2 * len(SHAPES)))
def test_outputs_match_the_oracle(perfbench, tmp_path, seed):
    """One corpus of each shape with one annotated source and one with two,
    drawn with 200-400 verses, 1-3 target languages and 1-2 editions each;
    θ is 1, 2 or the scaled rule."""
    rng = random.Random(f"differential:{seed}")
    commands = SHAPES[seed % len(SHAPES)]
    spec = perfbench.gen.CorpusSpec(
        verses=rng.randint(200, 400), languages=rng.randint(1, 3), editions=rng.randint(1, 2),
        sources=1 + seed // len(SHAPES), stems=rng.randint(400, 1200), zipf=rng.choice((0.8, 1.0, 1.2)),
        paradigms=100 if "silver" in commands else 0, markers=20 if "analyze" in commands else 0,
    )
    workload = perfbench.workloads.Workload(
        name=f"differential-{seed}", why="", spec=spec, commands=commands, main=commands[-1],
        jobs=1, scaled_theta=True,
    )
    generated = workload.prepare(seed, tmp_path)
    config = json.loads((tmp_path / "run.yaml").read_text(encoding="utf-8"))
    config["pipeline"]["theta"] = (generated.theta, 1, 2)[seed // 2 % 3]  # extract and ablate each see two
    (tmp_path / "run.yaml").write_text(json.dumps(config), encoding="utf-8")
    for command in commands:
        assert main([command, "--config", str(tmp_path / "run.yaml")]) == 0, command
    assert perfbench.check.check_against_oracle(tmp_path, tmp_path / "out", commands, generated.planted) == []
    if "analyze" in commands:  # after `project` it read the dump back: a cold run writes the same files
        assert main(["analyze", "--config", str(tmp_path / "run.yaml"), "--out", str(tmp_path / "cold")]) == 0
        assert analysis_files(tmp_path / "cold") == analysis_files(tmp_path / "out")


def analysis_files(out):
    files = {path.relative_to(out): path.read_bytes() for path in (out / "analysis").rglob("*") if path.is_file()}
    assert len(files) == 4
    return files
