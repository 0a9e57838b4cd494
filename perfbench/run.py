"""casemark benchmark: generated corpora, the real CLI timed end to end.

    python3 perfbench/run.py --workload extract-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is `src/casemark`, started as
`python3 -m casemark.cli` with `PYTHONPATH=src`; nothing is installed. The
benchmark writes only under `.perfbench/` in the checkout.

One run generates the workload's inputs from `--seed` (see gen.py and
workloads.py), then repeats the workload's command sequence, each
repetition in a fresh output directory, until `--seconds` are used up (at
least 3 repetitions). Every command is its own child process, timed from
start to exit; its peak RSS comes from `os.wait4`.

`--trace 0` reports the end-to-end metrics as medians over repetitions.
`--trace 1` alternates untraced repetitions with traced ones, where each
command runs in-process under tracer.py, and reports per-layer metrics
(layers.py) as medians over the traced repetitions, plus the tracing
overhead.

Every run checks the outputs (check.py): each command must exit 0, all
repetitions (traced ones too) must be byte-identical, and the first must
match the oracle's outputs for the seed, and the stored reference for the
seed when one exists. The time spent checking is not counted in
`--seconds`. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; a results file with the
samples and the environment goes to `.perfbench/results/`.

Other modes:

    python3 perfbench/run.py --self-test            # default and second seed, all workloads
    python3 perfbench/run.py --workload W --seed N --record-reference
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
from calib import SpeedClock
from layers import EXACT_COUNTS, PER_LAYER, layer_metrics
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"

DEFAULT_SEED = 1
SECOND_SEED = 2
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150.0

# name -> (unit, better); the order is the order of BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "main_command_s": ("s", "lower"),
    "tokens_per_s": ("tokens/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

SETUP_CODE = (
    "import sys\n"
    "from casemark.cli import load_run_config\n"
    "load_run_config(sys.argv[1])\n"
    "import casemark\n"
    "print(casemark.__file__)\n"
)


@dataclass
class Child:
    code: int
    raw_s: float  # start to exit
    rss_mb: float
    scale: float = 1.0  # to the reference speed, see calib.py

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


@dataclass
class Repetition:
    commands: dict[str, Child]
    out_dir: Path

    @property
    def wall(self) -> float:
        return sum(child.seconds for child in self.commands.values())

    @property
    def raw_wall(self) -> float:
        return sum(child.raw_s for child in self.commands.values())

    @property
    def rss_mb(self) -> float:
        return max(child.rss_mb for child in self.commands.values())

    @property
    def failed(self) -> int:
        return sum(child.code != 0 for child in self.commands.values())


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_digest: dict | None = None


def run_child(argv: list[str], env: dict, log: Path) -> Child:
    """Start a child, wait with os.wait4 and read its own peak RSS."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=handle, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(config: Path, env: dict, log: Path, clock: SpeedClock) -> list[Child]:
    """Time children that import casemark.cli and parse the run config, and
    make sure they import the checkout's own sources."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = run_child([sys.executable, "-c", SETUP_CODE, str(config)], env, log)
        child.scale = clock.scale()
        if child.code != 0:
            raise SystemExit(f"perfbench: set-up child failed, see {log}")
        samples.append(child)
    imported = Path(log.read_text(encoding="utf-8").strip().splitlines()[-1]).resolve()
    if SRC.resolve() not in imported.parents:
        raise SystemExit(f"perfbench: children import casemark from {imported}, not from {SRC}")
    return samples


def run_sequence(workload: Workload, input_dir: Path, out_dir: Path, env: dict,
                 clock: SpeedClock, trace_dir: Path | None = None) -> Repetition:
    out_dir.mkdir(parents=True)
    commands = {}
    for k, command in enumerate(workload.commands):
        cli = [command, "--config", str(input_dir / "run.yaml"), "--out", str(out_dir)]
        if trace_dir is None:
            argv = [sys.executable, "-m", "casemark.cli", *cli]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    "--spans", str(trace_dir / f"{k}.json"), "--command-id", str(k), "--", *cli]
        commands[command] = run_child(argv, env, out_dir.parent / f"{out_dir.name}.{command}.log")
        commands[command].scale = clock.scale()
    return Repetition(commands, out_dir)


def load_references(workload: Workload) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def full_check(workload: Workload, generated, input_dir: Path, out_dir: Path,
               reference: dict | None) -> tuple[list[str], list[str]]:
    """Problems found in one output tree, and the names of the checks run."""
    problems, ran = [], ["oracle"]
    if reference is not None:
        problems += check.compare_reference(out_dir, reference)
        ran.append("stored reference")
    if "silver" in workload.commands:
        problems += check.check_silver(out_dir, generated.planted, generated.paradigm_lemmas)
    problems += check.check_against_oracle(input_dir, out_dir, workload.commands, generated.planted)
    return problems, ran


def quality(workload: Workload, generated, out_dir: Path) -> float | None:
    """macro F1 against the planted suffixes: from the extract markers, or the
    baseline row of ablation.tsv."""
    if "extract" in workload.commands:
        return check.macro_prf(check.extracted_grams(out_dir), generated.planted)[2]
    if "ablate" in workload.commands:
        return check.read_ablation(out_dir)["baseline"][2]
    return None


def account(rep: Repetition, tally: Tally, label: str, checker, problems=()) -> None:
    """Count the repetition's commands, failed commands and, as one failure,
    any problem its outputs show."""
    tally.attempted += len(rep.commands)
    tally.failed += rep.failed
    for command, child in rep.commands.items():
        if child.code != 0:
            tally.problems.append(f"{label}: {command} exited {child.code}")
    problems = list(problems)
    digest = check.tree_digest(rep.out_dir)
    if tally.first_digest is None:
        tally.first_digest = digest
        problems += checker(rep.out_dir)
    elif digest != tally.first_digest:
        problems.append("outputs differ from the first repetition")
    if problems:
        tally.failed += 1
        tally.problems += [f"{label}: {p}" for p in problems]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; do not look above it
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "casemark").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        record_reference: bool = False) -> dict:
    work = WORK_ROOT / f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    input_dir, reps_dir = work / "input", work / "reps"
    reps_dir.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, record_reference, input_dir, reps_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, seconds, trace, record_reference, input_dir, reps_dir) -> dict:
    gen_start = time.perf_counter()
    generated = workload.prepare(seed, input_dir)
    gen_s = time.perf_counter() - gen_start
    env = child_env()
    clock = SpeedClock()
    setup = measure_setup(input_dir / "run.yaml", env, reps_dir / "setup.log", clock)

    references = load_references(workload)
    reference = references.get(str(seed))
    checks_run: list[str] = []
    macro = []
    checking_s = 0.0  # spent in the output check, which the measuring time leaves out

    def checker(out_dir: Path) -> list[str]:
        nonlocal checking_s
        start = time.perf_counter()
        try:
            problems, ran = full_check(workload, generated, input_dir, out_dir, reference)
            checks_run.extend(ran)
            macro.append(quality(workload, generated, out_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable outputs
            return [f"outputs could not be checked: {exc!r}"]
        finally:
            checking_s += time.perf_counter() - start
        if record_reference and not problems:
            references[str(seed)] = check.make_reference(out_dir)
            REFERENCE_DIR.mkdir(exist_ok=True)
            (REFERENCE_DIR / f"{workload.name}.json").write_text(
                json.dumps(references, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
            checks_run.append("reference recorded")
        return problems

    tally = Tally()
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    layer_samples: list[dict] = []
    traces: list[dict] = []  # spans of the last traced repetition
    started = time.perf_counter()
    while True:
        n = len(plain)
        rep = run_sequence(workload, input_dir, reps_dir / f"rep{n}", env, clock)
        account(rep, tally, f"repetition {n}", checker)
        plain.append(rep)
        shutil.rmtree(rep.out_dir)
        if trace:
            trace_dir = reps_dir / f"trace{n}"
            trace_dir.mkdir()
            rep = run_sequence(workload, input_dir, reps_dir / f"traced{n}", env, clock, trace_dir)
            try:
                traces = read_traces(workload, rep, trace_dir)
                layers, problems = traced_metrics(workload, generated, rep, traces)
                layer_samples.append(layers)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"trace could not be read: {exc!r}"]
            account(rep, tally, f"traced repetition {n}", checker, problems)
            traced.append(rep)
            shutil.rmtree(rep.out_dir)
        elapsed = time.perf_counter() - started - checking_s
        per_round = plain[-1].raw_wall + (traced[-1].raw_wall if trace else 0.0)
        enough = len(traced) >= MIN_TRACED_REPS if trace else len(plain) >= MIN_REPS
        if record_reference or (enough and elapsed + per_round > seconds):
            break

    if trace:
        metrics = {}
        for name, (unit, _better) in PER_LAYER.items():
            if name != "trace_overhead_s":
                middle = statistics.median if unit == "s" else statistics.median_low
                metrics[name] = middle(s[name] for s in layer_samples) if layer_samples else 0
        metrics["trace_overhead_s"] = (statistics.median(r.wall for r in traced)
                                       - statistics.median(r.wall for r in plain))
        for name in EXACT_COUNTS:
            values = {s[name] for s in layer_samples}
            if len(values) != 1:
                tally.failed += 1
                tally.problems.append(f"{name} differs between traced repetitions: {sorted(values)}")
        units = PER_LAYER
    else:
        wall = [r.wall for r in plain]
        metrics = {
            "wall_s": statistics.median(wall),
            "main_command_s": statistics.median(r.commands[workload.main].seconds for r in plain),
            "tokens_per_s": statistics.median(generated.tokens / w for w in wall),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "setup_s": statistics.median(child.seconds for child in setup),
        }
        units = END_TO_END

    samples = {"wall_s": [r.wall for r in plain], "setup_s": [c.seconds for c in setup]}
    for command in workload.commands:
        samples[f"{command}_s"] = [r.commands[command].seconds for r in plain]
    if trace:
        samples["traced_wall_s"] = [r.wall for r in traced]
    raw = {"wall_s": [r.raw_wall for r in plain], "setup_s": [c.raw_s for c in setup]}
    for command in workload.commands:
        raw[f"{command}_s"] = [r.commands[command].raw_s for r in plain]
        raw[f"{command}_rss_mb"] = [r.commands[command].rss_mb for r in plain]
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
        },
        "inputs": {"tokens": generated.tokens, "theta": generated.theta,
                   "files": len(generated.files), "generate_s": gen_s,
                   "target_languages": generated.target_languages},
        "checks": sorted(set(checks_run)),
        "problems": tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "macro_f1": macro[0] if macro else None,
        "samples": samples,
        "raw_samples": raw,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
        "layers": layer_samples,
        "traces": traces,
    }


def read_traces(workload: Workload, rep: Repetition, trace_dir: Path) -> list[dict]:
    """The spans each traced command wrote, with the command's speed scale."""
    traces = []
    for k, command in enumerate(workload.commands):
        path = trace_dir / f"{k}.json"
        if path.is_file():
            traces.append(json.loads(path.read_text(encoding="utf-8")))
            traces[-1]["scale"] = rep.commands[command].scale
    return traces


def traced_metrics(workload: Workload, generated, rep: Repetition,
                   traces: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition, and the problems found by
    cross-checking its counts against what the outputs show."""
    metrics = layer_metrics(traces)
    metrics["cli.bytes_written"] = check.tree_bytes(rep.out_dir)
    expected = {}
    matrix = rep.out_dir / "analysis" / "matrix.tsv"
    if matrix.is_file():
        expected["analysis.matrix_cells"] = len(matrix.read_bytes().splitlines())
    if "extract" in workload.commands:
        markers = rep.out_dir / "markers"
        expected["extraction.markers"] = sum(
            len(p.read_bytes().splitlines()) for p in markers.glob("*.tsv"))
    dump = rep.out_dir / "nps" / "parallel_nps.tsv"
    if dump.is_file() and metrics["projection.parallel_nps_calls"]:
        sources = set(generated.source_versions)
        nps = sum(1 for line in dump.read_text(encoding="utf-8").splitlines()
                  if line.split("\t")[1] in sources)
        expected["projection.parallel_nps"] = nps * metrics["projection.parallel_nps_calls"]
    problems = [f"traced {name} = {metrics[name]}, outputs show {value}"
                for name, value in expected.items() if metrics[name] != value]
    return metrics, problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Human-readable lines: the environment, every end-to-end figure of the
    workload by name and unit, then the metrics of the final JSON line."""
    env = result["environment"]
    print(f"perfbench {result['workload']} seed={result['seed']} seconds={result['seconds']} "
          f"trace={result['trace']} nproc={env['nproc']} python={env['python']} "
          f"commit={env['git_commit'] or 'unknown'} src={env['source_sha256'][:12]}")
    inputs = result["inputs"]
    print(f"  inputs: {inputs['tokens']} tokens, theta {inputs['theta']}, {inputs['files']} files, "
          f"generated in {inputs['generate_s']:.2f} s")
    print(f"  checks: {', '.join(result['checks']) or 'none'}")
    print("  times: p50 and max (the highest percentile n samples support), scaled to the "
          "reference speed (calib.py), [raw p50], sample count n")
    for name, values in result["samples"].items():
        line = f"  {name:<16} p50 {statistics.median(values):.4f} s  max {max(values):.4f} s"
        if name in result["raw_samples"]:
            line += f"  [{statistics.median(result['raw_samples'][name]):.4f} s]"
        print(f"{line}  n={len(values)}")
    print(f"  error_rate       {result['error_rate']:.4f} ratio  ({result['failed']} failed of "
          f"{result['attempted']} commands attempted)")
    if result["macro_f1"] is not None:
        print(f"  macro_f1         {result['macro_f1']:.4f} ratio  (against the planted suffixes)")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {_fmt(metric['value'])} {metric['unit']}")


def save(result: dict) -> Path:
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"BENCH_{result['workload']}_seed{result['seed']}_trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def self_test() -> int:
    """Default and second seed on every workload, untraced and traced: each
    must pass every check, including a stored reference; generation must be
    byte-identical for a seed."""
    failures = []
    for workload in WORKLOADS.values():
        a, b = WORK_ROOT / "selftest-a", WORK_ROOT / "selftest-b"
        for d in (a, b):
            shutil.rmtree(d, ignore_errors=True)
            workload.prepare(SECOND_SEED, d)
        if check.tree_digest(a) != check.tree_digest(b):
            failures.append(f"{workload.name}: generator is not byte-identical for one seed")
        for d in (a, b):
            shutil.rmtree(d, ignore_errors=True)
        for seed in (DEFAULT_SEED, SECOND_SEED):
            for trace in (False, True):
                result = run(workload, seed, 1, trace)
                save(result)
                label = f"{workload.name} seed {seed} trace {int(trace)}"
                if "stored reference" not in result["checks"]:
                    failures.append(f"{label}: no stored reference")
                failures += [f"{label}: {p}" for p in result["problems"]]
                print(f"self-test {label}: {'ok' if not result['problems'] else 'FAILED'}", flush=True)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test passed" if not failures else f"self-test failed: {len(failures)} problems")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="casemark benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first repetition's outputs as the seed's reference")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "casemark" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'casemark'}; run from a casemark checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 args.record_reference)
    path = save(result)
    report(result)
    print(f"  results: {path.relative_to(ROOT)}")
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
