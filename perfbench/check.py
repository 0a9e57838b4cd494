"""Output checks for the benchmark, independent of the casemark package.

Two kinds of check, run on every seed's outputs:

* an oracle written here from the input files alone, following the paper's
  method: the marker files of `extract` (gram sets and integer counts
  exactly, p-values and odds ratios within a relative 1e-6), the
  `ablation.tsv` of `ablate` (each variant's marker sets scored against the
  planted suffixes), the silver suffix files, which must equal the planted
  suffixes, and the NP dump, `groups.txt` and matrix export of
  `project`/`analyze` (byte for byte);
* for the seeds with a stored reference (`reference/<workload>.json`), the
  same comparison of marker files plus every other output file byte for
  byte, which also pins the number formatting.

`manifest.json` is never compared: it embeds absolute input paths and jobs.
"""

from __future__ import annotations

import hashlib
import json
import math
import unicodedata
from collections import Counter, defaultdict
from pathlib import Path

ABLATION_VARIANTS = ("baseline", "no_theta", "no_phi", "no_chi", "middle", "beginning")
EXCLUDED = {"manifest.json"}
REL_TOL = 1e-6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_files(out_dir: Path) -> list[str]:
    return sorted(
        p.relative_to(out_dir).as_posix()
        for p in out_dir.rglob("*")
        if p.is_file() and p.name not in EXCLUDED
    )


def tree_digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file except the manifest, by relative path."""
    return {rel: _sha256(out_dir / rel) for rel in output_files(out_dir)}


def tree_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def _is_marker_file(rel: str) -> bool:
    return rel.startswith("markers/") and rel.endswith(".tsv")


def parse_markers(path: Path) -> dict[str, list]:
    """gram -> [inside, outside, p, odds]; NA statistics stay None."""
    markers = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        gram, inside, outside, p_text, r_text = line.split("\t")
        markers[gram] = [
            int(inside),
            int(outside),
            None if p_text == "NA" else float(p_text),
            None if r_text == "NA" else float(r_text),
        ]
    return markers


def make_reference(out_dir: Path) -> dict:
    files, markers = {}, {}
    for rel in output_files(out_dir):
        if _is_marker_file(rel):
            markers[rel] = parse_markers(out_dir / rel)
        else:
            files[rel] = _sha256(out_dir / rel)
    return {"files": files, "markers": markers}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare_markers(rel: str, got: dict[str, list], expected: dict[str, list]) -> list[str]:
    """Gram sets and counts exactly, p-values and odds ratios within REL_TOL."""
    if set(got) != set(expected):
        return [
            f"{rel}: gram set differs "
            f"(missing {sorted(set(expected) - set(got))[:5]}, extra {sorted(set(got) - set(expected))[:5]})"
        ]
    problems = []
    for gram, (inside, outside, p, ratio) in sorted(expected.items()):
        g_in, g_out, g_p, g_ratio = got[gram]
        if (g_in, g_out) != (inside, outside):
            problems.append(f"{rel}: {gram} counts {g_in},{g_out} != expected {inside},{outside}")
        elif not (_close(g_p, p) and _close(g_ratio, ratio)):
            problems.append(f"{rel}: {gram} p/odds {g_p},{g_ratio} != expected {p},{ratio}")
    return problems


def compare_reference(out_dir: Path, reference: dict) -> list[str]:
    problems = []
    actual = make_reference(out_dir)
    for kind in ("files", "markers"):
        missing = sorted(set(reference[kind]) - set(actual[kind]))
        extra = sorted(set(actual[kind]) - set(reference[kind]))
        if missing or extra:
            problems.append(f"output files differ from reference: missing {missing}, extra {extra}")
    for rel, digest in sorted(reference["files"].items()):
        if rel in actual["files"] and actual["files"][rel] != digest:
            problems.append(f"{rel}: bytes differ from reference")
    for rel, expected in sorted(reference["markers"].items()):
        if rel in actual["markers"]:
            problems += compare_markers(rel, actual["markers"][rel], expected)
    return problems


def read_ablation(out_dir: Path) -> dict[str, list[float]]:
    lines = (out_dir / "ablation" / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    return {row[0]: [float(x) for x in row[1:]] for row in (line.split("\t") for line in lines[1:])}


def check_silver(out_dir: Path, planted: dict[str, list[str]], lemmas: int) -> list[str]:
    problems = []
    for language, suffixes in sorted(planted.items()):
        path = out_dir / "silver" / f"{language}.txt"
        if not path.is_file() or path.read_text(encoding="utf-8").splitlines() != suffixes:
            problems.append(f"silver/{language}.txt differs from the planted suffixes {suffixes}")
    expected = ["language\tparadigms_used\tsuffixes_emitted"] + [
        f"{language}\t{lemmas}\t{len(suffixes)}" for language, suffixes in sorted(planted.items())
    ]
    diagnostics = out_dir / "silver" / "diagnostics.tsv"
    if not diagnostics.is_file() or diagnostics.read_text(encoding="utf-8").splitlines() != expected:
        problems.append("silver/diagnostics.tsv differs from the generated paradigm tables")
    return problems


def prf(predicted: set[str], gold: set[str]) -> tuple[float, float, float]:
    """Exact-match set precision, recall and F1."""
    if not predicted and not gold:
        return 1.0, 1.0, 1.0
    hits = len(predicted & gold)
    precision = hits / len(predicted) if predicted else 0.0
    recall = hits / len(gold) if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
    return precision, recall, f1


def macro_prf(predicted: dict[str, set[str]], gold: dict[str, list[str]]) -> list[float]:
    """Unweighted means over the gold languages of precision, recall and F1."""
    rows = [prf(predicted.get(language, set()), set(grams)) for language, grams in sorted(gold.items())]
    return [sum(column) / len(rows) for column in zip(*rows)]


def extracted_grams(out_dir: Path) -> dict[str, set[str]]:
    return {p.stem: set(parse_markers(p)) for p in (out_dir / "markers").glob("*.tsv")}


# --- oracle for `project` and `analyze` -------------------------------------

def _version_key(name: str) -> tuple[str, str]:
    language, _, edition = name.rpartition("-")
    return language, edition


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def load_inputs(input_dir: Path, config: dict):
    verses = {}
    for path in sorted((input_dir / "corpus").glob("*.txt")):
        verses[path.stem] = {
            vid: tuple(unicodedata.normalize("NFC", t) for t in text.split(" "))
            for vid, text in _read_tsv(path)
        }
    shared = sorted(set.intersection(*(set(v) for v in verses.values())))
    spans = {}
    for rel in config["annotation_files"]:
        path = input_dir / rel
        spans[path.stem] = {
            row[0]: sorted(tuple(map(int, chunk.split(":"))) for chunk in row[1].split())
            for row in _read_tsv(path) if len(row) == 2
        }
    links = {}
    for path in sorted((input_dir / "alignments").glob("*.tsv")):
        rows = _read_tsv(path)
        pair = (rows[0][1], rows[0][2])
        links[pair] = {
            row[0]: [tuple(map(int, chunk.split("-"))) for chunk in row[1].split()]
            for row in rows[1:] if len(row) == 2
        }
    return verses, shared, spans, links


def project(verses, shared, spans, links):
    """Parallel NPs as (verse, source, source indices, {target: indices})."""
    sources = sorted(spans, key=_version_key)
    targets = sorted((v for v in verses if v not in spans), key=_version_key)
    nps = []
    for source in sources:
        for verse in shared:
            for start, end in spans[source].get(verse, ()):
                wanted = set(range(start, end))
                projections = {}
                for target in targets:
                    hits = {j for i, j in links[(source, target)].get(verse, ()) if i in wanted}
                    if hits:
                        projections[target] = tuple(sorted(hits))
                nps.append((verse, source, tuple(range(start, end)), projections))
    return nps


def _surface(verses, version, verse, indices) -> str:
    tokens = verses[version][verse]
    return " ".join(tokens[i] for i in indices)


def expected_dump(verses, nps) -> str:
    lines = []
    for verse, source, indices, projections in nps:
        rows = [(source, indices)] + sorted(projections.items(), key=lambda kv: _version_key(kv[0]))
        for version, idx in rows:
            lines.append(f"{verse}\t{version}\t{','.join(map(str, idx))}\t{_surface(verses, version, verse, idx)}\n")
    return "".join(lines)


def _np_id(verse, source, indices) -> str:
    return f"{verse}|{source}|{','.join(map(str, indices))}"


def expected_matrix(verses, nps) -> dict[str, str]:
    counts: Counter = Counter()
    col_text = {}
    for verse, source, indices, projections in nps:
        col = _np_id(verse, source, indices)
        col_text[col] = _surface(verses, source, verse, indices)
        for version, idx in [*projections.items(), (source, indices)]:
            language = _version_key(version)[0]
            for i in idx:
                counts[(f"{language}:{verses[version][verse][i]}", col)] += 1
    rows = sorted({row for row, _ in counts})
    cols = sorted(col_text)
    row_index = {row: i for i, row in enumerate(rows)}
    col_index = {col: i for i, col in enumerate(cols)}
    cells = sorted((row_index[r], col_index[c], n) for (r, c), n in counts.items())
    return {
        "rows.txt": "".join(row + "\n" for row in rows),
        "cols.txt": "".join(f"{col}\t{col_text[col]}\n" for col in cols),
        "matrix.tsv": "".join(f"{r}\t{c}\t{n}\n" for r, c, n in cells),
    }


def expected_groups(verses, nps, markers: dict[str, list[str]], languages, samples: int) -> str:
    ordered = sorted(languages)
    buckets = defaultdict(list)
    for np_ in nps:
        verse, _source, _indices, projections = np_
        key = []
        for language in ordered:
            assigned = None
            versions = sorted((v for v in projections if _version_key(v)[0] == language), key=_version_key)
            if versions:
                word = "$" + verses[versions[0]][verse][projections[versions[0]][-1]] + "$"
                matching = [m for m in markers[language] if word.endswith(m)]
                assigned = max(matching, key=len) if matching else None
            key.append(f"{language}={assigned if assigned is not None else '-'}")
        buckets[" ".join(key)].append(np_)
    lines = []
    for key_text, members in sorted(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        lines.append(f"group\t{key_text}\tsize={len(members)}\n")
        for verse, source, indices, _ in members[:samples]:
            lines.append(f"\t{verse}\t{source}\t{_surface(verses, source, verse, indices)}\n")
    return "".join(lines)


# --- oracle for `extract` and `ablate` -------------------------------------

def np_partition(verses, shared, spans, nps, language) -> tuple[set[str], set[str]]:
    """NP-relevant and NP-irrelevant word types of `language`.

    Every annotated source makes one copy of the corpus, in which its NPs and
    their projections are marked; a copy counts every version of the language
    except the other sources. A type is NP-relevant when more of its tokens
    lie inside marked spans than outside, over all copies.
    """
    marked = defaultdict(set)
    for verse, source, indices, projections in nps:
        for version, idx in [(source, indices), *projections.items()]:
            marked[(source, verse, version)].update(idx)
    inside: Counter = Counter()
    outside: Counter = Counter()
    for copy in spans:
        for version, texts in verses.items():
            if _version_key(version)[0] != language or (version in spans and version != copy):
                continue
            for verse in shared:
                hits = marked.get((copy, verse, version), ())
                for i, token in enumerate(texts[verse]):
                    if i in hits:
                        inside[token] += 1
                    else:
                        outside[token] += 1
    types = set(inside) | set(outside)
    relevant = {word for word in types if inside[word] > outside[word]}
    return relevant, types - relevant


def _grams(word: str) -> set[str]:
    wrapped = f"${word}$"
    return {wrapped[i:j] for i in range(len(wrapped)) for j in range(i + 1, len(wrapped) + 1)
            if wrapped[i:j].strip("$")}


def gram_counts(relevant: set[str], irrelevant: set[str]) -> dict[str, tuple[int, int]]:
    """For every gram of an NP-relevant type: the NP-relevant and the
    NP-irrelevant types that contain it."""
    inside: Counter = Counter()
    for word in relevant:
        inside.update(_grams(word))
    outside: Counter = Counter()
    for word in irrelevant:
        outside.update(gram for gram in _grams(word) if gram in inside)
    return {gram: (n, outside[gram]) for gram, n in inside.items()}


def _log_choose(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_two_sided(a: int, b: int, c: int, d: int) -> float:
    """Two-sided Fisher exact p-value of [a, b; c, d]: the hypergeometric
    point probabilities, over the tables with the same margins, that do not
    exceed the observed one (with 1e-12 relative slack for ties)."""
    row1, row2, col1 = a + b, c + d, a + c
    low, high = max(0, col1 - row2), min(row1, col1)

    def log_point(k: int) -> float:
        return _log_choose(row1, k) + _log_choose(row2, col1 - k) - _log_choose(row1 + row2, col1)

    cutoff = log_point(a) + math.log1p(1e-12)
    terms = [math.exp(lp) for lp in map(log_point, range(low, high + 1)) if lp <= cutoff]
    return 1.0 if len(terms) == high - low + 1 else min(1.0, math.fsum(terms))


def _odds(a: int, b: int, c: int, d: int) -> float | None:
    """(a*d)/(b*c); infinite when only b*c is 0, None when both are."""
    if b * c == 0:
        return None if a * d == 0 else math.inf
    return a * d / (b * c)


def _admitted(gram: str, variant: str) -> bool:
    if gram.endswith("$"):
        return True
    if variant == "middle":
        return not gram.startswith("$")
    return variant == "beginning" and gram.startswith("$")


def expected_markers(counts, pipeline: dict, variant: str = "baseline") -> dict[str, list]:
    """gram -> [inside, outside, p, odds] for the markers that one ablation
    variant of the pipeline keeps. Each candidate is tested against the
    totals of all candidates that reach theta; p is None for `no_phi`."""
    theta = 1 if variant == "no_theta" else pipeline["theta"]
    survivors = [gram for gram, (inside, _) in counts.items() if inside >= theta]
    inside_total = sum(counts[gram][0] for gram in survivors)
    outside_total = sum(counts[gram][1] for gram in survivors)
    kept = {}
    for gram in survivors:
        if not _admitted(gram, variant):
            continue
        inside, outside = counts[gram]
        table = (inside, inside_total - inside, outside, outside_total - outside)
        ratio = _odds(*table)
        if variant != "no_chi" and (ratio is None or not ratio > pipeline["chi"]):
            continue
        p_value = None
        if variant != "no_phi":
            p_value = fisher_two_sided(*table)
            if not p_value < pipeline["phi"]:
                continue
        kept[gram] = [inside, outside, p_value, ratio]
    return kept


def check_extract(out_dir: Path, counts: dict, pipeline: dict) -> list[str]:
    problems = []
    for language, language_counts in sorted(counts.items()):
        rel = f"markers/{language}.tsv"
        if not (out_dir / rel).is_file():
            problems.append(f"{rel} missing")
            continue
        expected = expected_markers(language_counts, pipeline)
        problems += compare_markers(rel, parse_markers(out_dir / rel), expected)
    return problems


def check_ablate(out_dir: Path, counts: dict, pipeline: dict, gold: dict[str, list[str]]) -> list[str]:
    rows = read_ablation(out_dir)
    if tuple(rows) != ABLATION_VARIANTS:
        return [f"ablation.tsv rows {list(rows)} != {list(ABLATION_VARIANTS)}"]
    problems = []
    for variant in ABLATION_VARIANTS:
        predicted = {lang: set(expected_markers(counts[lang], pipeline, variant)) for lang in gold}
        expected = macro_prf(predicted, gold)
        # The table prints four decimals.
        if len(rows[variant]) != 3 or any(abs(got - want) > 5.001e-5
                                          for got, want in zip(rows[variant], expected)):
            problems.append(f"ablation.tsv {variant} {rows[variant]} != expected "
                            f"{[round(x, 4) for x in expected]}")
    return problems


def check_against_oracle(input_dir: Path, out_dir: Path, commands, planted) -> list[str]:
    """Compare the outputs of every command of the workload with the
    oracle's; `planted` (the generated suffixes) is the ablation's gold."""
    config = json.loads((input_dir / "run.yaml").read_text(encoding="utf-8"))
    verses, shared, spans, links = load_inputs(input_dir, config)
    nps = project(verses, shared, spans, links)
    problems = []
    if "extract" in commands or "ablate" in commands:
        if "extract" in commands:
            languages = sorted({_version_key(version)[0] for version in verses})
        else:
            languages = sorted(planted)
        counts = {lang: gram_counts(*np_partition(verses, shared, spans, nps, lang))
                  for lang in languages}
        if "extract" in commands:
            problems += check_extract(out_dir, counts, config["pipeline"])
        if "ablate" in commands:
            problems += check_ablate(out_dir, counts, config["pipeline"], planted)
    expected = {}
    if "project" in commands:
        expected["nps/parallel_nps.tsv"] = expected_dump(verses, nps)
    if "analyze" in commands:
        analysis = config["analysis"]
        markers = {
            lang: [row[0] for row in _read_tsv(input_dir / config["markers_dir"] / f"{lang}.tsv")]
            for lang in analysis["languages"]
        }
        expected["analysis/groups.txt"] = expected_groups(
            verses, nps, markers, analysis["languages"], analysis["samples_per_group"])
        for name, text in expected_matrix(verses, nps).items():
            expected[f"analysis/{name}"] = text
    for rel, text in expected.items():
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel} missing")
        elif path.read_text(encoding="utf-8") != text:
            problems.append(f"{rel} differs from the oracle")
    return problems
