"""Seeded generator of verse-parallel corpora with planted case suffixes.

Standard library only. The same `CorpusSpec` and seed give byte-identical
files: every random draw comes from a `random.Random` seeded with a string
(hashed with SHA-512, so independent of PYTHONHASHSEED), and no set or dict
is iterated in hash order when output is written.

The model of one verse is a list of units:

* NP units: a noun concept drawn from a Zipfian lexicon, a case role, and an
  optional adjective concept. The annotated source editions render an NP as
  `det [adj] noun` and annotate that span; a target language renders it as
  `[adj+suffix] noun+suffix`, the suffix being the language's planted marker
  for the case role (adjectives agree).
* verb units: a Zipfian verb stem plus one of the language's verb endings.
* particle units: Zipfian function words, never inflected.

Units are shuffled independently in every version. Alignments link the
source noun, adjective, verb and (half of the time) particle tokens to their
target counterparts; a share of links is dropped and a share of spurious
links is added, so projection is noisy as with real aligners.

Run `python3 perfbench/gen.py --workload extract-wide --seed 1 --out DIR` to
write one workload's inputs without running anything.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

TARGET_NAMES = ("aru", "belo", "cimra", "dovska", "eskel", "fanti")
SOURCE_NAMES = ("english-a", "english-b")
CASES = ("NOM", "ACC", "GEN", "DAT", "ABL", "LOC", "INS", "VOC")
# Share of NPs in each case role, most frequent first.
CASE_WEIGHTS = (30, 24, 16, 10, 8, 6, 4, 2)
LATIN_CONSONANTS = "bcdfghklmnprstvz"
LATIN_VOWELS = "aeiou"
CYRILLIC_CONSONANTS = "бвгджзклмнпрстфх"
CYRILLIC_VOWELS = "аеиоуя"
# Reference size for the frequency threshold (see tests/synthcorpus.py):
# theta' = max(5, round(97 * np_relevant_types / 5000)).
REFERENCE_RELEVANT_TYPES = 5000
PAPER_THETA = 97
ADJECTIVE_SHARE = 0.3  # share of NPs with an adjective
LINK_DROP = 0.08  # share of true alignment links left out
LINK_NOISE = 0.04  # chance that an NP head gets one spurious link


@dataclass(frozen=True)
class CorpusSpec:
    """Size and shape of one generated corpus."""

    verses: int
    languages: int  # target languages
    editions: int  # editions per target language
    sources: int = 1  # annotated source editions
    stems: int = 6000  # noun stems per language, Zipfian
    zipf: float = 1.0  # Zipf exponent of the noun lexicon
    nps_per_verse: tuple[int, int] = (2, 4)
    suffixes: int = 6  # planted case suffixes per target language
    paradigms: int = 0  # paradigm-table lemmas per target language
    markers: int = 0  # entries per generated marker file; 0 writes none


@dataclass
class Language:
    name: str
    nouns: list[str]
    adjectives: list[str]
    verbs: list[str]
    particles: list[str]
    case_suffixes: dict[str, str]
    verb_endings: list[str]


@dataclass
class Generated:
    """What the generator wrote, and the facts the checks need."""

    target_languages: list[str]
    source_versions: list[str]
    planted: dict[str, list[str]]  # language -> sorted planted `suffix$` grams
    tokens: int  # corpus tokens over all versions
    np_relevant_estimate: int  # fewest distinct NP word forms of a target language
    files: list[str] = field(default_factory=list)  # relative paths, sorted
    theta: int = PAPER_THETA  # the threshold written into the run config
    paradigm_lemmas: int = 0  # nominal lemmas per paradigm table

    def scaled_theta(self) -> int:
        return max(5, round(PAPER_THETA * self.np_relevant_estimate / REFERENCE_RELEVANT_TYPES))


class _Zipf:
    """Draws ranks 0..n-1 with probability proportional to 1/(rank+1)**s."""

    def __init__(self, n: int, s: float):
        self.cum = list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_right(self.cum, rng.random() * self.cum[-1])


def _unique_words(rng: random.Random, count: int, consonants: str, vowels: str,
                  syllables: tuple[int, int], taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        n = rng.randint(*syllables)
        word = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(n))
        if rng.random() < 0.4:
            word += rng.choice(consonants)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _endings(rng: random.Random, count: int, consonants: str, vowels: str, taken: set[str]) -> list[str]:
    """Distinct short endings; no two share a first letter, so paradigm roots
    induce cleanly to the stem."""
    endings: list[str] = []
    firsts: set[str] = set()
    while len(endings) < count:
        shape = rng.choice(("v", "vc", "cv", "vcv"))
        ending = "".join(rng.choice(vowels if ch == "v" else consonants) for ch in shape)
        if ending in taken or ending[0] in firsts:
            continue
        taken.add(ending)
        firsts.add(ending[0])
        endings.append(ending)
    return endings


def make_language(seed: int, name: str, spec: CorpusSpec, cyrillic: bool) -> Language:
    rng = random.Random(f"casemark-bench:{seed}:lang:{name}")
    consonants = CYRILLIC_CONSONANTS if cyrillic else "".join(
        sorted(rng.sample(LATIN_CONSONANTS, 12)))
    vowels = CYRILLIC_VOWELS if cyrillic else "".join(sorted(rng.sample(LATIN_VOWELS, 4)))
    endings_taken: set[str] = set()
    # Case suffixes start with a vowel or consonant alike; at most one per
    # first letter, which the paradigm root induction relies on.
    suffixes = _endings(rng, spec.suffixes, consonants, vowels, endings_taken)
    verb_endings = _endings(rng, 4, consonants, vowels, endings_taken)
    taken: set[str] = set()
    return Language(
        name=name,
        nouns=_unique_words(rng, spec.stems, consonants, vowels, (2, 3), taken),
        adjectives=_unique_words(rng, max(50, spec.stems // 8), consonants, vowels, (2, 3), taken),
        verbs=_unique_words(rng, max(50, spec.stems // 4), consonants, vowels, (2, 3), taken),
        particles=_unique_words(rng, 60, consonants, vowels, (1, 2), taken),
        case_suffixes=dict(zip(CASES, suffixes)),
        verb_endings=verb_endings,
    )


def _source_lexicon(seed: int, spec: CorpusSpec) -> Language:
    rng = random.Random(f"casemark-bench:{seed}:source")
    taken = {"the", "a"}
    return Language(
        name="english",
        nouns=_unique_words(rng, spec.stems, "bcdfghklmnprstvwz", "aeiou", (2, 3), taken),
        adjectives=_unique_words(rng, max(50, spec.stems // 8), "bcdfghklmnprstvwz", "aeiou", (2, 3), taken),
        verbs=_unique_words(rng, max(50, spec.stems // 4), "bcdfghklmnprstvwz", "aeiou", (2, 3), taken),
        particles=_unique_words(rng, 60, "bcdfghklmnprstvwz", "aeiou", (1, 2), taken),
        case_suffixes={},
        verb_endings=[""],
    )


def _write(root: Path, relative: str, lines: list[str], written: list[str]) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))
    written.append(relative)


def generate(spec: CorpusSpec, seed: int, root) -> Generated:
    """Write verse files, alignments, NP annotations and, when the spec asks
    for them, paradigm tables and marker files under `root`."""
    root = Path(root)
    if (spec.sources > len(SOURCE_NAMES) or spec.languages > len(TARGET_NAMES)
            or spec.suffixes > len(CASES)):
        raise ValueError("spec asks for more sources, languages or cases than have names")
    source_lex = _source_lexicon(seed, spec)
    languages = [
        make_language(seed, TARGET_NAMES[i], spec, cyrillic=(i % 4 == 3))
        for i in range(spec.languages)
    ]
    sources = list(SOURCE_NAMES[: spec.sources])
    targets = [f"{lang.name}-e{e + 1}" for lang in languages for e in range(spec.editions)]
    lang_of = {f"{lang.name}-e{e + 1}": lang for lang in languages for e in range(spec.editions)}

    noun_zipf = _Zipf(spec.stems, spec.zipf)
    adj_zipf = _Zipf(len(source_lex.adjectives), spec.zipf)
    verb_zipf = _Zipf(len(source_lex.verbs), spec.zipf)
    particle_zipf = _Zipf(60, 1.2)
    cases = CASES[: spec.suffixes]
    case_cum = list(itertools.accumulate(CASE_WEIGHTS[: spec.suffixes]))
    rng = random.Random(f"casemark-bench:{seed}:verses")

    verse_lines: dict[str, list[str]] = {v: [] for v in sources + targets}
    np_lines: dict[str, list[str]] = {s: [] for s in sources}
    align_lines: dict[tuple[str, str], list[str]] = {
        (s, t): [f"#\t{s}\t{t}"] for s in sources for t in targets
    }
    np_forms: dict[str, set[str]] = {lang.name: set() for lang in languages}
    tokens = 0

    for v in range(spec.verses):
        verse_id = f"{1 + v // 1000:02d}.{v % 1000:03d}"
        units = []
        for _ in range(rng.randint(*spec.nps_per_verse)):
            case = cases[bisect.bisect_right(case_cum, rng.random() * case_cum[-1])]
            adj = adj_zipf.draw(rng) if rng.random() < ADJECTIVE_SHARE else None
            units.append(("np", noun_zipf.draw(rng), case, adj))
        for _ in range(rng.randint(1, 2)):
            units.append(("verb", verb_zipf.draw(rng), rng.randrange(4), None))
        for _ in range(rng.randint(2, 4)):
            units.append(("part", particle_zipf.draw(rng), None, None))

        # Source renderings: token lists plus, per unit, the positions of its
        # noun/adjective/verb/particle token.
        source_pos: dict[str, list[dict[str, int]]] = {}
        for source in sources:
            order = list(range(len(units)))
            rng.shuffle(order)
            toks: list[str] = []
            spans = []
            pos = [dict() for _ in units]
            for u in order:
                kind, concept, _case, adj = units[u]
                if kind == "np":
                    start = len(toks)
                    toks.append(rng.choice(("the", "the", "a")))
                    if adj is not None:
                        pos[u]["adj"] = len(toks)
                        toks.append(source_lex.adjectives[adj])
                    pos[u]["head"] = len(toks)
                    toks.append(source_lex.nouns[concept])
                    spans.append(f"{start}:{len(toks)}")
                else:
                    pos[u]["head"] = len(toks)
                    words = source_lex.verbs if kind == "verb" else source_lex.particles
                    toks.append(words[concept])
            verse_lines[source].append(f"{verse_id}\t{' '.join(toks)}")
            np_lines[source].append(f"{verse_id}\t{' '.join(spans)}")
            source_pos[source] = pos
            tokens += len(toks)

        for target in targets:
            lang = lang_of[target]
            order = list(range(len(units)))
            rng.shuffle(order)
            toks = []
            pos = [dict() for _ in units]
            for u in order:
                kind, concept, case, adj = units[u]
                if kind == "np":
                    suffix = lang.case_suffixes[case]
                    if adj is not None:
                        pos[u]["adj"] = len(toks)
                        toks.append(lang.adjectives[adj] + suffix)
                        np_forms[lang.name].add(toks[-1])
                    pos[u]["head"] = len(toks)
                    toks.append(lang.nouns[concept] + suffix)
                    np_forms[lang.name].add(toks[-1])
                elif kind == "verb":
                    pos[u]["head"] = len(toks)
                    toks.append(lang.verbs[concept] + lang.verb_endings[case])
                else:
                    pos[u]["head"] = len(toks)
                    toks.append(lang.particles[concept])
            verse_lines[target].append(f"{verse_id}\t{' '.join(toks)}")
            tokens += len(toks)

            for source in sources:
                links = set()
                for u, (kind, _c, _case, _adj) in enumerate(units):
                    for slot, i in source_pos[source][u].items():
                        if kind == "part" and rng.random() < 0.5:
                            continue
                        if rng.random() < LINK_DROP:
                            continue
                        links.add((i, pos[u][slot]))
                    if kind == "np" and rng.random() < LINK_NOISE:
                        links.add((source_pos[source][u]["head"], rng.randrange(len(toks))))
                align_lines[(source, target)].append(
                    f"{verse_id}\t{' '.join(f'{i}-{j}' for i, j in sorted(links))}"
                )

    written: list[str] = []
    for version, lines in verse_lines.items():
        _write(root, f"corpus/{version}.txt", lines, written)
    for source, lines in np_lines.items():
        _write(root, f"annotations/{source}.np", lines, written)
    for (source, target), lines in align_lines.items():
        _write(root, f"alignments/{source}__{target}.tsv", lines, written)
    if spec.paradigms:
        for lang in languages:
            _write(root, f"paradigms/{lang.name}.tsv", _paradigm_lines(seed, lang, spec), written)
    if spec.markers:
        for lang in languages:
            _write(root, f"markers/{lang.name}.tsv", _marker_lines(seed, lang, spec), written)

    planted = {
        lang.name: sorted(s + "$" for s in lang.case_suffixes.values()) for lang in languages
    }
    return Generated(
        target_languages=[lang.name for lang in languages],
        source_versions=sources,
        planted=planted,
        tokens=tokens,
        np_relevant_estimate=min(len(forms) for forms in np_forms.values()),
        files=sorted(written),
        paradigm_lemmas=spec.paradigms + spec.paradigms // 4,
    )


def _paradigm_lines(seed: int, lang: Language, spec: CorpusSpec) -> list[str]:
    """Noun and adjective paradigms over the planted suffixes (the citation
    form is the bare stem), plus verb rows that the POS filter drops."""
    rng = random.Random(f"casemark-bench:{seed}:paradigms:{lang.name}")
    lines = []
    nouns = rng.sample(lang.nouns, spec.paradigms)
    adjectives = rng.sample(lang.adjectives, spec.paradigms // 4)
    for pos, stems in (("N", nouns), ("ADJ", adjectives)):
        for stem in stems:
            for case in CASES[: spec.suffixes]:
                lines.append(f"{stem}\t{stem}{lang.case_suffixes[case]}\t{pos};{case};SG")
    for stem in rng.sample(lang.verbs, spec.paradigms // 4):
        for person, ending in enumerate(lang.verb_endings, 1):
            lines.append(f"{stem}\t{stem}{ending}\tV;{person};SG")
    return lines


def _marker_lines(seed: int, lang: Language, spec: CorpusSpec) -> list[str]:
    """A marker file as `extract` would write one: the planted suffixes plus
    word-final grams of frequent stems, sorted, with plausible statistics."""
    rng = random.Random(f"casemark-bench:{seed}:markers:{lang.name}")
    grams = {s + "$" for s in lang.case_suffixes.values()}
    stem_finals = sorted({stem[-k:] + "$" for stem in lang.nouns[:400] for k in (1, 2)})
    rng.shuffle(stem_finals)
    for gram in stem_finals:
        if len(grams) >= spec.markers:
            break
        grams.add(gram)
    lines = []
    for gram in sorted(grams):
        inside = rng.randint(100, 3000)
        outside = rng.randint(5, inside)
        p_value = rng.random() * 0.08
        ratio = 0.34 + rng.random() * 20
        lines.append(f"{gram}\t{inside}\t{outside}\t{p_value!r}\t{ratio!r}")
    return lines


def main(argv=None) -> int:
    from workloads import WORKLOADS  # workloads imports this module

    parser = argparse.ArgumentParser(description="Write one benchmark workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generated = WORKLOADS[args.workload].prepare(args.seed, Path(args.out))
    print(json.dumps({"tokens": generated.tokens, "files": len(generated.files),
                      "np_relevant_estimate": generated.np_relevant_estimate}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
