"""Candidate case-marker generation and filtering.

From the NP-relevant word types of a language, every boundary-marked
character n-gram is a candidate. Candidates are filtered in three stages:
a frequency threshold on the number of NP-relevant types containing the
gram, an exact-test filter comparing inside/outside containment counts
against all other candidates, and a restriction to word-final grams.

The work splits at the config boundary: `count_grams` projects the corpus
and counts each language's grams that reach the config's frequency threshold
(no other setting affects counting), and `extract_markers_per_config`
selects markers from those counts for any configs with at least that
threshold, sharing one exact test among the configs of each threshold. A
gram's statistics depend only on its (inside, outside) pair and the row
totals, and most grams share a pair, so selection works per pair, not per gram.

Counting cuts only the grams that can reach the threshold out of the words.
A gram that theta NP-relevant types contain has each of its 3-character
windows in theta of them, so each window occurs at least theta times in
those words. One pass counts the windows of all the words joined; then each
word gives its grams shorter than a window, and the longer grams made only
of windows that reached theta (at theta=1, all of them, with no window
built). Occurrences bound containment from above, so no gram that reaches
theta is missed, and each kept gram's containment counts are then taken
exactly, inside and outside, as the two sides of a `GramCounts`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import chain, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .corpus import BOUNDARY, Alignment, ParallelCorpus, read_lines, write_output
from .errors import ConfigurationError, CorpusError, ParseError, UndefinedOddsError
from .projection import NpAnnotation, alignments_by_pair, build_inside_outside, partition_word_types
from .stats import ExactTest

# Each ablation variant of a baseline config, as the fields it replaces.
_VARIANT_FIELDS = {
    "baseline": {},
    "no_theta": {"theta": 1},
    "no_phi": {"phi": None},
    "no_chi": {"chi": None},
    "middle": {"positions": frozenset({"final", "internal"})},
    "beginning": {"positions": frozenset({"final", "initial"})},
}
ABLATION_VARIANTS = tuple(_VARIANT_FIELDS)
POSITIONS = frozenset({"final", "initial", "internal"})


class _PipelineFields(NamedTuple):
    theta: int = 97
    phi: Optional[float] = 0.08
    chi: Optional[float] = 0.34
    positions: frozenset[str] = frozenset({"final"})
    languages: Optional[tuple[str, ...]] = None
    exclude_languages: tuple[str, ...] = ()


class PipelineConfig(_PipelineFields):
    """Thresholds for one extraction run, checked on construction.

    `phi` or `chi` set to None switches that test off. `positions` is the
    set of gram positions the positional filter keeps: word-final only by
    default; the middle/beginning ablations add word-internal / word-initial
    grams, and all three disable the filter. `_replace` does not check its
    values again.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if isinstance(self.theta, bool) or not isinstance(self.theta, int) or self.theta < 1:
            raise ConfigurationError(f"theta must be an integer >= 1, got {self.theta!r}")
        if any(isinstance(v, bool) or not isinstance(v, (int, float, type(None))) for v in (self.phi, self.chi)):
            raise ConfigurationError(f"phi and chi must be numbers or null, got {self.phi!r} and {self.chi!r}")
        if self.phi is not None and not 0.0 < self.phi < 1.0:
            raise ConfigurationError(f"phi must lie in (0, 1), got {self.phi}")
        if self.chi is not None and not self.chi >= 0.0:
            raise ConfigurationError(f"chi must be >= 0, got {self.chi}")
        if not self.positions or not self.positions <= POSITIONS:
            raise ConfigurationError(f"positions must be a non-empty subset of {sorted(POSITIONS)}")
        return self

    def with_variant(self, variant: str) -> "PipelineConfig":
        """Config for one ablation variant of this baseline."""
        if variant not in _VARIANT_FIELDS:
            raise ConfigurationError(f"unknown ablation variant {variant!r} (expected one of {ABLATION_VARIANTS})")
        fields = _VARIANT_FIELDS[variant]
        return self._replace(**fields) if fields else self

    def wants_language(self, language: str) -> bool:
        if language in self.exclude_languages:
            return False
        return self.languages is None or language in self.languages


class CandidateMarker(NamedTuple):
    """A boundary-marked gram with its type-containment counts, p-value and
    odds ratio; the ratio is None where it is undefined (kept only when the
    ratio test is off), and a marker file may give either statistic as NA."""

    gram: str
    inside_count: int
    outside_count: int
    p_value: Optional[float] = None
    odds_ratio: Optional[float] = None


class MarkerSet:
    """One language's markers. Not a tuple, as what `analysis.assign_marker`
    reads for each word, their grams (`grams()`) and the distinct gram lengths
    longest first (`gram_lengths()`), is derived once, at construction;
    equality compares language and markers."""

    __slots__ = ("language", "markers", "_grams", "_lengths")

    def __init__(self, language: str, markers: frozenset[CandidateMarker]):
        self.language = language
        self.markers = markers
        self._grams = frozenset(m.gram for m in markers)
        self._lengths = tuple(sorted(set(map(len, self._grams)), reverse=True))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.language, self.markers) == (other.language, other.markers)

    def __hash__(self) -> int:
        return hash((self.language, self.markers))

    def __repr__(self) -> str:
        return f"MarkerSet(language={self.language!r}, markers={self.markers!r})"

    def grams(self) -> frozenset[str]:
        return self._grams

    def gram_lengths(self) -> tuple[int, ...]:
        return self._lengths

    def sorted_markers(self) -> list[CandidateMarker]:
        return sorted(self.markers, key=lambda m: m.gram)


def _gram_slices(length: int) -> tuple[slice, ...]:
    """The slices of a boundary-wrapped word of `length` characters that hold
    a character other than the two boundaries."""
    return tuple(
        slice(start, end)
        for start in range(length)
        for end in range(start + 1, length + 1)
        if max(start, 1) < min(end, length - 1)
    )


def _cutter(slices: tuple[slice, ...]) -> Callable[[str], tuple[str, ...]]:
    """A function giving the tuple of a string's `slices` in one C call.
    `itemgetter` returns a lone item bare and takes no zero items (the empty
    word has no slices), so fewer than two slices take a Python loop."""
    if len(slices) > 1:
        return itemgetter(*slices)
    return lambda wrapped: tuple(wrapped[s] for s in slices)


# Window length of the frequency bound (see the module docstring); windows
# of 2 or 4 characters made counting slower. `_windows` hard-codes it.
_WINDOW = 3
# The longest word type cut into grams: a word of n characters has about n*n/2
# grams, all cut before a set collapses them (255 give 32,873, in about 10 MB).
LONGEST_WORD = 255


@lru_cache(maxsize=4096)  # one immutable entry per pattern; corpora show a few hundred
def _frequent_cutter(frequent_at: bytes) -> Callable[[str], tuple[str, ...]]:
    """`_cutter` of the slices of `_gram_slices` of a wrapped word whose
    windows are all frequent, where the window starting at i is frequent iff
    `frequent_at[i]`: every slice shorter than a window, and the longer ones
    inside a run of consecutive frequent windows."""
    if len(frequent_at) > LONGEST_WORD:
        raise CorpusError(
            f"a word type of {len(frequent_at)} characters is longer than the {LONGEST_WORD} that gram counting takes"
        )
    slices = _gram_slices(len(frequent_at) + 2)
    return _cutter(tuple(s for s in slices if all(frequent_at[s.start : s.stop - _WINDOW + 1])))


def candidates_of_word(word: str) -> set[str]:
    """All substrings of `$word$` containing at least one non-boundary
    character; duplicates within the word collapse. The word itself holds no
    boundary character (the corpus loader rejects it), so only `$` and, for
    the empty word, `$$` consist of boundaries alone."""
    return set(_frequent_cutter(b"\1" * len(word))(BOUNDARY + word + BOUNDARY))


def _windows(text: str) -> list[str]:
    """The windows of `text` in order."""
    return list(map(add, map(add, text, text[1:]), text[2:]))


def _grams_within(words: list[str], text: str, frequent_at: bytes) -> Iterator[set[str]]:
    """Per word, the grams of `candidates_of_word(word)` whose windows are
    all frequent; `text` is `$w1$w2$...$`, the wrapped words sharing their
    boundaries, and its window starting at i is frequent iff `frequent_at[i]`."""
    start = 0  # where the word's leading boundary sits in `text`
    for word in words:
        end = start + len(word)  # a word of n characters has n windows
        yield set(_frequent_cutter(frequent_at[start:end])(text[start : end + 2]))
        start = end + 1


class GramCounts(Mapping):
    """Each counted gram mapped to its (inside, outside) type-containment
    counts, held as the two sides: `inside` has every gram, `outside` only
    grams of `inside` (one it lacks counts 0). A pair is built only on
    lookup; `len`, `in` and iteration order are those of `inside`."""

    __slots__ = ("inside", "outside")

    def __init__(self, inside: Mapping[str, int], outside: Mapping[str, int]):
        self.inside = inside
        self.outside = outside

    def __getitem__(self, gram: str) -> tuple[int, int]:
        # `get`, not `[]`: `inside` may be a Counter, which reads 0 for any gram.
        inside = self.inside.get(gram)
        if inside is None:
            raise KeyError(gram)
        return inside, self.outside.get(gram, 0)

    def __iter__(self) -> Iterator[str]:
        return iter(self.inside)

    def __len__(self) -> int:
        return len(self.inside)


def build_candidate_counts(
    np_relevant: Iterable[str],
    np_irrelevant: Iterable[str],
    theta: int = 1,
) -> GramCounts:
    """Map each gram drawn from NP-relevant words that at least `theta` of
    them contain to its type-containment counts (types containing it among
    NP-relevant / NP-irrelevant words).

    A word type contributes at most one to each count per gram; grams seen
    only in NP-irrelevant words are not in the domain, and the outside side
    is counted for the kept grams only. Only grams whose windows all occur
    theta times among the NP-relevant words are cut out of the words (see
    `_WINDOW`); the others cannot reach theta.
    """
    sides = list(np_relevant), list(np_irrelevant)
    # `$w1$w2$...$`, each side's wrapped words sharing their boundaries. Each
    # window of a wrapped word is one of its windows; windows across two
    # words only add occurrences, so counts stay upper bounds.
    texts = [BOUNDARY + BOUNDARY.join(words) + BOUNDARY for words in sides]
    if theta > 1:
        windows = list(map(_windows, texts))
        frequent = {window for window, count in Counter(windows[0]).items() if count >= theta}
        masks = [bytes(map(frequent.__contains__, side)) for side in windows]
    else:  # every window is frequent at theta=1, and none is built
        masks = [b"\1" * (len(text) - 2) for text in texts]
    inside_grams, outside_grams = map(_grams_within, sides, texts, masks)
    inside = Counter(chain.from_iterable(inside_grams))
    if theta > 1:  # at theta=1 every gram stays, and a copy would only cost memory
        inside = {gram: count for gram, count in inside.items() if count >= theta}
    return GramCounts(inside, Counter(filter(inside.__contains__, chain.from_iterable(outside_grams))))


def frequency_filter(counts: GramCounts, theta: int) -> set[str]:
    """Grams whose NP-relevant containment count reaches the threshold."""
    if theta < 1:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    return {gram for gram, inside in counts.inside.items() if inside >= theta}


def _table(counts: GramCounts, by_position: Mapping[str, AbstractSet[str]], test: ExactTest) -> dict:
    """Per position of `by_position`, each distinct (inside, outside) pair of
    its grams mapped to the pair's odds ratio under `test` (None where 0/0)
    and those grams; a config's selection is a filter over it (`_filter`)."""
    table, ratios = {}, {}  # `ratios` takes each pair's odds ratio once, across positions
    for position, grams in by_position.items():
        grams = list(grams)
        pairs = list(zip(map(counts.inside.__getitem__, grams), map(counts.outside.get, grams, repeat(0))))
        groups = {pair: [] for pair in set(pairs)}
        any(map(list.append, map(groups.__getitem__, pairs), grams))  # append gives None: `any` runs it all, in C
        for pair in groups.keys() - ratios.keys():
            try:
                ratios[pair] = test.odds_ratio(*pair)
            except UndefinedOddsError:
                ratios[pair] = None
        table[position] = {pair: (ratios[pair], of_pair) for pair, of_pair in groups.items()}
    return table


def _filter(test: ExactTest, table: dict, phi, chi, positions: AbstractSet[str]) -> list[CandidateMarker]:
    """The markers, sorted by gram, of the grams in `positions` of each pair
    of the `_table` with odds ratio > chi, then p < phi (a None threshold
    keeps all); a pair the cheap ratio drops needs no p-value."""
    markers: list[CandidateMarker] = []
    for position in positions:
        for (inside, outside), (ratio, grams) in table[position].items():
            if chi is None or (ratio is not None and ratio > chi):
                p_value = test.p_value(inside, outside)
                if phi is None or p_value < phi:
                    markers += map(CandidateMarker, grams, *map(repeat, (inside, outside, p_value, ratio)))
    return sorted(markers)


def inside_outside_filter(
    candidates: Iterable[str],
    counts: GramCounts,
    phi: Optional[float],
    chi: Optional[float],
) -> dict[str, CandidateMarker]:
    """The candidates with odds ratio > chi and p < phi (both strict; a None
    threshold keeps every candidate at that test), each mapped to its marker,
    in gram order. An undefined (0/0) odds ratio fails any chi that is set. A
    candidate that `counts` lacks is a KeyError."""
    grams = set(candidates)
    missing = grams - counts.inside.keys()  # a Counter side would read it as 0
    if missing:
        raise KeyError(min(missing))
    test = ExactTest(sum(map(counts.inside.__getitem__, grams)), sum(map(counts.outside.get, grams, repeat(0))))
    markers = _filter(test, _table(counts, _by_position(grams, POSITIONS), test), phi, chi, POSITIONS)
    return {marker.gram: marker for marker in markers}


def suffix_restrict(grams: Iterable[str]) -> set[str]:
    """Keep exactly the word-final grams (trailing boundary marker)."""
    return {gram for gram in grams if gram[-1:] == BOUNDARY}  # BOUNDARY is one character; no method call per gram


def _by_position(grams: AbstractSet[str], positions: frozenset[str]) -> dict[str, set[str]]:
    """The grams in each of `positions`: final ones end in the boundary,
    initial ones only start with it, and internal ones are the rest."""
    split = {"final": suffix_restrict(grams)}
    if positions & {"initial", "internal"}:
        split["initial"] = {gram for gram in grams if gram.startswith(BOUNDARY)} - split["final"]
        split["internal"] = grams - split["final"] - split["initial"]
    return split


def extract_markers_per_config(
    counts: GramCounts,
    configs: Sequence[PipelineConfig],
) -> list[list[CandidateMarker]]:
    """`extract_markers_for_language` for each config. Per distinct theta,
    one exact test on the totals of the theta survivors serves every config,
    and one `_table` of the survivors in the positions some config keeps:
    each config filters its distinct pairs, not its grams."""
    inside, outside = counts.inside, counts.outside
    lowest = min(inside.values(), default=1)
    tables = {}
    for theta in {config.theta for config in configs}:
        if lowest >= theta:  # every gram survives: the cut is the keys, and the totals the sides' sums
            survivors = inside.keys()
            test = ExactTest(sum(inside.values()), sum(outside.values()))
        else:
            survivors = frequency_filter(counts, theta)
            test = ExactTest(sum(map(inside.__getitem__, survivors)), sum(map(outside.get, survivors, repeat(0))))
        positions = frozenset().union(*(config.positions for config in configs if config.theta == theta))
        tables[theta] = test, _table(counts, _by_position(survivors, positions), test)
    return [_filter(*tables[config.theta], config.phi, config.chi, config.positions) for config in configs]


def extract_markers_for_language(
    counts: GramCounts,
    config: PipelineConfig,
) -> list[CandidateMarker]:
    """Select one language's markers from its gram counts: the frequency
    threshold, then the exact test, then the positional filter."""
    return extract_markers_per_config(counts, [config])[0]


def count_grams(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
) -> list[tuple[str, Callable[[], GramCounts]]]:
    """Steps 1-3 of the pipeline: `(language, count)` for every language the
    config wants, in sorted order, where `count()` projects the language and
    maps each gram reaching `config.theta` to its (inside, outside)
    type-containment counts; no grams below it are kept, so the counts serve
    any config with at least that threshold. The inputs are checked at once;
    a caller that counts one language at a time holds one language's counts.
    """
    by_pair = alignments_by_pair(corpus, annotations, alignments)

    def count(language: str) -> GramCounts:
        partition = partition_word_types(build_inside_outside(corpus, annotations, by_pair, language))
        return build_candidate_counts(partition.np_relevant, partition.np_irrelevant, config.theta)

    return [(language, partial(count, language)) for language in corpus.languages() if config.wants_language(language)]


def extract_marker_sets(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
) -> list[tuple[str, Callable[[], MarkerSet]]]:
    """Full extraction as `(language, select)` pairs in sorted order, where
    `select()` counts the language and gives its `MarkerSet`; as in
    `count_grams`, the inputs are checked at once, and a language that fails
    leaves the others to run."""

    def select(language: str, count: Callable[[], GramCounts]) -> MarkerSet:
        return MarkerSet(language, frozenset(extract_markers_for_language(count(), config)))

    counted = count_grams(corpus, annotations, alignments, config)
    return [(language, partial(select, language, count)) for language, count in counted]


def run_pipeline(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
) -> dict[str, MarkerSet]:
    """`extract_marker_sets` as one dict of every language's markers."""
    return {language: select() for language, select in extract_marker_sets(corpus, annotations, alignments, config)}


def _format_stat(value: Optional[float]) -> str:
    if value is None:
        return "NA"
    return repr(value)


def write_marker_file(marker_set: MarkerSet, path) -> None:
    """One marker per line: `<gram>\\t<inside>\\t<outside>\\t<p>\\t<odds>`,
    grams in lexicographic order; unset statistics print as NA."""
    write_output(path, "".join([
        f"{marker.gram}\t{marker.inside_count}\t{marker.outside_count}"
        f"\t{_format_stat(marker.p_value)}\t{_format_stat(marker.odds_ratio)}\n"
        for marker in marker_set.sorted_markers()
    ]))


def read_marker_file(path) -> MarkerSet:
    """Inverse of write_marker_file; the language is the file stem."""
    markers = []
    for line_no, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(path, line_no, f"expected 5 fields, got {len(parts)}")
        gram, inside_text, outside_text, p_text, r_text = parts
        try:
            inside_c = int(inside_text)
            outside_c = int(outside_text)
            p_value = None if p_text == "NA" else float(p_text)
            ratio = None if r_text == "NA" else float(r_text)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        markers.append(CandidateMarker(gram, inside_c, outside_c, p_value, ratio))
    return MarkerSet(language=Path(path).stem, markers=frozenset(markers))
