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

Counting above a threshold of one cuts only the grams that can reach it out
of the words. A gram that theta NP-relevant types contain has each of its
3-character windows in theta of them, so each window occurs at least theta
times in those words. One pass counts the windows of all the words joined;
then each word gives its grams shorter than a window, and the longer grams
made only of windows that reached theta. Occurrences bound containment from
above, so no gram that reaches theta is missed, and each kept gram's
containment counts are then taken exactly, inside and outside.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from operator import add, itemgetter
from pathlib import Path
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .corpus import BOUNDARY, Alignment, ParallelCorpus, read_lines, write_output
from .errors import ConfigurationError, ParseError, UndefinedOddsError
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


# Keyed by length, not by slices: a slice is unhashable before Python 3.12.
@lru_cache(maxsize=None)  # one immutable entry per word length seen
def _gram_cutter(length: int) -> Callable[[str], tuple[str, ...]]:
    """`_cutter` of the `_gram_slices` of a wrapped word of `length` characters."""
    return _cutter(_gram_slices(length))


def candidates_of_word(word: str) -> set[str]:
    """All substrings of `$word$` containing at least one non-boundary
    character; duplicates within the word collapse. The word itself holds no
    boundary character (the corpus loader rejects it), so only `$` and, for
    the empty word, `$$` consist of boundaries alone."""
    wrapped = BOUNDARY + word + BOUNDARY
    return set(_gram_cutter(len(wrapped))(wrapped))


# Window length of the frequency bound (see the module docstring); windows
# of 2 or 4 characters made counting slower. `_joined` hard-codes it.
_WINDOW = 3


@lru_cache(maxsize=4096)  # one immutable entry per pattern; corpora show a few hundred
def _frequent_cutter(frequent_at: bytes) -> Callable[[str], tuple[str, ...]]:
    """`_cutter` of the slices of `_gram_slices` of a wrapped word whose
    windows are all frequent, where the window starting at i is frequent iff
    `frequent_at[i]`: every slice shorter than a window, and the longer ones
    inside a run of consecutive frequent windows."""
    slices = _gram_slices(len(frequent_at) + 2)
    return _cutter(tuple(s for s in slices if all(frequent_at[s.start : s.stop - _WINDOW + 1])))


def _joined(words: list[str]) -> tuple[str, list[str]]:
    """`$w1$w2$...$`, the wrapped words sharing their boundaries, and its
    windows in order. Each window of a wrapped word is one of these; windows
    across two words only add occurrences, so counts stay upper bounds."""
    text = BOUNDARY + BOUNDARY.join(words) + BOUNDARY
    return text, list(map(add, map(add, text, text[1:]), text[2:]))


def _grams_within(words: list[str], joined: tuple[str, list[str]], frequent: set[str]) -> Iterator[set[str]]:
    """Per word, the grams of `candidates_of_word(word)` whose windows are
    all in `frequent`; `joined` is `_joined(words)`."""
    text, windows = joined
    is_frequent = bytes(map(frequent.__contains__, windows))
    start = 0  # where the word's leading boundary sits in `text`
    for word in words:
        end = start + len(word)  # a word of n characters has n windows
        yield set(_frequent_cutter(is_frequent[start:end])(text[start : end + 2]))
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


def _sides(counts: Mapping[str, tuple[int, int]]) -> GramCounts:
    """`counts` as `GramCounts`; a plain mapping of pairs is split once."""
    if isinstance(counts, GramCounts):
        return counts
    return GramCounts({gram: a for gram, (a, _c) in counts.items()}, {gram: c for gram, (_a, c) in counts.items()})


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
    is counted for the kept grams only. Above theta=1, only grams whose
    windows all occur theta times among the NP-relevant words are cut out of
    the words (see `_WINDOW`); the others cannot reach theta.
    """
    if theta > 1:
        np_relevant, np_irrelevant = list(np_relevant), list(np_irrelevant)
        relevant = _joined(np_relevant)
        frequent = {window for window, count in Counter(relevant[1]).items() if count >= theta}
        inside_grams = _grams_within(np_relevant, relevant, frequent)
        outside_grams = _grams_within(np_irrelevant, _joined(np_irrelevant), frequent)
    else:  # every window is frequent at theta=1, and the plain cut is cheaper
        inside_grams = map(candidates_of_word, np_relevant)
        outside_grams = map(candidates_of_word, np_irrelevant)
    inside = Counter(chain.from_iterable(inside_grams))
    if theta > 1:  # at theta=1 every gram stays, and a copy would only cost memory
        inside = {gram: count for gram, count in inside.items() if count >= theta}
    return GramCounts(inside, Counter(filter(inside.__contains__, chain.from_iterable(outside_grams))))


def frequency_filter(counts: Mapping[str, tuple[int, int]], theta: int) -> set[str]:
    """Grams whose NP-relevant containment count reaches the threshold."""
    if theta < 1:
        raise ConfigurationError(f"theta must be >= 1, got {theta}")
    return {gram for gram, inside in _sides(counts).inside.items() if inside >= theta}


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
    counts: Mapping[str, tuple[int, int]],
    phi: Optional[float],
    chi: Optional[float],
) -> dict[str, CandidateMarker]:
    """The candidates with odds ratio > chi and p < phi (both strict; a None
    threshold keeps every candidate at that test), each mapped to its marker,
    in gram order. An undefined (0/0) odds ratio fails any chi that is set. A
    candidate that `counts` lacks is a KeyError."""
    grams, counts = set(candidates), _sides(counts)
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
    counts: Mapping[str, tuple[int, int]],
    configs: Sequence[PipelineConfig],
) -> list[list[CandidateMarker]]:
    """`extract_markers_for_language` for each config. Per distinct theta,
    one exact test on the totals of the theta survivors serves every config,
    and one `_table` of the survivors in the positions some config keeps:
    each config filters its distinct pairs, not its grams."""
    counts = _sides(counts)
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
    counts: Mapping[str, tuple[int, int]],
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
) -> Iterator[tuple[str, GramCounts]]:
    """Steps 1-3 of the pipeline: `(language, grams)` for every language the
    config wants, in sorted order, where `grams` maps each gram reaching
    `config.theta` to its (inside, outside) type-containment counts; no grams
    below it are kept, so the counts serve any config with at least that
    threshold. The inputs are checked at once; each language is projected
    and counted only when the returned iterator reaches it, so a caller that
    finishes one language before the next holds one language's counts.
    """
    by_pair = alignments_by_pair(corpus, annotations, alignments)
    languages = [lang for lang in corpus.languages() if config.wants_language(lang)]

    def per_language() -> Iterator[tuple[str, GramCounts]]:
        for language in languages:
            partition = partition_word_types(build_inside_outside(corpus, annotations, by_pair, language))
            yield language, build_candidate_counts(partition.np_relevant, partition.np_irrelevant, config.theta)

    return per_language()


def extract_marker_sets(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
) -> Iterator[tuple[str, MarkerSet]]:
    """Full extraction as `(language, MarkerSet)` pairs in sorted order; as
    in `count_grams`, the inputs are checked at once, and each language is
    counted and selected only when the returned iterator reaches it."""
    return (
        (language, MarkerSet(language, frozenset(extract_markers_for_language(grams, config))))
        for language, grams in count_grams(corpus, annotations, alignments, config)
    )


def run_pipeline(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
) -> dict[str, MarkerSet]:
    """`extract_marker_sets` as one dict of every language's markers."""
    return dict(extract_marker_sets(corpus, annotations, alignments, config))


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
