"""NP span projection through word alignments.

An annotated source edition marks NP spans; each span is carried into every
target version by following the alignment links of its tokens, keeping target
word order. Per language, the tokens inside and outside NPs then give the
partition into NP-relevant and NP-irrelevant word types; that count follows
the links of each verse's NP tokens as a whole, not span by span.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import chain, compress
from typing import Collection, Mapping, NamedTuple, Sequence

from .corpus import Alignment, NpAnnotation, ParallelCorpus, VersionId, write_output
from .errors import ConfigurationError


class ParallelNp(NamedTuple):
    """One source-edition NP, as its version and sorted token indices,
    together with its nonempty projections: per target version, the sorted
    token indices in the same verse."""

    verse: str
    source: tuple[VersionId, tuple[int, ...]]
    projections: Mapping[VersionId, tuple[int, ...]]


# A parallel NP as the text of its dump lines, source line first: per line,
# its four fields `[verse id, version name, index text, surface text]`. The
# surface is the span's tokens joined by single spaces, "" for an empty span.
NpLines = list[list[str]]


class InsideOutsideCounts(NamedTuple):
    """Per-language multisets of tokens inside and outside projected NPs."""

    language: str
    inside: Counter
    outside: Counter

    def word_types(self) -> frozenset[str]:
        return frozenset(self.inside) | frozenset(self.outside)


class WordPartition(NamedTuple):
    language: str
    np_relevant: frozenset[str]
    np_irrelevant: frozenset[str]


def linked_targets(flat: Sequence[int], source_indices: Collection[int]) -> set[int]:
    """Target indices linked to any of `source_indices` by flat
    `(i0, j0, i1, j1, ...)` links."""
    return set(compress(flat[1::2], map(source_indices.__contains__, flat[0::2])))


def alignments_by_pair(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
) -> dict[tuple[VersionId, VersionId], Mapping[str, tuple[int, ...]]]:
    """The links from each annotated edition into each unannotated version,
    targets in sorted order.

    Raises ConfigurationError for a duplicate annotation, a duplicate or a
    missing (source, target) alignment, or a link from an NP verse past the
    end of its target verse.
    """
    sources = [annotation.version for annotation in annotations]
    for position, source in enumerate(sources):
        if source in sources[:position]:
            raise ConfigurationError(f"duplicate annotation for version {source}")
    targets = sorted(v for v in corpus.versions if v not in sources)
    given = {}
    for alignment in alignments:
        pair = alignment.source_version, alignment.target_version
        if pair in given:
            raise ConfigurationError(f"duplicate alignment for pair {pair[0]} -> {pair[1]}")
        given[pair] = alignment
    by_pair = {}
    for annotation in annotations:
        source = annotation.version
        for target in targets:
            if (source, target) not in given:
                raise ConfigurationError(f"missing alignment for pair {source} -> {target}")
            links = by_pair[(source, target)] = given[(source, target)].links
            verses = corpus.versions[target]
            for verse_id in annotation.np_tokens:
                flat = links.get(verse_id)
                if flat and max(flat[1::2]) >= len(verses[verse_id]):
                    raise ConfigurationError(f"alignment {source}->{target} points outside verse {verse_id!r}")
    return by_pair


def build_parallel_np_set(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
) -> list[ParallelNp]:
    """Project every annotated NP of every source edition into all targets.

    Each source edition is a separate data source: NPs are never merged
    across editions. Targets are the corpus versions without an annotation;
    a missing (source, target) alignment is a configuration error. A verse's
    links into a target are walked once for all its spans: a table from each
    source index to the numbers of the spans holding it gives every linked
    target index to each of them, so overlapping, repeated or unsorted spans
    need no special case.
    """
    by_pair = alignments_by_pair(corpus, annotations, alignments)
    result: list[ParallelNp] = []
    for annotation in sorted(annotations, key=lambda ann: ann.version):
        source = annotation.version
        pairs = [(target, links) for (pair_source, target), links in by_pair.items() if pair_source == source]
        for verse_id in corpus.shared_verses:
            spans = annotation.spans.get(verse_id)
            if not spans:
                continue
            holders = defaultdict(list)
            for number, span in enumerate(spans):
                for index in span:
                    holders[index].append(number)
            projections = [{} for _ in spans]
            for target, links in pairs:
                flat = links.get(verse_id, ())
                linked = [set() for _ in spans]
                for i, j in zip(flat[0::2], flat[1::2]):
                    for number in holders.get(i, ()):
                        linked[number].add(j)
                for projection, targets in zip(projections, linked):
                    if targets:
                        projection[target] = tuple(sorted(targets))
            result += [ParallelNp(verse_id, (source, span), projection) for span, projection in zip(spans, projections)]
    return result


def build_inside_outside(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    by_pair: Mapping[tuple[VersionId, VersionId], Mapping[str, tuple[int, ...]]],
    language: str,
) -> InsideOutsideCounts:
    """Count, over all annotated copies, the tokens of `language` falling
    inside versus outside projected NPs; `by_pair` holds the checked links
    as `alignments_by_pair` returns them.

    Each annotated edition is one copy. It marks, per verse, its own NP
    tokens when it is of `language` (identity projection), and in every
    unannotated version of `language` the tokens linked to them. Within a
    copy a token counts once, as inside iff it is marked.
    """
    inside: Counter = Counter()
    total: Counter = Counter()
    for annotation in annotations:
        copy = annotation.version
        for version in corpus.versions_of(language):
            marked = annotation.np_tokens.items()
            if version != copy:
                if (copy, version) not in by_pair:
                    continue  # another annotated edition
                links = by_pair[(copy, version)]
                marked = [(verse_id, linked_targets(links.get(verse_id, ()), indices)) for verse_id, indices in marked]
            verses = corpus.versions[version]
            total.update(chain.from_iterable(map(verses.__getitem__, corpus.shared_verses)))
            inside.update(chain.from_iterable(map(verses[v].__getitem__, indices) for v, indices in marked))
    # Counter subtraction keeps positive counts only, so `outside` has no zeros.
    return InsideOutsideCounts(language=language, inside=inside, outside=total - inside)


def partition_word_types(counts: InsideOutsideCounts) -> WordPartition:
    """Strict majority split: a type is NP-relevant iff it occurs inside NPs
    more often than outside; ties go to the irrelevant side."""
    relevant = set()
    irrelevant = set()
    for word in counts.word_types():
        if counts.inside[word] > counts.outside[word]:
            relevant.add(word)
        else:
            irrelevant.add(word)
    return WordPartition(
        language=counts.language,
        np_relevant=frozenset(relevant),
        np_irrelevant=frozenset(irrelevant),
    )


def format_parallel_nps(parallel_nps: Sequence[ParallelNp], corpus: ParallelCorpus) -> str:
    """The text of the NP dump: per NP, its source line and then one line
    per projection in sorted version order, each
    `<verse-id>\\t<version>\\t<idx,idx,...>\\t<surface text>`."""
    versions = corpus.versions
    names = {version: str(version) for version in versions}
    index_text = cache(lambda indices: ",".join(map(str, indices)))  # few distinct index tuples
    lines = []
    for verse_id, (source, span), projections in parallel_nps:
        for version, token_indices in ((source, span), *sorted(projections.items())):
            tokens = versions[version][verse_id]
            surface = " ".join([tokens[i] for i in token_indices])
            lines.append(f"{verse_id}\t{names[version]}\t{index_text(token_indices)}\t{surface}\n")
    return "".join(lines)


def dump_parallel_nps(parallel_nps: Sequence[ParallelNp], corpus: ParallelCorpus, path) -> None:
    """Write the parallel NP set as inspectable lines (`format_parallel_nps`)."""
    write_output(path, format_parallel_nps(parallel_nps, corpus))


def read_parallel_nps(text: str, sources: Collection[str]) -> list[NpLines]:
    """The NPs of the dump text `text`, given the names of the annotated
    versions `sources`: a line of a source starts an NP, and the lines after
    it are its projections. Nothing is parsed past the fields but the
    version names, each distinct one checked once. Raises ValueError for a
    line that is not four tab-separated fields, a version field that is no
    version id, or a first line of no source."""
    records: list[NpLines] = []
    checked: set[str] = set()  # the well-formed version names of projection lines
    lines = text.split("\n")
    if not lines[-1]:  # after the newline that ends the last line
        lines.pop()
    for line in lines:
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"expected 4 tab-separated fields in an NP dump line, got {len(fields)}")
        if fields[1] in sources:
            record = [fields]
            records.append(record)
        elif records:
            if fields[1] not in checked:
                VersionId.from_string(fields[1])
                checked.add(fields[1])
            record.append(fields)
        else:
            raise ValueError(f"the first NP dump line is of no annotated version, got {fields[1]!r}")
    return records
