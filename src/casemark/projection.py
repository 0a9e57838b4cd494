"""NP span projection through word alignments.

An annotated source edition marks NP spans; each span is carried into every
target version by following the alignment links of its tokens, keeping target
word order. The projected copies then yield, per language, the multisets of
word tokens seen inside and outside NPs, and from those the partition into
NP-relevant and NP-irrelevant word types.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from .corpus import Alignment, NpAnnotation, NpSpan, ParallelCorpus, Verse, VersionId, atomic_open
from .errors import ConfigurationError


@dataclass(frozen=True)
class ParallelNp:
    """One source-edition NP together with its nonempty projections."""

    verse: str
    source: tuple[VersionId, NpSpan]
    projections: Mapping[VersionId, NpSpan]

    @property
    def np_id(self) -> str:
        indices = ",".join(str(i) for i in self.source[1].token_indices)
        return f"{self.verse}|{self.source[0]}|{indices}"


@dataclass(frozen=True)
class InsideOutsideCounts:
    """Per-language multisets of tokens inside and outside projected NPs."""

    language: str
    inside: Counter
    outside: Counter

    def word_types(self) -> frozenset[str]:
        return frozenset(self.inside) | frozenset(self.outside)


@dataclass(frozen=True)
class WordPartition:
    language: str
    np_relevant: frozenset[str]
    np_irrelevant: frozenset[str]


def _owners(spans: Sequence[NpSpan]) -> dict[int, list[int]]:
    """Source token -> positions of the spans holding it; hand-built
    annotations may overlap, so a token can belong to several spans."""
    owners: dict[int, list[int]] = defaultdict(list)
    for position, span in enumerate(spans):
        for index in span.token_indices:
            owners[index].append(position)
    return owners


def _project(
    verse_id: str, owners: Mapping[int, list[int]], alignment: Alignment, target_verse: Verse
) -> dict[int, NpSpan]:
    """Each span's projection through one pass over the verse's links, by
    span position; spans without a linked token are left out."""
    hits: dict[int, set[int]] = defaultdict(set)
    for i, j in alignment.links.get(verse_id, ()):
        for position in owners.get(i, ()):
            hits[position].add(j)
    projected = {}
    for position, indices in hits.items():
        if max(indices) >= len(target_verse):
            raise ConfigurationError(
                f"alignment {alignment.source_version}->{alignment.target_version} "
                f"points outside verse {verse_id!r}"
            )
        projected[position] = NpSpan(verse_id, tuple(sorted(indices)))
    return projected


def project_span(span: NpSpan, alignment: Alignment, target_verse: Verse) -> Optional[NpSpan]:
    """Target indices aligned to any token of the span, in target word order.

    Returns None when no span token carries an alignment link.
    """
    return _project(span.verse, _owners((span,)), alignment, target_verse).get(0)


def build_parallel_np_set(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
) -> list[ParallelNp]:
    """Project every annotated NP of every source edition into all targets.

    Each source edition is a separate data source: NPs are never merged
    across editions. Targets are the corpus versions without an annotation;
    a missing (source, target) alignment is a configuration error.
    """
    sources = []
    for annotation in annotations:
        if annotation.version in sources:
            raise ConfigurationError(f"duplicate annotation for version {annotation.version}")
        sources.append(annotation.version)
    source_set = set(sources)
    targets = sorted(v for v in corpus.versions if v not in source_set)
    by_pair = {}
    for alignment in alignments:
        by_pair[(alignment.source_version, alignment.target_version)] = alignment
    for source in sources:
        for target in targets:
            if (source, target) not in by_pair:
                raise ConfigurationError(f"missing alignment for pair {source} -> {target}")
    result: list[ParallelNp] = []
    for annotation in sorted(annotations, key=lambda ann: ann.version):
        source = annotation.version
        pairs = [(target, by_pair[(source, target)], corpus.versions[target]) for target in targets]
        for verse_id in corpus.shared_verses:
            spans = annotation.spans.get(verse_id, ())
            if not spans:
                continue
            # One pass over each target's links projects all of the verse's spans.
            owners = _owners(spans)
            projected = [
                (target, _project(verse_id, owners, alignment, verses[verse_id]))
                for target, alignment, verses in pairs
            ]
            for position, span in enumerate(spans):
                projections = {target: spans_of[position] for target, spans_of in projected if position in spans_of}
                result.append(ParallelNp(verse=verse_id, source=(source, span), projections=projections))
    return result


def build_inside_outside(
    corpus: ParallelCorpus,
    parallel_nps: Sequence[ParallelNp],
    language: str,
    source_versions: Optional[Iterable[VersionId]] = None,
) -> InsideOutsideCounts:
    """Count, over all annotated copies, the tokens of `language` falling
    inside versus outside projected NPs.

    Each copy annotates every target version plus the source edition itself
    (identity projection); within a copy a token counts once, as inside iff
    its index lies in any projected span for that verse. When source_versions
    is None the copies are inferred from the parallel NPs, which misses
    editions that produced no NPs at all.
    """
    if source_versions is None:
        copies = sorted({pnp.source[0] for pnp in parallel_nps})
    else:
        copies = sorted(source_versions)
    copy_set = set(copies)

    covered: dict[VersionId, tuple[VersionId, ...]] = {}
    for copy in copies:
        versions = [
            v for v in corpus.versions_of(language)
            if v not in copy_set or v == copy
        ]
        covered[copy] = tuple(versions)

    own_versions = corpus.versions_of(language)
    inside_idx: dict[tuple[VersionId, str, VersionId], set[int]] = defaultdict(set)
    for pnp in parallel_nps:
        copy = pnp.source[0]
        if copy.language == language:
            inside_idx[(copy, pnp.verse, copy)].update(pnp.source[1].token_indices)
        for version in own_versions:
            span = pnp.projections.get(version)
            if span is not None:
                inside_idx[(copy, pnp.verse, version)].update(span.token_indices)

    inside: Counter = Counter()
    total: Counter = Counter()
    for copy in copies:
        for version in covered[copy]:
            verses = corpus.versions[version]
            total.update(chain.from_iterable(map(verses.__getitem__, corpus.shared_verses)))
            inside.update(
                verses[verse_id][index]
                for verse_id in corpus.shared_verses
                for index in inside_idx.get((copy, verse_id, version), ())
            )
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


def dump_parallel_nps(parallel_nps: Sequence[ParallelNp], corpus: ParallelCorpus, path) -> None:
    """Write the parallel NP set as inspectable lines:
    `<verse-id>\\t<version>\\t<idx,idx,...>\\t<surface text>`, source line first."""
    with atomic_open(path) as handle:
        for pnp in parallel_nps:
            rows = [(pnp.source[0], pnp.source[1])]
            rows.extend(sorted(pnp.projections.items()))
            for version, span in rows:
                tokens = corpus.verse(version, pnp.verse)
                surface = " ".join(tokens[i] for i in span.token_indices)
                indices = ",".join(str(i) for i in span.token_indices)
                handle.write(f"{pnp.verse}\t{version}\t{indices}\t{surface}\n")
