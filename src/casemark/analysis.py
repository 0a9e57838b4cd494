"""Exploratory analyses over parallel NPs and extracted markers.

Groups parallel NPs by their cross-lingual combination of case markers (the
last token of each projected span stands in for the head word), and exports a
sparse NP-word cooccurrence matrix for external embedding or plotting.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache
from itertools import repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus import BOUNDARY, ParallelCorpus, write_output
from .extraction import MarkerSet
from .projection import ParallelNp, format_indices, format_np_id

GroupKey = tuple[tuple[str, Optional[str]], ...]


class MarkerCombinationGroup(NamedTuple):
    key: GroupKey
    members: tuple[ParallelNp, ...]


class CooccurrenceMatrix(NamedTuple):
    """Sparse counts of word forms (rows, tagged `language:form`) occurring
    in parallel NPs (columns). Rows and columns are sorted as whole strings;
    `cells` holds one `(row_index, col_index, count)` triple per nonzero
    cell, in row-major order."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    cells: tuple[tuple[int, int, int], ...]
    col_text: Mapping[str, str]


def assign_marker(word: str, marker_set: MarkerSet) -> Optional[str]:
    """Longest marker matching the end of the boundary-wrapped word, if any.
    Only the suffixes as long as some marker are probed, longest first, down
    to the empty one when the marker file holds an empty gram."""
    wrapped = BOUNDARY + word + BOUNDARY
    end = len(wrapped)
    grams = marker_set.grams()
    for length in marker_set.gram_lengths():
        if length <= end and wrapped[end - length:] in grams:
            return wrapped[end - length:]
    return None


def group_by_marker_combination(
    parallel_nps: Sequence[ParallelNp],
    corpus: ParallelCorpus,
    marker_sets: Mapping[str, MarkerSet],
    languages: Sequence[str],
) -> list[MarkerCombinationGroup]:
    """Partition the parallel NPs by their per-language marker assignment.

    The last span token stands in for the head word (suffixing languages).
    NPs lacking a projection in a requested language keep a None slot for
    it. Groups come out largest first (ties in key order).
    """
    for language in languages:
        if language not in marker_sets:
            raise KeyError(f"no marker set for language {language!r}")
    ordered = tuple(sorted(languages))
    verses_of = corpus.versions
    columns = []  # per language, each NP's marker; each distinct head word is looked up once
    for language in ordered:
        versions, marker_set, known, column = corpus.versions_of(language), marker_sets[language], {}, []
        for verse_id, _source, projections in parallel_nps:
            marker = None
            for version in versions:
                indices = projections.get(version)
                if indices is not None:
                    word = verses_of[version][verse_id][indices[-1]]
                    if word not in known:
                        known[word] = assign_marker(word, marker_set)
                    marker = known[word]
                    break
            column.append(marker)
        columns.append(column)
    buckets: dict[tuple[Optional[str], ...], list[ParallelNp]] = defaultdict(list)
    for pnp, markers in zip(parallel_nps, zip(*columns) if columns else repeat(())):
        buckets[markers].append(pnp)
    groups = [
        MarkerCombinationGroup(key=tuple(zip(ordered, markers)), members=tuple(members))
        for markers, members in buckets.items()
    ]
    groups.sort(key=lambda g: (-len(g.members), _key_text(g.key)))
    return groups


def _key_text(key: GroupKey) -> str:
    return " ".join(f"{language}={marker if marker is not None else '-'}" for language, marker in key)


def build_cooccurrence_matrix(
    parallel_nps: Sequence[ParallelNp],
    corpus: ParallelCorpus,
) -> CooccurrenceMatrix:
    """Count how often each word form occurs inside each parallel NP.

    Rows cover the projected spans and the source span; NPs from different
    source editions stay distinct columns. The NPs are walked in the order of
    their column ids, and each distinct id takes the next column number, so
    NPs with equal ids share a column and each row's list of columns, one
    entry per occurrence, comes out sorted. A row name is its version's
    `language:` prefix plus the token.
    """
    versions = corpus.versions
    names = {version: str(version) for version in versions}
    prefixes = {version: f"{version.language}:" for version in versions}
    index_text = cache(format_indices)  # few distinct index tuples
    ids = [format_np_id(verse_id, names[source], index_text(span)) for verse_id, (source, span), _ in parallel_nps]
    cols: list[str] = []
    col_text: dict[str, str] = {}
    row_cols: dict[str, list[int]] = defaultdict(list)
    for position in sorted(range(len(ids)), key=ids.__getitem__):
        verse_id, (source_version, source_span), projections = parallel_nps[position]
        if not cols or cols[-1] != ids[position]:
            cols.append(ids[position])
            source_tokens = versions[source_version][verse_id]
            col_text[ids[position]] = " ".join([source_tokens[i] for i in source_span])
        col = len(cols) - 1
        for version, indices in (*projections.items(), (source_version, source_span)):
            tokens, prefix = versions[version][verse_id], prefixes[version]
            for index in indices:
                row_cols[prefix + tokens[index]].append(col)
    rows = tuple(sorted(row_cols))
    cells: list[tuple[int, int, int]] = []
    for row_i, row in enumerate(rows):
        run = row_cols[row]
        if len(set(run)) == len(run):  # the usual row: each NP once, so every count is 1
            cells.extend(zip(repeat(row_i), run, repeat(1)))
        else:  # Counter keeps the sorted order of first occurrences
            cells.extend((row_i, col, count) for col, count in Counter(run).items())
    return CooccurrenceMatrix(rows=rows, cols=tuple(cols), cells=tuple(cells), col_text=col_text)


def export_matrix(matrix: CooccurrenceMatrix, out_dir) -> None:
    """Write `matrix.tsv` triplets plus `rows.txt` / `cols.txt` sidecars in
    the matrix's own (sorted) order. A cell's line is its row's index text
    plus its column's `\t<col>\t1\n` text; only a count of 2 or more is
    formatted on its own."""
    out_dir = Path(out_dir)
    write_output(out_dir / "rows.txt", "".join([f"{row}\n" for row in matrix.rows]))
    write_output(out_dir / "cols.txt", "".join([f"{col}\t{matrix.col_text.get(col, '')}\n" for col in matrix.cols]))
    row_text = list(map(str, range(len(matrix.rows))))
    ones = [f"\t{col}\t1\n" for col in range(len(matrix.cols))]
    parts: list[str] = []
    for row, col, count in matrix.cells:
        parts += (row_text[row], ones[col] if count == 1 else f"\t{col}\t{count}\n")
    write_output(out_dir / "matrix.tsv", "".join(parts))


def render_group_report(
    groups: Sequence[MarkerCombinationGroup],
    corpus: ParallelCorpus,
    samples_per_group: int = 5,
) -> str:
    """Human-readable listing: one block per group with sample NP surfaces."""
    lines = []
    for group in groups:
        lines.append(f"group\t{_key_text(group.key)}\tsize={len(group.members)}")
        for pnp in group.members[:samples_per_group]:
            version, span = pnp.source
            tokens = corpus.verse(version, pnp.verse)
            surface = " ".join(tokens[i] for i in span)
            lines.append(f"\t{pnp.verse}\t{version}\t{surface}")
    return "\n".join(lines) + ("\n" if lines else "")
