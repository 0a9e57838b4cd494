"""Exploratory analyses over parallel NPs and extracted markers.

Groups parallel NPs by their cross-lingual combination of case markers (the
last token of each projected span stands in for the head word), and exports a
sparse NP-word cooccurrence matrix for external embedding or plotting.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import repeat
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus import BOUNDARY, ParallelCorpus, write_output
from .extraction import MarkerSet
from .projection import ParallelNp, format_np_id

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
    """Longest marker matching the end of the boundary-wrapped word, if any."""
    wrapped = BOUNDARY + word + BOUNDARY
    grams = marker_set.grams()
    # Suffixes longest first, down to the empty one: a marker file may hold an empty gram.
    for start in range(len(wrapped) + 1):
        if wrapped[start:] in grams:
            return wrapped[start:]
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
    source editions stay distinct columns. Each row lists the positions of
    the NPs it occurs in, once per occurrence, and becomes its cells once
    rows and columns are sorted.
    """
    versions = corpus.versions
    names = {version: str(version) for version in versions}
    col_ids: list[str] = []
    col_text: dict[str, str] = {}
    row_positions: dict[str, list[int]] = defaultdict(list)
    for position, (verse_id, (source_version, source_span), projections) in enumerate(parallel_nps):
        col = format_np_id(verse_id, names[source_version], source_span)
        col_ids.append(col)
        source_tokens = versions[source_version][verse_id]
        col_text[col] = " ".join([source_tokens[i] for i in source_span])
        for version, indices in (*projections.items(), (source_version, source_span)):
            tokens = versions[version][verse_id]
            for index in indices:
                row_positions[f"{version.language}:{tokens[index]}"].append(position)
    rows = tuple(sorted(row_positions))
    cols = tuple(sorted(col_text))
    col_index = {col: i for i, col in enumerate(cols)}
    col_of = [col_index[col] for col in col_ids]
    cells: list[tuple[int, int, int]] = []
    for row_i, row in enumerate(rows):
        run = sorted(map(col_of.__getitem__, row_positions[row]))
        if len(set(run)) == len(run):  # the usual row: each NP once, so every count is 1
            cells.extend(zip(repeat(row_i), run, repeat(1)))
        else:  # Counter keeps the sorted order of first occurrences
            cells.extend((row_i, col, count) for col, count in Counter(run).items())
    return CooccurrenceMatrix(rows=rows, cols=cols, cells=tuple(cells), col_text=col_text)


def export_matrix(matrix: CooccurrenceMatrix, out_dir) -> None:
    """Write `matrix.tsv` triplets plus `rows.txt` / `cols.txt` sidecars in
    the matrix's own (sorted) order."""
    out_dir = Path(out_dir)
    write_output(out_dir / "rows.txt", "".join([f"{row}\n" for row in matrix.rows]))
    write_output(out_dir / "cols.txt", "".join([f"{col}\t{matrix.col_text.get(col, '')}\n" for col in matrix.cols]))
    write_output(out_dir / "matrix.tsv", "".join([f"{row}\t{col}\t{count}\n" for row, col, count in matrix.cells]))


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
