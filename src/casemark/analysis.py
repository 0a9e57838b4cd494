"""Exploratory analyses over parallel NPs and extracted markers.

Groups parallel NPs by their cross-lingual combination of case markers (the
last token of each projected span stands in for the head word), and exports a
sparse NP-word cooccurrence matrix for external embedding or plotting. Both
read the NPs as the text of their dump lines (`projection.NpLines`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

from .corpus import BOUNDARY, VersionId, write_output
from .extraction import MarkerSet
from .projection import NpLines

GroupKey = tuple[tuple[str, Optional[str]], ...]


class MarkerCombinationGroup(NamedTuple):
    key: GroupKey
    members: tuple[NpLines, ...]


class CooccurrenceMatrix(NamedTuple):
    """Sparse counts of word forms (rows, tagged `language:form`) occurring
    in parallel NPs (columns). Rows and columns are sorted as whole strings;
    `runs` holds, per row, its sorted list of columns, one entry per
    occurrence."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    runs: tuple[list[int], ...]
    col_text: Mapping[str, str]

    @property
    def cells(self) -> tuple[tuple[int, int, int], ...]:
        """One `(row_index, col_index, count)` triple per nonzero cell, in
        row-major order."""
        return tuple((row, col, count) for row, run in enumerate(self.runs) for col, count in Counter(run).items())


def _language_of(name: str) -> str:
    return VersionId.from_string(name).language


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
    parallel_nps: Sequence[NpLines],
    marker_sets: Mapping[str, MarkerSet],
    languages: Sequence[str],
) -> list[MarkerCombinationGroup]:
    """Partition the parallel NPs by their per-language marker assignment.

    The last word of a projection's surface stands in for the head word
    (suffixing languages), taken from the language's first projection; the
    projection lines are in sorted version order, as the dump text holds
    them, so a language's lines are adjacent. NPs lacking
    a projection in a requested language keep a None slot for it. Groups
    come out largest first (ties in key order).
    """
    for language in languages:
        if language not in marker_sets:
            raise KeyError(f"no marker set for language {language!r}")
    ordered = tuple(sorted(languages))
    slot_of_language = {language: slot for slot, language in enumerate(ordered)}
    slot_of: dict[str, int] = {}  # per version name, its language's slot, or -1
    known = [{} for _ in ordered]  # per slot, each distinct head word's marker, looked up once
    buckets: dict[tuple[Optional[str], ...], list[NpLines]] = defaultdict(list)
    for record in parallel_nps:
        markers = [None] * len(ordered)
        previous = -1
        for _verse, name, _indices, surface in record[1:]:
            slot = slot_of.get(name)
            if slot is None:
                slot = slot_of[name] = slot_of_language.get(_language_of(name), -1)
            if slot != previous:  # the language's first projection
                previous = slot
                if slot >= 0:
                    word, marker_of = surface.rpartition(" ")[2], known[slot]
                    if word not in marker_of:
                        marker_of[word] = assign_marker(word, marker_sets[ordered[slot]])
                    markers[slot] = marker_of[word]
        buckets[tuple(markers)].append(record)
    groups = [
        MarkerCombinationGroup(key=tuple(zip(ordered, markers)), members=tuple(members))
        for markers, members in buckets.items()
    ]
    groups.sort(key=lambda g: (-len(g.members), _key_text(g.key)))
    return groups


def _key_text(key: GroupKey) -> str:
    return " ".join(f"{language}={marker if marker is not None else '-'}" for language, marker in key)


def build_cooccurrence_matrix(parallel_nps: Sequence[NpLines]) -> CooccurrenceMatrix:
    """Count how often each word form occurs inside each parallel NP.

    Rows cover the projected spans and the source span, each split from its
    surface. A column id is `<verse-id>|<version>|<idx,idx,...>`, the first
    three fields of the NP's source line, so NPs from different source
    editions stay distinct columns. The NPs are walked in the order of their
    column ids, and each distinct id takes the next column number, so NPs
    with equal ids share a column and each row's list of columns, one entry
    per occurrence, comes out sorted. A row name is its version's
    `language:` prefix plus the token.
    """
    ids = ["|".join(record[0][:3]) for record in parallel_nps]
    prefixes: dict[str, str] = {}  # per version name, its `language:` prefix
    cols: list[str] = []
    col_text: dict[str, str] = {}
    row_cols: dict[str, list[int]] = defaultdict(list)
    for position in sorted(range(len(ids)), key=ids.__getitem__):
        record = parallel_nps[position]
        if not cols or cols[-1] != ids[position]:
            cols.append(ids[position])
            col_text[ids[position]] = record[0][3]
        col = len(cols) - 1
        for _verse, name, _indices, surface in record:
            if surface:  # an empty span has no token
                prefix = prefixes.get(name)
                if prefix is None:
                    prefix = prefixes[name] = f"{_language_of(name)}:"
                for token in surface.split(" "):
                    row_cols[prefix + token].append(col)
    rows = tuple(sorted(row_cols))
    return CooccurrenceMatrix(rows=rows, cols=tuple(cols), runs=tuple(map(row_cols.__getitem__, rows)),
                              col_text=col_text)


def export_matrix(matrix: CooccurrenceMatrix, out_dir) -> None:
    """Write `matrix.tsv` triplets plus `rows.txt` / `cols.txt` sidecars in
    the matrix's own (sorted) order. A cell's line is its row's index text
    plus its column's `\t<col>\t1\n` text, and a row whose columns are all
    distinct is one join of those; only a count of 2 or more is formatted on
    its own."""
    out_dir = Path(out_dir)
    write_output(out_dir / "rows.txt", "".join([f"{row}\n" for row in matrix.rows]))
    write_output(out_dir / "cols.txt", "".join([f"{col}\t{matrix.col_text.get(col, '')}\n" for col in matrix.cols]))
    ones = [f"\t{col}\t1\n" for col in range(len(matrix.cols))]
    parts: list[str] = []
    for row, run in enumerate(matrix.runs):
        row_text = str(row)
        if len(set(run)) == len(run):  # the usual row: each NP once, so every count is 1
            parts.append(row_text.join(["", *map(ones.__getitem__, run)]))
        else:  # Counter keeps the sorted order of first occurrences
            parts += [row_text + (ones[col] if count == 1 else f"\t{col}\t{count}\n")
                      for col, count in Counter(run).items()]
    write_output(out_dir / "matrix.tsv", "".join(parts))


def render_group_report(groups: Sequence[MarkerCombinationGroup], samples_per_group: int = 5) -> str:
    """Human-readable listing: one block per group with sample NP source surfaces."""
    lines = []
    for group in groups:
        lines.append(f"group\t{_key_text(group.key)}\tsize={len(group.members)}")
        for record in group.members[:samples_per_group]:
            verse, version, _indices, surface = record[0]
            lines.append(f"\t{verse}\t{version}\t{surface}")
    return "\n".join(lines) + ("\n" if lines else "")
