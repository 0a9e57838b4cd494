"""Silver-standard suffix inventories from inflection paradigm tables.

A paradigm file lists `lemma<TAB>form<TAB>feat;feat;...` rows. Nominal rows
are kept, a root is induced per paradigm from the inflected forms and the
citation form, and the remainders of root-prefixed forms become the gold
suffix set for the language.
"""

from __future__ import annotations

import os
import unicodedata
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import BOUNDARY, read_lines, write_output
from .errors import ParseError

NOMINAL_POS = ("N", "ADJ")


class ParadigmEntry(NamedTuple):
    lemma: str
    form: str
    features: tuple[str, ...]


class SilverStandard(NamedTuple):
    language: str
    suffixes: frozenset[str]
    diagnostics: Mapping[str, int]


def parse_paradigms(path) -> dict[str, list[ParadigmEntry]]:
    """Parse a paradigm TSV into entries grouped by lemma; blank lines are
    skipped, short lines are parse errors."""
    paradigms: dict[str, list[ParadigmEntry]] = {}
    for line_no, line in enumerate(read_lines(path), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise ParseError(path, line_no, f"expected at least 3 columns, got {len(parts)}")
        lemma = unicodedata.normalize("NFC", parts[0])
        form = unicodedata.normalize("NFC", parts[1])
        features = tuple(tag for tag in parts[2].split(";") if tag)
        if not lemma or not form:
            raise ParseError(path, line_no, "empty lemma or form")
        if not features:
            raise ParseError(path, line_no, "empty feature string")
        paradigms.setdefault(lemma, []).append(ParadigmEntry(lemma, form, features))
    return paradigms


def filter_pos(paradigms: Mapping[str, Sequence[ParadigmEntry]]) -> dict[str, list[ParadigmEntry]]:
    """Keep noun and adjective entries; paradigms left empty disappear."""
    kept: dict[str, list[ParadigmEntry]] = {}
    for lemma, entries in paradigms.items():
        nominal = [e for e in entries if e.features[0] in NOMINAL_POS]
        if nominal:
            kept[lemma] = nominal
    return kept


def induce_root(forms: Sequence[str], nominative_singular: str) -> str:
    """Root of a paradigm: forms occurring only once are pruned as outliers
    (all forms stay when nothing survives), the longest common prefix of the
    rest is taken, and the longer of that prefix and the citation form wins
    (ties go to the citation form)."""
    multiplicity = Counter(forms)
    pruned = [form for form in forms if multiplicity[form] > 1]
    if not pruned:
        pruned = list(forms)
    prefix = os.path.commonprefix(pruned)
    if len(prefix) > len(nominative_singular):
        return prefix
    return nominative_singular


def extract_suffixes(forms: Iterable[str], root: str) -> set[str]:
    """Boundary-terminated remainders of the forms the root prefixes; bare
    roots, forms the root does not prefix and forms holding whitespace
    contribute nothing (a marker is cut from one token, and a silver file
    strips each line)."""
    suffixes = set()
    for form in forms:
        if form.startswith(root) and len(form) > len(root) and form.split() == [form]:
            suffixes.add(form[len(root):] + BOUNDARY)
    return suffixes


def build_silver(path, language: str) -> SilverStandard:
    """Union of per-paradigm suffixes over the nominal paradigms of a file."""
    paradigms = filter_pos(parse_paradigms(path))
    suffixes: set[str] = set()
    for lemma in sorted(paradigms):
        forms = [entry.form for entry in paradigms[lemma]]
        root = induce_root(forms, lemma)
        suffixes |= extract_suffixes(forms, root)
    diagnostics = {
        "paradigms_used": len(paradigms),
        "suffixes_emitted": len(suffixes),
    }
    return SilverStandard(language=language, suffixes=frozenset(suffixes), diagnostics=diagnostics)


def write_silver_file(standard: SilverStandard, path) -> None:
    """One suffix per line, lexicographic order."""
    write_output(path, "".join([suffix + "\n" for suffix in sorted(standard.suffixes)]))


def read_silver_file(path) -> frozenset[str]:
    return frozenset(filter(None, map(str.strip, read_lines(path))))
