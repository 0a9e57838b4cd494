"""Verse-parallel corpus ingestion.

Reads per-version verse files, word-alignment files, and NP span annotation
files, and restricts everything to the verses shared by all versions. Loaded
structures are immutable.

File formats (UTF-8, one record per line, tab-separated; a line ends only at
a newline, and a verse id appears at most once per file):

* verse file       ``<verse-id>\\t<token token ...>``; the filename encodes the
  version as ``<language>-<edition>.<ext>`` (last hyphen separates the two).
* alignment file   header ``#\\t<source-version>\\t<target-version>``, then
  ``<verse-id>\\t<i-j i-j ...>`` with source-target token index pairs.
* NP annotation    ``<verse-id>\\t<start:end start:end ...>`` with half-open
  token ranges; the filename encodes the annotated version like a verse file.
"""

from __future__ import annotations

import hashlib
import os
import re
import unicodedata
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import ConfigurationError, CorpusError, ParseError

BOUNDARY = "$"

Verse = tuple[str, ...]


class VersionId(NamedTuple):
    """A corpus version; a tuple, so hashing, equality and ordering run in C
    (it equals the plain `(language, edition)` tuple)."""

    language: str
    edition: str

    def __str__(self) -> str:
        return f"{self.language}-{self.edition}"

    @classmethod
    def from_string(cls, text: str) -> "VersionId":
        """The version named `text`; a name with a tab or a line break, which
        would split a line of the NP dump, is no version id."""
        language, sep, edition = text.rpartition("-")
        if not sep or not language or not edition or "\t" in text or "\n" in text or "\r" in text:
            raise ValueError(f"version id must look like <language>-<edition>, got {text!r}")
        return cls(language, edition)

    @classmethod
    def from_filename(cls, path) -> "VersionId":
        """The version a verse or annotation file's name encodes; a name
        that encodes none is a ConfigurationError naming the file."""
        try:
            return cls.from_string(Path(path).name.split(".", 1)[0])
        except ValueError:
            raise ConfigurationError(f"{path}: file name must look like <language>-<edition>.<ext>") from None


class ParallelCorpus(NamedTuple):
    versions: Mapping[VersionId, Mapping[str, Verse]]
    shared_verses: tuple[str, ...]

    def verse(self, version: VersionId, verse_id: str) -> Verse:
        return self.versions[version][verse_id]

    def languages(self) -> tuple[str, ...]:
        return tuple(sorted({v.language for v in self.versions}))

    def versions_of(self, language: str) -> tuple[VersionId, ...]:
        return tuple(sorted(v for v in self.versions if v.language == language))


class Alignment(NamedTuple):
    """Per verse, the links as one flat `(i0, j0, i1, j1, ...)` tuple of
    source-target index pairs in file order; a repeated link stays repeated."""

    source_version: VersionId
    target_version: VersionId
    links: Mapping[str, tuple[int, ...]]


class NpAnnotation:
    """Per verse, the NP spans of `version`, each the sorted tuple of its
    token indices; `np_tokens` holds, per verse with spans, the token indices
    inside any of them. Not a tuple, as `np_tokens` is derived from `spans`
    once, at construction; equality compares version and spans."""

    __slots__ = ("version", "spans", "np_tokens")

    def __init__(self, version: VersionId, spans: Mapping[str, tuple[tuple[int, ...], ...]]):
        self.version = version
        self.spans = spans
        self.np_tokens = {v: frozenset(chain.from_iterable(of_v)) for v, of_v in spans.items() if of_v}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.version, self.spans) == (other.version, other.spans)

    __hash__ = None  # `spans` is a dict

    def __repr__(self) -> str:
        return f"NpAnnotation(version={self.version!r}, spans={self.spans!r})"


@contextmanager
def open_input(path):
    """A UTF-8 text handle on the input file `path`. A byte sequence that is
    not UTF-8 ends the block with a ParseError naming the file and the line."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        # The handle decodes in chunks, so the error's offset is not the
        # file's: decode the whole file again to find the line.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise ParseError(path, line_no, f"not UTF-8 text (byte {data[exc.start]:#04x}: {exc.reason})") from None
        raise


def read_lines(path) -> list[str]:
    """The lines of the input file `path`. A line ends only at a newline
    (`\\n`, `\\r\\n` or `\\r`); other line-break characters, such as U+2028
    or a form feed, stay inside it."""
    with open_input(path) as handle:
        return handle.read().split("\n")


def _records(path, lines: Iterable[str], payload_name: str, verses: Optional[Mapping[str, Verse]] = None,
             first_line: int = 1, bare_ids: bool = True):
    """`(line number, verse id, payload)` for each nonblank
    `<verse-id>\\t<payload>` line of `lines`, numbered from `first_line`.
    With `bare_ids`, a line holding a verse id alone has the payload "".
    Raises ParseError for a wrong field count (naming the payload
    `payload_name`), an empty verse id or a verse id seen before in the
    file. Given a version's `verses`, the lines of other verses are checked
    but not yielded."""
    seen = set()
    for line_no, line in enumerate(lines, first_line):
        if not line:
            continue
        verse_id, tab, text = line.partition("\t")
        if "\t" in text or not (tab or bare_ids):
            fields = line.count("\t") + 1
            raise ParseError(path, line_no, f"expected <verse-id>\\t<{payload_name}>, got {fields} fields")
        if not verse_id:
            raise ParseError(path, line_no, "empty verse id")
        if verse_id in seen:
            raise ParseError(path, line_no, f"duplicate verse id {verse_id!r}")
        seen.add(verse_id)
        if verses is None or verse_id in verses:
            yield line_no, verse_id, text


def _parse_verse_file(path) -> dict[str, Verse]:
    verses: dict[str, Verse] = {}
    for line_no, verse_id, text in _records(path, read_lines(path), "tokens", bare_ids=False):
        tokens = text.split(" ")
        # A clean line has no empty token, no boundary character and no
        # other whitespace, so splitting on any whitespace gives the same
        # tokens; only a line that fails this is searched for the culprit.
        if BOUNDARY in text or text.split() != tokens:
            for token in tokens:
                if not token:
                    raise ParseError(path, line_no, "empty token (double or trailing space?)")
                if BOUNDARY in token:
                    raise ParseError(path, line_no, f"token {token!r} contains reserved character {BOUNDARY!r}")
                if any(ch.isspace() for ch in token):
                    raise ParseError(path, line_no, f"token {token!r} contains whitespace")
        if not unicodedata.is_normalized("NFC", text):
            tokens = [unicodedata.normalize("NFC", token) for token in tokens]
        verses[verse_id] = tuple(tokens)
    return verses


def load_corpus(version_paths: Sequence, verse_allowlist: Optional[Iterable[str]] = None) -> ParallelCorpus:
    """Load verse files and keep exactly the verses present in every version.

    Raises ConfigurationError for fewer than two versions or duplicate version
    ids, ParseError for malformed lines, and CorpusError when the intersection
    of verse sets is empty.
    """
    if len(version_paths) < 2:
        raise ConfigurationError("load_corpus needs at least two version files")
    loaded: dict[VersionId, dict[str, Verse]] = {}
    for path in version_paths:
        version = VersionId.from_filename(path)
        if version in loaded:
            raise ConfigurationError(f"duplicate version {version} (from {path})")
        loaded[version] = _parse_verse_file(path)
    shared = set.intersection(*(set(v) for v in loaded.values()))
    if verse_allowlist is not None:
        shared &= set(verse_allowlist)
    if not shared:
        raise CorpusError("no shared verses across the given versions")
    shared_order = tuple(sorted(shared))
    versions = {
        version: {vid: verses[vid] for vid in shared_order}
        for version, verses in sorted(loaded.items())
    }
    return ParallelCorpus(versions=versions, shared_verses=shared_order)


def write_output(path, text: str) -> None:
    """Write `text` to the output file `path`, creating its directory. The
    text goes to a temporary file next to `path`, which then replaces it; if
    the write fails, the temporary file is removed and an earlier file at
    `path` stays as it was. There is no fsync: this guards against a failed
    write, not against power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    finally:
        temp.unlink(missing_ok=True)


def _is_index(text: str) -> bool:
    # ASCII only: str.isdigit also accepts digits such as "²" that int() rejects.
    return text.isascii() and text.isdigit()


# A clean line of links: only its bounds are left to check.
_CLEAN_LINKS = re.compile(r" *(?:[0-9]+-[0-9]+(?: +|$))*")


def load_alignment(path, corpus: ParallelCorpus) -> Alignment:
    """Load a word alignment between two corpus versions.

    Verses outside the corpus' shared set are ignored; shared verses missing
    from the file get no links. Indices are bounds-checked against both
    verses.
    """
    lines = iter(read_lines(path))
    header = next(lines).split("\t")
    if len(header) != 3 or header[0] != "#":
        raise ParseError(path, 1, "expected header '#\\t<source-version>\\t<target-version>'")
    try:
        source = VersionId.from_string(header[1])
        target = VersionId.from_string(header[2])
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None
    for version in (source, target):
        if version not in corpus.versions:
            raise CorpusError(f"alignment {path} references unknown version {version}")
    source_verses = corpus.versions[source]
    target_verses = corpus.versions[target]
    links: dict[str, tuple[int, ...]] = {}
    for line_no, verse_id, text in _records(path, lines, "links", source_verses, first_line=2):
        src_len = len(source_verses[verse_id])
        tgt_len = len(target_verses[verse_id])
        flat = tuple(map(int, text.replace("-", " ").split())) if _CLEAN_LINKS.fullmatch(text) else None
        if flat is None or (flat and (max(flat[0::2]) >= src_len or max(flat[1::2]) >= tgt_len)):
            # The line fails a whole-line check: walk it for its first bad link.
            walked = []
            for chunk in text.split():
                left, sep, right = chunk.partition("-")
                if not sep or not _is_index(left) or not _is_index(right):
                    raise ParseError(path, line_no, f"bad link {chunk!r} (expected <i>-<j>)")
                i, j = int(left), int(right)
                if i >= src_len:
                    raise CorpusError(
                        f"{path}: verse {verse_id!r} source index {i} out of bounds (verse has {src_len} tokens)"
                    )
                if j >= tgt_len:
                    raise CorpusError(
                        f"{path}: verse {verse_id!r} target index {j} out of bounds (verse has {tgt_len} tokens)"
                    )
                walked += (i, j)
            flat = tuple(walked)
        links[verse_id] = flat
    for verse_id in corpus.shared_verses:
        links.setdefault(verse_id, ())
    return Alignment(source_version=source, target_version=target, links=links)


def load_np_annotation(path, corpus: ParallelCorpus) -> NpAnnotation:
    """Load NP spans for the version named by the filename.

    Spans must be non-empty, in bounds, and non-overlapping within a verse.
    """
    version = VersionId.from_filename(path)
    if version not in corpus.versions:
        raise CorpusError(f"annotation {path} references unknown version {version}")
    verses = corpus.versions[version]
    spans: dict[str, tuple[tuple[int, ...], ...]] = {}
    for line_no, verse_id, span_text in _records(path, read_lines(path), "spans", verses):
        verse_len = len(verses[verse_id])
        ranges = []
        for chunk in span_text.split():
            left, sep, right = chunk.partition(":")
            if not sep or not _is_index(left) or not _is_index(right):
                raise ParseError(path, line_no, f"bad span {chunk!r} (expected <start>:<end>)")
            start, end = int(left), int(right)
            if start >= end:
                raise CorpusError(f"{path}: verse {verse_id!r} has empty span {start}:{end}")
            if end > verse_len:
                raise CorpusError(
                    f"{path}: verse {verse_id!r} span {start}:{end} out of bounds (verse has {verse_len} tokens)"
                )
            ranges.append((start, end))
        ranges.sort()
        for (s1, e1), (s2, _e2) in zip(ranges, ranges[1:]):
            if s2 < e1:
                raise CorpusError(f"{path}: verse {verse_id!r} has overlapping spans {s1}:{e1} and {s2}:{_e2}")
        spans[verse_id] = tuple(tuple(range(s, e)) for s, e in ranges)
    for verse_id in corpus.shared_verses:
        spans.setdefault(verse_id, ())
    return NpAnnotation(version=version, spans=spans)


def corpus_fingerprint(corpus: ParallelCorpus) -> str:
    """Content hash of the corpus, stable across load order. No command
    writes it (the manifests record each input file's SHA-256); the
    benchmark's tracer still looks it up by name."""
    digest = hashlib.sha256()
    for version in sorted(corpus.versions):
        verses = corpus.versions[version]
        digest.update(f"{version}\n".encode("utf-8"))
        digest.update("".join([f"{v}\t{' '.join(verses[v])}\n" for v in corpus.shared_verses]).encode("utf-8"))
    return digest.hexdigest()
