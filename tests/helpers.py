"""Small shared builders and references for corpus-level tests."""

from pathlib import Path

from casemark.errors import ConfigurationError
from casemark.extraction import GramCounts
from casemark.projection import linked_targets


def write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Path(path)


def tiny_corpus_files(root, versions):
    """Write verse files from {filename: {verse_id: 'tok tok'}} and return paths."""
    paths = []
    for filename, verses in versions.items():
        lines = [f"{vid}\t{text}" for vid, text in verses.items()]
        paths.append(write_lines(Path(root) / filename, lines))
    return paths


def position_of(gram):
    """Reference for a gram's position in its word: "final" when it ends in
    the boundary, else "initial" when it starts with it, else "internal"."""
    if gram.endswith("$"):
        return "final"
    return "initial" if gram.startswith("$") else "internal"


def gram_counts(pairs):
    """The plain dict `pairs` of each gram's (inside, outside) counts as the
    `GramCounts` that selection takes."""
    return GramCounts({gram: a for gram, (a, _c) in pairs.items()}, {gram: c for gram, (_a, c) in pairs.items()})


def project_span(verse_id, span, alignment, target_verse):
    """Reference projection of one span (a tuple of token indices in verse
    `verse_id`) on its own: the target indices aligned to any of its tokens,
    in target word order, or None when no span token carries a link. A link
    past the end of the target verse raises ConfigurationError."""
    linked = linked_targets(alignment.links.get(verse_id, ()), span)
    if linked and max(linked) >= len(target_verse):
        raise ConfigurationError(
            f"alignment {alignment.source_version}->{alignment.target_version} points outside verse {verse_id!r}"
        )
    return tuple(sorted(linked)) if linked else None
