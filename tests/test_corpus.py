import itertools
import random
import re
import tempfile
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_corpus_files, write_lines

from casemark import corpus as corpus_module
from casemark.corpus import (
    NpAnnotation,
    VersionId,
    corpus_fingerprint,
    load_alignment,
    load_corpus,
    load_np_annotation,
)
from casemark.errors import ConfigurationError, CorpusError, ParseError


@pytest.fixture
def two_version_paths(tmp_path):
    return tiny_corpus_files(
        tmp_path,
        {
            "alpha-a1.txt": {"v1": "a b", "v2": "c d e", "v3": "f"},
            "beta-b1.txt": {"v2": "x y", "v3": "z", "v4": "w"},
        },
    )


@dataclass(frozen=True, order=True)
class DataclassVersionId:
    """VersionId as a frozen dataclass, the reference for its tuple form."""

    language: str
    edition: str

    def __str__(self) -> str:
        return f"{self.language}-{self.edition}"


version_parts = st.text(alphabet="ab-é", min_size=1, max_size=3)


class TestVersionId:
    @settings(max_examples=100)
    @given(st.lists(st.tuples(version_parts, version_parts), max_size=8))
    def test_behaves_like_the_dataclass(self, parts):
        ids = [VersionId(*pair) for pair in parts]
        references = [DataclassVersionId(*pair) for pair in parts]
        assert [str(v) for v in ids] == [str(r) for r in references]
        assert [repr(v) for v in ids] == [repr(r).replace("Dataclass", "") for r in references]
        assert [tuple(v) for v in sorted(ids)] == [(r.language, r.edition) for r in sorted(references)]
        # Equal hashes keep the iteration order of every set and dict keyed by versions.
        assert [hash(v) for v in ids] == [hash(r) for r in references]
        assert [tuple(v) for v in set(ids)] == [(r.language, r.edition) for r in set(references)]
        keyed = {v: i for i, v in enumerate(ids)}
        reference_keyed = {r: i for i, r in enumerate(references)}
        for pair in parts:
            assert keyed[VersionId(*pair)] == reference_keyed[DataclassVersionId(*pair)]

    def test_equals_the_plain_tuple(self):
        assert VersionId("english", "kjv") == ("english", "kjv")
        assert {("english", "kjv"): 1}[VersionId("english", "kjv")] == 1

    def test_from_filename_strips_extensions(self):
        vid = VersionId.from_filename("/data/english-kjv.np.txt")
        assert vid == VersionId("english", "kjv")

    def test_last_hyphen_separates(self):
        assert VersionId.from_string("norwegian-bokmal-1930") == VersionId("norwegian-bokmal", "1930")

    def test_rejects_unseparated(self):
        with pytest.raises(ValueError):
            VersionId.from_string("english")

    @pytest.mark.parametrize("name", ["la\ttin-e1", "latin-e\t1", "la\ntin-e1", "latin-e1\r", "\rlatin-e1"])
    def test_rejects_a_tab_or_line_break(self, name):
        # A version name is a field of the NP dump's tab-separated lines.
        with pytest.raises(ValueError, match="version id must look like"):
            VersionId.from_string(name)


class TestLoadCorpus:
    def test_shared_verses_are_the_intersection(self, two_version_paths):
        corpus = load_corpus(two_version_paths)
        assert corpus.shared_verses == ("v2", "v3")
        assert set(corpus.versions) == {VersionId("alpha", "a1"), VersionId("beta", "b1")}

    def test_verses_outside_intersection_dropped(self, two_version_paths):
        corpus = load_corpus(two_version_paths)
        assert set(corpus.versions[VersionId("alpha", "a1")]) == {"v2", "v3"}

    def test_allowlist_restricts_further(self, two_version_paths):
        corpus = load_corpus(two_version_paths, verse_allowlist={"v3"})
        assert corpus.shared_verses == ("v3",)

    def test_empty_intersection_is_an_error(self, tmp_path):
        paths = tiny_corpus_files(
            tmp_path, {"alpha-a1.txt": {"v1": "a"}, "beta-b1.txt": {"v2": "b"}}
        )
        with pytest.raises(CorpusError, match="no shared verses"):
            load_corpus(paths)

    def test_fewer_than_two_versions_rejected(self, tmp_path):
        paths = tiny_corpus_files(tmp_path, {"alpha-a1.txt": {"v1": "a"}})
        with pytest.raises(ConfigurationError):
            load_corpus(paths)

    def test_duplicate_version_rejected(self, tmp_path):
        one = tiny_corpus_files(tmp_path, {"alpha-a1.txt": {"v1": "a"}})[0]
        other_dir = tmp_path / "other"
        other_dir.mkdir()
        two = tiny_corpus_files(other_dir, {"alpha-a1.txt": {"v1": "a"}})[0]
        with pytest.raises(ConfigurationError, match="duplicate version"):
            load_corpus([one, two])

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = write_lines(tmp_path / "alpha-a1.txt", ["v1\ta b", "no tab here"])
        other = tiny_corpus_files(tmp_path, {"beta-b1.txt": {"v1": "x"}})[0]
        with pytest.raises(ParseError, match=r"alpha-a1\.txt:2"):
            load_corpus([path, other])

    def test_reserved_character_rejected(self, tmp_path):
        path = write_lines(tmp_path / "alpha-a1.txt", ["v1\ta$ b"])
        other = tiny_corpus_files(tmp_path, {"beta-b1.txt": {"v1": "x"}})[0]
        with pytest.raises(ParseError, match="reserved"):
            load_corpus([path, other])

    def test_duplicate_verse_id_rejected(self, tmp_path):
        path = write_lines(tmp_path / "alpha-a1.txt", ["v1\ta", "v1\tb"])
        other = tiny_corpus_files(tmp_path, {"beta-b1.txt": {"v1": "x"}})[0]
        with pytest.raises(ParseError, match="duplicate verse id"):
            load_corpus([path, other])

    def test_tokens_are_nfc_normalized(self, tmp_path):
        decomposed = unicodedata.normalize("NFD", "café")
        paths = tiny_corpus_files(
            tmp_path,
            {"alpha-a1.txt": {"v1": decomposed}, "beta-b1.txt": {"v1": "café"}},
        )
        corpus = load_corpus(paths)
        assert corpus.versions[VersionId("alpha", "a1")]["v1"] == ("café",)

    def test_order_independence(self, two_version_paths):
        corpora = [load_corpus(list(perm)) for perm in itertools.permutations(two_version_paths)]
        assert all(c == corpora[0] for c in corpora)
        assert len({corpus_fingerprint(c) for c in corpora}) == 1

    @pytest.mark.parametrize(
        "one, other",
        [
            # Verse v1 = "0a b" run together reads "v10a b", as does v10 = "a b".
            (("e1", "v1", "0a b", "0c"), ("e1", "v10", "a b", "c")),
            # Version x-e1 and verse 1v run together read "x-e11v", as do x-e11 and v.
            (("e1", "1v", "a", "b"), ("e11", "v", "a", "b")),
        ],
        ids=["verse id and tokens", "version and verse id"],
    )
    def test_fingerprint_separates_its_fields(self, tmp_path, one, other):
        fingerprints = []
        for name, (edition, verse, first, second) in {"one": one, "other": other}.items():
            (tmp_path / name).mkdir()
            versions = {f"x-{edition}.txt": {verse: first}, f"y-{edition}.txt": {verse: second}}
            fingerprints.append(corpus_fingerprint(load_corpus(tiny_corpus_files(tmp_path / name, versions))))
        assert fingerprints[0] != fingerprints[1]

    def test_every_shared_lookup_succeeds(self, synth):
        rng = random.Random(5)
        versions = list(synth.corpus.versions)
        for _ in range(200):
            version = rng.choice(versions)
            verse_id = rng.choice(synth.corpus.shared_verses)
            tokens = synth.corpus.versions[version][verse_id]
            assert tokens


class TestLoadAlignment:
    def make(self, tmp_path, lines, versions=None):
        versions = versions or {
            "alpha-a1.txt": {"v1": "a b", "v2": "c d e"},
            "beta-b1.txt": {"v1": "x y z", "v2": "p q"},
        }
        paths = tiny_corpus_files(tmp_path, versions)
        corpus = load_corpus(paths)
        align_path = write_lines(tmp_path / "align.tsv", lines)
        return corpus, align_path

    def test_basic_links(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\talpha-a1\tbeta-b1", "v1\t0-0 1-2"])
        alignment = load_alignment(path, corpus)
        assert alignment.links["v1"] == (0, 0, 1, 2)
        assert alignment.links["v2"] == ()

    def test_duplicate_links_stay_in_file_order(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\talpha-a1\tbeta-b1", "v1\t1-2 0-0 1-2"])
        assert load_alignment(path, corpus).links["v1"] == (1, 2, 0, 0, 1, 2)

    def test_out_of_bounds_names_verse_and_index(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\talpha-a1\tbeta-b1", "v1\t5-0"])
        with pytest.raises(CorpusError, match=r"v1.*5"):
            load_alignment(path, corpus)

    def test_unknown_version_rejected(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\tgamma-g1\tbeta-b1", "v1\t0-0"])
        with pytest.raises(CorpusError, match="unknown version"):
            load_alignment(path, corpus)

    def test_missing_header_rejected(self, tmp_path):
        corpus, path = self.make(tmp_path, ["v1\t0-0"])
        with pytest.raises(ParseError, match="header"):
            load_alignment(path, corpus)

    def test_unshared_verses_ignored(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\talpha-a1\tbeta-b1", "v9\t0-0", "v1\t1-1"])
        alignment = load_alignment(path, corpus)
        assert set(alignment.links) == {"v1", "v2"}

    def test_bad_link_syntax(self, tmp_path):
        corpus, path = self.make(tmp_path, ["#\talpha-a1\tbeta-b1", "v1\t0:0"])
        with pytest.raises(ParseError, match="bad link"):
            load_alignment(path, corpus)


# Each line is a mutation of the clean links "0-0 1-2" for verses of 2 (source)
# and 3 (target) tokens.
MUTATED_LINKS = [
    "0-0 1-2",
    "",
    "   ",
    "0-0  1-2",
    "  0-0 1-2",
    "0-0 1-2  ",
    "+1-2",
    "1--2",
    "1-2-3",
    "-1-2",
    "1-",
    "-",
    "01-002",
    "1_0-2",
    "1-²",
    "\u0661-2",
    "0-0\x0b1-2",
    "0-0\x0c1-2",
    "0-0\xa01-2",
    "0-0\u20031-2",
    "0-0\x1c1-2",
    "0-0\u20281-2",
    "0-0\u20291-2",
    "0-0\x851-2",
    "0-0\r1-2",
    "0-0\t1-2",
    "2-0",
    "0-3",
    "0-0 1-3 5-0",
    "0-0 2-2 1-9",
    "1-2 9999999999999999999999-0",
    "0-0 1-2 0-0",
]


class TestWholeLineCheck:
    """`load_alignment` checks a clean line whole and walks only the others
    chunk by chunk; walking every line must give the same links, or the same
    error class and message."""

    def outcome(self, path, corpus):
        try:
            return load_alignment(path, corpus).links
        except (ParseError, CorpusError) as exc:
            return type(exc), str(exc)

    def check(self, tmp_path, monkeypatch, text):
        versions = {"alpha-a1.txt": {"v1": "a b", "v2": "c"}, "beta-b1.txt": {"v1": "x y z", "v2": "p"}}
        corpus = load_corpus(tiny_corpus_files(tmp_path, versions))
        path = tmp_path / "align.tsv"
        path.write_text(f"#\talpha-a1\tbeta-b1\nv1\t{text}\nv2\t0-0\n", encoding="utf-8")
        fast = self.outcome(path, corpus)
        with monkeypatch.context() as patch:
            patch.setattr(corpus_module, "_CLEAN_LINKS", re.compile(r"(?!)"))
            walked = self.outcome(path, corpus)
        assert fast == walked
        return fast

    @pytest.mark.parametrize("text", MUTATED_LINKS)
    def test_listed_mutations(self, tmp_path, monkeypatch, text):
        self.check(tmp_path, monkeypatch, text)

    def test_clean_and_broken_lines_both_occur(self, tmp_path, monkeypatch):
        outcomes = [self.check(tmp_path, monkeypatch, text) for text in ("0-0 1-2", "1-2-3", "0-3", "0-0\xa01-2")]
        assert outcomes[0]["v1"] == (0, 0, 1, 2)
        assert outcomes[1][0] is ParseError
        assert outcomes[2][0] is CorpusError and "target index 3" in outcomes[2][1]
        assert outcomes[3]["v1"] == (0, 0, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["0", "1", "2", "3", "-", " ", "  ", "+", "\xa0", "\x0b", "\u0661", "_", "²"]),
                    max_size=12))
    def test_random_mutations(self, pieces):
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as monkeypatch:
            self.check(Path(root), monkeypatch, "".join(pieces))


# Characters that str.splitlines() takes for line breaks but that do not end
# a line of an input file.
INNER_BREAKS = ["\u2028", "\x85", "\x0b", "\x0c"]


class TestRecordReader:
    """One reader splits the lines of the verse, alignment and annotation
    files: a line ends only at a newline, and a verse id appears once."""

    @pytest.fixture
    def corpus(self, tmp_path):
        versions = {
            "alpha-a1.txt": {"v1": "a b", "v2": "c", "v3": "d"},
            "beta-b1.txt": {"v1": "x y z", "v2": "p", "v3": "q"},
        }
        return load_corpus(tiny_corpus_files(tmp_path, versions))

    @pytest.mark.parametrize("brk", INNER_BREAKS)
    def test_inner_line_break_keeps_every_link(self, tmp_path, corpus, brk):
        path = tmp_path / "align.tsv"
        path.write_text(f"#\talpha-a1\tbeta-b1\nv1\t0-0{brk}1-2\nv2\t0-0\n", encoding="utf-8")
        assert load_alignment(path, corpus).links == {"v1": (0, 0, 1, 2), "v2": (0, 0), "v3": ()}

    @pytest.mark.parametrize("brk", INNER_BREAKS)
    def test_inner_line_break_keeps_every_span(self, tmp_path, corpus, brk):
        path = tmp_path / "alpha-a1.np"
        path.write_text(f"v1\t0:1{brk}1:2\n", encoding="utf-8")
        spans = load_np_annotation(path, corpus).spans
        assert spans["v1"] == ((0,), (1,))

    @pytest.mark.parametrize("brk", INNER_BREAKS)
    def test_later_error_names_its_line_in_the_file(self, tmp_path, corpus, brk):
        align = tmp_path / "align.tsv"
        align.write_text(f"#\talpha-a1\tbeta-b1\nv1\t0-0{brk}1-2\nv2\t0:0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{align}:3: bad link '0:0'")):
            load_alignment(align, corpus)
        annotation = tmp_path / "alpha-a1.np"
        annotation.write_text(f"v1\t0:1{brk}1:2\n\nv2\t0-1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{annotation}:3: bad span '0-1'")):
            load_np_annotation(annotation, corpus)
        verses = tmp_path / "gamma-g1.txt"
        verses.write_text(f"v1\ta\nv2\tb{brk}c\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{verses}:2: token {'b' + brk + 'c'!r} contains whitespace")):
            load_corpus([verses, tmp_path / "beta-b1.txt"])

    def test_windows_and_old_mac_line_ends(self, tmp_path, corpus):
        path = tmp_path / "align.tsv"
        path.write_bytes(b"#\talpha-a1\tbeta-b1\r\nv1\t0-0 1-2\rv2\t0-0\r\n")
        assert load_alignment(path, corpus).links == {"v1": (0, 0, 1, 2), "v2": (0, 0), "v3": ()}

    def test_repeated_verse_id_in_an_alignment(self, tmp_path, corpus):
        path = write_lines(tmp_path / "align.tsv", ["#\talpha-a1\tbeta-b1", "v1\t0-0", "v2\t0-0", "v1\t1-2"])
        with pytest.raises(ParseError, match=re.escape(f"{path}:4: duplicate verse id 'v1'")):
            load_alignment(path, corpus)

    def test_repeat_outside_the_shared_verses_is_an_error_too(self, tmp_path, corpus):
        for path, lines in [
            (tmp_path / "align.tsv", ["#\talpha-a1\tbeta-b1", "v9\t0-0", "v9\t0-0"]),
            (tmp_path / "alpha-a1.np", ["v9\t0:1", "v9\t0:1"]),
        ]:
            write_lines(path, lines)
            loader = load_alignment if path.suffix == ".tsv" else load_np_annotation
            with pytest.raises(ParseError, match=re.escape(f"{path}:{len(lines)}: duplicate verse id 'v9'")):
                loader(path, corpus)

    @pytest.mark.parametrize(
        "name, lines, message",
        [
            ("align.tsv", ["#\talpha-a1\tbeta-b1", "\t0-0"], ":2: empty verse id"),
            ("align.tsv", ["#\talpha-a1\tbeta-b1", "v1\t0-0\t1-1"], ":2: expected <verse-id>\\t<links>, got 3 fields"),
            ("align.tsv", [], ":1: expected header"),
            ("alpha-a1.np", ["\t0:1"], ":1: empty verse id"),
            ("alpha-a1.np", ["v1\t0:1\t1:2"], ":1: expected <verse-id>\\t<spans>, got 3 fields"),
        ],
    )
    def test_malformed_records(self, tmp_path, corpus, name, lines, message):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        loader = load_alignment if name.endswith(".tsv") else load_np_annotation
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            loader(path, corpus)

    def test_bare_verse_id_has_no_links_or_spans(self, tmp_path, corpus):
        align = write_lines(tmp_path / "align.tsv", ["#\talpha-a1\tbeta-b1", "v1", "v2\t0-0"])
        assert load_alignment(align, corpus).links == {"v1": (), "v2": (0, 0), "v3": ()}
        annotation = write_lines(tmp_path / "alpha-a1.np", ["v1", "v2\t0:1"])
        assert load_np_annotation(annotation, corpus).spans["v1"] == ()

    def test_bare_verse_id_in_a_verse_file(self, tmp_path):
        path = write_lines(tmp_path / "alpha-a1.txt", ["v1\ta", "v2"])
        other = tiny_corpus_files(tmp_path, {"beta-b1.txt": {"v1": "x"}})[0]
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: expected <verse-id>\\t<tokens>, got 1 fields")):
            load_corpus([path, other])


class TestLoadNpAnnotation:
    def make(self, tmp_path, lines):
        paths = tiny_corpus_files(
            tmp_path,
            {
                "alpha-a1.txt": {"v1": "a b c d e f"},
                "beta-b1.txt": {"v1": "x"},
            },
        )
        corpus = load_corpus(paths)
        ann_path = write_lines(tmp_path / "alpha-a1.np", lines)
        return corpus, ann_path

    def test_accepts_disjoint_spans(self, tmp_path):
        corpus, path = self.make(tmp_path, ["v1\t0:2 3:5"])
        annotation = load_np_annotation(path, corpus)
        assert annotation.version == VersionId("alpha", "a1")
        assert annotation.spans["v1"] == ((0, 1), (3, 4))

    def test_np_tokens_are_built_with_the_annotation(self, tmp_path):
        corpus, path = self.make(tmp_path, ["v1\t0:2 3:5"])
        annotation = load_np_annotation(path, corpus)
        assert annotation.np_tokens == {"v1": frozenset({0, 1, 3, 4})}
        assert annotation == NpAnnotation(VersionId("alpha", "a1"), {"v1": ((0, 1), (3, 4))})
        assert annotation != NpAnnotation(VersionId("alpha", "a1"), {"v1": ((0, 1),)})
        assert NpAnnotation(annotation.version, {"v1": ()}).np_tokens == {}

    def test_overlap_rejected(self, tmp_path):
        corpus, path = self.make(tmp_path, ["v1\t0:3 2:4"])
        with pytest.raises(CorpusError, match="overlap"):
            load_np_annotation(path, corpus)

    def test_empty_span_rejected(self, tmp_path):
        cases = [
            ("2:2", CorpusError, "empty span 2:2"),
            ("3:1", CorpusError, "empty span 3:1"),
            ("-1:2", ParseError, "bad span '-1:2'"),
        ]
        for chunk, error, message in cases:
            corpus, path = self.make(tmp_path, [f"v1\t{chunk}"])
            with pytest.raises(error, match=message):
                load_np_annotation(path, corpus)

    def test_out_of_bounds_rejected(self, tmp_path):
        corpus, path = self.make(tmp_path, ["v1\t4:7"])
        with pytest.raises(CorpusError, match="out of bounds"):
            load_np_annotation(path, corpus)

    def test_unknown_version_rejected(self, tmp_path):
        corpus, _ = self.make(tmp_path, ["v1\t0:1"])
        stray = write_lines(tmp_path / "gamma-g1.np", ["v1\t0:1"])
        with pytest.raises(CorpusError, match="unknown version"):
            load_np_annotation(stray, corpus)


class TestNpSpan:
    """An NP span is the sorted tuple of its token indices: the loader
    builds one for each `start:end` range."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 8), unique=True, max_size=8), st.randoms(use_true_random=False))
    def test_loaded_spans_equal_constructed_spans(self, cuts, rng):
        cuts.sort()
        ranges = list(zip(cuts[0::2], cuts[1::2]))
        rng.shuffle(ranges)  # the loader sorts them
        with tempfile.TemporaryDirectory() as root:
            verses = {"alpha-a1.txt": {"v1": "a b c d e f g h"}, "beta-b1.txt": {"v1": "x"}}
            corpus = load_corpus(tiny_corpus_files(Path(root), verses))
            path = write_lines(Path(root) / "alpha-a1.np", ["v1\t" + " ".join(f"{s}:{e}" for s, e in ranges)])
            spans = load_np_annotation(path, corpus).spans["v1"]
        assert spans == tuple(tuple(range(s, e)) for s, e in sorted(ranges))


class TestVerseLineErrors:
    """A line that fails the whole-line check still names its bad token."""

    def load(self, tmp_path, text):
        path = write_lines(tmp_path / "alpha-a1.txt", [f"v1\t{text}"])
        other = tiny_corpus_files(tmp_path, {"beta-b1.txt": {"v1": "x"}})[0]
        return load_corpus([path, other])

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u3000", "\x0b", "\x1c"])
    def test_other_whitespace_names_the_token(self, tmp_path, space):
        token = f"a{space}b"
        with pytest.raises(ParseError, match=re.escape(f"token {token!r} contains whitespace")):
            self.load(tmp_path, f"x {token} y")

    def test_whitespace_only_token_is_caught_when_counts_balance(self, tmp_path):
        # "\x0b" vanishes from str.split() and "a\x0bb" splits in two, so the
        # token count alone would not see either.
        with pytest.raises(ParseError, match=re.escape("token '\\x0b' contains whitespace")):
            self.load(tmp_path, "\x0b a\x0bb")

    @pytest.mark.parametrize("text", ["a  b", "a b ", " a", ""])
    def test_empty_token(self, tmp_path, text):
        with pytest.raises(ParseError, match=re.escape("empty token (double or trailing space?)")):
            self.load(tmp_path, text)

    @pytest.mark.parametrize("char", ["\u200c", "\u00ad", "\u200b"])
    def test_format_character_loads_unchanged(self, tmp_path, char):
        # Not printable, so the line is walked, but not whitespace either.
        corpus = self.load(tmp_path, f"a{char}b {char}c")
        assert corpus.versions[VersionId("alpha", "a1")]["v1"] == (f"a{char}b", f"{char}c")

    def test_boundary_character_names_the_token(self, tmp_path):
        with pytest.raises(ParseError, match=re.escape("token 'b$c' contains reserved character '$'")):
            self.load(tmp_path, "a b$c d")

    def test_first_bad_token_is_reported(self, tmp_path):
        with pytest.raises(ParseError, match="reserved"):
            self.load(tmp_path, "a$ b\u00a0c")

    def test_non_nfc_line_yields_nfc_tokens(self, tmp_path):
        normalize = unicodedata.normalize
        text = " ".join(["déjà", normalize("NFD", "café"), "x", normalize("NFD", "Ångström")])
        corpus = self.load(tmp_path, text)
        tokens = corpus.versions[VersionId("alpha", "a1")]["v1"]
        assert tokens == ("déjà", "café", "x", "Ångström")
        assert all(unicodedata.is_normalized("NFC", token) for token in tokens)


def reference_verse_line(text):
    """What a verse line `text` loads as: its NFC tokens, or the message for
    its first token that is empty, holds the boundary or holds whitespace."""
    for token in text.split(" "):
        if token == "":
            return "empty token (double or trailing space?)"
        if "$" in token:
            return f"token {token!r} contains reserved character '$'"
        if re.search(r"\s", token):
            return f"token {token!r} contains whitespace"
    return tuple(unicodedata.normalize("NFC", token) for token in text.split(" "))


# Tab, carriage return and newline end a field or a line, so they are left out.
VERSE_LINE_ALPHABET = [
    "a", "b", "e\u0301", "é", "$", " ", "  ", "\xa0", "\u2028", "\u3000", "\x0b", "\x0c", "\x1c", "\x85",
    "\u200c", "\u00ad", "\u200b", "\ufeff", "\x00",
]


class TestVerseLineCheck:
    """`_parse_verse_file` walks only the lines that fail its whole-line check;
    on any line it must load or reject what a token-by-token check does."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(VERSE_LINE_ALPHABET), max_size=10).map("".join))
    def test_matches_a_token_by_token_check(self, text):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "alpha-a1.txt"
            path.write_text(f"v1\t{text}\n", encoding="utf-8")
            try:
                loaded = corpus_module._parse_verse_file(path)["v1"]
            except ParseError as exc:
                loaded = str(exc).removeprefix(f"{path}:1: ")
        assert loaded == reference_verse_line(text)


class TestByteOrderMark:
    """A leading U+FEFF is not part of an input file's first line."""

    BOM = "\ufeff"

    @pytest.fixture
    def corpus(self, tmp_path):
        versions = {"alpha-a1.txt": {"v1": "a b", "v2": "c"}, "beta-b1.txt": {"v1": "x", "v2": "y"}}
        paths = tiny_corpus_files(tmp_path, versions)
        paths[0].write_text(self.BOM + paths[0].read_text(encoding="utf-8"), encoding="utf-8")
        return load_corpus(paths)

    def test_verse_file(self, corpus):
        assert corpus.shared_verses == ("v1", "v2")
        assert corpus.versions[VersionId("alpha", "a1")]["v1"] == ("a", "b")

    def test_alignment_file(self, tmp_path, corpus):
        path = tmp_path / "align.tsv"
        path.write_text(f"{self.BOM}#\talpha-a1\tbeta-b1\nv1\t1-0\n", encoding="utf-8")
        assert load_alignment(path, corpus).links == {"v1": (1, 0), "v2": ()}

    def test_annotation_file(self, tmp_path, corpus):
        path = tmp_path / "alpha-a1.np"
        path.write_text(f"{self.BOM}v1\t0:2\n", encoding="utf-8")
        assert load_np_annotation(path, corpus).spans == {"v1": ((0, 1),), "v2": ()}

    def test_only_one_leading_mark_is_dropped(self, tmp_path):
        path = tmp_path / "alpha-a1.txt"
        path.write_text(f"{self.BOM}{self.BOM}v1\ta\n", encoding="utf-8")
        assert corpus_module.read_lines(path) == [f"{self.BOM}v1\ta", ""]
