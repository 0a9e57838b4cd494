import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casemark.analysis import (
    MarkerCombinationGroup,
    assign_marker,
    build_cooccurrence_matrix,
    export_matrix,
    group_by_marker_combination,
    render_group_report,
)
from casemark.corpus import ParallelCorpus, VersionId
from casemark.extraction import CandidateMarker, MarkerSet
from casemark.projection import ParallelNp, build_parallel_np_set, format_parallel_nps, read_parallel_nps


def marker_set(language, grams):
    return MarkerSet(
        language=language,
        markers=frozenset(CandidateMarker(g, 1, 0) for g in grams),
    )


def longest_endswith(word, grams):
    """Reference: try every marker, keep the longest that ends `$word$`."""
    wrapped = f"${word}$"
    best = None
    for gram in grams:
        if wrapped.endswith(gram) and (best is None or len(gram) > len(best)):
            best = gram
    return best


LETTERS = "abéд"


class TestAssignMarker:
    def test_longest_match_wins(self):
        assert assign_marker("ovibus", marker_set("latin", {"ibus$", "s$"})) == "ibus$"

    def test_no_match(self):
        assert assign_marker("pastor", marker_set("latin", {"ibus$"})) is None

    def test_cyrillic_suffix(self):
        russian = marker_set("russian", {"ах$", "ами$", "ам$"})
        assert assign_marker("дворцах", russian) == "ах$"
        assert assign_marker("делами", russian) == "ами$"
        assert assign_marker("предкам", russian) == "ам$"

    def test_whole_word_marker_matches_exact_word(self):
        markers = marker_set("x", {"$a$", "a$"})
        assert assign_marker("a", markers) == "$a$"
        assert assign_marker("ba", markers) == "a$"

    def test_result_is_a_word_suffix(self):
        rng = random.Random(4)
        grams = {"us$", "ibus$", "s$", "um$"}
        markers = marker_set("latin", grams)
        for _ in range(200):
            word = "".join(rng.choice("abius m".strip()) for _ in range(rng.randrange(1, 8)))
            result = assign_marker(word, markers)
            if result is not None:
                assert word.endswith(result.strip("$"))

    def test_empty_gram_matches_any_word(self):
        markers = marker_set("x", {"", "ibus$"})
        assert assign_marker("pastor", markers) == ""
        assert assign_marker("ovibus", markers) == "ibus$"

    def test_gram_without_trailing_boundary_never_matches(self):
        assert assign_marker("ba", marker_set("x", {"a", "ba", "$ba"})) is None

    @settings(max_examples=300)
    @given(
        word=st.text(alphabet=LETTERS, min_size=1, max_size=6),
        grams=st.sets(st.text(alphabet=LETTERS + "$", max_size=5), max_size=8),
        cuts=st.lists(st.integers(0, 9), max_size=3),
        whole_word=st.booleans(),
    )
    def test_matches_longest_endswith(self, word, grams, cuts, whole_word):
        wrapped = f"${word}$"
        # Suffixes of the word itself make matches likely; a cut past the end gives "".
        grams = set(grams) | {wrapped[cut:] for cut in cuts}
        if whole_word:
            grams.add(wrapped)
        assert assign_marker(word, marker_set("x", grams)) == longest_endswith(word, grams)


ENG = VersionId("english", "e1")
LAT = VersionId("latin", "l1")
RUS = VersionId("russian", "r1")


def world():
    """Three verses; latin heads all take -ibus, russian distinguishes them."""
    versions = {
        ENG: {
            "v1": ("in", "the", "houses"),
            "v2": ("with", "good", "deeds"),
            "v3": ("to", "the", "parents"),
        },
        LAT: {
            "v1": ("domibus",),
            "v2": ("operibus", "bonis"),
            "v3": ("patribus",),
        },
        RUS: {
            "v1": ("дворцах",),
            "v2": ("добрыми", "делами"),
            "v3": ("предкам",),
        },
    }
    corpus = ParallelCorpus(versions=versions, shared_verses=("v1", "v2", "v3"))
    pnps = [
        ParallelNp("v1", (ENG, (1, 2)), {LAT: (0,), RUS: (0,)}),
        ParallelNp("v2", (ENG, (1, 2)), {LAT: (0, 1), RUS: (0, 1)}),
        ParallelNp("v3", (ENG, (1, 2)), {LAT: (0,), RUS: (0,)}),
    ]
    markers = {
        "latin": marker_set("latin", {"ibus$", "is$"}),
        "russian": marker_set("russian", {"ах$", "ами$", "ам$"}),
    }
    return corpus, pnps, markers


def records(corpus, pnps):
    """The NPs as `analyze` sees them: the text of their dump lines."""
    sources = {str(pnp.source[0]) for pnp in pnps}
    return read_parallel_nps(format_parallel_nps(pnps, corpus), sources)


class TestGrouping:
    def test_syncretic_marker_splits_by_second_language(self):
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, pnps), markers, ["latin", "russian"])
        keys = {g.key for g in groups}
        assert len(groups) == 3
        assert keys == {
            (("latin", "ibus$"), ("russian", "ах$")),
            (("latin", "is$"), ("russian", "ами$")),
            (("latin", "ibus$"), ("russian", "ам$")),
        }

    def test_head_word_is_the_last_span_token(self):
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, pnps), markers, ["latin"])
        # v2's latin head is "bonis", the last word of "operibus bonis", matched by is$
        assert (("latin", "is$"),) in {g.key for g in groups}

    def test_missing_projection_keeps_none_slot(self):
        corpus, pnps, markers = world()
        clipped = [
            ParallelNp("v1", pnps[0].source, {LAT: pnps[0].projections[LAT]}),
        ]
        groups = group_by_marker_combination(records(corpus, clipped), markers, ["latin", "russian"])
        assert groups[0].key == (("latin", "ibus$"), ("russian", None))

    def test_groups_partition_the_input(self):
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, pnps * 2), markers, ["latin", "russian"])
        total = sum(len(g.members) for g in groups)
        assert total == len(pnps) * 2
        assert all(len(g.members) == 2 for g in groups)

    def test_identical_assignments_merge(self):
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, [pnps[0], pnps[0]]), markers, ["latin"])
        assert len(groups) == 1
        assert len(groups[0].members) == 2

    def test_no_language_puts_every_np_in_one_group(self):
        # `analyze` with no marker file and no `analysis.languages` groups by no language.
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, pnps), markers, [])
        assert groups == [MarkerCombinationGroup(key=(), members=tuple(records(corpus, pnps)))]

    def test_missing_marker_set_rejected(self):
        corpus, pnps, markers = world()
        with pytest.raises(KeyError):
            group_by_marker_combination(records(corpus, pnps), markers, ["klingon"])

    def test_report_renders_samples(self):
        corpus, pnps, markers = world()
        groups = group_by_marker_combination(records(corpus, pnps), markers, ["latin", "russian"])
        text = render_group_report(groups, samples_per_group=2)
        assert "latin=ibus$" in text
        assert "the houses" in text


class TestCooccurrenceMatrix:
    def test_single_np_rows(self):
        corpus, pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, [pnps[1]]))
        assert matrix.rows == (
            "english:deeds", "english:good", "latin:bonis", "latin:operibus", "russian:делами", "russian:добрыми"
        )
        assert len(matrix.cols) == 1
        assert {count for _row, _col, count in matrix.cells} == {1}

    def test_absent_word_has_no_row(self):
        corpus, pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, [pnps[0]]))
        assert "latin:domibus" in matrix.rows
        assert "latin:patribus" not in matrix.rows and "english:parents" not in matrix.rows

    def test_row_sums_match_brute_force(self):
        corpus, pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, pnps))
        sums = Counter()
        for row_i, _col_i, count in matrix.cells:
            sums[matrix.rows[row_i]] += count
        brute = Counter()
        for pnp in pnps:
            rows = [*pnp.projections.items(), pnp.source]
            for version, indices in rows:
                tokens = corpus.verse(version, pnp.verse)
                for i in indices:
                    brute[f"{version.language}:{tokens[i]}"] += 1
        assert sums == brute

    def test_editions_stay_distinct_columns(self):
        corpus, pnps, _markers = world()
        other_edition = ParallelNp(
            "v1",
            (VersionId("english", "e2"), pnps[0].source[1]),
            pnps[0].projections,
        )
        versions = dict(corpus.versions)
        versions[VersionId("english", "e2")] = corpus.versions[ENG]
        corpus2 = ParallelCorpus(versions=versions, shared_verses=corpus.shared_verses)
        matrix = build_cooccurrence_matrix(records(corpus2, [pnps[0], other_edition]))
        assert len(matrix.cols) == 2

    def test_empty_source_span_adds_no_row(self, tmp_path):
        """An empty span's surface is "", which is no token, not the token
        "": its NP keeps its column, and only its projection gives rows."""
        corpus, _pnps, _markers = world()
        empty = records(corpus, [ParallelNp("v1", (ENG, ()), {LAT: (0,)})])
        assert empty[0][0] == ["v1", "english-e1", "", ""]
        matrix = build_cooccurrence_matrix(empty)
        assert matrix.rows == ("latin:domibus",)
        assert matrix.cols == ("v1|english-e1|",)
        assert matrix.cells == ((0, 0, 1),)
        export_matrix(matrix, tmp_path)
        assert (tmp_path / "cols.txt").read_text(encoding="utf-8") == "v1|english-e1|\t\n"
        assert (tmp_path / "matrix.tsv").read_text(encoding="utf-8") == "0\t0\t1\n"

    def test_export_is_deterministic(self, tmp_path):
        corpus, pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, pnps))
        first = tmp_path / "one"
        second = tmp_path / "two"
        export_matrix(matrix, first)
        export_matrix(matrix, second)
        for name in ("matrix.tsv", "rows.txt", "cols.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_export_empty_matrix(self, tmp_path):
        corpus, _pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, []))
        export_matrix(matrix, tmp_path)
        assert (tmp_path / "matrix.tsv").read_text() == ""
        assert (tmp_path / "rows.txt").read_text() == ""

    def test_triplet_lines(self, tmp_path):
        corpus, pnps, _markers = world()
        matrix = build_cooccurrence_matrix(records(corpus, pnps))
        export_matrix(matrix, tmp_path)
        lines = (tmp_path / "matrix.tsv").read_text().splitlines()
        assert len(lines) == len(matrix.cells)
        for line in lines:
            row_i, col_i, count = line.split("\t")
            assert int(count) > 0
            assert 0 <= int(row_i) < len(matrix.rows)
            assert 0 <= int(col_i) < len(matrix.cols)


def test_grouping_on_synthetic_pipeline_output(synth):
    from casemark.extraction import PipelineConfig, run_pipeline

    config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",))
    marker_sets = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
    pnps = build_parallel_np_set(synth.corpus, synth.annotations, synth.alignments)
    groups = group_by_marker_combination(records(synth.corpus, pnps), marker_sets, ["lingua"])
    keys = {g.key for g in groups}
    assert (("lingua", "um$"),) in keys
    assert (("lingua", "ibus$"),) in keys
    assert sum(len(g.members) for g in groups) == len(pnps)


LAT2 = VersionId("latin", "l2")
LEXICON = ("domibus", "operibus", "bonis", "rex", "regis", "дворцах", "делами", "предкам", "bé")
SUFFIXES = ("ibus$", "bus$", "is$", "s$", "$rex$", "x$", "ах$", "ами$", "ам$", "é$", "")


def sorted_projection_groups(parallel_nps, corpus, marker_sets, languages):
    """The grouping as first written: per NP and language, the first
    projection in sorted version order, its head word matched marker by marker."""
    buckets = defaultdict(list)
    for pnp in parallel_nps:
        key = []
        for language in sorted(languages):
            marker = None
            for version in sorted(pnp.projections):
                if version.language == language:
                    indices = pnp.projections[version]
                    word = corpus.verse(version, pnp.verse)[indices[-1]]
                    marker = longest_endswith(word, marker_sets[language].grams())
                    break
            key.append((language, marker))
        buckets[tuple(key)].append(pnp)
    return {key: tuple(members) for key, members in buckets.items()}


@st.composite
def two_edition_worlds(draw):
    """Latin has two editions; each NP projects into a random subset of the
    targets, inserted in random order."""
    verse_ids = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    targets = (LAT, LAT2, RUS)
    versions = {
        version: {vid: tuple(draw(st.lists(st.sampled_from(LEXICON), min_size=3, max_size=3))) for vid in verse_ids}
        for version in (ENG, *targets)
    }
    corpus = ParallelCorpus(versions=versions, shared_verses=tuple(verse_ids))
    pnps = []
    for _ in range(draw(st.integers(0, 10))):
        verse = draw(st.sampled_from(verse_ids))
        projections = {}
        for target in draw(st.permutations(targets)):
            if draw(st.booleans()):
                indices = draw(st.sets(st.integers(0, 2), min_size=1))
                projections[target] = tuple(sorted(indices))
        pnps.append(ParallelNp(verse, (ENG, (0,)), projections))
    marker_sets = {
        language: marker_set(language, draw(st.sets(st.sampled_from(SUFFIXES))))
        for language in ("latin", "russian")
    }
    return corpus, pnps, marker_sets


class TestGroupingMatchesSortedProjections:
    @settings(max_examples=200)
    @given(
        world=two_edition_worlds(),
        languages=st.sets(st.sampled_from(["latin", "russian"]), min_size=1),
    )
    def test_same_groups_as_the_reference(self, world, languages):
        corpus, pnps, markers = world
        groups = group_by_marker_combination(records(corpus, pnps), markers, sorted(languages))
        expected = sorted_projection_groups(pnps, corpus, markers, languages)
        assert {g.key: g.members for g in groups} == {key: tuple(records(corpus, nps)) for key, nps in expected.items()}
        sizes = [len(g.members) for g in groups]
        assert sizes == sorted(sizes, reverse=True)

    def test_first_latin_edition_decides(self):
        corpus = ParallelCorpus(
            versions={ENG: {"v1": ("x",)}, LAT: {"v1": ("regis",)}, LAT2: {"v1": ("domibus",)}},
            shared_verses=("v1",),
        )
        pnp = ParallelNp("v1", (ENG, (0,)), {LAT2: (0,), LAT: (0,)})
        markers = {"latin": marker_set("latin", {"is$", "ibus$"})}
        groups = group_by_marker_combination(records(corpus, [pnp]), markers, ["latin"])
        assert groups[0].key == (("latin", "is$"),)


ENG2 = VersionId("english", "e2")
OLD_A, OLD_B, NORSE = VersionId("old", "a"), VersionId("old", "b"), VersionId("old-norse", "a")
FORMS = ("a", "b", "ab", "b:a")


def indices_of(draw, tokens):
    return tuple(sorted(draw(st.sets(st.integers(0, len(tokens) - 1), min_size=1))))


@st.composite
def matrix_worlds(draw):
    """Parallel NPs from two english editions into `old` (two editions) and
    `old-norse`, over a few forms, in random order; an NP may repeat. Every
    world holds the NP of verse `v0`, whose source span holds `the` twice and
    which projects onto `x` in both `old` editions, so some cells count 2.
    Row names of `old-norse` sort before those of `old` only as whole
    strings, since `-` sorts below `:`."""
    verse_ids = [f"v{i}" for i in range(draw(st.integers(1, 11)))]
    sources, targets = (ENG, ENG2), (OLD_A, OLD_B, NORSE)
    versions = {
        version: {vid: tuple(draw(st.lists(st.sampled_from(FORMS), min_size=1, max_size=4))) for vid in verse_ids[1:]}
        for version in (*sources, *targets)
    }
    for version in sources:
        versions[version]["v0"] = ("the", "the")
    for version in targets:
        versions[version]["v0"] = ("x",)
    corpus = ParallelCorpus(versions=versions, shared_verses=tuple(verse_ids))
    pnps = [ParallelNp("v0", (ENG, (0, 1)), {OLD_A: (0,), OLD_B: (0,), NORSE: (0,)})]
    for _ in range(draw(st.integers(0, 12))):
        verse = draw(st.sampled_from(verse_ids))
        source = draw(st.sampled_from(sources))
        span = indices_of(draw, versions[source][verse])
        projections = {
            target: indices_of(draw, versions[target][verse]) for target in targets if draw(st.booleans())
        }
        pnps.append(ParallelNp(verse, (source, span), projections))
    if draw(st.booleans()):
        pnps.append(draw(st.sampled_from(pnps)))
    return corpus, draw(st.permutations(pnps))


def brute_force_export(pnps, corpus):
    """Reference: one Counter over `(language:form, NP id)`, then the three
    files written from its sorted keys."""
    counts = Counter()
    col_text = {}
    for pnp in pnps:
        source, span = pnp.source
        np_id = f"{pnp.verse}|{source.language}-{source.edition}|{','.join(map(str, span))}"
        col_text[np_id] = " ".join(corpus.verse(source, pnp.verse)[i] for i in span)
        for version, indices in [*pnp.projections.items(), (source, span)]:
            for i in indices:
                counts[f"{version.language}:{corpus.verse(version, pnp.verse)[i]}", np_id] += 1
    rows = sorted({row for row, _col in counts})
    cols = sorted(col_text)
    cells = sorted((rows.index(row), cols.index(col), n) for (row, col), n in counts.items())
    return {
        "rows.txt": "".join(f"{row}\n" for row in rows),
        "cols.txt": "".join(f"{col}\t{col_text[col]}\n" for col in cols),
        "matrix.tsv": "".join(f"{r}\t{c}\t{n}\n" for r, c, n in cells),
    }, cells


class TestCooccurrenceMatrixMatchesCounter:
    @settings(max_examples=100, deadline=None)
    @given(world=matrix_worlds())
    def test_random_worlds(self, world, tmp_path_factory):
        corpus, pnps = world
        expected, cells = brute_force_export(pnps, corpus)
        matrix = build_cooccurrence_matrix(records(corpus, pnps))
        assert list(matrix.cells) == cells
        assert max(count for _row, _col, count in matrix.cells) >= 2
        assert matrix.rows.index("old-norse:x") < matrix.rows.index("old:x")
        out = tmp_path_factory.mktemp("matrix")
        export_matrix(matrix, out)
        assert {name: (out / name).read_text(encoding="utf-8") for name in expected} == expected

    def test_equal_ids_after_a_later_id_share_one_column(self, tmp_path):
        """Two NPs with one id, given after an NP whose id sorts later, count
        into one column: `the` twice in each of them gives a cell of 4."""
        corpus = ParallelCorpus(
            versions={ENG: {"v1": ("the", "the"), "v2": ("a", "b")}, OLD_A: {"v1": ("x",), "v2": ("ab",)}},
            shared_verses=("v1", "v2"),
        )
        pnps = [
            ParallelNp("v2", (ENG, (0, 1)), {OLD_A: (0,)}),
            ParallelNp("v1", (ENG, (0, 1)), {OLD_A: (0,)}),
            ParallelNp("v1", (ENG, (0, 1)), {}),
        ]
        expected, cells = brute_force_export(pnps, corpus)
        matrix = build_cooccurrence_matrix(records(corpus, pnps))
        assert matrix.cols == ("v1|english-e1|0,1", "v2|english-e1|0,1")
        assert list(matrix.cells) == cells
        assert (matrix.rows.index("english:the"), 0, 4) in cells
        export_matrix(matrix, tmp_path)
        assert {name: (tmp_path / name).read_text(encoding="utf-8") for name in expected} == expected
