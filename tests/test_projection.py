import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import project_span, tiny_corpus_files, write_lines

from casemark.corpus import (
    Alignment,
    NpAnnotation,
    ParallelCorpus,
    VersionId,
    load_alignment,
    load_corpus,
    load_np_annotation,
)
from casemark.errors import ConfigurationError
from casemark.extraction import PipelineConfig, count_grams
from casemark.projection import (
    InsideOutsideCounts,
    ParallelNp,
    alignments_by_pair,
    build_inside_outside,
    build_parallel_np_set,
    dump_parallel_nps,
    format_parallel_nps,
    partition_word_types,
    read_parallel_nps,
)

ENG = VersionId("english", "e1")
TGT = VersionId("lingua", "l1")


def flat(pairs):
    """Flat `(i0, j0, i1, j1, ...)` links from (i, j) pairs, in the given order."""
    return tuple(index for pair in pairs for index in pair)


def alignment_with(links, source=ENG, target=TGT, verse="v1"):
    return Alignment(source_version=source, target_version=target, links={verse: flat(sorted(links))})


class TestProjectSpan:
    def test_union_of_links_sorted(self):
        alignment = alignment_with([(2, 3), (1, 4), (2, 2), (2, 3)])
        assert project_span("v1", (1, 2), alignment, ("t0", "t1", "t2", "t3", "t4")) == (2, 3, 4)

    def test_unaligned_span_is_absent(self):
        alignment = alignment_with(set())
        assert project_span("v1", (0,), alignment, ("t0",)) is None

    def test_links_outside_span_ignored(self):
        alignment = alignment_with({(1, 1)})
        assert project_span("v1", (0,), alignment, ("t0", "t1")) is None

    def test_monotone_in_the_source_span(self):
        rng = random.Random(11)
        for _ in range(200):
            links = {(rng.randrange(6), rng.randrange(8)) for _ in range(rng.randrange(12))}
            alignment = alignment_with(links)
            verse = tuple(f"t{i}" for i in range(8))
            small = sorted(rng.sample(range(6), rng.randrange(1, 4)))
            extra = sorted(set(small) | {rng.randrange(6)})
            p_small = project_span("v1", tuple(small), alignment, verse) or ()
            p_big = project_span("v1", tuple(extra), alignment, verse) or ()
            assert set(p_small) <= set(p_big)


def build_two_edition_world(tmp_path):
    """Two english editions, one NP each, two target languages."""
    paths = tiny_corpus_files(
        tmp_path,
        {
            "english-e1.txt": {"v1": "the dog runs"},
            "english-e2.txt": {"v1": "a dog runs"},
            "lingua-l1.txt": {"v1": "canis currit"},
            "tercia-t1.txt": {"v1": "hund laeuft"},
        },
    )
    corpus = load_corpus(paths)
    ann1 = write_lines(tmp_path / "english-e1.np", ["v1\t0:2"])
    ann2 = write_lines(tmp_path / "english-e2.np", ["v1\t0:2"])
    annotations = [load_np_annotation(p, corpus) for p in (ann1, ann2)]
    align_lines = {
        ("english-e1", "lingua-l1"): ["#\tenglish-e1\tlingua-l1", "v1\t1-0 2-1"],
        ("english-e1", "tercia-t1"): ["#\tenglish-e1\ttercia-t1", "v1\t1-0 2-1"],
        ("english-e2", "lingua-l1"): ["#\tenglish-e2\tlingua-l1", "v1\t1-0 2-1"],
        ("english-e2", "tercia-t1"): ["#\tenglish-e2\ttercia-t1", "v1\t2-1"],
    }
    alignments = []
    for (src, tgt), lines in align_lines.items():
        path = write_lines(tmp_path / f"{src}__{tgt}.align", lines)
        alignments.append(load_alignment(path, corpus))
    return corpus, annotations, alignments


class TestBuildParallelNpSet:
    def test_one_entry_per_edition_np(self, tmp_path):
        corpus, annotations, alignments = build_two_edition_world(tmp_path)
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        assert len(pnps) == 2
        assert all(len(p.projections) <= 2 for p in pnps)

    def test_empty_projection_lacks_key(self, tmp_path):
        corpus, annotations, alignments = build_two_edition_world(tmp_path)
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        by_source = {p.source[0]: p for p in pnps}
        # e2's NP covers tokens 0-1 but only token 2 aligns to tercia
        assert VersionId("tercia", "t1") not in by_source[VersionId("english", "e2")].projections
        assert VersionId("lingua", "l1") in by_source[VersionId("english", "e2")].projections

    def test_missing_alignment_is_configuration_error(self, tmp_path):
        corpus, annotations, alignments = build_two_edition_world(tmp_path)
        with pytest.raises(ConfigurationError, match="missing alignment"):
            build_parallel_np_set(corpus, annotations, alignments[:-1])

    def test_duplicate_alignment_is_configuration_error(self, tmp_path):
        # A second file for (e2, tercia) links "a" instead of "runs": which
        # one projects must not depend on the order of the files.
        corpus, annotations, alignments = build_two_edition_world(tmp_path)
        path = write_lines(tmp_path / "again.align", ["#\tenglish-e2\ttercia-t1", "v1\t0-0"])
        again = load_alignment(path, corpus)
        for given in ([*alignments, again], [again, *alignments]):
            with pytest.raises(ConfigurationError, match="duplicate alignment for pair english-e2 -> tercia-t1"):
                build_parallel_np_set(corpus, annotations, given)
            with pytest.raises(ConfigurationError, match="duplicate alignment for pair english-e2 -> tercia-t1"):
                alignments_by_pair(corpus, annotations, given)

    def test_deterministic(self, tmp_path):
        corpus, annotations, alignments = build_two_edition_world(tmp_path)
        first = build_parallel_np_set(corpus, annotations, alignments)
        second = build_parallel_np_set(corpus, list(reversed(annotations)), list(reversed(alignments)))
        assert first == second


class TestProjectionPaths:
    def test_set_projection_matches_project_span(self, synth):
        by_pair = {(a.source_version, a.target_version): a for a in synth.alignments}
        pnps = build_parallel_np_set(synth.corpus, synth.annotations, synth.alignments)
        assert pnps
        for pnp in pnps:
            source, span = pnp.source
            expected = {}
            for (pair_source, target), alignment in sorted(by_pair.items()):
                if pair_source == source:
                    projected = project_span(pnp.verse, span, alignment, synth.corpus.versions[target][pnp.verse])
                    if projected is not None:
                        expected[target] = projected
            assert pnp.projections == expected

    def test_link_past_the_target_verse_is_a_configuration_error(self):
        corpus = ParallelCorpus(
            versions={ENG: {"v1": ("a", "b")}, TGT: {"v1": ("x",)}},
            shared_verses=("v1",),
        )
        annotation = NpAnnotation(ENG, {"v1": ((0, 1),)})
        alignments = [alignment_with({(1, 3)})]
        with pytest.raises(ConfigurationError, match="points outside verse 'v1'"):
            build_parallel_np_set(corpus, [annotation], alignments)
        with pytest.raises(ConfigurationError, match="points outside verse 'v1'"):
            alignments_by_pair(corpus, [annotation], alignments)
        with pytest.raises(ConfigurationError, match="points outside verse 'v1'"):
            project_span("v1", annotation.spans["v1"][0], alignments[0], corpus.versions[TGT]["v1"])

    def test_count_grams_raises_before_the_first_language(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta)
        annotations, alignments = synth.annotations, synth.alignments
        with pytest.raises(ConfigurationError, match="duplicate annotation"):
            count_grams(synth.corpus, annotations * 2, alignments, config)
        with pytest.raises(ConfigurationError, match="missing alignment"):
            count_grams(synth.corpus, annotations, alignments[:-1], config)
        last = alignments[-1]
        verse_id, indices = next(iter(annotations[0].np_tokens.items()))
        past_end = len(synth.corpus.versions[last.target_version][verse_id])
        links = dict(last.links)
        links[verse_id] += (min(indices), past_end)
        broken = Alignment(last.source_version, last.target_version, links)
        with pytest.raises(ConfigurationError, match=f"points outside verse '{verse_id}'"):
            count_grams(synth.corpus, annotations, [*alignments[:-1], broken], config)


def single_copy_counts(spans_by_copy, verse_tokens=("a", "b", "c"), language="lingua"):
    """Inside/outside counts for one target verse: english edition i annotates
    its token 0, which links to the target indices spans_by_copy[i]."""
    eng_versions = [VersionId("english", f"e{i+1}") for i in range(len(spans_by_copy))]
    target = VersionId(language, "l1")
    corpus_versions = {v: {"v1": tuple(verse_tokens)} for v in (*eng_versions, target)}
    corpus = ParallelCorpus(versions=corpus_versions, shared_verses=("v1",))
    annotations = [
        NpAnnotation(eng, {"v1": ((0,),) if indices else ()})
        for eng, indices in zip(eng_versions, spans_by_copy)
    ]
    alignments = [
        alignment_with({(0, j) for j in indices}, source=eng, target=target)
        for eng, indices in zip(eng_versions, spans_by_copy)
    ]
    return build_inside_outside(corpus, annotations, alignments_by_pair(corpus, annotations, alignments), language)


class TestInsideOutside:
    def test_single_copy_split(self):
        counts = single_copy_counts([{0, 1}])
        assert counts.inside == Counter({"a": 1, "b": 1})
        assert counts.outside == Counter({"c": 1})

    def test_two_copies_accumulate(self):
        counts = single_copy_counts([{0, 1}, {1, 2}])
        assert counts.inside == Counter({"a": 1, "b": 2, "c": 1})
        assert counts.outside == Counter({"a": 1, "c": 1})

    def test_copy_without_nps_counts_outside(self):
        counts = single_copy_counts([{0, 1}, set()])
        assert counts.inside == Counter({"a": 1, "b": 1})
        assert counts.outside == Counter({"a": 1, "b": 1, "c": 2})

    def test_overlapping_spans_count_membership_once(self):
        eng = VersionId("english", "e1")
        target = VersionId("lingua", "l1")
        corpus = ParallelCorpus(
            versions={eng: {"v1": ("x", "y")}, target: {"v1": ("a", "b")}},
            shared_verses=("v1",),
        )
        annotation = NpAnnotation(eng, {"v1": ((0, 1), (1,))})
        alignment = alignment_with([(0, 0), (1, 1), (1, 1)], source=eng, target=target)
        by_pair = alignments_by_pair(corpus, [annotation], [alignment])
        counts = build_inside_outside(corpus, [annotation], by_pair, "lingua")
        assert counts.inside == Counter({"a": 1, "b": 1})
        assert counts.outside == Counter()
        english = build_inside_outside(corpus, [annotation], by_pair, "english")
        assert (english.inside, english.outside) == (Counter({"x": 1, "y": 1}), Counter())

    def test_conservation_on_synthetic_corpus(self, synth):
        by_pair = alignments_by_pair(synth.corpus, synth.annotations, synth.alignments)
        for language in ("lingua", "tercia"):
            counts = build_inside_outside(synth.corpus, synth.annotations, by_pair, language)
            version = synth.corpus.versions_of(language)[0]
            expected = len(synth.annotations) * sum(map(len, synth.corpus.versions[version].values()))
            assert sum(counts.inside.values()) + sum(counts.outside.values()) == expected

    def test_identity_projection_for_source_language(self, synth):
        by_pair = alignments_by_pair(synth.corpus, synth.annotations, synth.alignments)
        counts = build_inside_outside(synth.corpus, synth.annotations, by_pair, "english")
        # "the" and nouns sit inside every NP span; verbs never do
        assert counts.outside["the"] == 0
        assert counts.inside["verb0"] == 0
        assert counts.inside["noun0"] > 0


class TestPartition:
    def test_majority_goes_inside(self):
        counts = InsideOutsideCounts("latin", Counter({"ovibus": 45}), Counter({"ovibus": 1}))
        partition = partition_word_types(counts)
        assert "ovibus" in partition.np_relevant

    def test_majority_goes_outside(self):
        counts = InsideOutsideCounts("latin", Counter({"intellegent": 1}), Counter({"intellegent": 22}))
        partition = partition_word_types(counts)
        assert "intellegent" in partition.np_irrelevant

    def test_tie_goes_outside(self):
        counts = InsideOutsideCounts("latin", Counter({"w": 3}), Counter({"w": 3}))
        assert "w" in partition_word_types(counts).np_irrelevant

    def test_partition_is_total_and_disjoint(self):
        rng = random.Random(3)
        words = [f"w{i}" for i in range(50)]
        inside = Counter({w: rng.randrange(5) for w in words})
        outside = Counter({w: rng.randrange(5) for w in words})
        counts = InsideOutsideCounts("x", +inside, +outside)
        partition = partition_word_types(counts)
        domain = {w for w in words if inside[w] + outside[w] > 0}
        assert partition.np_relevant | partition.np_irrelevant == domain
        assert not partition.np_relevant & partition.np_irrelevant
        # Types seen only inside and only outside are both among the random counts.
        assert partition.np_relevant == {w for w in domain if inside[w] > outside[w]}


def test_dump_parallel_nps(tmp_path, synth):
    pnps = build_parallel_np_set(synth.corpus, synth.annotations, synth.alignments)
    out = tmp_path / "nps.tsv"
    dump_parallel_nps(pnps[:3], synth.corpus, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines, "dump should not be empty"
    for line in lines:
        verse_id, version, indices, surface = line.split("\t")
        assert verse_id.startswith("v")
        assert indices
        assert surface


ENG2 = VersionId("english", "e2")


def per_token_inside_outside(corpus, parallel_nps, language, copies):
    """Reference: every token of every covered version, one at a time."""
    inside, outside = Counter(), Counter()
    for copy in copies:
        for version in corpus.versions_of(language):
            if version in copies and version != copy:
                continue
            for verse_id in corpus.shared_verses:
                marked = set()
                for pnp in parallel_nps:
                    if pnp.verse == verse_id and pnp.source[0] == copy:
                        if version == copy:
                            marked.update(pnp.source[1])
                        if version in pnp.projections:
                            marked.update(pnp.projections[version])
                for index, token in enumerate(corpus.versions[version][verse_id]):
                    if index in marked:
                        inside[token] += 1
                    else:
                        outside[token] += 1
    return inside, outside


@st.composite
def hand_annotated_worlds(draw, min_span=1):
    """English e1 and e2 are annotated by hand with spans of at least
    `min_span` tokens that may overlap; English e3, a second edition of a
    source language, and lingua are targets. Every link lies inside both
    verses; links may repeat, and a verse may have none."""
    eng3 = VersionId("english", "e3")
    versions = (ENG, ENG2, eng3, TGT)
    verse_ids = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    length = {(version, vid): draw(st.integers(1, 5)) for version in versions for vid in verse_ids}
    corpus = ParallelCorpus(
        versions={
            version: {vid: tuple(f"w{i}" for i in range(length[version, vid])) for vid in verse_ids}
            for version in versions
        },
        shared_verses=tuple(verse_ids),
    )

    def spans(source, vid):
        indices = st.sets(st.integers(0, length[source, vid] - 1), min_size=min_span)
        return tuple(tuple(sorted(draw(indices))) for _ in range(draw(st.integers(0, 3))))

    def links(source, target, vid):
        # A list, so a link may repeat; an empty one leaves the verse unlinked.
        pair = st.tuples(st.integers(0, length[source, vid] - 1), st.integers(0, length[target, vid] - 1))
        return flat(draw(st.lists(pair, max_size=6)))

    annotations = [NpAnnotation(source, {vid: spans(source, vid) for vid in verse_ids}) for source in (ENG2, ENG)]
    alignments = [
        Alignment(source, target, {vid: links(source, target, vid) for vid in verse_ids})
        for source in (ENG, ENG2)
        for target in (eng3, TGT)
    ]
    return corpus, annotations, alignments


def per_span_parallel_nps(corpus, annotations, alignments):
    """Reference: every span projected on its own with project_span, which
    must give the target indices linked to any of its tokens."""
    by_pair = {(a.source_version, a.target_version): a for a in alignments}
    sources = {annotation.version for annotation in annotations}
    targets = sorted(v for v in corpus.versions if v not in sources)
    expected = []
    for annotation in sorted(annotations, key=lambda a: a.version):
        for verse_id in corpus.shared_verses:
            for span in annotation.spans.get(verse_id, ()):
                projections = {}
                for target in targets:
                    alignment = by_pair[(annotation.version, target)]
                    projected = project_span(verse_id, span, alignment, corpus.versions[target][verse_id])
                    pairs = zip(alignment.links[verse_id][0::2], alignment.links[verse_id][1::2])
                    linked = tuple(sorted({j for i, j in pairs if i in span}))
                    assert (projected or ()) == linked
                    if projected is not None:
                        projections[target] = projected
                expected.append(ParallelNp(verse_id, (annotation.version, span), projections))
    return expected


class TestParallelNpSetMatchesPerSpanProjection:
    @settings(max_examples=200)
    @given(hand_annotated_worlds())
    def test_random_worlds(self, world):
        corpus, annotations, alignments = world
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        expected = per_span_parallel_nps(corpus, annotations, alignments)
        assert pnps == expected
        # Projections also keep the target order, which the NP dump and analysis see.
        assert [list(p.projections) for p in pnps] == [list(p.projections) for p in expected]

    def test_overlapping_spans_project_separately(self):
        corpus = ParallelCorpus(
            versions={ENG: {"v1": ("a", "b", "c")}, TGT: {"v1": ("x", "y", "z")}},
            shared_verses=("v1",),
        )
        alignments = [alignment_with({(0, 2), (1, 0), (2, 1)})]
        spans = ((0, 1), (1, 2), (1,))
        pnps = build_parallel_np_set(corpus, [NpAnnotation(ENG, {"v1": spans})], alignments)
        assert [p.projections[TGT] for p in pnps] == [(0, 2), (0, 1), (0,)]
        # A span repeated verbatim, an empty span (which the loader never
        # builds) and spans out of start order: each projects on its own.
        annotations = [NpAnnotation(ENG, {"v1": ((1, 2), (0,), (1, 2), (), (2,), (0, 1))})]
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        assert pnps == per_span_parallel_nps(corpus, annotations, alignments)
        assert [p.projections.get(TGT) for p in pnps] == [(0, 1), (2,), (0, 1), None, (1,), (0, 2)]


class TestInsideOutsideMatchesPerTokenLoop:
    """The verse-level count equals the per-token count rebuilt from the
    per-span projections of the parallel NP set."""

    @settings(max_examples=200)
    @given(hand_annotated_worlds())
    def test_random_worlds(self, world):
        corpus, annotations, alignments = world
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        by_pair = alignments_by_pair(corpus, annotations, alignments)
        for language in ("english", "lingua"):
            counts = build_inside_outside(corpus, annotations, by_pair, language)
            inside, outside = per_token_inside_outside(corpus, pnps, language, [ENG, ENG2])
            assert counts.inside == inside
            assert counts.outside == outside
            assert all(n > 0 for n in counts.outside.values())
            assert all(n > 0 for n in counts.inside.values())

    def test_synthetic_corpus(self, synth):
        sources = sorted(a.version for a in synth.annotations)
        pnps = build_parallel_np_set(synth.corpus, synth.annotations, synth.alignments)
        by_pair = alignments_by_pair(synth.corpus, synth.annotations, synth.alignments)
        for language in synth.corpus.languages():
            counts = build_inside_outside(synth.corpus, synth.annotations, by_pair, language)
            inside, outside = per_token_inside_outside(synth.corpus, pnps, language, sources)
            assert (counts.inside, counts.outside) == (inside, outside)
            assert 0 not in counts.outside.values()


class TestReadParallelNps:
    """`read_parallel_nps` reads the NPs from the text that
    `format_parallel_nps` gives and `dump_parallel_nps` writes: NPs without
    a projection, repeated, overlapping and empty hand-built spans included,
    in the same order and with each NP's projections in sorted version
    order. Splitting a surface on single spaces gives back the span's
    tokens; "" is an empty span."""

    @staticmethod
    def expected_records(pnps, corpus):
        """Reference: each NP's lines, source first, built field by field."""
        def line(verse, version, span):
            tokens = corpus.versions[version][verse]
            return [verse, str(version), ",".join(map(str, span)), " ".join(tokens[i] for i in span)]

        return [
            [line(pnp.verse, version, span) for version, span in (pnp.source, *sorted(pnp.projections.items()))]
            for pnp in pnps
        ]

    @settings(max_examples=200)
    @given(hand_annotated_worlds(min_span=0))
    def test_random_worlds(self, tmp_path_factory, world):
        corpus, annotations, alignments = world
        pnps = build_parallel_np_set(corpus, annotations, alignments)
        path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
        dump_parallel_nps(pnps, corpus, path)
        text = format_parallel_nps(pnps, corpus)
        assert path.read_text(encoding="utf-8") == text
        records = read_parallel_nps(text, {"english-e1", "english-e2"})
        assert records == self.expected_records(pnps, corpus)
        for record, pnp in zip(records, pnps):
            for line, (version, span) in zip(record, (pnp.source, *sorted(pnp.projections.items()))):
                surface = line[3]
                assert (surface.split(" ") if surface else []) == [corpus.versions[version][pnp.verse][i] for i in span]

    def test_synthetic_corpus(self, synth, tmp_path):
        pnps = build_parallel_np_set(synth.corpus, synth.annotations, synth.alignments)
        dump_parallel_nps(pnps, synth.corpus, tmp_path / "nps.tsv")
        text = (tmp_path / "nps.tsv").read_text(encoding="utf-8")
        assert text == format_parallel_nps(pnps, synth.corpus)
        sources = {str(a.version) for a in synth.annotations}
        assert read_parallel_nps(text, sources) == self.expected_records(pnps, synth.corpus)
        dump_parallel_nps([], synth.corpus, tmp_path / "empty.tsv")
        assert (tmp_path / "empty.tsv").read_bytes() == b""
        assert read_parallel_nps("", {"english-e1"}) == []

    @pytest.mark.parametrize("line", ["v1\tenglish-e1\t0", "v1\tenglish\t0\ta", "v1\tenglish\tx-e1\t0\ta"])
    def test_a_line_it_cannot_read_is_a_value_error(self, line):
        # Three fields; a first line of no annotated version; five fields.
        with pytest.raises(ValueError):
            read_parallel_nps(line + "\n", {"english-e1"})
