import math
from collections import Counter
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import position_of

from casemark import extraction
from casemark.errors import ConfigurationError, UndefinedOddsError
from casemark.extraction import (
    ABLATION_VARIANTS,
    POSITIONS,
    CandidateMarker,
    MarkerSet,
    PipelineConfig,
    build_candidate_counts,
    candidates_of_word,
    count_grams,
    extract_markers_for_language,
    extract_markers_per_config,
    frequency_filter,
    inside_outside_filter,
    read_marker_file,
    run_pipeline,
    suffix_restrict,
    write_marker_file,
)
from casemark.stats import ContingencyTable, ExactTest, fisher_exact_two_sided, odds_ratio

words = st.text(alphabet="ab", min_size=1, max_size=6)
word_sets = st.sets(words, min_size=1, max_size=12)
PIECES = ["a", "b", "(", ".", "\\", "\U0001d11e", "\u0301", "ab(", "a.\\", "\U0001d11e\u0301b"]
long_words = st.lists(st.sampled_from(PIECES), max_size=12).map(lambda pieces: "".join(pieces)[:20])


def brute_force_candidates(word):
    wrapped = f"${word}$"
    out = set()
    for i in range(len(wrapped)):
        for j in range(i + 1, len(wrapped) + 1):
            gram = wrapped[i:j]
            if set(gram) != {"$"}:
                out.add(gram)
    return out


def plain_gram_counts(relevant, irrelevant, theta):
    """Reference: each gram of the relevant words, with the number of
    relevant / irrelevant types containing it, kept when the first reaches theta."""
    relevant_grams = [brute_force_candidates(w) for w in relevant]
    irrelevant_grams = [brute_force_candidates(w) for w in irrelevant]
    expected = {}
    for grams in relevant_grams:
        for gram in grams:
            inside = sum(gram in other for other in relevant_grams)
            if inside >= theta:
                expected[gram] = (inside, sum(gram in other for other in irrelevant_grams))
    return expected


def window_occurrences(words, window):
    """Occurrences of `window` in the boundary-wrapped words, overlaps included."""
    return sum(f"${w}$"[i : i + len(window)] == window for w in words for i in range(len(w) + 2))


class TestCandidatesOfWord:
    def test_ovibus_examples(self):
        grams = candidates_of_word("ovibus")
        assert {"$ovi", "ibus$", "$ovibus$", "i"} <= grams

    def test_single_character_word(self):
        assert candidates_of_word("a") == {"$a$", "$a", "a$", "a"}

    def test_repeated_gram_collapses(self):
        grams = candidates_of_word("aa")
        assert "a" in grams
        assert grams == {"a", "aa", "$a", "$aa", "a$", "aa$", "$aa$"}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_raw_count_formula(self, n):
        # distinct letters make every substring unique
        word = "".join(chr(ord("a") + i) for i in range(n))
        raw = [
            f"${word}$"[i:j]
            for i in range(n + 2)
            for j in range(i + 1, n + 3)
            if set(f"${word}$"[i:j]) != {"$"}
        ]
        assert len(raw) == n * (n + 1) // 2 + 2 * n + 1
        assert candidates_of_word(word) == set(raw)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_repeated_character_collapse_count(self, n):
        assert len(candidates_of_word("x" * n)) == 3 * n + 1

    @settings(max_examples=150)
    @given(words)
    def test_matches_brute_force(self, word):
        assert candidates_of_word(word) == brute_force_candidates(word)

    def test_max_length_cap(self):
        # Grams are not capped short of the whole wrapped word.
        grams = candidates_of_word("ovibus")
        assert "ibu" in grams and "us$" in grams
        assert max(map(len, grams)) == len("$ovibus$")

    @settings(max_examples=300)
    @given(st.text(alphabet="abéдü", max_size=7))
    def test_matches_definition_on_non_ascii_words(self, word):
        assert candidates_of_word(word) == brute_force_candidates(word)

    # Distinct characters make every slice a distinct gram, so each length's
    # cached cutter is checked slice for slice; the empty word has none.
    @pytest.mark.parametrize("n", range(31))
    def test_every_length_up_to_30_matches_brute_force(self, n):
        word = "".join(map(chr, range(0x100, 0x100 + n)))
        assert candidates_of_word(word) == brute_force_candidates(word)


class TestCandidateCounts:
    def test_type_level_counting(self):
        counts = build_candidate_counts({"ab", "cb"}, {"db"})
        assert counts["b$"] == (2, 1)

    def test_domain_comes_from_relevant_words_only(self):
        counts = build_candidate_counts({"ab"}, {"xy"})
        # At theta=1 the inside side is a Counter, which reads 0 for any gram.
        assert isinstance(counts.inside, Counter)
        for gram in ("x", "q"):
            assert gram not in counts and counts.get(gram) is None
            with pytest.raises(KeyError):
                counts[gram]
        assert counts["a"] == (1, 0)

    def test_repeated_gram_counts_once_per_type(self):
        counts = build_candidate_counts({"aa"}, set())
        assert counts["a"] == (1, 0)

    @settings(max_examples=150)
    @given(word_sets, st.sets(words, max_size=12))
    def test_matches_per_gram_loop(self, relevant, irrelevant):
        expected = {}
        for word in relevant:
            for gram in candidates_of_word(word):
                inside = sum(gram in candidates_of_word(w) for w in relevant)
                outside = sum(gram in candidates_of_word(w) for w in irrelevant)
                expected[gram] = (inside, outside)
        assert build_candidate_counts(relevant, irrelevant) == expected

    # Non-ASCII letters and the empty word (whose only grams hold no letter at all).
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.text(alphabet="aéжb", max_size=6), max_size=10),
        st.sets(st.text(alphabet="aéжb", max_size=6), max_size=10),
        st.integers(1, 5),
    )
    def test_theta_floor_matches_plain_counts(self, relevant, irrelevant, theta):
        expected = plain_gram_counts(relevant, irrelevant, theta)
        assert build_candidate_counts(relevant, irrelevant, theta) == expected

    def test_theta_floor_keeps_whole_counts_of_the_kept_grams(self):
        counts = build_candidate_counts({"ab", "cb"}, {"db", "a"}, theta=2)
        assert counts == {"b": (2, 1), "b$": (2, 1)}

    # The frequency bound (windows of three characters) against the plain
    # count: a two-letter alphabet repeats windows inside a word, so a
    # window's occurrences exceed the number of types containing it.
    @settings(max_examples=200, deadline=None)
    @given(
        st.sets(st.text(alphabet="ab", max_size=12), max_size=30),
        st.sets(st.text(alphabet="ab", max_size=12), max_size=30),
        st.integers(2, 12),
    )
    def test_window_bound_matches_plain_counts(self, relevant, irrelevant, theta):
        expected = plain_gram_counts(relevant, irrelevant, theta)
        assert build_candidate_counts(relevant, irrelevant, theta) == expected

    # Words of up to 20 characters over an alphabet with an astral
    # character, a combining mark and regex metacharacters, built from
    # shared pieces so that long runs of frequent windows recur and the
    # frequent-window cutters see many patterns; the empty word has no grams.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sets(long_words, max_size=12), st.sets(long_words, max_size=12), st.integers(2, 6))
    @example({"", "a(b", "a(b.", "\\a(b"}, {"", "a(b"}, 2)
    def test_window_bound_matches_plain_counts_on_long_words(self, relevant, irrelevant, theta):
        expected = plain_gram_counts(relevant, irrelevant, theta)
        assert build_candidate_counts(relevant, irrelevant, theta) == expected

    def test_window_occurring_theta_times_in_fewer_types_is_cut(self):
        relevant, irrelevant = {"aaaa", "xyz", "xyzw"}, {"xyzv", "aaab"}
        # `aaa` occurs twice, both times in one type: the bound keeps it and
        # the exact count drops it. `xyz` occurs exactly twice, in two types.
        assert window_occurrences(relevant, "aaa") == 2
        assert window_occurrences(relevant, "xyz") == 2
        counts = build_candidate_counts(relevant, irrelevant, theta=2)
        assert "aaa" not in counts and "a" not in counts
        assert counts["xyz"] == (2, 1) and counts["$xyz"] == (2, 1)
        assert counts == plain_gram_counts(relevant, irrelevant, 2)

    def test_long_gram_inside_a_run_of_frequent_windows(self):
        relevant, irrelevant = {"xovibusa", "yovibusb", "ovibus"}, {"zovibusz"}
        counts = build_candidate_counts(relevant, irrelevant, theta=3)
        # The windows of `ovibus` all occur three times; those around it once.
        assert counts["ovibus"] == (3, 1)
        assert counts == plain_gram_counts(relevant, irrelevant, 3)


class TestGramCounts:
    """`build_candidate_counts` keeps its two counters behind one mapping of
    pairs, which reads as the dict of those pairs and selects as it does."""

    @pytest.mark.parametrize("theta", ["fixture", 1])
    def test_reads_as_the_dict_of_its_pairs(self, synth, theta):
        counts = TestThetaFloor.lingua_counts(synth, synth.fixture.theta if theta == "fixture" else theta)
        inside, outside = counts.inside, counts.outside
        pairs = dict(zip(inside, zip(inside.values(), map(outside.get, inside, repeat(0)))))
        assert counts == pairs and pairs == counts
        assert len(counts) == len(pairs) and list(counts) == list(pairs)
        assert list(counts.items()) == list(pairs.items())
        assert any(pair[1] == 0 for pair in pairs.values())  # a gram the outside side lacks

    def test_a_plain_dict_of_the_pairs_selects_the_same_markers(self, synth):
        counts = TestThetaFloor.lingua_counts(synth, 1)
        configs = [PipelineConfig(theta=synth.fixture.theta).with_variant(v) for v in ABLATION_VARIANTS]
        selected = extract_markers_per_config(counts, configs)
        assert extract_markers_per_config(dict(counts), configs) == selected
        assert all(selected)


class TestJoinedWindows:
    # An astral character, a combining mark, Cyrillic letters and empty words.
    @settings(max_examples=200)
    @given(st.lists(st.text(alphabet="a\U00010330\u0301жя", max_size=5), max_size=8))
    def test_windows_are_the_three_character_slices(self, words):
        text, windows = extraction._joined(words)
        assert text == "$" + "$".join(words) + "$"
        assert windows == [text[i : i + 3] for i in range(len(text) - 2)]


class TestFrequencyFilter:
    def test_boundary_inclusive(self):
        assert frequency_filter({"x": (97, 0)}, 97) == {"x"}
        assert frequency_filter({"x": (96, 0)}, 97) == set()

    def test_theta_one_keeps_everything(self):
        counts = {"x": (1, 5), "y": (3, 0)}
        assert frequency_filter(counts, 1) == {"x", "y"}

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ConfigurationError):
            frequency_filter({}, 0)


class TestInsideOutsideFilter:
    def test_symmetric_counts_give_odds_one(self):
        # "a" (10, 10) against "b" (10, 10): [10, 10; 10, 10]
        assert odds_ratio(ContingencyTable(a=10, b=10, c=10, d=10)) == 1.0

    def test_keeps_np_exclusive_candidate(self):
        counts = {"good": (50, 0), "noise": (50, 40)}
        kept = inside_outside_filter({"good", "noise"}, counts, 0.08, 0.34)
        assert "good" in kept
        assert kept["good"].odds_ratio == math.inf

    def test_p_threshold_is_strict(self):
        counts = {"good": (50, 0), "noise": (50, 40)}
        kept = inside_outside_filter({"good", "noise"}, counts, 0.08, 0.34)
        p = kept["good"].p_value
        at_boundary = inside_outside_filter({"good", "noise"}, counts, p, 0.34)
        assert "good" not in at_boundary
        above = inside_outside_filter({"good", "noise"}, counts, math.nextafter(p, 1.0), 0.34)
        assert "good" in above

    def test_a_candidate_without_counts_is_a_key_error(self):
        for counts in (build_candidate_counts({"ab"}, {"xy"}), {"a": (1, 0)}):
            with pytest.raises(KeyError):
                inside_outside_filter({"a", "x"}, counts, None, None)

    def test_undefined_odds_dropped_when_ratio_test_on(self):
        counts = {"only": (5, 0)}
        assert inside_outside_filter({"only"}, counts, 0.5, 0.0) == {}

    def test_disabled_tests(self):
        # p-values: good 7.4e-11, noise 5.9e-3, meh 5.9e-2
        # odds ratios: good inf, noise 0.4375, meh 0.5714
        counts = {"good": (50, 0), "noise": (50, 40), "meh": (50, 35)}
        grams = set(counts)
        baseline = inside_outside_filter(grams, counts, 0.01, 0.5)
        assert set(baseline) == {"good"}
        no_p = inside_outside_filter(grams, counts, None, 0.5)
        assert set(no_p) == {"good", "meh"}
        no_r = inside_outside_filter(grams, counts, 0.01, None)
        assert set(no_r) == {"good", "noise"}
        # With the p test off, the p-value is still reported.
        assert no_p["meh"].p_value > 0.01


def plain_inside_outside_filter(candidates, counts, phi, chi):
    """The exact-test stage as one table-at-a-time Fisher test and odds ratio
    per candidate, the ratio test checked after the p-value test; a None
    threshold switches its test off."""
    inside_total = sum(counts[g][0] for g in candidates)
    outside_total = sum(counts[g][1] for g in candidates)
    kept = {}
    for gram in candidates:
        inside_c, outside_c = counts[gram]
        table = ContingencyTable(inside_c, inside_total - inside_c, outside_c, outside_total - outside_c)
        p_value = fisher_exact_two_sided(table)
        try:
            ratio = odds_ratio(table)
        except UndefinedOddsError:
            if chi is not None:
                continue
            ratio = None
        if phi is not None and not p_value < phi:
            continue
        if chi is not None and not ratio > chi:
            continue
        kept[gram] = (p_value, ratio)
    return kept


class TestInsideOutsideFilterMatchesPlainLoop:
    @pytest.fixture(scope="class")
    def lingua(self, synth):
        # Counted at theta=1: the tests below select at theta 1 and at the fixture's.
        config = PipelineConfig(theta=1, languages=("lingua",))
        ((_language, grams),) = count_grams(synth.corpus, synth.annotations, synth.alignments, config)
        return grams

    @pytest.mark.parametrize("chi", [0.34, None])
    @pytest.mark.parametrize("phi", [0.08, None])
    @pytest.mark.parametrize("theta", ["fixture", 1])
    def test_same_survivors_and_statistics(self, synth, lingua, theta, phi, chi):
        theta = synth.fixture.theta if theta == "fixture" else theta
        candidates = frequency_filter(lingua, theta)
        kept = inside_outside_filter(candidates, lingua, phi, chi)
        expected = plain_inside_outside_filter(candidates, lingua, phi, chi)
        assert {gram: tuple(result) for gram, result in kept.items()} == expected
        assert kept

    def test_ratio_filter_drops_grams_the_p_value_test_keeps(self, lingua):
        # So the odds-first skip is exercised by the comparison above.
        candidates = frequency_filter(lingua, 1)
        no_ratio = plain_inside_outside_filter(candidates, lingua, 0.08, None)
        both = plain_inside_outside_filter(candidates, lingua, 0.08, 0.34)
        assert set(both) < set(no_ratio)


def plain_selection(counts, config):
    """Reference for one config: the theta cut, the plain exact-test loop on
    every survivor, then the positional filter."""
    kept = plain_inside_outside_filter(sorted(frequency_filter(counts, config.theta)), counts, config.phi, config.chi)
    return [
        CandidateMarker(gram, *counts[gram], *kept[gram])
        for gram in sorted(kept)
        if position_of(gram) in config.positions
    ]


configs_with_repeated_thetas = st.lists(
    st.builds(
        PipelineConfig,
        theta=st.sampled_from([1, 2, 5]),
        phi=st.sampled_from([None, 0.08, 0.5]),
        chi=st.sampled_from([None, 0.0, 0.34, 2.0]),
        positions=st.sets(st.sampled_from(["final", "initial", "internal"]), min_size=1).map(frozenset),
    ),
    min_size=1,
    max_size=6,
)


class TestSelectionPerConfigMatchesPlainReference:
    """`extract_markers_per_config` shares one exact test per theta among its
    configs and filters positions before the test; config by config it must
    select what the plain stages select, in their original order."""

    @pytest.fixture(scope="class")
    def lingua_with_reference(self, synth):
        config = PipelineConfig(theta=1, languages=("lingua",))
        ((_language, grams),) = count_grams(synth.corpus, synth.annotations, synth.alignments, config)
        return grams, {}

    @settings(max_examples=40, deadline=None)
    @given(configs=configs_with_repeated_thetas)
    def test_on_the_fixture_counts(self, lingua_with_reference, configs):
        counts, reference = lingua_with_reference
        for config, selected in zip(configs, extract_markers_per_config(counts, configs)):
            key = (config.theta, config.phi, config.chi, config.positions)
            if key not in reference:  # the plain loop is slow at theta 1, so each config runs once
                reference[key] = plain_selection(counts, config)
            assert selected == reference[key]

    @settings(max_examples=300, deadline=None)
    @given(
        counts=st.dictionaries(
            st.text(alphabet="ab$", min_size=1, max_size=4),
            st.tuples(st.integers(1, 12), st.integers(0, 12)),
            max_size=12,
        ),
        outside_empty=st.booleans(),
        configs=configs_with_repeated_thetas,
    )
    # An undefined odds ratio is kept only with both tests off (its p-value is 1).
    @example(counts={"a$": (3, 0), "$b": (2, 0)}, outside_empty=False, configs=[
        PipelineConfig(theta=1, phi=None, chi=None), PipelineConfig(theta=1, phi=None), PipelineConfig(theta=2, chi=None),
    ])
    # One pair (3, 1), odds ratio 2.0, held by a final, an initial and an
    # internal gram: it passes chi 0.5 and fails chi 2.0, so a result kept
    # for one position or config must not reach another.
    @example(
        counts={"a$": (3, 1), "$b": (3, 1), "ab": (3, 1), "b$": (1, 4), "$a": (2, 0)},
        outside_empty=False,
        configs=[
            PipelineConfig(theta=1, phi=None, chi=0.5),
            PipelineConfig(theta=1, phi=None, chi=None, positions={"initial"}),
            PipelineConfig(theta=1, phi=0.9, chi=2.0, positions={"initial", "internal"}),
            PipelineConfig(theta=2, phi=None, chi=0.5, positions={"internal"}),
        ],
    )
    def test_on_random_counts(self, counts, outside_empty, configs):
        if outside_empty:  # every table is [a, b; 0, 0], so every odds ratio is 0/0
            counts = {gram: (inside, 0) for gram, (inside, _outside) in counts.items()}
        selected = extract_markers_per_config(counts, configs)
        assert selected == [plain_selection(counts, config) for config in configs]
        assert [extract_markers_for_language(counts, config) for config in configs] == selected


class TestSelectionPerPair:
    def test_one_odds_ratio_per_distinct_pair_and_theta(self, synth, monkeypatch):
        config = PipelineConfig(theta=1, languages=("lingua",))
        ((_language, counts),) = count_grams(synth.corpus, synth.annotations, synth.alignments, config)
        calls = []
        odds = ExactTest.odds_ratio

        def recording(test, a, c):
            calls.append((test.row1, test.row2, a, c))
            return odds(test, a, c)

        monkeypatch.setattr(ExactTest, "odds_ratio", recording)
        configs = [PipelineConfig(theta=synth.fixture.theta).with_variant(variant) for variant in ABLATION_VARIANTS]
        extract_markers_per_config(counts, configs)
        monkeypatch.undo()

        assert len(calls) == len(set(calls))
        thetas = {config.theta for config in configs}
        assert len({(row1, row2) for row1, row2, _a, _c in calls}) == len(thetas) == 2
        pairs = {theta: {counts[gram] for gram in frequency_filter(counts, theta)} for theta in thetas}
        assert len(calls) <= sum(map(len, pairs.values())) < len(counts)


class TestThetaCutOnCountsAtTheta:
    """Where every counted gram reaches a config's theta, the theta cut is the
    counts' keys rather than a `frequency_filter` copy; a gram below theta
    must still be cut, and kept out of the exact test's row totals."""

    @pytest.mark.parametrize(
        "theta, below",
        [(1, {"b$": (0, 4)}), (3, {"b$": (2, 1)}), (3, {"b$": (2, 1), "$ab": (0, 2)})],
    )
    def test_a_gram_below_theta_is_cut_and_left_out_of_the_totals(self, monkeypatch, theta, below):
        counts = {"a$": (5, 1), "ba$": (4, 0), "$a": (3, 3), "ab": (6, 2), **below}
        at_theta = {gram: pair for gram, pair in counts.items() if gram not in below}
        configs = [PipelineConfig(theta=theta, phi=None, chi=None, positions=POSITIONS), PipelineConfig(theta=theta)]
        cuts = []
        monkeypatch.setattr(extraction, "frequency_filter", lambda c, t: cuts.append(t) or frequency_filter(c, t))
        selected = extract_markers_per_config(counts, configs)
        assert cuts == [theta]
        assert selected[0] and not {marker.gram for marker in selected[0]} & set(below)
        assert selected == [plain_selection(counts, config) for config in configs]
        # Statistics taken on the totals of the other grams alone.
        assert extract_markers_per_config(at_theta, configs) == selected
        assert cuts == [theta]  # no gram of `at_theta` is below theta: no copy

    def test_counts_at_theta_select_as_the_plain_stages(self, synth, monkeypatch):
        theta = synth.fixture.theta
        config = PipelineConfig(theta=theta, languages=("lingua",))
        ((_language, counts),) = count_grams(synth.corpus, synth.annotations, synth.alignments, config)
        # Every variant but no_theta, so the middle and beginning position splits too.
        configs = [config.with_variant(v) for v in ABLATION_VARIANTS if v != "no_theta"]
        monkeypatch.setattr(extraction, "frequency_filter", None)  # the keys serve; a call would fail
        selected = extract_markers_per_config(counts, configs)
        monkeypatch.undo()
        assert selected == [plain_selection(counts, c) for c in configs]
        assert all(selected)
        assert extraction._by_position(counts.keys(), POSITIONS) == extraction._by_position(set(counts), POSITIONS)


class TestSuffixRestrict:
    def test_keeps_only_word_final(self):
        assert suffix_restrict({"ibus$", "$ovi", "i"}) == {"ibus$"}

    def test_empty(self):
        assert suffix_restrict(set()) == set()

    def test_whole_word_is_word_final(self):
        assert suffix_restrict({"$a$"}) == {"$a$"}


class TestPipelineConfig:
    def test_defaults_match_contract(self):
        config = PipelineConfig()
        assert (config.theta, config.phi, config.chi, config.positions) == (97, 0.08, 0.34, {"final"})

    def test_variants_cover_the_grid(self):
        config = PipelineConfig()
        assert config.with_variant("baseline") is config
        assert config.with_variant("no_theta").theta == 1
        assert config.with_variant("no_phi") == config._replace(phi=None)
        assert config.with_variant("no_chi") == config._replace(chi=None)
        assert config.with_variant("middle").positions == {"final", "internal"}
        assert config.with_variant("beginning").positions == {"final", "initial"}
        for variant in ("baseline", "no_theta", "no_phi", "no_chi"):
            assert config.with_variant(variant).positions == {"final"}
        with pytest.raises(ConfigurationError):
            config.with_variant("bogus")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(theta=0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(phi=0.0)
        with pytest.raises(ConfigurationError):
            PipelineConfig(chi=-0.1)
        PipelineConfig(phi=None, chi=None)  # both tests off
        PipelineConfig(theta=1, phi=1e-3, chi=0)  # an integer chi is a number
        for bad in (dict(theta=31.5), dict(theta=True), dict(theta=97.0), dict(theta="97"), dict(chi=True),
                    dict(phi=True), dict(chi="0.34"), dict(chi=math.nan), dict(phi=math.nan)):
            with pytest.raises(ConfigurationError):
                PipelineConfig(**bad)
        with pytest.raises(ConfigurationError):
            PipelineConfig(positions=frozenset())
        with pytest.raises(ConfigurationError):
            PipelineConfig(positions={"final", "medial"})


@settings(max_examples=150, deadline=None)
@given(word_sets, word_sets, st.integers(1, 6), st.integers(1, 6))
def test_chain_inclusion_and_theta_monotonicity(relevant, irrelevant, theta1, theta2):
    irrelevant = irrelevant - relevant
    counts = build_candidate_counts(relevant, irrelevant)
    c1 = set(counts)
    low, high = min(theta1, theta2), max(theta1, theta2)
    c2_low = frequency_filter(counts, low)
    c2_high = frequency_filter(counts, high)
    assert c2_high <= c2_low <= c1
    kept = set(inside_outside_filter(c2_low, counts, 0.5, 0.1))
    assert suffix_restrict(kept) <= kept <= c2_low


@settings(max_examples=100, deadline=None)
@given(word_sets, word_sets, st.floats(0.01, 0.5), st.floats(0.01, 0.5))
def test_phi_monotonicity(relevant, irrelevant, phi1, phi2):
    irrelevant = irrelevant - relevant
    counts = build_candidate_counts(relevant, irrelevant)
    c2 = frequency_filter(counts, 2)
    low, high = min(phi1, phi2), max(phi1, phi2)
    kept_low = set(inside_outside_filter(c2, counts, low, 0.0))
    kept_high = set(inside_outside_filter(c2, counts, high, 0.0))
    assert kept_low <= kept_high


class TestRunPipeline:
    def test_planted_suffixes_survive(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",))
        result = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
        assert result["lingua"].grams() == synth.fixture.gold

    def test_marker_fields_respect_thresholds(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",))
        result = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
        for marker in result["lingua"].markers:
            assert marker.inside_count >= config.theta
            assert marker.p_value < config.phi
            assert marker.odds_ratio > config.chi

    def test_language_filter(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",))
        result = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
        assert set(result) == {"lingua"}

    def test_middle_variant_admits_interior_grams(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",)).with_variant("middle")
        result = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
        grams = result["lingua"].grams()
        assert any(not g.endswith("$") for g in grams)


class TestThetaFloor:
    """count_grams keeps only the grams reaching the config's theta, so its
    counts serve configs at that theta or above and no lower."""

    @staticmethod
    def lingua_counts(synth, theta):
        config = PipelineConfig(theta=theta, languages=("lingua",))
        ((language, grams),) = count_grams(synth.corpus, synth.annotations, synth.alignments, config)
        assert language == "lingua"
        return grams

    def test_counts_are_the_theta_reaching_part_of_full_counts(self, synth):
        theta = synth.fixture.theta
        full, floor = self.lingua_counts(synth, 1), self.lingua_counts(synth, theta)
        assert floor == {gram: pair for gram, pair in full.items() if pair[0] >= theta}
        assert len(floor) < len(full)
        # The floor's counts select the same markers as a run at a higher theta.
        higher = PipelineConfig(theta=theta + 1, languages=("lingua",))
        expected = run_pipeline(synth.corpus, synth.annotations, synth.alignments, higher)["lingua"].markers
        assert set(extract_markers_for_language(floor, higher)) == expected

    def test_counts_at_each_theta_are_the_theta_reaching_part_of_full_counts(self, synth):
        full = self.lingua_counts(synth, 1)
        above_all = max(inside for inside, _outside in full.values()) + 1
        for theta in sorted({2, 3, 5, synth.fixture.theta, above_all}):
            expected = {gram: pair for gram, pair in full.items() if pair[0] >= theta}
            assert self.lingua_counts(synth, theta) == expected, theta
        assert expected == {}


class TestMarkerSet:
    def test_grams_are_built_with_the_set_and_equality_is_by_value(self):
        markers = frozenset({CandidateMarker("um$", 60, 0, 1.5e-9, math.inf), CandidateMarker("a$", 1, 0)})
        marker_set = MarkerSet("lingua", markers)
        assert marker_set.grams() == {"um$", "a$"}
        assert marker_set.grams() is marker_set.grams()
        same = MarkerSet("lingua", frozenset(markers))
        assert (same == marker_set, hash(same) == hash(marker_set)) == (True, True)
        assert marker_set != MarkerSet("tercia", markers)
        assert marker_set != MarkerSet("lingua", frozenset({CandidateMarker("um$", 60, 0, 1.5e-9, math.inf)}))


class TestMarkerFileRoundTrip:
    def test_round_trip_including_inf_and_na(self, tmp_path):
        marker_set = MarkerSet(
            language="lingua",
            markers=frozenset(
                {
                    CandidateMarker("um$", 60, 0, 1.5e-9, math.inf),
                    CandidateMarker("ibus$", 60, 2, 0.004, 12.5),
                    CandidateMarker("raw$", 10, 1, None, None),
                }
            ),
        )
        path = tmp_path / "lingua.tsv"
        write_marker_file(marker_set, path)
        loaded = read_marker_file(path)
        assert loaded.language == "lingua"
        assert loaded.markers == marker_set.markers

    def test_lines_are_sorted(self, tmp_path):
        marker_set = MarkerSet(
            language="x",
            markers=frozenset({CandidateMarker("b$", 1, 0), CandidateMarker("a$", 1, 0)}),
        )
        path = tmp_path / "x.tsv"
        write_marker_file(marker_set, path)
        grams = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert grams == sorted(grams)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "lingua.tsv"
        path.write_text("um$\t60\t0\tNA\tNA\n", encoding="utf-8")
        marker_set = MarkerSet(
            language="lingua",
            markers=frozenset({CandidateMarker("a$", 1, 0, 0.5, 2.0), CandidateMarker("b$", 1, 0, 0.5, 2.0)}),
        )
        calls = []

        def fail_in_second_line(value):
            calls.append(value)
            if len(calls) > 2:
                raise OSError("disk full")
            return repr(value)

        monkeypatch.setattr(extraction, "_format_stat", fail_in_second_line)
        with pytest.raises(OSError, match="disk full"):
            write_marker_file(marker_set, path)
        assert len(calls) == 3  # the first line was written before the failure
        assert path.read_text(encoding="utf-8") == "um$\t60\t0\tNA\tNA\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lingua.tsv"]
