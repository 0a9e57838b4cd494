import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import position_of

from casemark.errors import ConfigurationError
from casemark.evaluation import (
    PRF,
    AblationRow,
    diff_report,
    macro_average,
    render_ablation_table,
    render_diff_table,
    render_results_table,
    run_ablation,
    score,
)
from casemark import extraction, projection
from casemark.extraction import ABLATION_VARIANTS, PipelineConfig, run_pipeline
from casemark.stats import ExactTest

gram_sets = st.sets(st.sampled_from(["a$", "b$", "c$", "d$", "e$"]), max_size=5)


class TestScore:
    def test_identity(self):
        assert score({"a$"}, {"a$"}) == PRF(1.0, 1.0, 1.0)

    def test_half_overlap(self):
        assert score({"a$", "b$"}, {"b$", "c$"}) == PRF(0.5, 0.5, 0.5)

    def test_empty_prediction_against_gold(self):
        assert score(set(), {"a$"}) == PRF(0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert score(set(), set()) == PRF(1.0, 1.0, 1.0)

    def test_prediction_against_empty_gold(self):
        assert score({"a$"}, set()) == PRF(0.0, 0.0, 0.0)

    def test_f1_zero_iff_no_overlap(self):
        assert score({"a$"}, {"b$"}).f1 == 0.0
        assert score({"a$", "b$"}, {"b$"}).f1 > 0.0

    @settings(max_examples=200)
    @given(gram_sets, gram_sets)
    def test_precision_recall_duality(self, left, right):
        assert score(left, right).precision == score(right, left).recall

    @settings(max_examples=200)
    @given(gram_sets, gram_sets)
    def test_f1_bounds(self, left, right):
        result = score(left, right)
        assert 0.0 <= result.f1 <= 1.0
        assert (result.f1 == 0.0) == (not set(left) & set(right) and bool(left or right))


class TestMacroAverage:
    def test_two_languages(self):
        avg = macro_average([PRF(1, 1, 1), PRF(0, 0, 0)])
        assert avg == PRF(0.5, 0.5, 0.5)

    def test_single_language_is_identity(self):
        row = PRF(0.25, 0.75, 0.375)
        assert macro_average([row]) == row

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            macro_average([])

    def test_permutation_invariant(self):
        rng = random.Random(2)
        rows = [PRF(rng.random(), rng.random(), rng.random()) for _ in range(6)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        first = macro_average(rows)
        second = macro_average(shuffled)
        assert first.precision == pytest.approx(second.precision)
        assert first.recall == pytest.approx(second.recall)
        assert first.f1 == pytest.approx(second.f1)


class TestDiffReport:
    def test_identical(self):
        assert diff_report({"x"}, {"x"}) == ({"x"}, set(), set())

    def test_disjoint(self):
        assert diff_report({"x"}, {"y"}) == (set(), {"x"}, {"y"})

    @settings(max_examples=200)
    @given(gram_sets, gram_sets)
    def test_three_sets_partition_the_union(self, predicted, gold):
        both, pred_only, gold_only = diff_report(predicted, gold)
        assert both | pred_only | gold_only == set(predicted) | set(gold)
        assert not both & pred_only and not both & gold_only and not pred_only & gold_only


class TestRunAblation:
    def test_grid_on_synthetic_corpus(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta, languages=("lingua",))
        rows = run_ablation(
            synth.corpus,
            synth.annotations,
            synth.alignments,
            config,
            {"lingua": synth.fixture.gold},
        )
        assert [row.variant for row in rows] == list(ABLATION_VARIANTS)
        by_variant = {row.variant: row.macro for row in rows}
        assert by_variant["baseline"] == PRF(1.0, 1.0, 1.0)
        assert by_variant["no_phi"].precision < by_variant["baseline"].precision
        assert by_variant["middle"].precision < by_variant["baseline"].precision

    def test_counts_once_and_matches_pipeline_per_variant(self, synth, monkeypatch):
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        # Both bindings of the input check: extraction's, and projection's,
        # through which a projection function would check the inputs again.
        for module, name in [
            (extraction, "alignments_by_pair"), (projection, "alignments_by_pair"),
            (extraction, "build_inside_outside"), (extraction, "build_candidate_counts"),
        ]:
            counted(module, name)
        config = PipelineConfig(theta=synth.fixture.theta)
        gold = {"lingua": synth.fixture.gold, "tercia": {"um$", "a$"}}
        rows = run_ablation(synth.corpus, synth.annotations, synth.alignments, config, gold)
        # The inputs are checked once per run, and each scored language is
        # projected and counted once, not once per variant.
        assert calls == {
            "alignments_by_pair": 1, "build_inside_outside": len(gold), "build_candidate_counts": len(gold)
        }
        calls.clear()
        languages = synth.corpus.languages()
        assert len(languages) >= 2
        run_pipeline(synth.corpus, synth.annotations, synth.alignments, config)
        assert calls == {
            "alignments_by_pair": 1, "build_inside_outside": len(languages), "build_candidate_counts": len(languages)
        }

        monkeypatch.undo()
        expected = []
        for variant in ABLATION_VARIANTS:
            marker_sets = run_pipeline(synth.corpus, synth.annotations, synth.alignments, config.with_variant(variant))
            per_language = [score(marker_sets[lang].grams(), gold[lang]) for lang in sorted(gold)]
            expected.append(AblationRow(variant, macro_average(per_language)))
        assert rows == expected

    @pytest.mark.parametrize("with_no_theta", [True, False])
    def test_rows_match_selection_from_full_counts(self, synth, monkeypatch, with_no_theta):
        variants = tuple(v for v in ABLATION_VARIANTS if with_no_theta or v != "no_theta")
        config = PipelineConfig(theta=synth.fixture.theta)
        gold = {"lingua": synth.fixture.gold, "tercia": {"um$", "a$"}}
        counted_at = []
        original = extraction.build_candidate_counts

        def recording(relevant, irrelevant, theta=1):
            counted_at.append(theta)
            return original(relevant, irrelevant, theta)

        monkeypatch.setattr(extraction, "build_candidate_counts", recording)
        rows = run_ablation(synth.corpus, synth.annotations, synth.alignments, config, gold, variants)
        monkeypatch.undo()
        # The lowest theta of the grid: no_theta's 1, else the baseline's.
        assert counted_at == [1 if with_no_theta else config.theta] * len(gold)

        full = config._replace(theta=1, languages=tuple(sorted(gold)))
        counts = list(extraction.count_grams(synth.corpus, synth.annotations, synth.alignments, full))
        expected = []
        for variant in variants:
            per_language = []
            for language, grams in counts:
                markers = extraction.extract_markers_for_language(grams, config.with_variant(variant))
                per_language.append(score({m.gram for m in markers}, gold[language]))
            expected.append(AblationRow(variant, macro_average(per_language)))
        assert rows == expected

    def test_one_exact_test_per_theta_and_p_values_only_in_kept_positions(self, synth, monkeypatch):
        built = []

        class Recording(ExactTest):
            def __init__(self, row1, row2):
                super().__init__(row1, row2)
                self.requested = set()
                built.append(self)

            def p_value(self, a, c):
                self.requested.add((a, c))
                return super().p_value(a, c)

        monkeypatch.setattr(extraction, "ExactTest", Recording)
        config = PipelineConfig(theta=synth.fixture.theta)
        gold = {"lingua": synth.fixture.gold, "tercia": {"um$", "a$"}}
        run_ablation(synth.corpus, synth.annotations, synth.alignments, config, gold)
        monkeypatch.undo()

        # Per language and distinct theta of the grid: the row totals of the
        # theta survivors, and the (a, c) of the survivors in a position that
        # some variant at that theta keeps.
        variants = [config.with_variant(variant) for variant in ABLATION_VARIANTS]
        full = config._replace(theta=1, languages=tuple(sorted(gold)))
        allowed = {}
        for _language, grams in extraction.count_grams(synth.corpus, synth.annotations, synth.alignments, full):
            for theta in {variant.theta for variant in variants}:
                survivors = extraction.frequency_filter(grams, theta)
                rows = (sum(grams[g][0] for g in survivors), sum(grams[g][1] for g in survivors))
                positions = set().union(*(variant.positions for variant in variants if variant.theta == theta))
                allowed[rows] = {grams[g] for g in survivors if position_of(g) in positions}
        assert len(allowed) == 2 * len(gold)
        assert sorted((test.row1, test.row2) for test in built) == sorted(allowed)
        for test in built:
            assert test.requested <= allowed[test.row1, test.row2]
        # At theta 1 only word-final grams are kept, and some of them are tested.
        assert all(test.requested for test in built)

    def test_empty_gold_rejected(self, synth):
        config = PipelineConfig(theta=synth.fixture.theta)
        with pytest.raises(ConfigurationError, match="nothing to evaluate"):
            run_ablation(synth.corpus, synth.annotations, synth.alignments, config, {})


class TestRendering:
    def test_results_table(self):
        text = render_results_table({"latin": PRF(0.65, 0.56, 0.60)})
        lines = text.splitlines()
        assert lines[0] == "language\tprecision\trecall\tf1"
        assert lines[1] == "latin\t0.6500\t0.5600\t0.6000"
        assert lines[2].startswith("average\t")

    def test_ablation_table(self):
        from casemark.evaluation import AblationRow

        text = render_ablation_table([AblationRow("baseline", PRF(1, 1, 1))])
        assert "baseline\t1.0000\t1.0000\t1.0000" in text

    def test_diff_table_pads_columns(self):
        text = render_diff_table({"a$", "b$"}, {"b$", "c$", "d$"})
        lines = text.splitlines()
        assert lines[0] == "intersection\tpredicted_only\tgold_only"
        assert lines[1] == "b$\ta$\tc$"
        assert lines[2] == "\t\td$"
