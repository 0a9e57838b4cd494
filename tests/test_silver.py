import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_lines

from casemark.errors import ParseError
from casemark.silver import (
    ParadigmEntry,
    build_silver,
    extract_suffixes,
    filter_pos,
    induce_root,
    parse_paradigms,
    read_silver_file,
    write_silver_file,
)

ABFLUG_ROWS = [
    "Abflug\tAbflug\tN;NOM;SG",
    "Abflug\tAbfluges\tN;GEN;SG",
    "Abflug\tAbflug\tN;DAT;SG",
    "Abflug\tAbflug\tN;ACC;SG",
    "Abflug\tAbflüge\tN;NOM;PL",
    "Abflug\tAbflüge\tN;GEN;PL",
    "Abflug\tAbflügen\tN;DAT;PL",
    "Abflug\tAbflüge\tN;ACC;PL",
]

ABFLUG_FORMS = [row.split("\t")[1] for row in ABFLUG_ROWS]


class TestParseParadigms:
    def test_row_parsing(self, tmp_path):
        path = write_lines(tmp_path / "deu.tsv", ["Abflug\tAbfluges\tN;GEN;SG"])
        paradigms = parse_paradigms(path)
        assert paradigms == {
            "Abflug": [ParadigmEntry("Abflug", "Abfluges", ("N", "GEN", "SG"))]
        }

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(tmp_path / "deu.tsv", ["", "Abflug\tAbflug\tN;NOM;SG", ""])
        assert len(parse_paradigms(path)) == 1

    def test_short_line_is_parse_error_with_location(self, tmp_path):
        path = write_lines(tmp_path / "deu.tsv", ["Abflug\tAbfluges"])
        with pytest.raises(ParseError, match=r"deu\.tsv:1"):
            parse_paradigms(path)

    def test_grouping_by_lemma(self, tmp_path):
        path = write_lines(
            tmp_path / "deu.tsv",
            ["a\tax\tN;NOM", "b\tbx\tN;NOM", "a\tay\tN;GEN"],
        )
        paradigms = parse_paradigms(path)
        assert {lemma: len(rows) for lemma, rows in paradigms.items()} == {"a": 2, "b": 1}


class TestFilterPos:
    def test_keeps_nouns_and_adjectives(self):
        paradigms = {
            "n": [ParadigmEntry("n", "nx", ("N", "NOM", "SG"))],
            "adj": [ParadigmEntry("adj", "adjx", ("ADJ", "NOM"))],
            "v": [ParadigmEntry("v", "vx", ("V", "PST"))],
            "adv": [ParadigmEntry("adv", "advx", ("ADV",))],
        }
        assert set(filter_pos(paradigms)) == {"n", "adj"}

    def test_mixed_paradigm_keeps_nominal_rows_only(self):
        paradigms = {
            "m": [
                ParadigmEntry("m", "ma", ("N", "NOM")),
                ParadigmEntry("m", "mb", ("V", "PST")),
            ]
        }
        kept = filter_pos(paradigms)
        assert [e.form for e in kept["m"]] == ["ma"]


class TestInduceRoot:
    def test_abflug_paradigm(self):
        assert induce_root(ABFLUG_FORMS, "Abflug") == "Abflug"

    def test_all_forms_identical(self):
        assert induce_root(["x", "x", "x"], "x") == "x"

    def test_tie_prefers_nominative_singular(self):
        assert induce_root(["xy", "xy", "xz", "xz"], "x") == "x"

    def test_longer_prefix_wins(self):
        assert induce_root(["abcde", "abcde", "abcdf", "abcdf"], "ab") == "abcd"

    def test_fallback_when_everything_is_unique(self):
        # nothing survives pruning, so the full multiset is used
        assert induce_root(["ba", "bo"], "b") == "b"

    def test_pruning_is_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            forms = [rng.choice(["aa", "ab", "ac", "ad"]) for _ in range(rng.randrange(1, 9))]
            from collections import Counter

            counts = Counter(forms)
            once = [f for f in forms if counts[f] > 1]
            counts2 = Counter(once)
            twice = [f for f in once if counts2[f] > 1]
            assert once == twice


class TestLongestCommonPrefix:
    """With every form repeated (so pruning keeps them all) and an empty
    citation form, the root is the longest common prefix of the forms."""

    @settings(max_examples=200)
    @given(st.lists(st.text(alphabet="abc", min_size=0, max_size=5), min_size=1, max_size=5))
    def test_matches_brute_force(self, items):
        prefix = induce_root(items * 2, "")
        assert all(word.startswith(prefix) for word in items)
        shortest = min(items, key=len)
        if len(prefix) < len(shortest):
            longer = shortest[: len(prefix) + 1]
            assert not all(word.startswith(longer) for word in items)


class TestExtractSuffixes:
    def test_abflug_yields_es_only(self):
        assert extract_suffixes(ABFLUG_FORMS, "Abflug") == {"es$"}

    def test_simple_remainder(self):
        assert extract_suffixes(["abc"], "ab") == {"c$"}

    def test_root_longer_than_forms(self):
        assert extract_suffixes(["ab"], "abcd") == set()

    def test_bare_root_contributes_nothing(self):
        assert extract_suffixes(["ab"], "ab") == set()

    @pytest.mark.parametrize("form", ["casa de", "casa ", "casa\u00a0de", "casa\u3000de", "casa\rde"])
    def test_form_holding_whitespace_contributes_nothing(self, form):
        assert extract_suffixes(["casa", form, "casas"], "casa") == {"s$"}

    @settings(max_examples=150)
    @given(st.sets(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=6))
    def test_root_prefix_property(self, forms):
        root = sorted(forms)[0][:2] or "a"
        for suffix in extract_suffixes(forms, root):
            assert root + suffix[:-1] in forms
            assert suffix.endswith("$")
            assert suffix != "$"


class TestBuildSilver:
    def test_abflug_golden(self, tmp_path):
        path = write_lines(tmp_path / "deu.tsv", ABFLUG_ROWS)
        standard = build_silver(path, "german")
        assert standard.suffixes == frozenset({"es$"})
        assert standard.diagnostics == {"paradigms_used": 1, "suffixes_emitted": 1}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        standard = build_silver(path, "nil")
        assert standard.suffixes == frozenset()
        assert standard.diagnostics == {"paradigms_used": 0, "suffixes_emitted": 0}

    def test_russian_style_case_endings(self, tmp_path):
        rows = [
            "стол\tстол\tN;NOM;SG",
            "стол\tстол\tN;ACC;SG",
            "стол\tстолах\tN;ESS;PL",
            "стол\tстолам\tN;DAT;PL",
            "стол\tстолами\tN;INS;PL",
        ]
        path = write_lines(tmp_path / "rus.tsv", rows)
        standard = build_silver(path, "russian")
        assert {"ах$", "ам$", "ами$"} <= standard.suffixes

    def test_row_order_does_not_matter(self, tmp_path):
        rng = random.Random(13)
        rows = list(ABFLUG_ROWS)
        baseline = None
        for i in range(5):
            rng.shuffle(rows)
            path = write_lines(tmp_path / f"deu{i}.tsv", rows)
            suffixes = build_silver(path, "german").suffixes
            baseline = suffixes if baseline is None else baseline
            assert suffixes == baseline

    def test_multiword_form_gives_no_suffix_the_silver_file_cannot_hold(self, tmp_path):
        # A line of a silver file is read back stripped, so ` de$` would
        # come back as `de$`, a suffix no paradigm gave.
        rows = ["casa\tcasa\tN;NOM;SG", "casa\tcasa de\tN;GEN;SG", "casa\tcasas\tN;NOM;PL"]
        standard = build_silver(write_lines(tmp_path / "spa.tsv", rows), "spanish")
        assert standard.suffixes == {"s$"}
        write_silver_file(standard, tmp_path / "spanish.txt")
        assert read_silver_file(tmp_path / "spanish.txt") == standard.suffixes

    def test_verb_only_file_yields_nothing(self, tmp_path):
        path = write_lines(tmp_path / "v.tsv", ["geh\tging\tV;PST"])
        standard = build_silver(path, "german")
        assert standard.suffixes == frozenset()


def test_silver_file_round_trip(tmp_path):
    from casemark.silver import SilverStandard

    standard = SilverStandard(
        language="german", suffixes=frozenset({"es$", "en$"}), diagnostics={}
    )
    path = tmp_path / "german.txt"
    write_silver_file(standard, path)
    assert path.read_text(encoding="utf-8") == "en$\nes$\n"
    assert read_silver_file(path) == {"es$", "en$"}
