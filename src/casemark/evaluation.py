"""Scoring extracted markers against silver standards, plus the ablation grid.

All comparisons are exact string matches on boundary-terminated grams.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import Alignment, ParallelCorpus
from .errors import ConfigurationError
from .extraction import ABLATION_VARIANTS, PipelineConfig, count_grams, extract_markers_per_config
from .projection import NpAnnotation


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float


class AblationRow(NamedTuple):
    variant: str
    macro: PRF


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def score(predicted: Iterable[str], gold: Iterable[str]) -> PRF:
    """Exact-match set precision/recall/F1.

    Empty prediction against non-empty gold scores (0, 0, 0); two empty sets
    score (1, 1, 1).
    """
    predicted = set(predicted)
    gold = set(gold)
    if not predicted and not gold:
        return PRF(1.0, 1.0, 1.0)
    hits = len(predicted & gold)
    precision = hits / len(predicted) if predicted else 0.0
    recall = hits / len(gold) if gold else 0.0
    return PRF(precision, recall, _f1(precision, recall))


def macro_average(rows: Sequence[PRF]) -> PRF:
    """Unweighted mean of precision, recall, and F1 (F1 averaged directly)."""
    if not rows:
        raise ConfigurationError("macro_average needs at least one language")
    n = len(rows)
    return PRF(
        precision=sum(r.precision for r in rows) / n,
        recall=sum(r.recall for r in rows) / n,
        f1=sum(r.f1 for r in rows) / n,
    )


def diff_report(predicted: Iterable[str], gold: Iterable[str]) -> tuple[set[str], set[str], set[str]]:
    """(intersection, predicted-only, gold-only)."""
    predicted = set(predicted)
    gold = set(gold)
    return predicted & gold, predicted - gold, gold - predicted


def run_ablation(
    corpus: ParallelCorpus,
    annotations: Sequence[NpAnnotation],
    alignments: Sequence[Alignment],
    config: PipelineConfig,
    gold_by_language: Mapping[str, Iterable[str]],
    variants: Sequence[str] = ABLATION_VARIANTS,
) -> list[AblationRow]:
    """Count grams once, at the lowest theta of the variants, select markers
    for all variants at once from those counts (one exact test per theta),
    and macro-average each variant against the same silver standards."""
    scorable = sorted(gold_by_language)
    if not scorable:
        raise ConfigurationError("nothing to evaluate: no silver standards given")
    # Only the scored languages are counted; the others would be discarded.
    languages = tuple(lang for lang in scorable if config.wants_language(lang))
    theta = min((config.with_variant(variant).theta for variant in variants), default=config.theta)
    wanted = config._replace(languages=languages, theta=theta)
    per_language: dict[str, dict[str, PRF]] = {}
    for language, count in count_grams(corpus, annotations, alignments, wanted):
        gold = set(gold_by_language[language])
        selected = extract_markers_per_config(count(), [config.with_variant(variant) for variant in variants])
        per_language[language] = {v: score({m.gram for m in markers}, gold) for v, markers in zip(variants, selected)}
    for language in scorable:
        if language not in per_language:
            raise ConfigurationError(f"no extraction output for silver language {language!r}")
    return [
        AblationRow(variant=variant, macro=macro_average([per_language[lang][variant] for lang in scorable]))
        for variant in variants
    ]


def render_results_table(per_language: Mapping[str, PRF]) -> str:
    """Tab-separated language/P/R/F1 table with an average row."""
    lines = ["language\tprecision\trecall\tf1"]
    for language in sorted(per_language):
        row = per_language[language]
        lines.append(f"{language}\t{row.precision:.4f}\t{row.recall:.4f}\t{row.f1:.4f}")
    if per_language:
        avg = macro_average([per_language[lang] for lang in sorted(per_language)])
        lines.append(f"average\t{avg.precision:.4f}\t{avg.recall:.4f}\t{avg.f1:.4f}")
    return "\n".join(lines) + "\n"


def render_ablation_table(rows: Sequence[AblationRow]) -> str:
    lines = ["variant\tprecision\trecall\tf1"]
    for row in rows:
        lines.append(f"{row.variant}\t{row.macro.precision:.4f}\t{row.macro.recall:.4f}\t{row.macro.f1:.4f}")
    return "\n".join(lines) + "\n"


def render_diff_table(predicted: Iterable[str], gold: Iterable[str]) -> str:
    """Three aligned columns: intersection, predicted-only, gold-only."""
    both, pred_only, gold_only = (sorted(s) for s in diff_report(predicted, gold))
    lines = ["intersection\tpredicted_only\tgold_only"]
    for i in range(max(len(both), len(pred_only), len(gold_only), 0)):
        cells = [
            both[i] if i < len(both) else "",
            pred_only[i] if i < len(pred_only) else "",
            gold_only[i] if i < len(gold_only) else "",
        ]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
