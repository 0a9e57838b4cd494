"""Unsupervised extraction of nominal case markers from verse-parallel corpora."""

from .corpus import (
    Alignment,
    NpAnnotation,
    NpSpan,
    ParallelCorpus,
    VersionId,
    load_alignment,
    load_corpus,
    load_np_annotation,
)
from .errors import CasemarkError, ConfigurationError, CorpusError, ParseError, UndefinedOddsError
from .evaluation import PRF, macro_average, score
from .extraction import CandidateMarker, MarkerSet, PipelineConfig, run_pipeline
from .projection import (
    InsideOutsideCounts,
    ParallelNp,
    WordPartition,
    build_inside_outside,
    build_parallel_np_set,
    partition_word_types,
)
from .silver import SilverStandard, build_silver
from .stats import ContingencyTable, ExactTest, fisher_exact_two_sided, odds_ratio

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CandidateMarker",
    "CasemarkError",
    "ConfigurationError",
    "ContingencyTable",
    "CorpusError",
    "ExactTest",
    "InsideOutsideCounts",
    "MarkerSet",
    "NpAnnotation",
    "NpSpan",
    "PRF",
    "ParallelCorpus",
    "ParallelNp",
    "ParseError",
    "PipelineConfig",
    "SilverStandard",
    "UndefinedOddsError",
    "VersionId",
    "WordPartition",
    "build_inside_outside",
    "build_parallel_np_set",
    "build_silver",
    "fisher_exact_two_sided",
    "load_alignment",
    "load_corpus",
    "load_np_annotation",
    "macro_average",
    "odds_ratio",
    "partition_word_types",
    "run_pipeline",
    "score",
]
