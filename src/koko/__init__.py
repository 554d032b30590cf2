"""Declarative semantic querying over dependency-parsed, entity-annotated
corpora, with a word/entity/parse-label/POS multi-index evaluation
pipeline and collective evidence aggregation."""

from .aggregate import (
    EvidenceEvaluator,
    EvidenceScore,
    ResultRow,
    apply_excluding,
    conf_descriptor,
    finalize_results,
)
from .corpus import (
    AnnotatedDocument,
    Corpus,
    PostingEntry,
    Sentence,
    Token,
    compute_tree_meta,
    entity_spans,
    is_parent,
    load_corpus,
    parse_corpus,
    serialize_corpus,
)
from .dpli import candidate_bindings, decompose, dominant_paths, join_all, join_word_path
from .engine import QueryRun, run_query
from .errors import (
    KokoDecomposeError,
    KokoError,
    KokoInputError,
    KokoNormalizeError,
    KokoQueryError,
    KokoResourceError,
    KokoSyntaxError,
)
from .gsp import estimate_cost, evaluate_sentence, generate_skip_plan
from .indexes import (
    IndexBundle,
    build_indexes,
    load_bundle,
    save_bundle,
)
from .normalize import NormalizedQuery, normalize
from .oracle import oracle_evaluate
from .parser import parse_query
from .resources import Resources, WordVectors, load_expansion_table
from .syntax import Query, pretty_print

__version__ = "0.1.0"

__all__ = [
    "AnnotatedDocument", "Corpus", "EvidenceEvaluator", "EvidenceScore",
    "IndexBundle", "KokoDecomposeError", "KokoError", "KokoInputError",
    "KokoNormalizeError", "KokoQueryError", "KokoResourceError",
    "KokoSyntaxError", "NormalizedQuery", "PostingEntry", "Query", "QueryRun",
    "Resources", "ResultRow", "Sentence", "Token", "WordVectors",
    "apply_excluding", "build_indexes", "candidate_bindings",
    "compute_tree_meta", "conf_descriptor", "decompose",
    "dominant_paths", "entity_spans", "estimate_cost",
    "evaluate_sentence", "finalize_results", "generate_skip_plan",
    "is_parent", "join_all", "join_word_path", "load_bundle", "load_corpus",
    "load_expansion_table", "normalize", "oracle_evaluate", "parse_corpus",
    "parse_query", "pretty_print", "run_query", "save_bundle",
    "serialize_corpus",
]
