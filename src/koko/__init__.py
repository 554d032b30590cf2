"""Declarative semantic querying over dependency-parsed, entity-annotated
corpora, with a word/entity/parse-label/POS multi-index evaluation
pipeline and collective evidence aggregation."""

from .corpus import Corpus, load_corpus, serialize_corpus
from .engine import run_query
from .errors import (
    KokoDecomposeError,
    KokoError,
    KokoInputError,
    KokoNormalizeError,
    KokoQueryError,
    KokoResourceError,
    KokoSyntaxError,
)
from .indexes import build_indexes, load_bundle, save_bundle
from .oracle import oracle_evaluate
from .parser import parse_query
from .resources import Resources

__version__ = "0.1.0"

__all__ = [
    "Corpus", "KokoDecomposeError", "KokoError", "KokoInputError",
    "KokoNormalizeError", "KokoQueryError", "KokoResourceError",
    "KokoSyntaxError", "Resources", "build_indexes", "load_bundle",
    "load_corpus", "oracle_evaluate", "parse_query", "run_query",
    "save_bundle", "serialize_corpus",
]
