"""Declarative semantic querying over dependency-parsed, entity-annotated
corpora, with a word/entity/parse-label/POS multi-index evaluation
pipeline and collective evidence aggregation.

`oracle_evaluate`, the brute-force reference, is loaded at its first use:
only `koko verify` and the tests run it, so no query process imports it."""

from .corpus import Corpus, load_corpus, serialize_corpus
from .engine import run_query
from .errors import KokoError, KokoInputError, KokoQueryError, KokoResourceError, KokoSyntaxError
from .indexes import build_indexes, load_bundle, save_bundle
from .parser import parse_query
from .resources import Resources

__version__ = "0.1.0"

__all__ = [
    "Corpus", "KokoError", "KokoInputError", "KokoQueryError",
    "KokoResourceError", "KokoSyntaxError", "Resources", "build_indexes", "load_bundle",
    "load_corpus", "oracle_evaluate", "parse_query", "run_query",
    "save_bundle", "serialize_corpus",
]


def __getattr__(name: str):
    if name == "oracle_evaluate":
        from .oracle import oracle_evaluate

        return oracle_evaluate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
