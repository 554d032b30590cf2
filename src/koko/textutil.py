"""Regex-subset compilation and token-level string helpers.

All regular expressions accepted by the query language pass through
``compile_pattern`` so the same conservative dialect applies everywhere:
literals, ``.``, character classes, ``()`` groups, ``|`` alternation,
``* + ?`` and ``{m,n}`` quantifiers, ``^ $`` anchors and plain escapes.
Backreferences, lookaround and named groups are rejected.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from functools import lru_cache

from .errors import KokoQueryError

_ALLOWED_ESCAPES = set("dDwWsSbB\\.^$*+?()[]{}|/'\"- tnr0123456789")
_FORBIDDEN = re.compile(r"\(\?|\\[1-9]")


def _check_dialect(pattern: str) -> None:
    if _FORBIDDEN.search(pattern):
        raise KokoQueryError(
            f"regex {pattern!r} uses a construct outside the supported dialect"
        )
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= len(pattern) or pattern[i + 1] not in _ALLOWED_ESCAPES:
                raise KokoQueryError(f"regex {pattern!r} has an unsupported escape at {i}")
            i += 2
        else:
            i += 1


@lru_cache(maxsize=4096)
def compile_pattern(pattern: str) -> re.Pattern[str]:
    _check_dialect(pattern)
    try:
        return re.compile(pattern)
    except (re.error, OverflowError, RecursionError) as exc:
        # OverflowError: a repeat count above sre's limit; RecursionError:
        # groups nested too deep for the compiler.
        raise KokoQueryError(f"invalid regex {pattern!r}: {exc}") from None


def full_match(pattern: str, text: str) -> bool:
    return compile_pattern(pattern).fullmatch(text) is not None


_PUNCT = set(",.!?;:()[]{}\"'")


def tokenize_literal(text: str) -> list[str]:
    """Split a query literal the way the corpus tokenizer would have.

    Whitespace separates tokens; leading and trailing punctuation
    characters become their own tokens, so ", a cafe" aligns with corpus
    token sequences like [,][a][cafe].
    """
    out: list[str] = []
    for chunk in text.split():
        start = 0
        end = len(chunk)
        lead: list[str] = []
        while start < end and chunk[start] in _PUNCT:
            lead.append(chunk[start])
            start += 1
        trail: list[str] = []
        while end > start and chunk[end - 1] in _PUNCT:
            trail.append(chunk[end - 1])
            end -= 1
        out.extend(lead)
        if end > start:
            out.append(chunk[start:end])
        out.extend(reversed(trail))
    return out


def find_token_seq(haystack: tuple[str, ...], needle: tuple[str, ...]) -> list[int]:
    """Start offsets of every contiguous occurrence of needle in haystack.

    Both are tuples, as `Sentence.tokens` is: a slice of a tuple never
    equals a list."""
    if not needle:
        return []
    first, m = needle[0], len(needle)
    out: list[int] = []
    i = -1
    # Each occurrence of the first token, found by the tuple's own scan.
    for _ in range(haystack.count(first)):
        i = haystack.index(first, i + 1)
        if haystack[i : i + m] == needle:
            out.append(i)
    return out


def in_order_positions(words: list[str], phrase: Sequence[str]) -> list[int] | None:
    """Leftmost in-order match of phrase within words, gaps allowed: the
    matched indices, or None. Descriptor phrases are compared this way,
    with words and phrase already lowercased."""
    if not phrase:
        return None
    out: list[int] = []
    i = 0
    for target in phrase:
        while i < len(words) and words[i] != target:
            i += 1
        if i == len(words):
            return None
        out.append(i)
        i += 1
    return out
