"""Exception hierarchy shared across the engine.

Exit-code mapping used by the CLI: input-format problems (corpus or index
files) are ``KokoInputError`` (exit 2); query-side problems are
``KokoQueryError`` (exit 3): an invalid query, which the parser refuses
as a ``KokoSyntaxError`` at the token at fault, or a missing or malformed
resource, a ``KokoResourceError``.
"""


class KokoError(Exception):
    pass


class KokoInputError(KokoError):
    """Malformed corpus file, index file, or version/fingerprint mismatch."""


class KokoQueryError(KokoError):
    """Problem with the query itself or resources it needs."""


class KokoSyntaxError(KokoQueryError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class KokoResourceError(KokoQueryError):
    pass
