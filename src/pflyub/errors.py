"""Exception types shared across the package.

Precondition violations (bad ranges, parity misuse, malformed arguments) raise
plain ValueError at the offending call site.  The classes below mark failures
of a mathematical cross-check, and carry the counterexample in their message.
"""

from __future__ import annotations


class VerificationError(AssertionError):
    """A verified identity or invariant failed; the message names the witness."""


class PathMismatchError(VerificationError):
    """The closed-form and composed factor lists disagree."""

    def __init__(self, n: int, k: int, s: int, factor: str, e: int, closed: int, composed: int):
        super().__init__(
            f"L({n},{k}): term {s}, coefficient of {factor}^{e} differs: closed={closed}, composed={composed}"
        )


class TableInvariantError(VerificationError):
    """A Lyubeznik table entry violates a structural invariant."""

    def __init__(self, n: int, k: int, detail: str, entry: tuple[int, int] | None = None):
        where = f" at (i,j)={entry}" if entry is not None else ""
        super().__init__(f"table({n},{k}){where}: {detail}")
