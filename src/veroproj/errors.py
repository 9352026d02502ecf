"""Shared exception types.

Most misuse is reported with plain ValueError carrying the offending
input in the message.  The classes here exist because callers need to
catch them specifically: the CLI maps GuardExceeded to its own exit
code, and parse errors for the little spec grammars carry the token
that failed.
"""

from __future__ import annotations

# the largest enumeration any computation starts without an explicit guard
DEFAULT_GUARD = 10**8


class GuardExceeded(RuntimeError):
    """An enumeration would exceed the configured size guard.

    Raised before any large allocation happens.  The exact count that
    tripped the guard is stored on the exception.
    """

    def __init__(self, what: str, count: int, guard: int):
        self.what = what
        self.count = count
        self.guard = guard
        super().__init__(
            f"{what} would enumerate {count} objects, exceeding the guard of {guard}; "
            f"raise the guard explicitly if this is intended"
        )


class SpecParseError(ValueError):
    """A group / order / family spec string failed to parse."""

    def __init__(self, kind: str, text: str, token: str, reason: str):
        self.kind = kind
        self.text = text
        self.token = token
        super().__init__(f"bad {kind} spec {text!r}: token {token!r}: {reason}")
