"""Two exception types. Every refusal is a `UurError`, a `ValueError` whose
message is the CLI's `error:` line (exit 2, or 1 if `check` refuses its own
draw). `SearchSpaceTooLarge` is kept apart because the CLI exits 3 on it.
"""

from __future__ import annotations


class UurError(ValueError):
    """A refused input or problem; the message says what and why."""


class SearchSpaceTooLarge(UurError):
    """Subset search would exceed the configured cap; the message names the candidate count."""
