"""The table of universal-basis verification cases and how one is run.

The workflows themselves are in `universal`, which is imported only when
a case runs, so the `verify --case` choices cost no import of `universal`,
`matchings` or `lp`.
"""
from __future__ import annotations

CASES = {"A233": "verify_a233", "G36": "verify_g36", "G37_sampled": "verify_g37_sampled"}


class VerificationError(AssertionError):
    """A failed check of a case, with the offending matching if there is one."""

    def __init__(self, message: str, matching=None):
        self.matching = matching
        super().__init__(message)


def run_case(case: str, **kwargs):
    """Run a case of `CASES` and return its `universal.CaseReport`; its
    function is looked up now, so a rebound name wins."""
    from . import universal
    return getattr(universal, CASES[case])(**kwargs)
