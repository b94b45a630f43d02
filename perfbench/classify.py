"""Classify what one `soundmdp solve` call printed.

The human-readable report ends in a line `certified   yes (ok)` or
`certified   no (<status>)`; failures print `error: <reason>` on standard
error and exit non-zero.  The reason of a solver that ran out of its sweep
budget is `cap`; a timed-out one says `timeout`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

CERTIFIED = "certified"
NOT_CERTIFIED = "not-certified"
ERROR = "error"

_CERTIFIED_LINE = re.compile(r"^certified\s+(yes|no)\s+\(([^)]*)\)\s*$", re.MULTILINE)
_RESULT_LINE = re.compile(r"^result\s+(\S+)\s*$", re.MULTILINE)
_ERROR_LINE = re.compile(r"^error:\s*(.*)$", re.MULTILINE)


@dataclass(frozen=True)
class Outcome:
    kind: str           # CERTIFIED, NOT_CERTIFIED or ERROR
    status: str         # ok, no-certificate, uncertified, cap, timeout or error
    value: float | None
    reason: str = ""


def classify(exit_code: int, stdout: str, stderr: str) -> Outcome:
    """Certified on `certified yes (ok)`, not certified on `certified no (...)`,
    error on a non-zero exit or an `error:` line."""
    err = _ERROR_LINE.search(stderr) or _ERROR_LINE.search(stdout)
    cert = _CERTIFIED_LINE.search(stdout)
    if exit_code != 0 or err is not None or cert is None:
        reason = err.group(1).strip() if err else f"exit code {exit_code}, no report"
        status = reason if reason in ("cap", "timeout") else "error"
        return Outcome(ERROR, status, None, reason)
    result = _RESULT_LINE.search(stdout)
    value = float(result.group(1)) if result else None
    if cert.group(1) == "yes" and cert.group(2) == "ok":
        return Outcome(CERTIFIED, "ok", value)
    return Outcome(NOT_CERTIFIED, cert.group(2), value)


def within_width(value: float | None, reference: float, epsilon: float,
                 slack: float) -> bool:
    """Whether a certified value lies within the requested relative width of
    its reference, allowing `slack` (relative) for the reference's own error."""
    if value is None or math.isnan(value):
        return False
    if math.isinf(reference) or math.isinf(value):
        return value == reference
    return abs(value - reference) <= (epsilon + slack) * abs(reference)
