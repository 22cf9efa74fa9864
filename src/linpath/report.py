"""Structured pass/fail evidence shared by the finder and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    observed: str
    passed: bool


@dataclass
class VerificationReport:
    """Self-contained evidence for one verification subject."""

    subject: str
    checks: List[Check] = field(default_factory=list)
    witnesses: List[str] = field(default_factory=list)

    def add(self, name: str, expected, observed, passed: bool) -> None:
        self.checks.append(Check(name, str(expected), str(observed), passed))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(
                f"check {c.name}: expected {c.expected} observed {c.observed} {verdict}"
            )
        for w in self.witnesses:
            lines.append(f"witness: {w}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


@dataclass
class ViolationReport:
    """Why a guaranteed-path run stopped without reaching its target.

    LemmaStepFailed carries enough to replay: it would witness either a bug
    or a flaw in the underlying argument and must never be swallowed.
    """

    reason: str  # HypothesisUnmet | LemmaStepFailed | BudgetExhausted
    detail: str
    snapshot: Optional[object] = None  # PathContext at the failure point
