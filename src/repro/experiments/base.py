"""Common machinery for the per-figure experiment harnesses.

Every experiment module exposes a ``run(...) -> ExperimentResult``.  An
:class:`ExperimentResult` carries the experiment id, a set of named
*checks* — each a measured value next to the paper's reported value and a
tolerance — plus free-form table rows for display.  Benchmarks print the
result and assert :meth:`ExperimentResult.qualitative_ok`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    """One paper-vs-measured comparison.

    ``kind`` controls how agreement is judged:

    * ``"close"`` — |measured - paper| <= tolerance (absolute);
    * ``"ratio"`` — measured/paper within [1/(1+tol), 1+tol];
    * ``"greater"`` / ``"less"`` — one-sided, paper value is the bound;
    * ``"info"`` — reported but never enforced.
    """

    name: str
    paper: float
    measured: float
    tolerance: float = 0.0
    kind: str = "close"

    def ok(self) -> bool:
        if self.kind == "info":
            return True
        if math.isnan(self.measured):
            return False
        if self.kind == "close":
            return abs(self.measured - self.paper) <= self.tolerance
        if self.kind == "ratio":
            if self.paper == 0:
                return self.measured == 0
            ratio = self.measured / self.paper
            return 1.0 / (1.0 + self.tolerance) <= ratio <= 1.0 + self.tolerance
        if self.kind == "greater":
            return self.measured > self.paper
        if self.kind == "less":
            return self.measured < self.paper
        raise ValueError(f"unknown check kind {self.kind!r}")

    def render(self) -> str:
        flag = "ok" if self.ok() else "MISMATCH"
        if self.kind == "info":
            flag = "--"
        return (
            f"  {self.name:<46s} paper={self.paper:>10.4g} "
            f"measured={self.measured:>10.4g}  [{flag}]"
        )


@dataclass
class ExperimentResult:
    """Outcome of one experiment: checks plus display rows."""

    experiment: str
    title: str
    checks: list[Check] = field(default_factory=list)
    rows: list[str] = field(default_factory=list)

    def add_check(
        self,
        name: str,
        paper: float,
        measured: float,
        *,
        tolerance: float = 0.0,
        kind: str = "close",
    ) -> None:
        self.checks.append(
            Check(
                name=name,
                paper=paper,
                measured=float(measured),
                tolerance=tolerance,
                kind=kind,
            )
        )

    def add_row(self, row: str) -> None:
        self.rows.append(row)

    def qualitative_ok(self) -> bool:
        """True when every enforced check agrees with the paper."""
        return all(check.ok() for check in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok()]

    def render(self) -> str:
        lines = [f"== {self.experiment}: {self.title} =="]
        lines.extend(self.rows)
        if self.checks:
            lines.append("  -- paper vs measured --")
            lines.extend(check.render() for check in self.checks)
        status = "PASS" if self.qualitative_ok() else "FAIL"
        lines.append(f"  => {status}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable form (for ``repro experiments --json``)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "pass": self.qualitative_ok(),
            "checks": [
                {
                    "name": c.name,
                    "paper": c.paper,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "kind": c.kind,
                    "ok": c.ok(),
                }
                for c in self.checks
            ],
            "rows": list(self.rows),
        }
