"""Structured pass/fail records shared by all verifiers."""

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of one verification: max residual vs the tolerance used.

    tolerance is None for a check decided without a tolerance, on integers.
    details carries check-specific payload (overlap tables, sweep ranges,
    the sign convention in force, failing pairs, ...); everything in it is
    JSON-serializable.
    """

    kind: str
    passed: bool
    tolerance: float | None
    max_residual: float
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed
