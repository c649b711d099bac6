"""Exception types and the structured verdict/witness machinery.

Every validator returns a Verdict; constructors of validated objects run
the validator and raise ValidationError on failure.  There is one error
for every failed check: it carries the verdict, whose clause names the
kind of failure, so callers (and the CLI) can print clause and witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class AvgLieError(Exception):
    """Base of all library errors."""


class ParseError(AvgLieError):
    """Malformed scalar, field tag or document."""


class DimensionMismatch(AvgLieError):
    """Operands with incompatible shapes or fields."""


class FieldTooLarge(AvgLieError):
    """A computation would exceed its desk-scale budget: an exhaustive
    enumeration with too many candidates, or a cohomology differential
    with too many dense matrix cells.  The message names the estimate."""


@dataclass(frozen=True)
class Witness:
    """Basis indices plus both exactly evaluated sides of a failed identity."""

    indices: tuple
    lhs: tuple
    rhs: tuple

    def as_strings(self):
        """Both sides as strings: scalars and counts alike print with str."""
        return {
            "indices": list(self.indices),
            "lhs": [str(v) for v in self.lhs],
            "rhs": [str(v) for v in self.rhs],
        }


@dataclass
class Verdict:
    """Outcome of a validator: pass, or first failure with clause + witness."""

    ok: bool
    clause: str | None = None
    witness: Witness | None = None
    notes: dict = field(default_factory=dict)

    def __bool__(self):
        return self.ok

    @staticmethod
    def passed(**notes):
        return Verdict(True, notes=dict(notes))

    @staticmethod
    def failed(clause, indices, lhs, rhs, **notes):
        lhs = tuple(lhs) if isinstance(lhs, (tuple, list)) else (lhs,)
        rhs = tuple(rhs) if isinstance(rhs, (tuple, list)) else (rhs,)
        return Verdict(False, clause, Witness(tuple(indices), lhs, rhs), dict(notes))


class ValidationError(AvgLieError):
    """A validator failed; carries the verdict."""

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        super().__init__(f"validation failed at clause {verdict.clause}")


class InternalError(AvgLieError):
    """A theorem-backed postcondition failed: signals a library bug."""
