"""Structured result records: certificates, norms, entropy values, reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NonFiniteValueError


#: verdict values, in the order they are considered
HOLDS = "holds"
HOLDS_STAT = "holds-within-stat-error"
VIOLATED = "violated"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"

#: statistical gate: a Monte Carlo verdict flips to "violated" only beyond
#: this many standard errors
Z_STAT = 4.0


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Outcome of a sign check for D or D^2 over a corpus of states.

    ``witness`` is None when the property held everywhere that was probed;
    otherwise it is a tuple ``(counts, atoms, value)`` with ``counts`` the
    configuration as a tuple of ints, ``atoms`` the atom index (or pair of
    indices for D^2), and ``value`` the offending difference.
    """

    kind: str  # "exact" | "sampled"
    property: str  # "DF<=0" | "DF>=0" | "D2F<=0" | "D2F>=0"
    states_checked: int
    witness: tuple | None = None

    @property
    def valid(self) -> bool:
        return self.witness is None

    def brief(self) -> str:
        status = "ok" if self.valid else "witness"
        return f"{self.property}:{self.kind}:{status}"


@dataclass(frozen=True)
class LpNorm:
    """An L^p norm value; ``stderr`` is set in Monte Carlo mode.

    For p = inf in Monte Carlo mode the value is a lower bound (max over
    samples), flagged by ``lower_bound``.
    """

    p: float
    value: float
    stderr: float | None = None
    lower_bound: bool = False


@dataclass(frozen=True)
class EntropyValue:
    """Ent(F) = E[F log F] - E[F] log E[F], with the 0*log(0) = 0 convention.

    ``convention_hits`` counts how many probed states evaluated 0*log(0).
    """

    value: float
    convention_hits: int = 0


@dataclass
class InequalityReport:
    """One checked (in)equality: lhs <= rhs, or lhs = rhs for equality forms.

    ``slack`` is rhs - lhs. For equality-form checks the verdict compares
    |lhs - rhs| against the tolerance instead.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    verdict: str
    stderr: float | None = None
    tolerance: float | None = None
    equality_form: bool = False
    hypothesis_certificates: list[MonotonicityCertificate] = field(default_factory=list)
    parameters: dict = field(default_factory=dict)
    tag: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in (HOLDS, HOLDS_STAT)


def make_report(
    name,
    lhs,
    rhs,
    *,
    tolerance=None,
    stderr=None,
    equality_form=False,
    certificates=None,
    parameters=None,
    hypothesis_met=True,
):
    """Assemble a report, deriving the verdict from lhs/rhs and the error model.

    Exact mode (stderr None): a one-sided check is violated when
    lhs > rhs + tolerance; an equality check when |lhs - rhs| > tolerance.
    Monte Carlo mode: the same with ``Z_STAT * stderr`` in place of the
    tolerance, and the in-between zone reported as holds-within-stat-error.
    A stderr that is not a finite double raises NonFiniteValueError, since
    no statistical verdict can be stated with it.
    """
    if stderr is not None and not math.isfinite(stderr):
        raise NonFiniteValueError(f"the standard error of {name} is not a finite double")
    certificates = list(certificates or [])
    parameters = dict(parameters or {})
    slack = rhs - lhs
    # hypothesis_met is authoritative: gated checkers fold certificate
    # validity into it, and counterexample demos set it True to force a
    # genuine verdict despite failed certificates.
    if not hypothesis_met:
        verdict = HYPOTHESIS_NOT_MET
    else:
        gap = abs(lhs - rhs) if equality_form else lhs - rhs
        if stderr is not None:
            if gap <= 0:
                verdict = HOLDS
            elif gap <= Z_STAT * stderr:
                verdict = HOLDS_STAT
            else:
                verdict = VIOLATED
        else:
            tol = 0.0 if tolerance is None else tolerance
            verdict = HOLDS if gap <= tol else VIOLATED
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        verdict=verdict,
        stderr=None if stderr is None else float(stderr),
        tolerance=None if tolerance is None else float(tolerance),
        equality_form=equality_form,
        hypothesis_certificates=certificates,
        parameters=parameters,
    )
