"""Ensemble parameters and conversions between the three parameterizations.

The ensemble is specified by (n, beta, n1, n2).  For asymptotics we work with
the ratios p = n1/n, q = n2/n and the shape parameters a = 1/(p+q),
b = p/(p+q); the spectral support is the interval [lambda_minus, lambda_plus].
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .errors import ExtremalRegimeError, ParameterError

__all__ = [
    "EnsembleParams",
    "AsymptoticParams",
    "SupportInterval",
    "from_ratios",
    "from_shape",
    "shape_params",
    "derive_asymptotic",
    "support_edges",
    "checked_int",
]


def checked_int(name: str, value, low: int, high: Optional[int] = None) -> int:
    """int(value) if value is an integer in [low, high]; else ParameterError.

    numpy integers count, bool does not.  Every public count, order, node
    count, replicate count and seed goes through this one rule.
    """
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(f"{name} must be an integer {bounds}, got {value!r}")


def _checked_beta(beta: float) -> float:
    """beta itself if it is a positive finite real; else ParameterError."""
    if not (beta > 0) or not math.isfinite(beta):
        raise ParameterError(f"beta must be a positive real, got {beta!r}")
    return beta


@dataclass(frozen=True)
class EnsembleParams:
    """Finite-n ensemble parameters (n, beta, n1, n2).

    n1 and n2 may be non-integer reals; the density is integrable only for
    n1, n2 > n - 1, where the Selberg shape beta/2 (n1 - n + 1) is positive.
    Immutable and hashable.
    """

    n: int
    beta: float
    n1: float
    n2: float

    def __post_init__(self):
        object.__setattr__(self, "n", checked_int("n", self.n, 1))
        _checked_beta(self.beta)
        for name in ("n1", "n2"):
            val = getattr(self, name)
            if not math.isfinite(val) or val <= self.n - 1:
                raise ParameterError(
                    f"{name} must satisfy {name} > n - 1 = {self.n - 1}, got {val!r}"
                )


@dataclass(frozen=True)
class AsymptoticParams:
    """Proportional-regime parameters (p, q) and shapes (a, b, alpha).

    extremal is True when p + q <= 2 (equivalently a >= 1/2) or p or q is
    below 1; the model is still simulable there but the asymptotic formulas
    do not apply.  Bulk parameters need p, q >= 1.
    """

    p: float
    q: float
    a: float
    b: float
    alpha: float
    extremal: bool = False

    def __post_init__(self):
        if not self.extremal and (self.p < 1.0 - 1e-12 or self.q < 1.0 - 1e-12):
            raise ParameterError(f"need p, q >= 1, got p={self.p}, q={self.q}")
        if not (self.alpha > 0):
            raise ParameterError(f"alpha must be positive, got {self.alpha}")

    def require_bulk(self) -> "AsymptoticParams":
        """Return self, or raise if the parameters are extremal."""
        if self.extremal:
            raise ExtremalRegimeError(
                f"asymptotic formula needs p, q >= 1 and p + q > 2, got p={self.p}, q={self.q}"
            )
        return self


@dataclass(frozen=True)
class SupportInterval:
    """Support [lambda_minus, lambda_plus] of the limiting spectral density."""

    lambda_minus: float
    lambda_plus: float

    def __post_init__(self):
        lm, lp = self.lambda_minus, self.lambda_plus
        if not (0.0 <= lm < lp <= 1.0 + 1e-12):
            raise ParameterError(f"invalid support [{lm}, {lp}]")

    @property
    def center(self) -> float:
        return 0.5 * (self.lambda_plus + self.lambda_minus)

    @property
    def half_width(self) -> float:
        return 0.5 * (self.lambda_plus - self.lambda_minus)

    @classmethod
    def from_shape(cls, a: float, b: float) -> "SupportInterval":
        """Support edges [sqrt(b(1-a)) +- sqrt(a(1-b))]^2 for shapes (a, b)."""
        if not (0.0 < a < 0.5):
            raise ExtremalRegimeError(f"need 0 < a < 1/2, got a={a}")
        if not (a - 1e-12 <= b <= 1.0 - a + 1e-12):
            raise ParameterError(f"need a <= b <= 1 - a, got a={a}, b={b}")
        u = math.sqrt(b * (1.0 - a))
        v = math.sqrt(a * (1.0 - b))
        return cls(lambda_minus=max((u - v) ** 2, 0.0), lambda_plus=min((u + v) ** 2, 1.0))


def from_ratios(n: int, beta: float, p: float, q: float) -> EnsembleParams:
    """Build EnsembleParams with n1 = p*n, n2 = q*n."""
    return EnsembleParams(n=n, beta=beta, n1=p * n, n2=q * n)


def from_shape(n: int, beta: float, a: float, b: float) -> EnsembleParams:
    """Build EnsembleParams from shapes via p = b/a, q = (1-b)/a."""
    if not (0.0 < a < 1.0):
        raise ParameterError(f"need 0 < a < 1, got a={a}")
    return from_ratios(n, beta, p=b / a, q=(1.0 - b) / a)


def derive_asymptotic(params: EnsembleParams) -> AsymptoticParams:
    """Ratios p = n1/n, q = n2/n and shapes a, b, alpha = 2/beta.

    The extremal regime, p + q <= 2 or p or q below 1, is flagged rather
    than rejected: the matrix model remains simulable there (n1, n2 > n - 1),
    while formulas that require p, q >= 1 and p + q > 2 must call
    require_bulk().
    """
    p = params.n1 / params.n
    q = params.n2 / params.n
    s = p + q
    return AsymptoticParams(
        p=p,
        q=q,
        a=1.0 / s,
        b=p / s,
        alpha=2.0 / params.beta,
        extremal=(s <= 2.0 + 1e-12 or min(p, q) < 1.0 - 1e-12),
    )


def shape_params(a: float, b: float, beta: float) -> AsymptoticParams:
    """AsymptoticParams directly from shapes (a, b) and beta."""
    if not (0.0 < a < 1.0):
        raise ParameterError(f"need 0 < a < 1, got a={a}")
    _checked_beta(beta)
    p = b / a
    q = (1.0 - b) / a
    if p < 1.0 - 1e-12 or q < 1.0 - 1e-12:
        raise ParameterError(f"need p, q >= 1, got p={p}, q={q}")
    return AsymptoticParams(
        p=p, q=q, a=a, b=b, alpha=2.0 / beta, extremal=(p + q <= 2.0 + 1e-12)
    )


def support_edges(asym: AsymptoticParams) -> SupportInterval:
    """Support of the limiting density; requires the non-extremal regime."""
    asym.require_bulk()
    return SupportInterval.from_shape(asym.a, asym.b)
