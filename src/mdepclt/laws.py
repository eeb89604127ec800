"""Exact single-variable laws and their truncated-moment functionals.

Every catalogued array family has per-variable marginals that are either
finitely supported (signed sums of signs, on a binomial lattice) or
centred Gaussian.  Both kinds expose the same small set of moment
functionals, computed in closed form, so condition evaluations upstream
never need quadrature or sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: hard cap on exhaustively enumerated outcomes and on the atoms of one law
ENUMERATION_CAP = 2**22

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class EnumerationTooLargeError(ValueError):
    """Exhaustive enumeration would exceed ENUMERATION_CAP outcomes or atoms."""


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def normal_tail_second_moment(t: float) -> float:
    """E[Z^2 1{|Z| > t}] for standard normal Z: 2*(t*phi(t) + 1 - Phi(t)).

    1 - Phi(t) is taken as erfc(t/sqrt(2))/2, which keeps full relative
    precision in the far tail, where subtracting Phi(t) from 1 cancels.
    """
    if t <= 0.0:
        return 1.0
    return 2.0 * (t * _phi(t) + 0.5 * math.erfc(t / math.sqrt(2.0)))


def normal_abs_moment(r: float) -> float:
    """E|Z|^r = 2^(r/2) * Gamma((r+1)/2) / sqrt(pi) for standard normal Z."""
    if r < 0:
        raise ValueError(f"moment order must be >= 0, got {r}")
    return 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)


def normal_abs3_below(u: float) -> float:
    """E[|Z|^3 1{|Z| <= u}]; antiderivative of z^3 phi(z) is -(z^2+2) phi(z)."""
    if u <= 0.0:
        return 0.0
    return 4.0 * _phi(0.0) - 2.0 * (u * u + 2.0) * _phi(u)


def normal_capped_second_moment(b: float) -> float:
    """E[Z^2 min(b|Z|, 1)] for b >= 0, split at |Z| = 1/b."""
    if b <= 0.0:
        return 0.0
    u = 1.0 / b
    return b * normal_abs3_below(u) + normal_tail_second_moment(u)


@dataclass(frozen=True)
class DiscreteLaw:
    """A finitely supported law given by (values, probs).

    Duplicate support points are merged on construction so moment sums run
    over the minimal support.  from_points returns read-only arrays, so
    one law can be shared by every caller of a cache.
    """

    values: np.ndarray
    probs: np.ndarray

    @staticmethod
    def from_points(values, probs) -> "DiscreteLaw":
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.shape != probs.shape:
            raise ValueError("values and probs must have equal length")
        total = probs.sum()
        if not math.isclose(total, 1.0, abs_tol=1e-12):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, probs)
        uniq.flags.writeable = merged.flags.writeable = False
        return DiscreteLaw(uniq, merged)

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def var(self) -> float:
        return float(self.probs @ self.values**2) - self.mean() ** 2

    def abs_moment(self, r: float) -> float:
        return float(self.probs @ np.abs(self.values) ** r)

    def tail_second_moment(self, t: float) -> float:
        """E[X^2 1{|X| > t}], strict inequality in the indicator."""
        mask = np.abs(self.values) > t
        return float(self.probs[mask] @ self.values[mask] ** 2)

    def capped_second_moment(self, a: float) -> float:
        """E[X^2 min(a|X|, 1)]."""
        cap = np.minimum(a * np.abs(self.values), 1.0)
        return float(self.probs @ (self.values**2 * cap))


@dataclass(frozen=True)
class GaussianLaw:
    """Centred Gaussian with standard deviation sd > 0."""

    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ValueError(f"sd must be positive, got {self.sd}")

    def var(self) -> float:
        return self.sd**2

    def abs_moment(self, r: float) -> float:
        return self.sd**r * normal_abs_moment(r)

    def tail_second_moment(self, t: float) -> float:
        return self.sd**2 * normal_tail_second_moment(t / self.sd)

    def capped_second_moment(self, a: float) -> float:
        return self.sd**2 * normal_capped_second_moment(a * self.sd)


def tap_sum(coeffs, terms):
    """sum(c * x for c, x in zip(coeffs, terms)), summing the terms that
    share a coefficient magnitude before scaling them.

    Sums of signs are exact, so c*(s1 + s2) gives one value wherever the
    exact value is the same; c*s1 + c*s2 could round two ways.  A factor
    of exactly 1 is not applied, so the result may be one of the terms;
    no term is written to.
    """
    groups: dict = {}
    for c, x in zip(coeffs, terms):
        groups.setdefault(abs(c), []).append((c, x))
    total = None
    for (f, part), *rest in groups.values():
        for c, x in rest:
            part = part + x if (c < 0) == (f < 0) else part - x
        if f != 1.0:
            part = f * part
        total = part if total is None else total + part
    return total


def sign_combination_law(coeffs, scale) -> DiscreteLaw:
    """Law of scale * sum(c_l * s_l) over independent signs s_l in {-1, +1}.

    The k taps of magnitude |f| sum to f * (2B - k), B ~ Bin(k, 1/2), f the
    first of them: one axis of a lattice with weights comb(k, b) / 2^k.
    tap_sum adds the axes, so the atoms are bit-equal to rows built the same
    way.  The prod(k + 1) atoms must fit ENUMERATION_CAP.
    """
    groups: dict = {}
    for c in coeffs:
        groups.setdefault(abs(c), []).append(float(c))
    ks = [len(taps) for taps in groups.values()]
    atoms = math.prod(k + 1 for k in ks)
    if atoms > ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"sign-combination law of {len(coeffs)} taps has {atoms} atoms (cap ENUMERATION_CAP = {ENUMERATION_CAP})"
        )
    terms = np.broadcast_arrays(*np.ix_(*(2.0 * np.arange(k + 1) - k for k in ks)))
    values = tap_sum([taps[0] for taps in groups.values()], terms)
    probs = math.prod(np.ix_(*(np.array([math.comb(k, b) / 2**k for b in range(k + 1)]) for k in ks)))
    return DiscreteLaw.from_points(scale * values.ravel(), probs.ravel())
