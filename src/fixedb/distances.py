"""Discrepancy metrics between distributions and samples.

Four metrics drive every coverage bound in this package:

* ``ks``      - sup_t |F(t) - G(t)|, the classical Kolmogorov-Smirnov
  distance over half-lines (-inf, t].
* ``mod_ks``  - the same supremum taken over half-open intervals (a, b].
  It satisfies ks <= mod_ks <= min(2 ks, tv).
* ``tv``      - total variation, half the L1 distance between pmfs.
* ``gamma``   - the exchangeability gap of a joint law: the total
  variation distance between the law of V = (W_1..W_B, psi) and the
  uniform mixture of its coordinate-swap laws.  Zero whenever V is
  exchangeable.

The sample-based estimators evaluate empirical CDFs at both one-sided
limits of every breakpoint, so the supremum is exact for step functions;
to the uniform, a sample is the discrete law with equal weights.  Every
value is thus exact (enumeration or a closed-form supremum), and a
:class:`DistanceEstimate` carries just the value and the metric name.
The Levy concentration function measures the largest mass any window of
width eps can capture and quantifies how discrete a sample is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, InvalidInput, _check_real, _check_vector

__all__ = [
    "DistanceEstimate",
    "FinitePmf",
    "dist_to_uniform",
    "ks_uniform",
    "mod_ks_uniform",
    "tv_discrete",
    "gamma_exact",
    "concentration",
    "ks_two_sample",
]

#: Refuse exact joint enumerations above this many (atom, swap) pairs.
ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class DistanceEstimate:
    """A metric value in [0, 1] and the name of its metric."""

    value: float
    metric: str


class FinitePmf:
    """A finitely supported probability mass function.

    Atoms may be scalars or (for joint laws) equal-length tuples; they
    must be distinct and not NaN, and the probabilities a 1-d vector of
    finite, nonnegative reals summing to 1 within 1e-9.
    """

    __slots__ = ("support", "probs")

    def __init__(self, support, probs):
        support = list(support)
        probs = _check_vector(probs, "probs", lo=-1e-15)
        if len(support) != probs.shape[0]:
            raise InvalidInput("support and probs must have equal length")
        if len(set(support)) != len(support):
            raise InvalidInput("support atoms must be distinct")
        # NaN is the one value that differs from itself
        if any(v != v for atom in support for v in (atom if isinstance(atom, tuple) else (atom,))):
            raise InvalidInput("support atoms must not be NaN")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise InvalidInput(f"probabilities sum to {probs.sum()}, not 1")
        self.support = support
        self.probs = np.clip(probs, 0.0, None)

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def __len__(self) -> int:
        return len(self.support)


def _validate_unit(u) -> tuple[np.ndarray, np.ndarray]:
    """A sample on [0, 1] as the discrete law with equal weights."""
    u = _check_vector(u, "sample", 0, 1)
    return u, np.full(u.size, 1.0 / u.size)


def _check_prob_vector(p, what: str, ndim: int = 1) -> np.ndarray:
    """p clipped at 0; InvalidInput unless it passes the vector check
    with entries >= -1e-12 and each row along its last axis sums to 1
    within 1e-9."""
    p = _check_vector(p, what, lo=-1e-12, ndim=ndim)
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0) > 1e-9
    if off.any():
        raise InvalidInput(f"{what} must sum to 1 within 1e-9, got {float(sums[off][0])!r}")
    return np.clip(p, 0.0, None)


def dist_to_uniform(values, probs) -> tuple[float, float]:
    """Exact (KS, interval-KS) distances of a discrete law on [0, 1]
    from the unit uniform.

    The supremum is a finite maximum over the jump points of the
    discrete CDF with both one-sided limits, so atoms at 0 and 1 are
    handled exactly.  Interval-KS is D+ + D-: with g = F - id the
    discrepancy over (a, b] is g(b) - g(a), and g vanishes at both ends
    of [0, 1].  Returns (d_ks, d_mod_ks), each clamped to [0, 1]
    against round-off in the cumulative sums.
    """
    v = _check_vector(values, "values", -1e-9, 1.0 + 1e-9)
    p = _check_prob_vector(probs, "probs")
    if v.shape != p.shape:
        raise InvalidInput("values and probs must have equal length")
    v = np.clip(v, 0.0, 1.0)
    uniq, inv = np.unique(v, return_inverse=True)
    mass = np.bincount(inv, weights=p, minlength=uniq.size)
    cum = np.cumsum(mass)
    cum_prev = cum - mass
    d_plus = max(0.0, float(np.max(cum - uniq)))
    d_minus = max(0.0, float(np.max(uniq - cum_prev)))
    return min(max(d_plus, d_minus), 1.0), min(d_plus + d_minus, 1.0)


def ks_uniform(u_samples) -> DistanceEstimate:
    """Exact KS distance of an empirical CDF on [0, 1] from U(0, 1)."""
    return DistanceEstimate(dist_to_uniform(*_validate_unit(u_samples))[0], "ks")


def mod_ks_uniform(u_samples) -> DistanceEstimate:
    """Exact interval-KS distance of an empirical CDF from U(0, 1)."""
    return DistanceEstimate(dist_to_uniform(*_validate_unit(u_samples))[1], "mod_ks")


def tv_discrete(p: FinitePmf, q: FinitePmf) -> DistanceEstimate:
    """Total variation distance between two finite pmfs.

    Supports are merged with zero fill, so the atoms need not coincide.
    """
    return DistanceEstimate(_tv_masses(p.as_dict(), q.as_dict()), "tv")


def _tv_masses(p: dict, q: dict) -> float:
    """Total variation between two atom -> mass dicts over their merged
    support (zero fill), capped at 1; ``fsum`` makes it exactly rounded
    whatever the atom order."""
    atoms = set(p) | set(q)
    return min(1.0, 0.5 * math.fsum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in atoms))


def _joint_width(joint: FinitePmf) -> int:
    """The width B + 1 of a joint law's atoms; InvalidInput unless they
    are tuples (W_1..W_B, psi) of one width >= 2."""
    widths = {len(t) if isinstance(t, tuple) else 0 for t in joint.support}
    if len(widths) != 1 or min(widths) < 2:
        raise InvalidInput("joint atoms must be tuples (W_1..W_B, psi) of one width >= 2")
    return widths.pop()


def gamma_exact(joint: FinitePmf) -> DistanceEstimate:
    """Exchangeability gap of a finite joint law over (B+1)-tuples.

    The last coordinate plays the target psi(Z).  Materializes the B+1
    swapped laws V^i (coordinate i exchanged with the last; V^{B+1} = V),
    averages them, and returns the total variation distance to the
    original law.  For finite supports the supremum over measurable sets
    in the definition is attained by this TV form.
    """
    width = _joint_width(joint)
    if len(joint) * width > ENUMERATION_CAP:
        raise CapacityExceeded(
            f"{len(joint)} atoms x {width} swaps exceeds the cap of {ENUMERATION_CAP}"
        )

    mixture: dict[tuple, float] = {}
    share = 1.0 / width
    for atom, prob in zip(joint.support, joint.probs):
        w = share * float(prob)
        for i in range(width - 1):
            swapped = atom[:i] + (atom[-1],) + atom[i + 1 : -1] + (atom[i],)
            mixture[swapped] = mixture.get(swapped, 0.0) + w
        mixture[atom] = mixture.get(atom, 0.0) + w  # identity swap V^{B+1} = V

    return DistanceEstimate(_tv_masses(joint.as_dict(), mixture), "gamma")


def concentration(samples, eps: float) -> float:
    """Empirical Levy concentration: the largest fraction of the sample
    any half-open window (a, a + eps] can capture.

    Window left endpoints are swept over the sample points and the
    sample points minus eps; that family attains the supremum for
    half-open windows over a finite sample.  A non-finite sample value,
    or an eps that is not a finite real > 0, raises :class:`InvalidInput`.
    """
    eps = _check_real(eps, "eps", 0, strict=True)
    x = np.sort(_check_vector(samples, "samples"))
    a = np.concatenate([x, x - eps])
    # count of points in (a, a + eps] for every left endpoint at once
    cnt = np.searchsorted(x, a + eps, side="right") - np.searchsorted(x, a, side="right")
    return int(cnt.max()) / x.size


def ks_two_sample(x, y) -> DistanceEstimate:
    """Classical two-sample KS statistic over merged breakpoints; a
    non-finite value in either sample raises :class:`InvalidInput`."""
    x = np.sort(_check_vector(x, "x"))
    y = np.sort(_check_vector(y, "y"))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return DistanceEstimate(float(np.max(np.abs(fx - fy))), "ks")
