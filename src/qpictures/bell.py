"""CHSH analysis of the pre-comparison (t=2) correlations.

The correlation E(theta, phi) = <q_z2 q_z3> = cos(theta - phi) is a
correlation of two +/-1-valued observables, so the standard CHSH
combination applies; at the canonical pi/4 spacing it reaches 2*sqrt(2),
violating the local bound of 2 with no comparison gate anywhere in
sight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .experiment import ExperimentConfig, correlation_t2

TSIRELSON = 2.0 * math.sqrt(2.0)

CANONICAL_SETTING_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


def correlation(theta: float, phi: float, atol: float = 1e-10) -> float:
    """E(theta, phi) at t=2, verified against cos(theta - phi) and the
    statevector oracle before being returned."""
    result = correlation_t2(ExperimentConfig(theta, phi)).require_agreement(atol)
    return result.heisenberg


@dataclass(frozen=True)
class ChshSetting:
    """Two analyzer angles per arm: (a, a') for Q2 and (b, b') for Q3."""

    a: float
    a_prime: float
    b: float
    b_prime: float

    def __post_init__(self):
        for angle in (self.a, self.a_prime, self.b, self.b_prime):
            if not math.isfinite(angle):
                raise ValueError("CHSH angles must be finite")


def canonical_setting() -> ChshSetting:
    return ChshSetting(*CANONICAL_SETTING_ANGLES)


@dataclass(frozen=True)
class ChshResult:
    setting: ChshSetting
    e_ab: float
    e_ab_prime: float
    e_a_prime_b: float
    e_a_prime_b_prime: float
    s: float
    violates: bool

    @property
    def correlations(self) -> tuple[float, float, float, float]:
        return (self.e_ab, self.e_ab_prime, self.e_a_prime_b, self.e_a_prime_b_prime)


def chsh(setting: ChshSetting) -> ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    e_ab = correlation(setting.a, setting.b)
    e_ab_prime = correlation(setting.a, setting.b_prime)
    e_a_prime_b = correlation(setting.a_prime, setting.b)
    e_a_prime_b_prime = correlation(setting.a_prime, setting.b_prime)
    s = e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime
    if not abs(s) <= TSIRELSON + 1e-9:
        raise AssertionError("CHSH value exceeded the quantum bound")
    return ChshResult(
        setting,
        e_ab,
        e_ab_prime,
        e_a_prime_b,
        e_a_prime_b_prime,
        s,
        violates=abs(s) > 2.0 + 1e-12,
    )


@dataclass(frozen=True)
class ScanResult:
    resolution: float
    best: ChshResult
    evaluated: int


def scan_grid(resolution: float) -> list[float]:
    """Analyzer angles of a CHSH scan: the multiples of ``resolution`` in
    [0, 2pi).  ``resolution`` must be positive and divide pi."""
    if resolution <= 0:
        raise ValueError("scan resolution must be positive")
    ratio = math.pi / resolution
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(f"scan resolution {resolution!r} does not divide pi")
    count = int(round(2 * ratio))
    if count == 0:
        raise ValueError("empty scan grid")
    return [k * resolution for k in range(count)]


def scan_rows(resolution: float):
    """Yield (a, a', b, b', S) for every setting on the scan grid, in
    lexicographic angle order."""
    angles = scan_grid(resolution)
    # Only pairwise correlations enter S: tabulate those once, then
    # combine for every four-angle setting.
    corr = {(x, y): correlation(x, y) for x, y in product(angles, repeat=2)}
    for a, a_prime, b, b_prime in product(angles, repeat=4):
        s = corr[(a, b)] - corr[(a, b_prime)] + corr[(a_prime, b)] + corr[(a_prime, b_prime)]
        yield a, a_prime, b, b_prime, s


def chsh_scan(resolution: float) -> ScanResult:
    """Exhaustive CHSH search over angle multiples of ``resolution``.

    ``resolution`` must divide pi.  Ties are broken towards the
    lexicographically smallest angle tuple, so output is deterministic.
    """
    best = None
    evaluated = 0
    for a, a_prime, b, b_prime, s in scan_rows(resolution):
        evaluated += 1
        if best is None or abs(s) > abs(best[0]):
            best = (s, (a, a_prime, b, b_prime))
    s, tup = best
    setting = ChshSetting(*tup)
    result = ChshResult(
        setting,
        correlation(setting.a, setting.b),
        correlation(setting.a, setting.b_prime),
        correlation(setting.a_prime, setting.b),
        correlation(setting.a_prime, setting.b_prime),
        s,
        violates=abs(s) > 2.0 + 1e-12,
    )
    return ScanResult(resolution, result, evaluated)
