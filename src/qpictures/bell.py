"""CHSH analysis of the pre-comparison (t=2) correlations.

The correlation E(theta, phi) = <q_z2 q_z3> = cos(theta - phi) is a
correlation of two +/-1-valued observables, so the standard CHSH
combination applies; at the canonical pi/4 spacing it reaches 2*sqrt(2),
violating the local bound of 2 with no comparison gate anywhere in
sight.

``correlation`` maps two equal-length angle sequences to an array of
correlations, so every correlation a CHSH value or a scan needs comes from
one batched simulation of all the angle pairs involved.  A scan is one
array computation: an (n, n) correlation table, S for every setting as one
(n, n, n, n) array, and the best setting by argmax.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .experiment import ExperimentConfig, correlation_t2, simulate

TSIRELSON = 2.0 * math.sqrt(2.0)

# |S| above this breaks the local bound 2 by more than rounding.
VIOLATION_BOUND = 2.0 + 1e-12

CANONICAL_SETTING_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

# A scan takes at most this many angles per arm: 32**4 = 1048576 settings
# from 32**2 = 1024 simulated angle pairs, a step of pi/16.
MAX_SCAN_ANGLES = 32


def correlation(thetas: Sequence[float], phis: Sequence[float]) -> np.ndarray:
    """E(theta, phi) at t=2 for each pair of two equal-length angle
    sequences, verified against cos(theta - phi) and the statevector
    oracle before being returned."""
    if len(thetas) != len(phis):
        raise ValueError(f"{len(thetas)} thetas but {len(phis)} phis")
    run = simulate(ExperimentConfig(float(t), float(p)) for t, p in zip(thetas, phis))
    return correlation_t2(run).require_agreement().heisenberg


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


def _result(setting: ChshSetting, correlations: list[float]) -> ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b') from the four correlations."""
    e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime = correlations
    s = e_ab - e_ab_prime + e_a_prime_b + e_a_prime_b_prime
    if not abs(s) <= TSIRELSON + 1e-9:
        raise AssertionError("CHSH value exceeded the quantum bound")
    return ChshResult(setting, *correlations, s, violates=abs(s) > VIOLATION_BOUND)


def chsh(setting: ChshSetting) -> ChshResult:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b')."""
    correlations = correlation(
        [setting.a, setting.a, setting.a_prime, setting.a_prime],
        [setting.b, setting.b_prime, setting.b, setting.b_prime],
    )
    return _result(setting, correlations.tolist())


@dataclass(frozen=True)
class ScanResult:
    """A scan's best setting, and ``values[i, j, k, l]``: S at the setting
    ``angles[i], angles[j], angles[k], angles[l]``."""

    resolution: float
    best: ChshResult
    angles: tuple[float, ...] = field(repr=False)
    values: np.ndarray = field(repr=False, compare=False)

    @property
    def evaluated(self) -> int:
        return self.values.size


def scan_grid(resolution: float) -> list[float]:
    """Analyzer angles of a CHSH scan: the multiples of ``resolution`` in
    [0, 2pi).  ``resolution`` must be positive, divide pi and give at most
    ``MAX_SCAN_ANGLES`` angles; all of this is checked before any work."""
    if resolution <= 0:
        raise ValueError("scan resolution must be positive")
    ratio = math.pi / resolution
    # Negated, so an infinite ratio (a subnormal step) is rejected too.
    if not 2 * ratio < MAX_SCAN_ANGLES + 0.5:
        raise ValueError(
            f"scan resolution {resolution!r} gives more than {MAX_SCAN_ANGLES} angles "
            f"per arm; the finest step is pi/{MAX_SCAN_ANGLES // 2}"
        )
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError(f"scan resolution {resolution!r} does not divide pi")
    count = int(round(2 * ratio))
    if count == 0:
        raise ValueError("empty scan grid")
    return [k * resolution for k in range(count)]


def scan_rows(resolution: float):
    """Yield (a, a', b, b', S) for every setting on the scan grid, in
    lexicographic angle order."""
    scan = chsh_scan(resolution)
    for setting, s in zip(product(scan.angles, repeat=4), scan.values.ravel().tolist()):
        yield *setting, s


def chsh_scan(resolution: float) -> ScanResult:
    """Exhaustive CHSH search over angle multiples of ``resolution``.

    ``resolution`` must divide pi.  Only pairwise correlations enter S, so
    one batched simulation tabulates ``e[x, y]`` for every pair of angles,
    and S for every setting is one array, summed left to right as ``chsh``
    sums it, so each value is bitwise the scalar one.  Ties are broken
    towards the lexicographically smallest angle tuple (the first argmax in
    C order), so output is deterministic.
    """
    angles = scan_grid(resolution)
    grid, n = np.asarray(angles), len(angles)
    e = correlation(np.repeat(grid, n), np.tile(grid, n)).reshape(n, n)
    values = (e[:, None, :, None] - e[:, None, None, :]) + e[None, :, :, None]
    values += e[None, :, None, :]  # in place: one (n, n, n, n) array at a time
    values.setflags(write=False)  # the result is frozen, its array too
    i, j, k, l = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    setting = ChshSetting(angles[i], angles[j], angles[k], angles[l])
    best = _result(setting, e[[i, i, j, j], [k, l, k, l]].tolist())
    return ScanResult(resolution, best, tuple(angles), values)
