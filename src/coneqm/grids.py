"""Radial node sets shared by the quadrature and eigensolver code.

``RadialGrid`` is a uniform grid on [r_min, r_max] with r_min > 0, used by
the eigensolver and the transfer matrix.  ``TanhSinhRule`` is the
double-exponential rule on [0, upper] used by the closed-form checks (the
semigroup, trace and normalization suites).  Both expose ``values`` and
``trapezoid_weights()``, so a quadrature takes either without a second code
path.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RadialGrid:
    """Uniform discretization of [r_min, r_max] with 0 < r_min < r_max.

    ``points`` counts both endpoints; ``spacing`` is (r_max - r_min)/(points-1).
    """

    r_min: float
    r_max: float
    points: int

    def __post_init__(self):
        if not isinstance(self.points, int) or isinstance(self.points, bool) \
                or self.points < 16:
            raise ValueError(f"points must be an integer >= 16, got {self.points!r}")
        for name in ("r_min", "r_max"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real, got {v!r}")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError(
                f"need 0 < r_min < r_max, got r_min={self.r_min!r}, "
                f"r_max={self.r_max!r}"
            )

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.points - 1)

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.points)

    def refined(self) -> "RadialGrid":
        """Same interval with the spacing halved (2*points - 1 nodes)."""
        return RadialGrid(self.r_min, self.r_max, 2 * self.points - 1)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


# Tanh-sinh rule of Takahashi and Mori (1974): the trapezoid rule in t on
# [-_TANH_SINH_T_MAX, _TANH_SINH_T_MAX].  The nodes cluster double-
# exponentially at both ends, so an integrand that goes like s at s = 0
# (nu(0) = 0) costs no O(h^2 f'(0)) endpoint error.  At 161 nodes every
# semigroup record of ``coneqm verify`` (defects and trace ladders on
# [0, 12 L], L the oscillator length) is within 1.4e-15 and every
# normalization overlap on [0, 14 L] within 3.5e-12 (at sigma = 0.1,
# kappa = 2), over 32 sigma in [0.1, 3] times kappa in {1 - sigma^2,
# 1 - sigma^2 + 0.05, 1, 2}.  At t = +-3.2 a node sits within 2e-17 upper of
# an end, where its weight is below 1e-16 upper, so a longer t-range adds
# nothing.
_TANH_SINH_NODES = 161
_TANH_SINH_T_MAX = 3.2
_TANH_SINH_T = np.linspace(-_TANH_SINH_T_MAX, _TANH_SINH_T_MAX,
                           _TANH_SINH_NODES)
_TANH_SINH_U = 0.5 * math.pi * np.sinh(_TANH_SINH_T)     # (pi/2) sinh t


@dataclass(frozen=True)
class TanhSinhRule:
    """Tanh-sinh quadrature on [0, upper], 0 < upper.

    With u = (pi/2) sinh t and t uniform on [-3.2, 3.2] in 161 nodes, the
    node is upper / (1 + e^{-2u}) and its weight h (pi/2) cosh t upper /
    (2 cosh^2 u), h being the step in t.  Every node lies in (0, upper]
    for upper >= 1.3e-307; nearer 0 the first node rounds to 0.
    """

    upper: float

    def __post_init__(self):
        v = self.upper
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"upper must be a finite real > 0, got {v!r}")

    @property
    def values(self) -> np.ndarray:
        # 1 + e^{-2u} instead of (1 + tanh u)/2 keeps the nodes near 0 exact
        return self.upper / (1.0 + np.exp(-2.0 * _TANH_SINH_U))

    def trapezoid_weights(self) -> np.ndarray:
        h = 2.0 * _TANH_SINH_T_MAX / (_TANH_SINH_NODES - 1)
        cosh_u = np.cosh(_TANH_SINH_U)
        return h * 0.5 * math.pi * np.cosh(_TANH_SINH_T) * self.upper \
            / (2.0 * cosh_u * cosh_u)
