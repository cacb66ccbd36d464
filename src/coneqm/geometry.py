"""Conical geometry: the deficit parameter, embeddings, curvatures, the
curvature-induced effective potential, and the two Bessel-order index maps
that encode the cone.

The metric is dl^2 = dr^2 + sigma^2 r^2 dtheta^2 with sigma > 0; sigma = 1 is
flat space.  Quantities tied to the embedding into 3D Euclidean space
(embedding itself, mean curvature, and the identification of the effective
potential with -H^2) exist only for sigma <= 1; the algebraic formulas remain
valid for sigma > 1 (negative-deficit cone) and are exposed there as well.
"""

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class NotEmbeddableError(ValueError):
    """Embedding-dependent quantity requested for sigma > 1."""


class ImaginaryIndexError(ValueError):
    """An index map would need the square root of a negative number."""


class UnderflowError(ValueError):
    """A divisor of a computation is too small in doubles: it underflows to
    0, or the quotient overflows; or a square or a product overflows."""


@dataclass(frozen=True)
class ConeGeometry:
    """Cone with deficit parameter sigma > 0."""

    sigma: float

    def __post_init__(self):
        s = self.sigma
        if not isinstance(s, (int, float)) or isinstance(s, bool) \
                or not math.isfinite(s) or s <= 0.0:
            raise ValueError(f"sigma must be a finite real > 0, got {s!r}")

    @property
    def embeddable(self) -> bool:
        return self.sigma <= 1.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Particle mass and hbar; defaults are natural units."""

    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("mass", "hbar"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be a finite real > 0, got {v!r}")


def cone_from_sigma(sigma: float) -> ConeGeometry:
    """Cone from the deficit parameter directly."""
    return ConeGeometry(float(sigma))


def cone_from_deficit_angle(gamma: float) -> ConeGeometry:
    """Cone from the deficit angle (radians): sigma = 1 - gamma/2pi."""
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma >= TWO_PI:
        raise ValueError(
            f"deficit angle must be < 2*pi (sigma > 0), got {gamma!r}"
        )
    return ConeGeometry(1.0 - gamma / TWO_PI)


def cone_from_string_density(g_eta: float) -> ConeGeometry:
    """Cone from the dimensionless string density G*eta: sigma = 1 - 4*G*eta."""
    g_eta = float(g_eta)
    if not math.isfinite(g_eta) or g_eta >= 0.25:
        raise ValueError(
            f"string density requires G*eta < 0.25 (sigma > 0), got {g_eta!r}"
        )
    return ConeGeometry(1.0 - 4.0 * g_eta)


def deficit_angle(geom: ConeGeometry) -> float:
    """Deficit angle gamma = 2 pi (1 - sigma); negative for sigma > 1."""
    return TWO_PI * (1.0 - geom.sigma)


def string_density(geom: ConeGeometry) -> float:
    """Dimensionless string density G*eta = (1 - sigma)/4."""
    return 0.25 * (1.0 - geom.sigma)


def embed(geom: ConeGeometry, r: float, theta: float):
    """Euclidean embedding point (x, y, z) of the cone point (r, theta).

    x = sigma r cos(theta), y = sigma r sin(theta), z = sqrt(1-sigma^2) r,
    so x^2 + y^2 + z^2 = r^2 exactly.
    """
    if not geom.embeddable:
        raise NotEmbeddableError(
            f"embedding requires sigma <= 1, got sigma={geom.sigma}"
        )
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"r must be a finite real >= 0, got {r!r}")
    s = geom.sigma
    return (s * r * math.cos(theta),
            s * r * math.sin(theta),
            math.sqrt(max(1.0 - s * s, 0.0)) * r)


def mean_curvature(geom: ConeGeometry, r: float) -> float:
    """Mean curvature H(r) = sqrt(1 - sigma^2) / (2 sigma r) of the embedded cone."""
    if not geom.embeddable:
        raise NotEmbeddableError(
            f"mean curvature requires sigma <= 1, got sigma={geom.sigma}"
        )
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"r must be a finite real > 0, got {r!r}")
    s = geom.sigma
    return math.sqrt(max(1.0 - s * s, 0.0)) / (2.0 * s * r)


def gaussian_curvature_strength(geom: ConeGeometry) -> float:
    """Integrated apex curvature 2 pi (1 - sigma)/sigma.

    The Gaussian curvature of the cone is a delta function at the apex; this
    is its total weight (sign follows 1 - sigma).
    """
    s = geom.sigma
    return TWO_PI * (1.0 - s) / s


def effective_potential(geom: ConeGeometry, consts: PhysicalConstants,
                        r: float) -> float:
    """Curvature-induced effective potential
    V_eff(r) = -(hbar^2/2M) (1 - sigma^2) / (4 sigma^2 r^2).

    Attractive for sigma < 1, zero in flat space, repulsive for sigma > 1.
    Equals -(hbar^2/2M) H(r)^2 wherever the embedding exists.  Raises
    UnderflowError when 4 sigma^2 r^2 underflows to 0 or hbar^2 overflows.
    """
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"r must be a finite real > 0, got {r!r}")
    s = geom.sigma
    divisor = 4.0 * s * s * r * r
    if divisor == 0.0:
        raise UnderflowError(
            f"4 sigma^2 r^2 underflows to 0 at sigma = {s!r}, r = {r!r}, so "
            "V_eff cannot be formed")
    try:
        hbar2 = consts.hbar ** 2
    except OverflowError:
        raise UnderflowError(
            f"hbar^2 overflows at hbar = {consts.hbar!r}, so V_eff cannot be "
            "formed") from None
    return -(hbar2 / (2.0 * consts.mass)) * (1.0 - s * s) / divisor


def _bessel_order(c: float, sigma: float, m):
    """sqrt(4 m^2 + c) / (2 sigma) for an int m, on Python floats, or for an
    integer array of m; both round correctly, so they agree bit for bit."""
    sqrt = math.sqrt if type(m) is int else np.sqrt
    return sqrt(4.0 * m * m + c) / (2.0 * sigma)


def _coupled_c(geom: ConeGeometry, kappa: float) -> float:
    """c = kappa + sigma^2 - 1 of nu(m, sigma), once kappa >= 1 - sigma^2 is
    checked (a NaN kappa passes the check)."""
    s = geom.sigma
    kappa = float(kappa)
    bound = 1.0 - s * s
    if kappa < bound:
        raise ValueError(
            f"kappa must be >= 1 - sigma^2 = {bound!r}, got {kappa!r}")
    # (kappa - 1) + sigma^2 is exact at kappa = 1 and does not cancel at
    # small sigma.  c is exactly 0 where kappa equals the bound as rounded
    # here; past it kappa - 1 > -sigma^2 exactly, so the sum is never < 0
    return 0.0 if kappa == bound else (kappa - 1.0) + s * s


def effective_index_mu(geom: ConeGeometry, m: int) -> float:
    """Free-cone Bessel order mu(m) = sqrt(4 m^2 + c) / (2 sigma), where
    c = sigma^2 - 1; ImaginaryIndexError where 4 m^2 + c < 0 (the
    unregularized s-wave on a sigma < 1 cone)."""
    s = geom.sigma
    c = s * s - 1.0
    disc = 4.0 * m * m + c
    if disc < 0.0:
        raise ImaginaryIndexError(
            f"4m^2 + sigma^2 - 1 = {disc:g} < 0 for m={m}, sigma={s:g}: "
            "the free-cone s-wave index is imaginary; a repulsive core "
            "(kappa >= 1 - sigma^2) is required")
    return _bessel_order(c, s, m)


def coupled_index_nu(geom: ConeGeometry, kappa: float, m: int) -> float:
    """Bessel order nu(m, sigma) = sqrt(4 m^2 + c) / (2 sigma) of the cone
    with inverse-square coupling kappa, for an int m or an integer array.
    c = (kappa - 1) + sigma^2 is exactly 0 on the bound kappa = 1 - sigma^2;
    a kappa below it, where the order is not real for every m, raises
    ValueError."""
    return _bessel_order(_coupled_c(geom, kappa), geom.sigma, m)
