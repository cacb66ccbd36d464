"""Geometry layer: parameterizations, embedding, curvatures, index maps."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from coneqm.geometry import (ConeGeometry, ImaginaryIndexError,
                             NotEmbeddableError, PhysicalConstants,
                             UnderflowError, cone_from_deficit_angle,
                             cone_from_sigma, cone_from_string_density,
                             coupled_index_nu, deficit_angle,
                             effective_index_mu, effective_potential, embed,
                             gaussian_curvature_strength, mean_curvature,
                             string_density)
from coneqm.spectrum import OscillatorModel

NAT = PhysicalConstants()


def test_cone_from_sigma():
    assert cone_from_sigma(1.0).embeddable
    assert cone_from_sigma(0.5).embeddable
    g = cone_from_sigma(1.2)
    assert not g.embeddable
    with pytest.raises(ValueError):
        cone_from_sigma(0.0)
    with pytest.raises(ValueError):
        cone_from_sigma(-0.3)
    with pytest.raises(ValueError):
        cone_from_sigma(math.inf)


def test_cone_from_deficit_angle():
    assert cone_from_deficit_angle(0.0).sigma == 1.0
    assert cone_from_deficit_angle(math.pi).sigma == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        cone_from_deficit_angle(2.0 * math.pi)
    # negative deficit gives an anti-cone
    assert cone_from_deficit_angle(-math.pi).sigma == pytest.approx(1.5)


def test_cone_from_string_density():
    assert cone_from_string_density(0.0).sigma == 1.0
    assert cone_from_string_density(0.125).sigma == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        cone_from_string_density(0.25)


@pytest.mark.parametrize("sigma", [1e-3, 0.1, 0.25, 0.5, 0.8, 0.999, 1.0])
def test_parameterization_round_trips(sigma):
    assert cone_from_deficit_angle(2.0 * math.pi * (1.0 - sigma)).sigma \
        == pytest.approx(sigma, rel=1e-15, abs=1e-15)
    assert cone_from_string_density((1.0 - sigma) / 4.0).sigma \
        == pytest.approx(sigma, rel=1e-15, abs=1e-15)
    g = cone_from_sigma(sigma)
    assert deficit_angle(g) == pytest.approx(2.0 * math.pi * (1.0 - sigma),
                                             rel=1e-15, abs=1e-15)
    assert string_density(g) == pytest.approx((1.0 - sigma) / 4.0,
                                              rel=1e-15, abs=1e-15)


def test_embed_flat_point():
    x, y, z = embed(cone_from_sigma(1.0), 3.0, math.pi / 2)
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(3.0, rel=1e-15)
    assert z == 0.0


def test_embed_cone_point():
    x, y, z = embed(cone_from_sigma(0.5), 2.0, 0.0)
    assert x == pytest.approx(1.0, rel=1e-15)
    assert y == 0.0
    assert z == pytest.approx(math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("r,theta", [(0.1, 0.0), (1.0, 1.1), (5.0, 4.4)])
def test_embed_preserves_radius(sigma, r, theta):
    x, y, z = embed(cone_from_sigma(sigma), r, theta)
    assert x * x + y * y + z * z == pytest.approx(r * r, rel=1e-14)


def test_embed_chord_identity():
    # squared Euclidean chord between embedded points equals
    # dr^2 + 2 sigma^2 r1 r2 (1 - cos dtheta) exactly
    g = cone_from_sigma(0.7)
    for (r1, t1), (r2, t2) in [((1.0, 0.2), (1.3, 0.9)),
                               ((0.4, 3.0), (0.41, 3.05)),
                               ((2.0, 0.0), (2.0, 0.5))]:
        p = embed(g, r1, t1)
        q = embed(g, r2, t2)
        chord2 = sum((a - b) ** 2 for a, b in zip(p, q))
        expect = (r1 - r2) ** 2 \
            + 2.0 * g.sigma ** 2 * r1 * r2 * (1.0 - math.cos(t1 - t2))
        assert chord2 == pytest.approx(expect, rel=1e-13)


def test_embed_not_embeddable():
    with pytest.raises(NotEmbeddableError):
        embed(cone_from_sigma(1.2), 1.0, 0.0)


def test_mean_curvature_values():
    assert mean_curvature(cone_from_sigma(1.0), 5.0) == 0.0
    assert mean_curvature(cone_from_sigma(0.5), 1.0) == pytest.approx(
        math.sqrt(0.75), rel=1e-15)
    # 1/r scaling
    assert mean_curvature(cone_from_sigma(0.5), 2.0) == pytest.approx(
        0.5 * math.sqrt(0.75), rel=1e-15)
    with pytest.raises(ValueError):
        mean_curvature(cone_from_sigma(0.5), 0.0)
    with pytest.raises(NotEmbeddableError):
        mean_curvature(cone_from_sigma(2.0), 1.0)


def test_gaussian_curvature_strength():
    assert gaussian_curvature_strength(cone_from_sigma(1.0)) == 0.0
    assert gaussian_curvature_strength(cone_from_sigma(0.5)) == pytest.approx(
        2.0 * math.pi, rel=1e-15)
    assert gaussian_curvature_strength(cone_from_sigma(2.0)) == pytest.approx(
        -math.pi, rel=1e-15)


def test_effective_potential_values():
    assert effective_potential(cone_from_sigma(1.0), NAT, 0.37) == 0.0
    assert effective_potential(cone_from_sigma(0.5), NAT, 1.0) == pytest.approx(
        -0.375, rel=1e-15)
    # repulsive for the anti-cone
    assert effective_potential(cone_from_sigma(1.5), NAT, 1.0) > 0.0
    with pytest.raises(ValueError):
        effective_potential(cone_from_sigma(0.5), NAT, 0.0)


def test_effective_potential_with_underflowing_divisor_raises():
    # 4 sigma^2 r^2 = 4e-340 rounds to 0: a named error, not a bare
    # division by zero
    with pytest.raises(UnderflowError,
                       match=r"sigma = 1e-170, r = 1\.0"):
        effective_potential(ConeGeometry(1e-170), NAT, 1.0)
    with pytest.raises(UnderflowError, match=r"sigma = 0\.5, r = 1e-170"):
        effective_potential(ConeGeometry(0.5), NAT, 1e-170)


@pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("r", [0.05, 1.0, 11.0])
def test_effective_potential_is_minus_h_squared(sigma, r):
    g = cone_from_sigma(sigma)
    consts = PhysicalConstants(mass=1.7, hbar=0.4)
    lhs = effective_potential(g, consts, r)
    h = mean_curvature(g, r)
    assert lhs + (consts.hbar ** 2 / (2.0 * consts.mass)) * h * h \
        == pytest.approx(0.0, abs=1e-18 + 1e-15 * abs(lhs))


def test_effective_index_mu():
    assert effective_index_mu(cone_from_sigma(1.0), -3) == pytest.approx(
        3.0, rel=1e-15)
    assert effective_index_mu(cone_from_sigma(0.5), 1) == pytest.approx(
        math.sqrt(3.25), rel=1e-15)
    with pytest.raises(ImaginaryIndexError):
        effective_index_mu(cone_from_sigma(0.5), 0)


def test_coupled_index_nu():
    assert coupled_index_nu(cone_from_sigma(1.0), 0.0, 2) == pytest.approx(
        2.0, rel=1e-15)
    assert coupled_index_nu(cone_from_sigma(0.5), 1.0, 0) == pytest.approx(
        0.5, rel=1e-15)
    assert coupled_index_nu(cone_from_sigma(0.5), 1.0, 1) == pytest.approx(
        math.sqrt(4.25), rel=1e-15)
    with pytest.raises(ValueError):
        coupled_index_nu(cone_from_sigma(0.5), 0.5, 0)


def test_coupled_index_nu_bound_message_gives_both_values():
    # .6g would print both as -0.96
    with pytest.raises(ValueError, match=r"= -0\.9599999999999997, got -0\.96$"):
        coupled_index_nu(cone_from_sigma(1.4), -0.96, 0)


def test_nu_reduces_to_mu_at_zero_kappa():
    # kappa = 0 is inside the coupled-index domain only for sigma >= 1;
    # there the two index maps must coincide
    for sigma in (1.0, 1.3):
        g = cone_from_sigma(sigma)
        for m in (0, 1, 2, 5):
            assert coupled_index_nu(g, 0.0, m) == pytest.approx(
                effective_index_mu(g, m), rel=1e-15)
    with pytest.raises(ValueError):
        coupled_index_nu(cone_from_sigma(0.6), 0.0, 1)


def test_nu_monotonicity_and_asymptote():
    g = cone_from_sigma(0.5)
    nus = [coupled_index_nu(g, 1.0, m) for m in range(0, 8)]
    assert all(nus[i + 1] > nus[i] for i in range(len(nus) - 1))
    kappas = [0.75, 1.0, 2.0, 5.0]
    by_kappa = [coupled_index_nu(g, k, 1) for k in kappas]
    assert all(by_kappa[i + 1] > by_kappa[i] for i in range(len(by_kappa) - 1))
    # nu(m, sigma) -> |m|/sigma
    m = 10000
    ratio = coupled_index_nu(g, 1.0, m) / (m / g.sigma)
    assert abs(ratio - 1.0) < 1e-6


def test_nu_is_within_its_conditioning_of_the_exact_order():
    # nu against sqrt(4m^2 + kappa + sigma^2 - 1)/(2 sigma) in exact
    # rationals and 200-bit mpmath, for the doubles sigma and kappa.
    # Rounding kappa - 1, sigma^2 and their sum costs at most u (|kappa - 1|
    # + sigma^2) in the radicand R; with g = (|kappa - 1| + sigma^2)/R that
    # bounds the error by 3 + g/2 ulps, so by 5 ulps away from the bound
    # (g <= 4, measured at most 1.7).  The form kappa + sigma^2 - 1 loses
    # sigma^2 against 1 at small sigma: nu(0) = 0 at sigma = 1e-8, kappa = 1.
    # sigma log-uniform on [1e-8, 3]; kappa = 1, on the rounded bound
    # 1 - s*s, or above it by U(0, 3); m in 0-5
    rng = np.random.default_rng(31)
    for _ in range(3000):
        s = float(10.0 ** rng.uniform(-8.0, math.log10(3.0)))
        kappa = (1.0, 1 - s * s,
                 1 - s * s + float(rng.uniform(0.0, 3.0)))[rng.integers(3)]
        m = int(rng.integers(0, 6))
        rad = 4 * m * m + Fraction(kappa) - 1 + Fraction(s) ** 2
        if m == 0 and kappa == 1 - s * s:
            continue                    # exactly 0 by rule; tested below
        with mpmath.workprec(200):
            exact = mpmath.sqrt(mpmath.mpf(rad.numerator) / rad.denominator) \
                / (2 * mpmath.mpf(s))
        got = OscillatorModel(ConeGeometry(s), NAT, kappa=kappa).nu(m)
        ulps = abs(mpmath.mpf(got) - exact) / math.ulp(float(exact))
        g = (abs(kappa - 1.0) + s * s) / float(rad)
        assert ulps <= 3.0 + g / 2.0, (s, kappa, m, float(ulps), g)
        assert got == coupled_index_nu(ConeGeometry(s), kappa, m)


def test_nu_is_exactly_zero_on_the_rounded_bound():
    # kappa = 1 - s*s, the double the check compares against, gives c = 0:
    # nu(0) = 0 and marginal; one ulp above, nu(0) is real and not marginal
    rng = np.random.default_rng(32)
    for s in rng.uniform(0.05, 3.0, 10_000).tolist():
        kappa = 1 - s * s
        model = OscillatorModel(ConeGeometry(s), NAT, kappa=kappa)
        assert model.nu(0) == 0.0 and model.marginal, (s, kappa)
        assert coupled_index_nu(ConeGeometry(s), kappa, 0) == 0.0
        above = OscillatorModel(ConeGeometry(s), NAT,
                                kappa=math.nextafter(kappa, math.inf))
        assert math.isfinite(above.nu(0)) and above.nu(0) >= 0.0


@pytest.mark.parametrize("sigma, kappa", [
    (0.5, 1.0), (0.7, 1 - 0.7 * 0.7), (0.3, 0.91), (1e-8, 1.0), (2.9, -7.4),
    (1.0, 0.0), (0.999, 1.0)])
def test_nu_scalar_and_array_agree_bit_for_bit(sigma, kappa):
    model = OscillatorModel(ConeGeometry(sigma), NAT, kappa=kappa)
    ms = np.arange(0, 401)
    block = model.nu(ms)
    assert block.tolist() == [model.nu(m) for m in range(401)]
    assert block.tolist() == coupled_index_nu(ConeGeometry(sigma), kappa,
                                              ms).tolist()
    assert all(type(model.nu(m)) is float for m in (0, 1, 400))


def test_flat_special_values():
    # sigma = 1: mu(m) = |m| exactly for every m
    g = cone_from_sigma(1.0)
    for m in range(-5, 6):
        assert effective_index_mu(g, m) == pytest.approx(abs(m), abs=1e-15)


def test_physical_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(mass=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)
