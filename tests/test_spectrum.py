"""Bound-state data: energies, wavefunctions, normalization, enumeration."""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from coneqm.geometry import ConeGeometry, PhysicalConstants, UnderflowError
from coneqm.spectrum import (OscillatorModel, QuantumNumbers, energy,
                             enumerate_states, normalization_log, potential,
                             radial_wavefunction, radial_wavefunctions,
                             wavefunction)

NAT = PhysicalConstants()


def model(sigma=0.5, kappa=1.0, omega=1.0, consts=NAT):
    return OscillatorModel(geom=ConeGeometry(sigma), consts=consts,
                           omega=omega, kappa=kappa)


def test_model_invariants():
    with pytest.raises(ValueError):
        model(sigma=0.5, kappa=0.5)          # kappa < 1 - sigma^2
    with pytest.raises(ValueError):
        model(omega=0.0)
    assert model(sigma=0.5, kappa=0.75).marginal
    assert not model(sigma=0.5, kappa=1.0).marginal


@pytest.mark.parametrize("sigma, kappa, error, names", [
    # sigma^2 overflows from this ulp on, by * and by ** alike
    (1.3407807929942597e154, 1.0, UnderflowError,
     ("sigma^2 overflows", "sigma = 1.3407807929942597e+154")),
    (1e300, 1.0, UnderflowError, ("sigma^2 overflows", "sigma = 1e+300")),
    # a NaN kappa passes kappa >= 1 - sigma^2
    (0.5, math.nan, ValueError, ("kappa must be a finite real", "nan")),
    (0.5, math.inf, ValueError, ("kappa must be a finite real", "inf")),
    # kappa + sigma^2 overflows, and 2 sigma is too small a divisor
    (1e154, 1.7e308, UnderflowError, ("nu(0, sigma) overflows",
                                      "sigma = 1e+154", "kappa = 1.7e+308")),
    (1e-310, 2.0, UnderflowError, ("nu(0, sigma) overflows",
                                   "sigma = 1e-310", "kappa = 2.0")),
])
def test_model_refuses_an_index_its_doubles_cannot_carry(sigma, kappa,
                                                         error, names):
    with pytest.raises(error) as caught:
        model(sigma=sigma, kappa=kappa)
    assert all(name in str(caught.value) for name in names), caught.value


def test_model_keeps_the_last_finite_square():
    s = 1.3407807929942596e154
    assert math.isfinite(s * s) and math.isfinite(s ** 2)
    assert model(sigma=s).nu(0) == pytest.approx(0.5)


def test_potential_values():
    assert potential(model(sigma=1.0, kappa=0.0), 2.0) == pytest.approx(
        2.0, rel=1e-15)
    assert potential(model(sigma=0.5, kappa=1.0), 1.0) == pytest.approx(
        1.0, rel=1e-15)
    with pytest.raises(ValueError):
        potential(model(), 0.0)


def test_potential_minimum_location():
    # dV/dr = 0 at r* = (kappa hbar^2 / (4 sigma^2 M^2 omega^2))^{1/4};
    # oracle: dense grid search
    m = model(sigma=0.5, kappa=2.0, omega=1.3,
              consts=PhysicalConstants(mass=0.9, hbar=1.1))
    r_star = (m.kappa * m.consts.hbar ** 2
              / (4.0 * m.geom.sigma ** 2 * m.consts.mass ** 2
                 * m.omega ** 2)) ** 0.25
    rs = np.linspace(0.2 * r_star, 3.0 * r_star, 20001)
    vals = [potential(m, r) for r in rs]
    assert rs[int(np.argmin(vals))] == pytest.approx(r_star, rel=1e-3)


def test_energy_examples():
    assert energy(model(sigma=1.0, kappa=0.0), QuantumNumbers(0, 0)) \
        == pytest.approx(1.0, rel=1e-15)
    assert energy(model(sigma=0.5, kappa=1.0), QuantumNumbers(0, 0)) \
        == pytest.approx(1.5, rel=1e-15)
    assert energy(model(sigma=0.5, kappa=1.0), QuantumNumbers(2, 1)) \
        == pytest.approx(5.0 + math.sqrt(4.25), rel=1e-15)


def test_energy_m_degeneracy_exact():
    m = model(sigma=0.7, kappa=1.3, omega=1.7)
    for n in range(3):
        for mm in range(1, 5):
            assert energy(m, QuantumNumbers(n, mm)) \
                == energy(m, QuantumNumbers(n, -mm))


def test_energy_scales_with_hbar_omega():
    consts = PhysicalConstants(mass=2.0, hbar=3.0)
    m = model(sigma=0.8, kappa=1.0, omega=0.7, consts=consts)
    qn = QuantumNumbers(1, 2)
    nu = m.nu(2)
    assert energy(m, qn) == pytest.approx(3.0 * 0.7 * (2 + 1 + nu), rel=1e-14)


def test_normalization_log_flat_ground():
    val = math.exp(normalization_log(model(sigma=1.0, kappa=0.0),
                                     QuantumNumbers(0, 0)))
    assert val == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


def test_normalization_log_cone_ground():
    # N_00 = sqrt(1/(pi Gamma(1.5))); frozen 30-digit oracle value
    val = math.exp(normalization_log(model(sigma=0.5, kappa=1.0),
                                     QuantumNumbers(0, 0)))
    assert val == pytest.approx(0.5993114751532237, rel=1e-13)


def test_normalization_log_and_overflow():
    # ln N_nm against the closed form
    # (1/Gamma(nu+1)) sqrt(Gamma(n+nu+1) / (pi n!)) (M omega/hbar)^{(nu+1)/2}
    # in 30-digit arithmetic
    m = model(sigma=0.8, kappa=2.0, omega=0.7,
              consts=PhysicalConstants(mass=2.0, hbar=3.0))
    qn = QuantumNumbers(3, 2)
    with mpmath.workdps(30):
        nu = mpmath.mpf(m.nu(2))
        ref = mpmath.log(mpmath.sqrt(mpmath.gamma(3 + nu + 1)
                                     / (mpmath.pi * mpmath.factorial(3)))
                         * (mpmath.mpf(2.0) * mpmath.mpf(0.7)
                            / mpmath.mpf(3.0)) ** ((nu + 1) / 2)
                         / mpmath.gamma(nu + 1))
    assert normalization_log(m, qn) == pytest.approx(float(ref), abs=1e-14)
    # extreme (M omega/hbar)^{(nu+1)/2}: N_nm overflows a double while its
    # log stays finite
    extreme = model(sigma=0.5, kappa=1.0, omega=1e300)
    qn_big = QuantumNumbers(0, 5)
    ln = normalization_log(extreme, qn_big)
    assert math.isfinite(ln)
    with pytest.raises(OverflowError):
        math.exp(ln)


def _norm_integral(m, qn, upper=16.0):
    val, _ = quad(lambda r: radial_wavefunction(m, qn, r) ** 2 * r,
                  0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=300)
    return 2.0 * math.pi * val


def _overlap_integral(m, qa, qb, upper=16.0):
    val, _ = quad(lambda r: radial_wavefunction(m, qa, r)
                  * radial_wavefunction(m, qb, r) * r,
                  0.0, upper, epsabs=1e-13, epsrel=1e-13, limit=300)
    return 2.0 * math.pi * val


def test_unit_norm_sample():
    m = model(sigma=0.8, kappa=2.0)
    for n, mm in [(0, 0), (2, 1), (4, 3), (1, -2)]:
        assert _norm_integral(m, QuantumNumbers(n, mm)) == pytest.approx(
            1.0, abs=1e-8)


def test_orthogonality_sample():
    m = model(sigma=0.5, kappa=1.0)
    for (na, nb, mm) in [(0, 1, 0), (0, 2, 1), (1, 3, 2)]:
        ov = _overlap_integral(m, QuantumNumbers(na, mm),
                               QuantumNumbers(nb, mm))
        assert abs(ov) < 1e-8


def test_wavefunction_at_origin():
    m = model(sigma=0.5, kappa=1.0)       # nu(0) = 0.5 > 0
    assert wavefunction(m, QuantumNumbers(0, 0), 0.0, 1.3) == 0.0
    marginal = model(sigma=0.5, kappa=0.75)   # nu(0) = 0
    val = wavefunction(marginal, QuantumNumbers(0, 0), 0.0, 0.0)
    assert val.real == pytest.approx(
        math.exp(normalization_log(marginal, QuantumNumbers(0, 0))),
        rel=1e-14)


def test_wavefunction_flat_ground_is_gaussian():
    m = model(sigma=1.0, kappa=0.0)
    for r in (0.0, 0.5, 1.0, 2.2):
        expect = math.sqrt(1.0 / math.pi) * math.exp(-0.5 * r * r)
        assert wavefunction(m, QuantumNumbers(0, 0), r, 0.7).real \
            == pytest.approx(expect, rel=1e-13)
        assert abs(wavefunction(m, QuantumNumbers(0, 0), r, 0.7).imag) < 1e-16


def test_wavefunction_flat_excited_matches_textbook():
    # flat 2D oscillator: R_{n,m}(r) ~ r^{|m|} e^{-r^2/2} L_n^{|m|}(r^2);
    # independent explicit construction for (n, m) = (1, 2)
    m = model(sigma=1.0, kappa=0.0)
    n, mm = 1, 2
    norm = math.sqrt(math.factorial(n)
                     / (math.pi * math.factorial(n + abs(mm))))
    for r in (0.3, 1.0, 1.9):
        lag = (1 + abs(mm)) - r * r     # L_1^{|m|}(r^2)
        expect = norm * r ** abs(mm) * math.exp(-0.5 * r * r) * lag
        assert radial_wavefunction(m, QuantumNumbers(n, mm), r) \
            == pytest.approx(expect, rel=1e-12)


def test_wavefunction_phase_convention():
    m = model()
    qn = QuantumNumbers(0, 3)
    r, th = 1.1, 0.37
    val = wavefunction(m, qn, r, th)
    rad = radial_wavefunction(m, qn, r)
    assert val == pytest.approx(rad * complex(math.cos(3 * th),
                                              math.sin(3 * th)), rel=1e-14)


def test_first_excited_has_one_radial_node():
    # 1F1(-1, nu+1; x) = 1 - x/(nu+1) changes sign exactly at x = nu + 1
    m = model(sigma=0.5, kappa=1.0)
    qn = QuantumNumbers(1, 0)
    nu = m.nu(0)
    r_node = math.sqrt(nu + 1.0)
    assert radial_wavefunction(m, qn, r_node * (1 - 1e-8)) > 0.0
    assert radial_wavefunction(m, qn, r_node * (1 + 1e-8)) < 0.0
    assert radial_wavefunction(m, qn, r_node) == pytest.approx(
        0.0, abs=1e-10)
    # no other sign change on (0, 6)
    rs = np.linspace(0.01, 6.0, 2000)
    signs = np.sign([radial_wavefunction(m, qn, r) for r in rs])
    assert np.count_nonzero(np.diff(signs)) == 1


def _psi_reference(m, n, mm, r):
    """N r^nu e^{-x/2} 1F1(-n, nu+1, x) at 40 digits, x = (M omega/hbar) r^2."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(m.nu(mm))
        r = mpmath.mpf(r)
        a = mpmath.mpf(m.consts.mass) * m.omega / m.consts.hbar
        x = a * r * r
        norm = mpmath.sqrt(mpmath.gamma(n + nu + 1) * a ** (nu + 1)
                           / (mpmath.pi * mpmath.factorial(n))) \
            / mpmath.gamma(nu + 1)
        return norm * r ** nu * mpmath.exp(-x / 2) \
            * mpmath.hyp1f1(-n, nu + 1, x)


@pytest.mark.parametrize("n, r", [(300, 40.0), (3000, 75.0), (3000, 119.75),
                                  (3000, 2.0)])
def test_wavefunction_examples_match_mpmath(n, r):
    # x = 1600 and 5625: e^{-x/2} and L_n alone leave the double range, and
    # their product used to be nan.  x = 14340: splitting the seed
    # ln psi_0 (about -7170) into mant 2^scale with a one-part ln 2 is
    # 1.1e-12 off.  x = 4: the plain Laguerre recurrence loses 1.4e-11 to
    # cancellation at n = 3000
    m = model(sigma=0.5, kappa=1.0)
    got = radial_wavefunction(m, QuantumNumbers(n, 1), r)
    ref = _psi_reference(m, n, 1, r)
    assert math.isfinite(got)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_wavefunction_matches_mpmath_on_seeded_points():
    # n <= 3000 and r up to 1.5 times the outer turning point
    # sqrt((4n + 2nu + 2)/a).  r keeps 24 bits and a is a power of two, so
    # x = a r^2 is exact and the reference sees the same x.  Near a node of
    # psi_n the O(n) recurrence is accurate relative to the size of the pair
    # (psi_n, psi_{n+1}) it carries, not to psi_n itself (1e-13 against up to
    # 9e-12 measured on 1100 points), so that size sets the scale.
    rng = np.random.default_rng(20261018)
    for _ in range(24):
        sigma = float(rng.uniform(0.3, 2.0))
        m = model(sigma=sigma, kappa=1.0 - sigma * sigma
                  + float(rng.uniform(0.0, 3.0)),
                  omega=float(rng.choice([0.5, 1.0, 2.0])))
        n = int(rng.integers(0, 3001))
        mm = int(rng.integers(-4, 5))
        turning = math.sqrt((4 * n + 2 * m.nu(mm) + 2) / m.omega)
        r = float(np.float32(rng.uniform(0.0, 1.5 * turning)))
        psi = radial_wavefunctions(m, mm, n + 1, r)
        assert psi[n] == radial_wavefunction(m, QuantumNumbers(n, mm), r)
        assert all(math.isfinite(v) for v in psi)
        ref = _psi_reference(m, n, mm, r)
        if abs(ref) >= sys.float_info.min:
            size = max(abs(ref), abs(_psi_reference(m, n + 1, mm, r)))
            assert abs(psi[n] - ref) <= 1e-12 * size, (n, mm, sigma, r)
        else:
            assert abs(psi[n]) < sys.float_info.min


def test_wavefunctions_list_while_psi_0_underflows():
    # at r = 40 psi_0m is about 1e-348 while psi_25m .. psi_300m are normal
    m = model(sigma=0.5, kappa=1.0)
    psi = radial_wavefunctions(m, 1, 300, 40.0)
    for n in range(0, 301, 25):
        ref = _psi_reference(m, n, 1, 40.0)
        if abs(ref) >= sys.float_info.min:
            assert abs(psi[n] - ref) <= 1e-12 * abs(ref), n
        else:
            assert abs(psi[n]) < sys.float_info.min


def test_wavefunctions_list_and_origin():
    m = model(sigma=0.8, kappa=2.0)
    psi = radial_wavefunctions(m, 2, 5, 1.7)
    assert psi == [radial_wavefunction(m, QuantumNumbers(n, 2), 1.7)
                   for n in range(6)]
    assert radial_wavefunctions(m, 0, 3, 0.0) == [0.0] * 4      # nu > 0
    marginal = model(sigma=0.5, kappa=0.75)                     # nu(0) = 0
    for n, v in enumerate(radial_wavefunctions(marginal, 0, 3, 0.0)):
        assert v == pytest.approx(
            math.exp(normalization_log(marginal, QuantumNumbers(n, 0))),
            rel=1e-14)
    # far past every turning point, and at an x = a r^2 that overflows
    assert radial_wavefunctions(m, 1, 3, 1e200) == [0.0] * 4
    with pytest.raises(ValueError):
        radial_wavefunctions(m, 1, -1, 1.0)


def test_wavefunctions_refuse_an_m_whose_index_overflows():
    # 4 m^2 overflows for a 161-digit m, so nu(m, sigma) is inf: refused
    # by name, not left to fail inside ln Gamma(nu + 1)
    m = 10 ** 160
    assert model().nu(m) == math.inf
    with pytest.raises(ValueError, match=f"at m = {m}:"):
        radial_wavefunctions(model(), m, 0, 1.0)


@pytest.mark.parametrize("m", [1.0, 0.5, True, "1", None])
def test_wavefunctions_refuse_non_integer_m(m):
    with pytest.raises(ValueError, match="m must be an integer"):
        radial_wavefunctions(model(), m, 2, 1.0)


def test_enumerate_flat_ladder():
    states = enumerate_states(model(sigma=1.0, kappa=0.0), 2.5, 4)
    key = [(s.qn.n, s.qn.m) for s in states]
    assert key == [(0, 0), (0, -1), (0, 1)]
    assert [s.energy for s in states] == pytest.approx([1.0, 2.0, 2.0])


def test_enumerate_cone_example():
    states = enumerate_states(model(sigma=0.5, kappa=1.0), 4.0, 3)
    key = [(s.qn.n, s.qn.m) for s in states]
    assert key == [(0, 0), (0, -1), (0, 1), (1, 0)]
    assert states[0].energy == pytest.approx(1.5)
    assert states[1].energy == pytest.approx(1.0 + math.sqrt(4.25))
    assert states[3].energy == pytest.approx(3.5)


def test_enumerate_sorted_and_marginal_flag():
    m = model(sigma=0.5, kappa=0.75)
    states = enumerate_states(m, 6.0, 2)
    energies = [s.energy for s in states]
    assert energies == sorted(energies)
    m0 = [s for s in states if s.qn.m == 0]
    assert all(s.marginal for s in m0)
    assert all(not s.marginal for s in states if s.qn.m != 0)


def test_flat_limit_of_cone_states():
    # sigma -> 1, kappa -> 0 reproduces the flat oscillator pointwise.  The
    # approach is sqrt-slow in (kappa + sigma^2 - 1) for m = 0, so the tight
    # check runs along sigma = 1 exactly with kappa -> 0.
    m_flat = model(sigma=1.0, kappa=0.0)
    m_near = model(sigma=1.0, kappa=1e-24)
    for n, mm in [(0, 0), (1, 1), (2, -2)]:
        qn = QuantumNumbers(n, mm)
        assert energy(m_near, qn) == pytest.approx(energy(m_flat, qn),
                                                   rel=1e-12)
        for r in (0.4, 1.3):
            assert radial_wavefunction(m_near, qn, r) == pytest.approx(
                radial_wavefunction(m_flat, qn, r), rel=1e-12)
    # off the sigma = 1 axis the agreement degrades like sqrt(kappa + sigma^2 - 1)
    m_off = model(sigma=1.0 - 1e-8, kappa=2.5e-8)
    for n, mm in [(0, 0), (1, 1)]:
        qn = QuantumNumbers(n, mm)
        assert energy(m_off, qn) == pytest.approx(energy(m_flat, qn),
                                                  rel=1e-3)
