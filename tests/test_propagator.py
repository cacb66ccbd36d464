"""Euclidean kernels: closed form, spectral sum, partial-wave assembly,
composition rule, and trace.

Independent oracles used here: the Mehler closed form of the flat 2D
oscillator kernel (a Gaussian path-integral identity that never touches the
partial-wave code), the free-particle kernel limit, explicit spectral sums,
and trapezoid/ladder identities.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ive

from coneqm import propagator, specfun
from coneqm.geometry import ConeGeometry, PhysicalConstants
from coneqm.grids import RadialGrid, TanhSinhRule
from coneqm.propagator import (KernelQuery, full_kernel, partial_wave_trace,
                               partial_wave_trace_exact, radial_kernel_closed,
                               radial_kernel_spectral, semigroup_defect,
                               spectral_vs_closed_relative_error)
from coneqm.spectrum import OscillatorModel

NAT = PhysicalConstants()


def model(sigma=0.5, kappa=1.0, omega=1.0, consts=NAT):
    return OscillatorModel(geom=ConeGeometry(sigma), consts=consts,
                           omega=omega, kappa=kappa)


def mehler_kernel(omega, r1, r2, dtheta, beta, consts=NAT):
    """Flat 2D oscillator heat kernel (Mehler form), the m-sum oracle."""
    a = consts.mass * omega / consts.hbar
    sh = math.sinh(omega * beta)
    ch = math.cosh(omega * beta)
    return (a / (2.0 * math.pi * sh)) * math.exp(
        -(a / (2.0 * sh)) * ((r1 * r1 + r2 * r2) * ch
                             - 2.0 * r1 * r2 * math.cos(dtheta)))


# ------------------------------------------------------------- closed form


def test_free_flat_limit():
    # omega -> 0 at sigma=1, kappa=0, m=0: kernel -> (M/hbar beta)
    # * exp(-M(r1^2+r2^2)/(2 hbar beta)) I_0(M r1 r2/(hbar beta));
    # at r1=r2=beta=1 that is e^{-1} I_0(1), frozen from the series oracle.
    m = model(sigma=1.0, kappa=0.0, omega=1e-8)
    val = radial_kernel_closed(m, 0, 1.0, 1.0, 1.0)
    assert val == pytest.approx(0.46575960759364043, rel=1e-8)


@pytest.mark.parametrize("beta", [1e-4, 1e-6, 1e-8])
def test_closed_kernel_small_beta_matches_mpmath(beta):
    # r1 near r2 at small beta: z and Q are both near r1 r2 / beta, and the
    # exponent z - Q must not be formed as their difference
    m = model()
    nu = m.nu(1)
    rng = np.random.default_rng(17)
    r1 = rng.uniform(0.5, 3.0, 30)
    r2 = r1 * (1.0 + rng.choice([-1e-3, 1e-3], 30))
    worst = 0.0
    with mpmath.workdps(50):
        sh = mpmath.sinh(beta)
        ch = mpmath.cosh(beta)
        for a, b in zip(r1.tolist(), r2.tolist()):
            ref = (mpmath.exp(-(mpmath.mpf(a) ** 2 + mpmath.mpf(b) ** 2)
                              * ch / (2 * sh))
                   * mpmath.besseli(nu, mpmath.mpf(a) * b / sh) / sh)
            val = radial_kernel_closed(m, 1, a, b, beta)
            worst = max(worst, float(abs(val / ref - 1)))
    assert worst <= 1e-12


def test_closed_symmetry_exact():
    m = model()
    for mm in (0, 1, 3):
        assert radial_kernel_closed(m, mm, 0.7, 1.3, 0.9) \
            == radial_kernel_closed(m, mm, 1.3, 0.7, 0.9)


def test_closed_positivity():
    m = model(sigma=0.8, kappa=2.0)
    for mm in (0, 1, 4):
        for r1, r2, b in [(0.1, 0.1, 0.3), (1.0, 2.5, 1.0), (4.0, 0.2, 2.0)]:
            assert radial_kernel_closed(m, mm, r1, r2, b) > 0.0


def test_closed_matches_spectral_example():
    m = model(sigma=0.5, kappa=1.0)
    closed = radial_kernel_closed(m, 0, 1.0, 1.0, 2.0)
    spectral = radial_kernel_spectral(m, 0, 1.0, 1.0, 2.0, 40).value
    assert spectral == pytest.approx(closed, rel=1e-8)


def test_closed_domain_errors():
    m = model()
    with pytest.raises(ValueError):
        radial_kernel_closed(m, 0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        radial_kernel_closed(m, 0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        radial_kernel_closed(m, 0, 1.0, 1.0, -2.0)


def test_sigma_one_order_equals_flat_index():
    # at sigma = 1 the kernel order is sqrt(4m^2 + kappa)/2 exactly
    m = model(sigma=1.0, kappa=2.0)
    for mm in range(5):
        assert m.nu(mm) == pytest.approx(
            0.5 * math.sqrt(4.0 * mm * mm + 2.0), rel=1e-15)


def test_no_overflow_deep_in_tails():
    # scaled Bessel keeps the kernel finite for extreme arguments
    m = model(omega=1.0)
    val = radial_kernel_closed(m, 0, 0.01, 0.01, 1e-6)
    assert math.isfinite(val)
    val = radial_kernel_closed(m, 0, 8.0, 8.0, 1e-5)
    assert math.isfinite(val)


# ------------------------------------------------------------ spectral sum


def test_spectral_ground_state_dominance():
    # at large beta the n_max = 0 sum carries the whole kernel
    m = model(sigma=0.5, kappa=1.0)
    ratios = []
    for beta in (2.0, 4.0, 6.0):
        closed = radial_kernel_closed(m, 0, 1.0, 1.0, beta)
        one = radial_kernel_spectral(m, 0, 1.0, 1.0, beta, 0).value
        ratios.append(one / closed)
    assert all(ratios[i + 1] > ratios[i] for i in range(len(ratios) - 1))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-4)


def test_spectral_partial_sum_structure():
    m = model(sigma=0.8, kappa=2.0)
    s0 = radial_kernel_spectral(m, 1, 0.9, 1.1, 1.0, 0)
    s1 = radial_kernel_spectral(m, 1, 0.9, 1.1, 1.0, 1)
    # difference of consecutive partial sums is the explicit n=1 term
    assert abs(s1.value - s0.value) == pytest.approx(s1.last_term, rel=1e-12)
    assert s1.n_max == 1


@pytest.mark.parametrize("r, n_max", [(30.0, 400), (38.0, 800)])
def test_spectral_sum_far_out_matches_closed(r, n_max):
    # each term's Gaussian is carried in the wavefunctions' scale: the sum
    # used to give 0.0 at r = 30 and nan at r = 38
    m = model(sigma=0.5, kappa=1.0)
    closed = radial_kernel_closed(m, 1, r, r, 0.1)
    spectral = radial_kernel_spectral(m, 1, r, r, 0.1, n_max).value
    assert abs(spectral - closed) <= 1e-10 * closed


def test_spectral_flat_agreement():
    m = model(sigma=1.0, kappa=0.0)
    err = spectral_vs_closed_relative_error(m, 1, 1.0, 1.0, 1.0, 40)
    assert err < 1e-10


def test_spectral_convergence_grid():
    # the propagator-wide invariant at its stated tolerance
    worst = 0.0
    for sigma in (0.5, 0.8, 1.0):
        for kappa in (1.0, 2.0):
            m = model(sigma=sigma, kappa=kappa)
            for mm in range(5):
                for r1 in (0.5, 1.0, 2.0):
                    for r2 in (0.5, 1.0, 2.0):
                        worst = max(worst, spectral_vs_closed_relative_error(
                            m, mm, r1, r2, 0.5, 40))
    assert worst < 1e-6


# ------------------------------------------------------------- full kernel


def test_full_kernel_matches_mehler():
    m = model(sigma=1.0, kappa=0.0)
    for dth in (0.0, math.pi / 3, math.pi):
        q = KernelQuery(r1=1.0, r2=1.0, beta=1.0, m_max=60)
        got = full_kernel(m, q, dth)
        assert got.value == pytest.approx(
            mehler_kernel(1.0, 1.0, 1.0, dth, 1.0), rel=1e-8)


def test_full_kernel_dtheta_independence_near_apex():
    # as r1 -> 0 only the m = 0 channel survives: the relative dtheta
    # variation shrinks linearly with r1 (the m=1 channel is O(r1))
    m = model(sigma=1.0, kappa=0.0)

    def spread(r1):
        vals = [full_kernel(m, KernelQuery(r1=r1, r2=1.0, beta=1.0, m_max=30),
                            dth).value for dth in (0.0, 1.0, math.pi)]
        return (max(vals) - min(vals)) / max(vals)

    assert spread(1e-6) < 5e-6
    assert spread(1e-8) < 5e-8


def test_full_kernel_dtheta_ordering():
    m = model(sigma=0.5, kappa=1.0)
    q = KernelQuery(r1=1.0, r2=1.0, beta=1.0, m_max=40)
    assert full_kernel(m, q, 0.0).value >= full_kernel(m, q, math.pi).value


def full_fsum(mod, q, dtheta, cos_overflow=math.nan):
    """(1/2pi) fsum of every term up to m_max, each from radial_kernel_closed;
    ``cos_overflow`` stands in for cos(m dtheta) where m * dtheta overflows."""
    args = (q.r1, q.r2, q.beta)
    terms = [radial_kernel_closed(mod, 0, *args)]
    for k in range(1, q.m_max + 1):
        angle = k * dtheta
        c = cos_overflow if math.isinf(angle) else math.cos(angle)
        terms.append(2.0 * c * radial_kernel_closed(mod, k, *args))
    return math.fsum(terms) / (2.0 * math.pi)


def test_full_kernel_m0_isotropic_term():
    # the partial-wave sum is built from the same R_m as radial_kernel_closed
    m = model()
    for m_max in (0, 5, 40):
        q = KernelQuery(r1=1.0, r2=1.2, beta=0.8, m_max=m_max)
        assert full_kernel(m, q, 2.1).value == full_fsum(m, q, 2.1)


@settings(max_examples=300)
@given(sigma=st.floats(0.25, 2.0), extra=st.floats(0.0, 3.0),
       r1=st.floats(5e-324, 6.0), r2=st.floats(5e-324, 6.0),
       beta=st.floats(1e-4, 20.0),
       dtheta=st.floats(allow_nan=False, allow_infinity=False),
       m_max=st.sampled_from([0, 1, 10, 40, 80]))
def test_full_kernel_equals_the_whole_m_max_sum(sigma, extra, r1, r2, beta,
                                                dtheta, m_max):
    # terms skipped past the certified point never change the rounded sum
    mod = model(sigma=sigma, kappa=1.0 - sigma * sigma + extra)
    q = KernelQuery(r1=r1, r2=r2, beta=beta, m_max=m_max)
    try:
        value = full_kernel(mod, q, dtheta).value
    except ValueError as exc:
        # only a computed term whose m * dtheta overflows is refused
        assert "dtheta" in str(exc) and math.isinf(m_max * dtheta)
        return
    # so the skipped terms' cosines, even undefined ones, cannot matter
    assert value == full_fsum(mod, q, dtheta, 1.0) \
        == full_fsum(mod, q, dtheta, -1.0)


@settings(max_examples=300)
@given(sigma=st.floats(0.25, 2.0), extra=st.floats(0.0, 3.0),
       r1=st.floats(5e-324, 6.0), r2=st.floats(5e-324, 6.0),
       beta=st.floats(1e-4, 20.0), dtheta=st.floats(0.0, 2.0 * math.pi),
       m_max=st.sampled_from([0, 1, 10, 40, 80]))
# value -5.5e-16 with tail 2.1e-16: the terms' error, not the tail, is short
@example(sigma=1.7297941673233874, extra=1.7386280815449546,
         r1=2.472210707708877, r2=2.307260458396327, beta=0.20211616602487087,
         dtheta=3.743997232290313, m_max=80)
def test_full_kernel_is_finite_symmetric_and_within_its_tail_of_positive(
        sigma, extra, r1, r2, beta, dtheta, m_max):
    # the true kernel is positive; the value misses it by at most the
    # certified tail plus the terms' own error, 1e-13 of each term at most
    # (specfun's accuracy).  Where the terms cancel to far below their size
    # that error shows: value + tail_bound reaches -7.8e-16 sum |term| on
    # 20,000 seeded points, so the tail alone does not cover it.
    mod = model(sigma=sigma, kappa=1.0 - sigma * sigma + extra)
    res = full_kernel(mod, KernelQuery(r1=r1, r2=r2, beta=beta,
                                       m_max=m_max), dtheta)
    swapped = full_kernel(mod, KernelQuery(r1=r2, r2=r1, beta=beta,
                                           m_max=m_max), dtheta)
    assert math.isfinite(res.value) and math.isfinite(res.tail_bound)
    assert (res.value, res.tail_bound) == (swapped.value, swapped.tail_bound)
    assert math.copysign(1.0, res.value) == math.copysign(1.0, swapped.value)
    size = math.fsum([radial_kernel_closed(mod, 0, r1, r2, beta)] + [
        2.0 * radial_kernel_closed(mod, k, r1, r2, beta)
        for k in range(1, m_max + 1)]) / (2.0 * math.pi)
    assert res.value + res.tail_bound >= -1.0e-13 * size


def seeded_kernel_cases(n):
    rng = np.random.default_rng(6)
    cases = []
    for _ in range(n):
        sigma = float(rng.uniform(0.25, 2.0))
        mod = model(sigma=sigma,
                    kappa=1.0 - sigma * sigma + float(rng.uniform(0.0, 3.0)))
        q = KernelQuery(r1=float(rng.uniform(0.1, 3.0)),
                        r2=float(rng.uniform(0.1, 3.0)),
                        beta=float(10.0 ** rng.uniform(-1.3, 0.7)),
                        m_max=int(rng.choice([10, 40, 80])))
        cases.append((mod, q, float(rng.uniform(0.0, math.pi))))
    return cases


def test_full_kernel_equality_catches_a_stop_without_remainder_bound(
        monkeypatch):
    cases = seeded_kernel_cases(100)
    assert all(full_kernel(mod, q, dth).value == full_fsum(mod, q, dth)
               for mod, q, dth in cases)
    # a program that takes the remaining terms for zero stops too early
    monkeypatch.setattr(propagator, "_log_ratio_sum_bound",
                        lambda nu, lead, s, z: -math.inf)
    assert any(full_kernel(mod, q, dth).value != full_fsum(mod, q, dth)
               for mod, q, dth in cases)


def test_full_kernel_over_several_blocks_of_orders(monkeypatch):
    # sigma = 2 makes nu(m) near m / 2, so at z = 9 / sinh(0.3) = 29.6 the
    # sum is certified only past m = 90: several blocks, each of at most
    # _BLOCK orders, give the whole m_max sum bit for bit
    blocks = []

    def recording(orders, x):
        blocks.append(len(orders))
        return specfun.bessel_i_scaled_orders(orders, x)
    monkeypatch.setattr(propagator, "bessel_i_scaled_orders", recording)
    mod = model(sigma=2.0, kappa=-2.0)
    for m_max in (200, 100_000_000):
        blocks.clear()
        q = KernelQuery(r1=3.0, r2=3.0, beta=0.3, m_max=m_max)
        assert full_kernel(mod, q, 0.7).value \
            == full_fsum(mod, KernelQuery(3.0, 3.0, 0.3, 200), 0.7)
        assert len(blocks) >= 2
        assert max(blocks) <= propagator._BLOCK


@pytest.mark.parametrize("r", [0.1, 1.0])
def test_closed_kernel_rejects_overflowing_factors(r):
    # at r = 0.1, z = 1e308 but M omega / (hbar sinh(omega beta)) overflows;
    # at r = 1, z overflows too.  Scalar and array radii alike, and no numpy
    # warning comes first
    m = model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r1, r2 in ((r, r), (np.array([0.5, r]), r),
                       (r, np.array([[r], [r]]))):
            with pytest.raises(ValueError,
                               match="r1 = .*, r2 = .*, beta = 1e-310"):
                radial_kernel_closed(m, 1, r1, r2, 1e-310)
        # an overflowing z alone names its point of the array
        with pytest.raises(ValueError,
                           match=r"r1 = 1e\+300, r2 = 1e\+300, beta"):
            radial_kernel_closed(m, 1, np.array([1.0, 1e300]), 1e300, 1.0)


@pytest.mark.parametrize("beta", [709.9, 710.3, 711.0, 750.0])
def test_closed_kernel_where_sinh_overflows_matches_mpmath(beta):
    # 2 sinh(omega beta) overflows above omega beta = 709.78, where the
    # factors take their e^{-omega beta} form.  With a = M omega/hbar = 1e200
    # and radii near 1e-100 the kernel is a normal number, so that form's
    # precision shows; array radii give the scalar calls' bits
    mod = model(sigma=1.0, kappa=0.0, consts=PhysicalConstants(mass=1e200))
    r1 = np.array([0.5e-100, 1e-100, 1.5e-100])
    r2 = np.array([1e-100, 2e-100, 0.7e-100])
    got = radial_kernel_closed(mod, 0, r1, r2, beta)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(1e200), mpmath.mpf(beta)
        for x, y, val in zip(r1.tolist(), r2.tolist(), got.tolist()):
            x, y = mpmath.mpf(x), mpmath.mpf(y)
            ref = a / mpmath.sinh(b) * mpmath.exp(
                -a * (x * x + y * y) / (2 * mpmath.tanh(b))) \
                * mpmath.besseli(0, a * x * y / mpmath.sinh(b))
            assert val == pytest.approx(float(ref), rel=1e-13)
            assert val == radial_kernel_closed(mod, 0, float(x), float(y),
                                               beta)
    # in natural units: finite and small, no OverflowError
    assert 0.0 < radial_kernel_closed(model(1.0, 0.0), 0, 1.0, 1.0, 711.0) \
        < 1e-308


def test_full_kernel_rejects_overflowing_factors():
    # z = M omega r1 r2 / (hbar sinh(omega beta)) or the prefactor overflows
    m = model()
    for r, beta in ((1.0, 1e-310), (0.1, 1e-310)):
        with pytest.raises(ValueError, match="r1 = .*r2 = .*beta = 1e-310"):
            full_kernel(m, KernelQuery(r1=r, r2=r, beta=beta), 0.0)
    # sinh(omega beta) underflows to 0
    with pytest.raises(ValueError, match="beta = 5e-324"):
        full_kernel(model(omega=0.5), KernelQuery(1.0, 1.0, 5e-324), 0.0)
    with pytest.raises(ValueError, match="beta = 5e-324"):
        radial_kernel_closed(model(omega=0.5), 1, 1.0, 1.0, 5e-324)


def test_amos_ratio_bounds_the_bessel_ratio():
    # rho(nu) >= I_{nu+1}(z)/I_nu(z) at seeded (nu, z), against mpmath
    rng = np.random.default_rng(11)
    nus = rng.uniform(0.0, 200.0, 120).tolist() + [0.0, 0.5, 1.0, 200.0]
    zs = (10.0 ** rng.uniform(-3.0, 4.0, 124)).tolist()
    zs[-4:] = [1e-3, 1e4, 1e4, 1e-3]
    # (nu + 1/2)/z overflows at a subnormal z
    nus += [0.0, 200.0]
    zs += [5e-324, 1e-310]
    tighter_fails = 0
    with mpmath.workdps(40):
        for nu, z in zip(nus, zs):
            ratio = mpmath.besseli(nu + 1, z) / mpmath.besseli(nu, z)
            log_ratio = float(mpmath.log(ratio))
            got = propagator._log_amos_ratio(nu, z)
            assert got >= log_ratio - 1e-15 * abs(log_ratio), (nu, z)
            # the (nu + 3/2)^2 variant under the root is not an upper bound
            a = mpmath.mpf(nu) + 0.5
            tighter = z / (a + mpmath.sqrt((a + 1) ** 2 + mpmath.mpf(z) ** 2))
            tighter_fails += tighter < ratio
    assert tighter_fails > 0


def test_order_step_bounds_hold():
    # the two real-exponent forms _log_ratio_sum_bound steps with, against
    # 40-digit mpmath: I_{nu+D}/I_nu <= rho(nu)^D for D >= 1, and
    # <= rho(nu-1)^D for nu >= 1 and any D > 0
    rng = np.random.default_rng(12)
    short_with_rho_nu_fails = 0
    with mpmath.workdps(40):
        for _ in range(150):
            nu = float(rng.uniform(0.0, 200.0))
            z = float(10.0 ** rng.uniform(-3.0, 4.0))
            i_nu = mpmath.besseli(nu, z)
            for step in (float(1.0 + 10.0 ** rng.uniform(-3.0, 2.0)),
                         float(10.0 ** rng.uniform(-4.0, 2.0))):
                got = float(mpmath.log(mpmath.besseli(nu + step, z) / i_nu))
                lr = propagator._log_amos_ratio(nu, z)
                if step >= 1.0:
                    bound = step * lr
                    assert got <= bound + 1e-14 * abs(bound), (nu, z, step)
                else:
                    short_with_rho_nu_fails += got > step * lr
                if nu >= 1.0:
                    bound = step * propagator._log_amos_ratio(nu - 1.0, z)
                    assert got <= bound + 1e-14 * abs(bound), (nu, z, step)
    # a short step needs rho(nu - 1): rho(nu)^D is not an upper bound there
    assert short_with_rho_nu_fails > 0


def ive_sum(order, z, start):
    """sum_{i >= start} of scipy's ive(order(i), z), block by block until the
    last term is negligible."""
    total = 0.0
    while True:
        terms = ive(order(np.arange(start, start + 256)), z)
        total += float(terms.sum())
        if terms[-1] <= 1e-18 * total:
            return total
        start += 256


def test_ratio_sum_bound_covers_the_sum():
    # sum_{i >= s} I_{nu + i lead/s}(z) / I_nu(z): orders spaced evenly, the
    # slowest growth that a convex nu(m) allows
    rng = np.random.default_rng(13)
    for _ in range(200):
        nu = float(10.0 ** rng.uniform(-2.0, 1.7))
        lead = float(10.0 ** rng.uniform(-1.5, 0.8))
        s = int(rng.choice([1, 2, 5, 20]))
        z = float(10.0 ** rng.uniform(-3.0, 3.0))
        total = ive_sum(lambda i: nu + i * (lead / s), z, s) / ive(nu, z)
        bound = math.exp(propagator._log_ratio_sum_bound(nu, lead, s, z))
        assert bound >= total * (1.0 - 1e-12), (nu, lead, s, z)


def brute_force_tail(mod, q):
    """sum_{m > m_max} R_m / pi through scipy's ive."""
    sigma = mod.geom.sigma
    sh = math.sinh(q.beta)
    z = q.r1 * q.r2 / sh
    log_scale = z - 0.5 * (q.r1 ** 2 + q.r2 ** 2) * math.cosh(q.beta) / sh \
        - math.log(sh)
    return math.exp(log_scale) / math.pi * ive_sum(
        lambda m: np.sqrt(4.0 * m * m + mod.kappa + sigma ** 2 - 1.0)
        / (2.0 * sigma), z, q.m_max + 1)


@settings(max_examples=300)
@given(sigma=st.floats(0.1, 3.0), extra=st.floats(0.0, 3.0),
       r1=st.floats(1e-3, 6.0), r2=st.floats(1e-3, 6.0),
       beta=st.floats(1e-4, 20.0), m_max=st.integers(0, 200))
# the inputs where the former Gamma-function bound overflowed, was loose by
# 1e35, or took the logarithm of z = 0
@example(sigma=0.5, extra=0.75, r1=1.0, r2=1.0, beta=1e-6, m_max=40)
@example(sigma=0.5, extra=0.75, r1=4.0, r2=4.4, beta=0.01, m_max=40)
@example(sigma=1.0, extra=0.0, r1=4.0, r2=4.0, beta=0.1, m_max=40)
@example(sigma=0.5, extra=0.75, r1=1e-170, r2=1e-170, beta=1.0, m_max=40)
def test_tail_bound_covers_the_discarded_terms(sigma, extra, r1, r2, beta,
                                               m_max):
    mod = model(sigma=sigma, kappa=1.0 - sigma * sigma + extra)
    q = KernelQuery(r1=r1, r2=r2, beta=beta, m_max=m_max)
    bound = full_kernel(mod, q, 0.3).tail_bound
    assert math.isfinite(bound)
    assert bound >= brute_force_tail(mod, q) * (1.0 - 1e-12)


def steps_only_tail(mod, q, dtheta, monkeypatch):
    """full_kernel's tail with every skipped order stepped at rho(nu(j))."""
    def steps(mdl, nu, j, m_max, z):
        return propagator._log_ratio_sum_bound(
            nu, mdl.nu(m_max + 1) - nu, m_max + 1 - j, z)
    with monkeypatch.context() as mp:
        mp.setattr(propagator, "_log_tail_ratio", steps)
        return full_kernel(mod, q, dtheta).tail_bound


def test_tail_after_an_early_stop_is_tight(monkeypatch):
    # seeded points over the domain of the property test above: the tail is
    # at most the order-step bound and at least the brute-force tail
    rng = np.random.default_rng(16)
    tighter = 0
    for _ in range(150):
        sigma = float(rng.uniform(0.1, 3.0))
        mod = model(sigma=sigma,
                    kappa=1.0 - sigma * sigma + float(rng.uniform(0.0, 3.0)))
        r1, r2 = 10.0 ** rng.uniform(-3.0, math.log10(6.0), 2)
        beta = 10.0 ** rng.uniform(-4.0, math.log10(20.0))
        q = KernelQuery(r1=float(r1), r2=float(r2), beta=float(beta),
                        m_max=int(rng.integers(0, 201)))
        bound = full_kernel(mod, q, 0.3).tail_bound
        steps = steps_only_tail(mod, q, 0.3, monkeypatch)
        assert bound <= steps
        assert bound >= brute_force_tail(mod, q) * (1.0 - 1e-12)
        tighter += bound < 1e-3 * steps
    assert tighter > 0
    # the README example: the order steps give 3.0e-122 against a true tail
    # of 5.5e-155
    q = KernelQuery(r1=1.0, r2=1.0, beta=1.0, m_max=40)
    mod = model()
    true_tail = brute_force_tail(mod, q)
    assert 5e-155 < true_tail < 6e-155
    assert true_tail <= full_kernel(mod, q, 0.5).tail_bound <= 10 * true_tail
    assert steps_only_tail(mod, q, 0.5, monkeypatch) > 1e-125


def test_full_kernel_rejects_non_finite_dtheta():
    m = model()
    q = KernelQuery(r1=1.0, r2=1.0, beta=1.0, m_max=10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dtheta"):
            full_kernel(m, q, bad)


def test_full_kernel_truncation_within_tail_bound():
    m = model(sigma=0.5, kappa=1.0)
    for m_max in (2, 5, 10, 20):
        q_small = KernelQuery(r1=1.0, r2=1.0, beta=0.5, m_max=m_max)
        q_big = KernelQuery(r1=1.0, r2=1.0, beta=0.5, m_max=m_max + 25)
        small = full_kernel(m, q_small, 0.9)
        big = full_kernel(m, q_big, 0.9)
        # the certified bound holds in exact arithmetic; allow the summation
        # rounding floor on top of it
        assert abs(big.value - small.value) \
            <= small.tail_bound + 1e-15 * abs(small.value)


def test_full_kernel_bit_reproducible():
    m = model(sigma=0.7, kappa=1.1)
    q = KernelQuery(r1=0.9, r2=1.4, beta=0.7, m_max=35)
    a = full_kernel(m, q, 1.234)
    b = full_kernel(m, q, 1.234)
    assert a.value == b.value and a.tail_bound == b.tail_bound


# --------------------------------------------------------------- semigroup


def test_semigroup_defect_small():
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-4, 12.0, 2000)
    for mm in (0, 1, 2):
        res = semigroup_defect(m, mm, 0.7, 1.3, 0.5, 0.5, grid)
        assert res.defect < 1e-8
        assert res.grid_adequate


def test_semigroup_short_second_leg_grows_defect():
    # beta2 -> 0 degenerates toward the identity; once the short-time kernel
    # width sqrt(hbar beta2/M) falls below the grid spacing the quadrature
    # cannot resolve the near-delta factor and the defect becomes O(kernel)
    m = model()
    grid = RadialGrid(1e-4, 12.0, 2000)
    wide = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 0.5, grid).defect
    narrow = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 1e-6, grid).defect
    assert wide < 1e-12
    assert narrow > 1e6 * max(wide, 1e-18)
    target = radial_kernel_closed(m, 1, 1.3, 0.7, 0.5 + 1e-6)
    assert narrow > 0.1 * target


def test_semigroup_truncated_grid_fires_diagnostic():
    m = model()
    good = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 0.5,
                            RadialGrid(1e-4, 12.0, 2000))
    bad = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 0.5,
                           RadialGrid(1e-4, 2.0, 2000))
    assert good.grid_adequate
    assert not bad.grid_adequate
    assert bad.defect > good.defect
    assert bad.boundary_fraction > 1e-3


@pytest.mark.parametrize("nu", [0.0, 0.5, 3.0, 10.0])
def test_tanh_sinh_rule_integrates_gamma_moments(nu):
    # integral_0^U s^(2 nu + 1) e^(-s^2) ds = Gamma(nu + 1)/2, the shape of
    # |psi_0m|^2 r at order nu; the tail past U = 12 is below e^-140
    rule = TanhSinhRule(12.0)
    s = rule.values
    got = math.fsum(rule.trapezoid_weights() * s ** (2.0 * nu + 1.0)
                    * np.exp(-s * s))
    exact = math.gamma(nu + 1.0) / 2.0
    assert abs(got - exact) <= 1e-14 * exact


def test_tanh_sinh_rule_nodes_and_weights():
    rule = TanhSinhRule(12.0)
    s, w = rule.values, rule.trapezoid_weights()
    assert s.shape == w.shape == (161,)
    assert 0.0 < s[0] < 1e-15 and s[-1] == 12.0
    assert np.all(np.diff(s) >= 0.0) and np.all(w > 0.0)
    # symmetric in t: the rule is exact for 1 and s
    assert math.fsum(w) == pytest.approx(12.0, rel=1e-15)
    assert math.fsum(w * s) == pytest.approx(72.0, rel=1e-15)


@pytest.mark.parametrize("upper", [0.0, -1.0, math.nan, math.inf, True])
def test_tanh_sinh_rule_rejects_bad_upper(upper):
    with pytest.raises(ValueError):
        TanhSinhRule(upper)


def test_semigroup_truncated_rule_fires_diagnostic():
    m = model()
    good = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 0.5, TanhSinhRule(12.0))
    bad = semigroup_defect(m, 1, 0.7, 1.3, 0.5, 0.5, TanhSinhRule(2.0))
    assert good.grid_adequate
    assert good.defect < 1e-14
    assert not bad.grid_adequate
    assert bad.defect > good.defect
    assert bad.boundary_fraction > 1e-3


def semigroup_reference(mdl, mm, r1, r2, beta1, beta2, grid):
    """(defect, boundary_fraction) from one scalar kernel call per node."""
    f = [radial_kernel_closed(mdl, mm, r2, s, beta2)
         * radial_kernel_closed(mdl, mm, s, r1, beta1) * s
         for s in grid.values]
    integral = math.fsum(w * v for w, v in zip(grid.trapezoid_weights(), f))
    target = radial_kernel_closed(mdl, mm, r2, r1, beta1 + beta2)
    return abs(integral - target), max(f[0], f[-1]) / max(f)


def trace_reference(mdl, mm, beta, grid):
    return math.fsum(w * radial_kernel_closed(mdl, mm, r, r, beta) * r
                     for w, r in zip(grid.trapezoid_weights(), grid.values))


def seeded_quadrature_cases(n=4):
    rng = np.random.default_rng(8)
    for _ in range(n):
        sigma = float(rng.uniform(0.3, 2.0))
        kappa = 1.0 - sigma * sigma + float(rng.uniform(0.05, 3.0))
        yield (model(sigma=sigma, kappa=kappa), int(rng.integers(0, 4)),
               *(float(v) for v in np.exp(rng.uniform(-2.0, 1.0, 2))),
               *(float(v) for v in rng.uniform(0.2, 2.0, 2)))


def test_quadratures_equal_the_per_point_reference():
    # 600 nodes out to r = 20 reach both Bessel branches at these betas; at
    # sigma = 0.1, nu(1) = 10.01, and z runs far past 30
    grid = RadialGrid(1e-4, 20.0, 600)
    for mdl, mm, beta1, beta2, r1, r2 in [
            *seeded_quadrature_cases(),
            (model(sigma=0.1, kappa=1.0), 1, 0.5, 0.7, 1.3, 0.8)]:
        res = semigroup_defect(mdl, mm, r1, r2, beta1, beta2, grid)
        traces = [partial_wave_trace(mdl, mm, beta, grid)
                  for beta in (beta1, beta2)]
        assert (res.defect, res.boundary_fraction) == semigroup_reference(
            mdl, mm, r1, r2, beta1, beta2, grid)
        assert traces == [trace_reference(mdl, mm, beta, grid)
                          for beta in (beta1, beta2)]


def test_closed_kernel_on_arrays_equals_scalar_calls():
    # the transfer suite's peak x peak block: r1 down a column, r2 along a row
    mdl = model(sigma=0.7, kappa=2.0)
    r = np.linspace(0.05, 9.0, 40)
    block = radial_kernel_closed(mdl, 1, r[:, None], r[None, :], 0.3)
    assert block.shape == (40, 40)
    assert all(block[i, j] == radial_kernel_closed(mdl, 1, r[i], r[j], 0.3)
               for i in range(40) for j in range(40))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("which", ["r1", "r2"])
def test_semigroup_rejects_bad_endpoints(bad, which):
    ends = {"r1": 0.7, "r2": 1.3, which: bad}
    with pytest.raises(ValueError):
        semigroup_defect(model(), 1, ends["r1"], ends["r2"], 0.5, 0.5,
                         RadialGrid(1e-4, 12.0, 64))


def test_closed_kernel_on_arrays_rejects_bad_radii():
    r = np.array([0.5, 1.0, 2.0])
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            radial_kernel_closed(model(), 0, np.append(r, bad), 1.0, 1.0)
        with pytest.raises(ValueError):
            radial_kernel_closed(model(), 0, 1.0, np.append(r, bad), 1.0)


# ------------------------------------------------------------------- trace


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("mm", [0, 1, 2])
def test_trace_matches_geometric_ladder(beta, mm):
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-4, 12.0, 2000)
    num = partial_wave_trace(m, mm, beta, grid)
    exact = partial_wave_trace_exact(m, mm, beta)
    assert abs(num - exact) < 1e-7


def test_trace_exact_is_ladder_sum():
    # the closed form equals the literal sum over e^{-beta E_n}
    m = model(sigma=0.8, kappa=2.0, omega=1.3)
    beta = 0.9
    nu = m.nu(1)
    ladder = sum(math.exp(-beta * m.omega * (2 * n + 1 + nu))
                 for n in range(400))
    assert partial_wave_trace_exact(m, 1, beta) == pytest.approx(
        ladder, rel=1e-12)
