"""Closed-form Euclidean radial kernels on the cone and their assemblies.

All kernels are evaluated at imaginary (Euclidean) time beta > 0, where they
are strictly positive heat kernels; the real-time expressions follow by
analytic continuation and are not evaluated numerically here.

The m-channel radial kernel for the conical oscillator is

    R_m(r1, r2; beta) = (M w / (hbar sinh(w beta)))
                        * exp{-(M w / 2 hbar) (r1^2 + r2^2) coth(w beta)}
                        * I_{nu(m, sigma)}(M w r1 r2 / (hbar sinh(w beta)))

with w = omega.  The prefactor carries no 1/(2 pi): with this normalization
R_m equals its own spectral (Hille-Hardy) sum
2 pi sum_n e^{-beta E_nm/hbar} psi_nm(r1) psi_nm(r2), satisfies the
composition rule with measure s ds, and its trace over r dr is the geometric
ladder sum_n e^{-beta E_nm/hbar}.

The full kernel is the partial-wave sum
K = (1/2 pi) [R_0 + 2 sum_{m>=1} cos(m dtheta) R_m], reported together with a
certified bound on the discarded tail.  The early stop of the sum and the
tail bound use one remainder bound, ``_log_ratio_sum_bound``; at large
Bessel argument the generating function caps the tail bound.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

# coupled_index_nu and ln_gamma are unused here; bench/tracing.py wraps them
from .geometry import coupled_index_nu  # noqa: F401
from .grids import RadialGrid, TanhSinhRule
from .specfun import (bessel_i_scaled, bessel_i_scaled_array,
                      bessel_i_scaled_orders, exp_each)
from .specfun import ln_gamma  # noqa: F401
from .spectrum import (OscillatorModel, QuantumNumbers, energy,
                       radial_wavefunctions)

__all__ = [
    "KernelQuery", "SpectralKernel", "FullKernel", "SemigroupResult",
    "radial_kernel_closed", "radial_kernel_spectral", "full_kernel",
    "semigroup_defect", "partial_wave_trace", "partial_wave_trace_exact",
    "spectral_vs_closed_relative_error",
]

# integrand value at the first or last node above this fraction of the peak
# marks the grid or rule as too short for the composition integral; genuine
# truncation sits at >~1e-2.  An adequate RadialGrid sits at <~1e-7 (inner
# end, slowest power law); a TanhSinhRule, whose first node is 2e-17 upper,
# at <~1e-15
_BOUNDARY_TOL = 1.0e-6

# Early stop of the partial-wave sum (full_kernel).  The bound on the
# remaining terms is tried only once R_m < _PRECHECK |running sum|, and the
# exact rounding test, at most _MAX_TESTS times per query, only once the
# bound is below 2^-56 |running sum|.
# _SAFETY covers bessel_i_scaled's relative error (<= 3.5e-13 measured) and
# the rounding of each term; _UNDERFLOW_ULPS per remaining term covers the
# absolute error of terms that fall into the subnormal range.
_PRECHECK = 2.0 ** -40
_LOG_ATTEMPT = -56.0 * math.log(2.0)
_MAX_TESTS = 4
_SAFETY = 1.001
_NORMAL_MIN = sys.float_info.min
_UNDERFLOW_ULPS = 2.0 ** -1060
_GAP_MARGIN = 1.0 - 2.0 ** -20
# covers the rounding of the four terms of the integral in _log_tail_ratio
_INTEGRAL_ROUNDING = 8.0 * sys.float_info.epsilon
# full_kernel takes nu(m) and e^{-z} I_nu(m)(z) in blocks of orders from
# specfun.bessel_i_scaled_orders where z > _BLOCK_MIN_Z, and makes one scalar
# call per order at smaller z, where a block's fixed numpy cost exceeds the
# series work it saves.  The first block holds
# ceil(sigma (_FIRST_BLOCK[0] + _FIRST_BLOCK[1] sqrt(z))) orders, at most
# _BLOCK: the certified stop lies at 9 to 14.6 sigma sqrt(z) terms on
# kernel-table's queries, and a second block costs more than a few orders
# too many.  Later blocks hold _BLOCK orders.  Measured on kernel-table
# queries with the expansion above z = 30 (seeds 6, 8 and 9, 2-vCPU VM;
# mean per query of each query's best of 4, configurations interleaved
# query by query; us):
#   scalar against blocks at z in (1.5, 2]: 92.4 -> 105.3, 89.3 -> 100.9;
#   (2, 3]: 99.9 -> 100.6, 96.4 -> 98.2;  (3, 4]: 115.2 -> 105.4,
#   109.3 -> 100.8 (seeds 8, 9).
#   First block of 48 against sized from z, z > 3: 730.9 -> 707.0 and
#   703.1 -> 677.7 ms in all (seeds 8, 9); with 11 sqrt(z), 750.0 and
#   721.8, as second blocks return.
#   _BLOCK 48 -> 96 (sized first block): 693.0 -> 645.8 ms (seed 9); 32
#   was slower than 48, and 128 and 256 equal 96, as m_max <= 80 there.
#   All together, against blocks of 48 above z = 4, z > 1.5: 775.9 ->
#   705.4 ms (seed 6).  Orders evaluated past the stop on seed 1: 29,012
#   of 159,084 -> 10,462 of 151,765.
_BLOCK = 96
_BLOCK_MIN_Z = 3.0
_FIRST_BLOCK = (2.0, 13.0)


@dataclass(frozen=True)
class KernelQuery:
    """Evaluation request for the full kernel: endpoints, Euclidean time, cutoffs."""

    r1: float
    r2: float
    beta: float
    m_max: int = 40

    def __post_init__(self):
        for name in ("r1", "r2", "beta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be a finite real > 0, got {v!r}")
        v = self.m_max
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"m_max must be an integer >= 0, got {v!r}")


@dataclass(frozen=True)
class SpectralKernel:
    """Partial spectral sum with its convergence diagnostic."""

    value: float
    last_term: float
    n_max: int


@dataclass(frozen=True)
class FullKernel:
    """The partial-wave kernel and the bound on its discarded tail.

    ``tail_bound`` bounds only the m > m_max tail, not the rounding of the
    computed terms: where they cancel, ``value`` can lie below
    -``tail_bound`` by a few ulps of sum |term|.
    """

    value: float
    tail_bound: float
    m_max: int


@dataclass(frozen=True)
class SemigroupResult:
    defect: float
    boundary_fraction: float
    grid_adequate: bool


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"Euclidean time must be a finite real > 0, got {beta!r}")
    return beta


def _kernel_factors(model: OscillatorModel, r1: float, r2: float,
                    beta: float):
    # m-independent factors of R_m = pref * e^{z - Q} * (e^{-z} I_nu(z)):
    # returns (pref, z - Q, z) with pref = M w/(hbar sinh(w beta)); r1 and
    # r2 may be numpy arrays, which get the scalar operations element-wise.
    a = model.consts.mass * model.omega / model.consts.hbar
    wb = model.omega * beta
    try:
        sh = math.sinh(wb)
    except OverflowError:
        sh = math.inf
    if sh == 0.0:
        raise ValueError(
            f"sinh(omega beta) underflows to 0 at beta = {beta!r}")
    if math.isinf(2.0 * sh):
        # a/(2 sinh(wb)) below would be 0 and its factor inf: use
        # 1/sinh(wb) = 2 e^{-wb}/(1 - e^{-2wb}) and z - Q = -(a/2) (d^2
        # coth(wb) + 2 r1 r2 tanh(wb/2)).  Here wb > 709, where e^{-2wb}
        # rounds to 0 and coth(wb), tanh(wb/2) to 1, which leaves these
        pref = math.exp(math.log(2.0) + math.log(a) - wb)
        return pref, -(0.5 * a) * (r1 * r1 + r2 * r2), pref * r1 * r2
    z = a * r1 * r2 / sh
    # z - Q with Q = a (r1^2 + r2^2) cosh(wb) / (2 sh), written without the
    # cancellation of two terms near z: a sum of terms >= 0, negated, so it
    # is <= 0 and cannot overflow the exponential
    d = r1 - r2
    s2 = math.sinh(0.5 * wb)
    expo = -(a / (2.0 * sh)) * (d * d * math.cosh(wb) + 4.0 * r1 * r2 * s2 * s2)
    return a / sh, expo, z


def _overflow_error(r1, r2, beta: float, pref: float, z) -> ValueError:
    # names the first point where M w/(hbar sinh(w beta)) or the Bessel
    # argument z overflows; r1, r2 and z may be numpy arrays
    r1, r2, z = np.broadcast_arrays(r1, r2, z)
    i = int(np.argmax(~np.isfinite(z))) if math.isfinite(pref) else 0
    return ValueError(
        f"the kernel overflows at r1 = {float(r1.flat[i])!r}, "
        f"r2 = {float(r2.flat[i])!r}, beta = {beta!r}: M omega / (hbar "
        f"sinh(omega beta)) = {pref!r}, Bessel argument z = "
        f"{float(z.flat[i])!r}")


def radial_kernel_closed(model: OscillatorModel, m: int, r1, r2,
                         beta: float):
    """Closed-form Euclidean m-channel kernel; symmetric in r1 <-> r2.

    r1 and r2 may be numpy arrays, broadcast together.  The result is then
    the array of kernels, each equal bit for bit to the scalar call's value
    (``specfun.bessel_i_scaled_array``).
    """
    if np.ndim(r1) or np.ndim(r2):
        r1 = np.asarray(r1, dtype=float)
        r2 = np.asarray(r2, dtype=float)
        ok = np.all(np.isfinite(r1) & (r1 > 0.0)) \
            and np.all(np.isfinite(r2) & (r2 > 0.0))
        exp, bessel = exp_each, bessel_i_scaled_array
    else:
        r1 = float(r1)
        r2 = float(r2)
        ok = math.isfinite(r1) and r1 > 0.0 and math.isfinite(r2) and r2 > 0.0
        exp, bessel = math.exp, bessel_i_scaled
    beta = _check_beta(beta)
    if not ok:
        raise ValueError("r1 and r2 must be finite reals > 0")
    # overflowing factors are reported below, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        pref, expo, z = _kernel_factors(model, r1, r2, beta)
    if not (math.isfinite(pref) and np.isfinite(z).all()):
        raise _overflow_error(r1, r2, beta, pref, z)
    return pref * exp(expo) * bessel(model.nu(m), z)


def radial_kernel_spectral(model: OscillatorModel, m: int,
                           r1: float, r2: float, beta: float,
                           n_max: int) -> SpectralKernel:
    """Spectral partial sum 2 pi sum_{n<=n_max} e^{-beta E_nm/hbar} psi(r1) psi(r2).

    ``last_term`` is the magnitude of the final summand, a convergence
    diagnostic for the (monotonically dominated) tail.
    """
    r1 = float(r1)
    r2 = float(r2)
    if not math.isfinite(r1) or r1 <= 0.0 or not math.isfinite(r2) or r2 <= 0.0:
        raise ValueError("r1 and r2 must be finite reals > 0")
    beta = _check_beta(beta)
    psi1 = radial_wavefunctions(model, m, n_max, r1)
    psi2 = radial_wavefunctions(model, m, n_max, r2)
    terms = [2.0 * math.pi * psi1[n] * psi2[n] * math.exp(
        -beta * energy(model, QuantumNumbers(n, m)) / model.consts.hbar)
        for n in range(n_max + 1)]
    return SpectralKernel(value=math.fsum(terms), last_term=abs(terms[-1]),
                          n_max=n_max)


def _log_amos_ratio(nu: float, z: float) -> float:
    """log rho with rho = z / (nu + 1/2 + sqrt((nu + 1/2)^2 + z^2)), z > 0.

    rho bounds I_{nu+1}(z)/I_nu(z) from above for nu >= 0 (Amos 1974) and
    decreases in nu.  log rho = -asinh((nu + 1/2)/z) stays accurate where
    rho is close to 1.  Where (nu + 1/2)/z overflows it returns
    -log(2 (nu + 1/2)/z), still an upper bound as asinh(t) >= log(2t).
    """
    t = (nu + 0.5) / z
    if math.isinf(t):
        return math.log(z) - math.log(2.0 * nu + 1.0)
    return -math.asinh(t)


def _log_ratio_sum_bound(nu: float, lead: float, s: int, z: float) -> float:
    """log bound on sum_{k >= j+s} R_k/R_j; nu = nu(j), lead = nu(j+s) - nu.

    nu(m) is convex in m, so nu(j+i) - nu >= i lead/s for i >= s.  As
    log I_mu(z) is concave in mu, an order step D has I_{nu+D}/I_nu <=
    rho(nu)^D for D >= 1 and <= rho(nu-1)^D for nu >= 1 (rho from
    ``_log_amos_ratio``); else I_mu decreasing in mu gives rho(nu)^(D-1).
    The sum is then geometric.  Returns inf when its ratio rounds to 1.
    """
    if lead >= 1.0:
        lr, power = _log_amos_ratio(nu, z), lead
    elif nu >= 1.0:
        lr, power = _log_amos_ratio(nu - 1.0, z), lead
    else:
        lr, power = _log_amos_ratio(nu, z), lead - 1.0
    q = -math.expm1(lead / s * lr)
    if q > 0.0:
        return power * lr - math.log(q)
    return math.inf


def _log_tail_ratio(model: OscillatorModel, nu: float, j: int, m_max: int,
                    z: float) -> float:
    """log bound on sum_{m > m_max} R_m / R_j, with nu = nu(j), j <= m_max.

    At most ``_log_ratio_sum_bound``'s, which steps from nu(j) to every
    skipped order at rho(nu(j)), although rho shrinks as the order grows.
    Where nu(n) >= nu + 1, n = m_max + 1, a tighter one takes one step at
    rho(nu); then the slope of the concave log I_mu, at most
    log rho(mu - 1) = -asinh((mu - 1/2)/z), integrated up to nu(n) with
    int asinh(X/z) dX = X asinh(X/z) - sqrt(X^2 + z^2); from n on, steps
    of at least the mean step (nu(n) - nu)/(n - j) of the convex nu(m),
    each at most rho(nu(n) - 1), a geometric sum.
    """
    n = m_max + 1
    lead = model.nu(n) - nu
    if 1.0 <= lead < math.inf:
        lo = nu + 0.5
        hi = lo + (lead - 1.0)
        a_lo = math.asinh(lo / z)
        a_hi = math.asinh(hi / z)
        f_hi = hi * a_hi
        h_hi = math.sqrt(hi * hi + z * z)
        f_lo = lo * a_lo
        h_lo = math.sqrt(lo * lo + z * z)
        # less a margin for the rounding of the four parts; inf or nan
        # where a square overflows
        area = (f_hi - h_hi - f_lo + h_lo) \
            - _INTEGRAL_ROUNDING * (f_hi + h_hi + f_lo + h_lo)
        q = -math.expm1(-a_hi * lead / (n - j))
        if q > 0.0 and math.isfinite(area):
            tight = -a_lo - (area if area > 0.0 else 0.0) - math.log(q)
            # the order-step bound is lead log rho(nu) = -lead a_lo, less a
            # logarithm <= 0, so it is at least this, rounding included
            if tight <= lead * -a_lo:
                return tight
            return min(tight, _log_ratio_sum_bound(nu, lead, n - j, z))
    return _log_ratio_sum_bound(nu, lead, n - j, z)


def _rest_keeps_rounding(terms: list, rest: float):
    """fsum(terms) if adding any x with |x| <= rest leaves it unchanged.

    With s = fsum(terms) and e the rounded remainder sum(terms) - s, the
    exact total s + e + x rounds to s when it stays strictly inside half the
    gaps to s's neighbours; the 2^-20 margin covers the rounding of e and of
    e +- rest.  Returns None when that cannot be shown.
    """
    s = math.fsum(terms)
    terms.append(-s)
    e = math.fsum(terms)
    terms.pop()
    up = math.nextafter(s, math.inf) - s
    down = s - math.nextafter(s, -math.inf)
    if 2.0 * (e + rest) < up * _GAP_MARGIN and \
            2.0 * (e - rest) > -down * _GAP_MARGIN:
        return s
    return None


def _order_block(model: OscillatorModel, z: float, start: int, stop: int):
    """Iterators over nu(m) and e^{-z} I_nu(m)(z) for start <= m < stop; the
    Bessel values come from one ``specfun.bessel_i_scaled_orders`` call."""
    nus = model.nu(np.arange(start, stop)).tolist()
    return iter(nus), iter(bessel_i_scaled_orders(nus, z))


def full_kernel(model: OscillatorModel, query: KernelQuery,
                dtheta: float) -> FullKernel:
    """Truncated partial-wave kernel (1/2pi)[R_0 + 2 sum cos(m dtheta) R_m]
    with a certified bound on the discarded |m| > m_max tail.

    The m-sum runs in ascending order through math.fsum, so results are
    bit-reproducible regardless of any outer parallelism.  Terms stop being
    computed once a bound on the remaining ones up to m_max proves that they
    cannot change the correctly rounded sum, so ``value`` is identical to
    the full m_max sum.  A non-finite dtheta, or one whose product with a
    computed m overflows, raises ValueError.

    ``tail_bound`` bounds only the discarded m > m_max tail, not the
    rounding of the computed terms: where they cancel, ``value`` can lie
    below -``tail_bound`` by a few ulps of sum |term| (at sigma = 1.7298,
    kappa = -0.2536, m_max = 80, README.md's example, by 3.4 ulps).
    """
    dtheta = float(dtheta)
    if not math.isfinite(dtheta):
        raise ValueError(f"dtheta must be a finite real, got {dtheta!r}")
    m_max = query.m_max
    pref, expo, z = _kernel_factors(model, query.r1, query.r2, query.beta)
    if not (math.isfinite(pref) and math.isfinite(z)):
        raise _overflow_error(query.r1, query.r2, query.beta, pref, z)
    scale = pref * math.exp(expo)
    blocked = z > _BLOCK_MIN_Z
    if blocked:
        first = model.geom.sigma \
            * (_FIRST_BLOCK[0] + _FIRST_BLOCK[1] * math.sqrt(z))
        end = min(_BLOCK, m_max + 1, math.ceil(first))
        nus, bms = _order_block(model, z, 0, end)
        nu, bm = next(nus), next(bms)
    else:
        nu = model.nu(0)
        bm = bessel_i_scaled(nu, z)
    rm = scale * bm
    terms = [rm]
    running = rm
    value = None
    tests_left = _MAX_TESTS
    for m in range(1, m_max + 1):
        # certify from R_{m-1}; the pre-check keeps the bound off most terms,
        # and capping the rounding tests keeps the loop linear in m_max even
        # when the sum sits on a rounding tie
        if not blocked:
            nu_next = model.nu(m)
        elif m < end:
            nu_next = next(nus)
        else:
            end = min(m + _BLOCK, m_max + 1)
            nus, bms = _order_block(model, z, m, end)
            nu_next = next(nus)
        if tests_left and rm < _PRECHECK * abs(running) \
                and bm >= _NORMAL_MIN and rm >= _NORMAL_MIN:
            log_rest = math.log(2.0 * _SAFETY * rm) \
                + _log_ratio_sum_bound(nu, nu_next - nu, 1, z)
            if log_rest < math.log(abs(running)) + _LOG_ATTEMPT:
                # underflowed terms may each carry a few subnormal ulps
                rest = math.exp(log_rest) + (m_max - m + 1) * (scale + 1.0) \
                    * _UNDERFLOW_ULPS
                value = _rest_keeps_rounding(terms, rest)
                if value is not None:
                    break
                tests_left -= 1
        nu = nu_next
        bm = next(bms) if blocked else bessel_i_scaled(nu, z)
        rm = scale * bm
        if math.isinf(m * dtheta):
            raise ValueError(f"m * dtheta overflows at m = {m}; reduce "
                             f"dtheta = {dtheta!r} modulo 2 pi")
        t = 2.0 * math.cos(m * dtheta) * rm
        terms.append(t)
        running += t
    if value is None:
        value = math.fsum(terms)
    # tail m > m_max from the last computed term R_j, whose bm is known only
    # to a few ulps below the normal range; at z = 0 every R_{m>=1} is 0.
    # At large z, cap it by sum_{m>=1} e^{-z} I_{nu(m)}(z) <= c: the orders
    # sum to 1 over m in Z (DLMF 10.35), I_nu decreases in nu, and
    # kappa >= 1 - sigma^2 gives nu(m) >= m / sigma.  So c = 1/2 for
    # sigma <= 1; above, each run of ceil(sigma) orders lies above one
    # integer order, so c = ceil(sigma).  The cap is formed from scale, not
    # through exp, so it stays at most _SAFETY c pref / pi.
    tail = 0.0
    if z > 0.0:
        j = len(terms) - 1
        log_rj = math.log(pref) + expo \
            + math.log(_SAFETY * max(bm, _NORMAL_MIN))
        log_bound = log_rj + _log_tail_ratio(model, nu, j, m_max, z)
        sigma = model.geom.sigma
        c = 0.5 if sigma <= 1.0 else math.ceil(sigma)
        log_cap = math.log(pref) + expo + math.log(_SAFETY * c)
        tail = (_SAFETY * c * scale if log_bound >= log_cap
                else math.exp(log_bound)) / math.pi
    return FullKernel(value=value / (2.0 * math.pi), tail_bound=tail,
                      m_max=m_max)


def semigroup_defect(model: OscillatorModel, m: int, r1: float, r2: float,
                     beta1: float, beta2: float,
                     grid: RadialGrid | TanhSinhRule) -> SemigroupResult:
    """Composition-rule defect
    | integral R_m(r2, s; beta2) R_m(s, r1; beta1) s ds  -  R_m(r2, r1; beta1 + beta2) |
    by the quadrature ``grid.trapezoid_weights()`` over ``grid.values``
    (measure s ds), in units of the kernel scale a = M omega / hbar: the
    trapezoid rule on a ``RadialGrid``, the tanh-sinh rule on a
    ``TanhSinhRule``, which also resolves an integrand going like s at 0.

    Both kernels and the target are divided by a before they are
    multiplied, and the measure is a s ds, so the product cannot underflow
    for a small a; the defect therefore does not depend on the units.

    ``boundary_fraction`` reports the integrand at the first and last node
    relative to its peak; a large value means the grid does not cover the
    kernel support and the defect is dominated by truncation, which is
    reported as a diagnostic rather than an error.
    """
    beta1 = _check_beta(beta1)
    beta2 = _check_beta(beta2)
    a = model.consts.mass * model.omega / model.consts.hbar
    s = grid.values
    f = (radial_kernel_closed(model, m, r2, s, beta2) / a) \
        * (radial_kernel_closed(model, m, s, r1, beta1) / a) * (a * s)
    integral = math.fsum(grid.trapezoid_weights() * f)
    target = radial_kernel_closed(model, m, r2, r1, beta1 + beta2) / a
    peak = f.max()
    boundary = max(f[0], f[-1]) / peak if peak > 0.0 else 0.0
    return SemigroupResult(
        defect=abs(integral - target),
        boundary_fraction=boundary,
        grid_adequate=boundary <= _BOUNDARY_TOL,
    )


def partial_wave_trace(model: OscillatorModel, m: int, beta: float,
                       grid: RadialGrid | TanhSinhRule) -> float:
    """Numerical trace integral of R_m(r, r; beta) r dr, by the same
    quadrature as ``semigroup_defect``."""
    r = grid.values
    return math.fsum(grid.trapezoid_weights()
                     * radial_kernel_closed(model, m, r, r, beta) * r)


def partial_wave_trace_exact(model: OscillatorModel, m: int,
                             beta: float) -> float:
    """Geometric-ladder trace sum_n e^{-beta E_nm/hbar}
    = e^{-beta omega (1 + nu)} / (1 - e^{-2 beta omega})."""
    beta = _check_beta(beta)
    wb = model.omega * beta
    nu = model.nu(m)
    return math.exp(-wb * (1.0 + nu)) / (1.0 - math.exp(-2.0 * wb))


def spectral_vs_closed_relative_error(model: OscillatorModel, m: int,
                                      r1: float, r2: float, beta: float,
                                      n_max: int) -> float:
    """|closed - spectral(n_max)| / closed, the convergence figure used by the
    verification suites."""
    closed = radial_kernel_closed(model, m, r1, r2, beta)
    spectral = radial_kernel_spectral(model, m, r1, r2, beta, n_max).value
    return abs(closed - spectral) / abs(closed)
