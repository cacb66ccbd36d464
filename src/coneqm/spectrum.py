"""Exact bound states of the conical oscillator.

The model potential is V(r) = (1/2) M omega^2 r^2 + kappa hbar^2/(8 sigma^2 M r^2)
(long-range attraction, short-range repulsion).  Energies, wavefunctions, and
normalization constants are closed-form; the Bessel order nu(m, sigma) carries
all the cone dependence.  Its coefficient c = (kappa - 1) + sigma^2 is formed
once per model, and is exactly 0 on the bound kappa = 1 - sigma^2.

Inner products use the measure r dr dtheta, the unique measure under which the
closed-form normalization constants give unit norm.
"""

import math
from dataclasses import dataclass

from .geometry import (ConeGeometry, PhysicalConstants, UnderflowError,
                       _bessel_order, _coupled_c)
from .specfun import ln_gamma
# unused here; bench/tracing.py wraps them
from .geometry import coupled_index_nu  # noqa: F401
from .specfun import hyp1f1_terminating  # noqa: F401

# largest state list enumerate_states builds
_MAX_STATES = 1_000_000
# ln 2 = _LN2_HI + _LN2_LO, with k * _LN2_HI exact for |k| < 2^21 (fdlibm)
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


@dataclass(frozen=True)
class OscillatorModel:
    """Cone, constants, frequency omega and inverse-square coupling kappa; nu's
    c = (kappa - 1) + sigma^2, exactly 0 on the bound, is formed once."""

    geom: ConeGeometry
    consts: PhysicalConstants
    omega: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        w = self.omega
        if not isinstance(w, (int, float)) or isinstance(w, bool) \
                or not math.isfinite(w) or w <= 0.0:
            raise ValueError(f"omega must be a finite real > 0, got {w!r}")
        # nu's coefficient, not a field; a NaN kappa passes its check
        object.__setattr__(self, "_c", _coupled_c(self.geom, self.kappa))
        if not (math.isfinite(self._c) and math.isfinite(self.nu(0))):
            s, k = self.geom.sigma, self.kappa
            if not math.isfinite(k):
                raise ValueError(f"kappa must be a finite real, got {k!r}")
            raise UnderflowError(
                f"sigma^2 overflows at sigma = {s!r}" if math.isinf(s * s) else
                f"nu(0, sigma) overflows at sigma = {s!r}, kappa = {k!r}")

    @property
    def marginal(self) -> bool:
        """True on the kappa = 1 - sigma^2 boundary, where nu(0, sigma) = 0."""
        return self.nu(0) == 0.0

    def nu(self, m):    # an int m, or an integer array of m
        return _bessel_order(self._c, self.geom.sigma, m)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index n >= 0 and angular index m (any integer)."""

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"m must be an integer, got {self.m!r}")


@dataclass(frozen=True)
class StateRecord:
    qn: QuantumNumbers
    energy: float
    nu: float
    marginal: bool = False


def potential(model: OscillatorModel, r: float) -> float:
    """V(r) = (1/2) M omega^2 r^2 + kappa hbar^2 / (8 sigma^2 M r^2)."""
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise ValueError(f"r must be a finite real > 0, got {r!r}")
    M = model.consts.mass
    hbar = model.consts.hbar
    s = model.geom.sigma
    wr = model.omega * r
    return 0.5 * M * wr * wr \
        + model.kappa * hbar * hbar / (8.0 * s * s * M * r * r)


def energy(model: OscillatorModel, qn: QuantumNumbers) -> float:
    """E_nm = hbar omega (2n + 1 + nu(m, sigma)); depends on m only via |m|."""
    return model.consts.hbar * model.omega * (2 * qn.n + 1 + model.nu(qn.m))


def _normalization_log(model: OscillatorModel, n: int, nu: float) -> float:
    a = model.consts.mass * model.omega / model.consts.hbar
    return (-ln_gamma(nu + 1.0)
            + 0.5 * (ln_gamma(n + nu + 1.0) - math.log(math.pi)
                     - ln_gamma(n + 1.0))
            + 0.5 * (nu + 1.0) * math.log(a))


def normalization_log(model: OscillatorModel, qn: QuantumNumbers) -> float:
    """ln N_nm, the log of N_nm = (1/Gamma(nu+1)) sqrt(Gamma(n+nu+1) / (pi n!))
    (M omega/hbar)^{(nu+1)/2}; always finite, where N_nm itself can
    overflow a double."""
    return _normalization_log(model, qn.n, model.nu(qn.m))


def radial_wavefunctions(model: OscillatorModel, m: int, n_max: int,
                         r: float) -> list:
    """[psi_0m(r), ..., psi_{n_max m}(r)] as psi_nm = (psi_0m / f_0) f_n, with
    f_k = sqrt(k!/Gamma(k+nu+1)) L_k^nu(x), x = (M omega/hbar) r^2, from

        sqrt(k(k+nu)) f_k = (2k-1+nu-x) f_{k-1} - sqrt((k-1)(k-1+nu)) f_{k-2}

    (DLMF 18.9.1).  psi_0m = exp(ln N_0m + nu ln r - x/2) is kept as
    mant 2^scale and the growth of f_k/f_0 is moved into scale, so neither
    e^{-x/2} nor L_n^nu(x) is formed alone: every value is finite.
    """
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be an integer >= 0, got {n_max!r}")
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"r must be a finite real >= 0, got {r!r}")
    nu = model.nu(m)
    if not math.isfinite(nu):
        raise ValueError(f"nu(m, sigma) overflows at m = {m!r}: 4 m^2 leaves "
                         "the doubles")
    x = model.consts.mass * model.omega / model.consts.hbar * r * r
    # r = 0 gives r^nu = 0 for nu > 0, and for nu = 0 keeps every f_k/f_0 = 1
    ln_rest = _normalization_log(model, 0, nu) \
        + (nu * math.log(r) if r else -math.inf if nu else 0.0)
    # |f_k/f_0| <= b^k, each coefficient being below b; below e^-746 every
    # value rounds to 0 (this test also catches nu ln r = -inf and x = inf)
    b = 1.0 + x + nu + 2.0 * n_max
    if not ln_rest - 0.5 * x + n_max * math.log(b) >= -746.0:
        return [0.0] * (n_max + 1)
    scale = round((ln_rest - 0.5 * x) / _LN2_HI)
    # 0.5 x and scale * _LN2_HI are exact and nearly cancel
    mant = math.exp(ln_rest - (0.5 * x + scale * _LN2_HI) - scale * _LN2_LO)
    # g_k = (f_k/f_0) 2^-(growth moved into scale) stays below big, so no
    # step overflows; while unit is below the normal range, below 1
    unit = math.ldexp(mant, scale)
    big = 1e300 / b if scale > -1022 else 1.0
    # the recurrence runs as sqrt(k(k+nu)) (f_k - f_{k-1}) = (gap_k +
    # gap_{k-1} - x) f_{k-1} + sqrt((k-1)(k-1+nu)) (f_{k-1} - f_{k-2}) with
    # gap_j = (j + nu/2) - sqrt(j(j+nu)) = (nu^2/4)/(j + nu/2 + sqrt(j(j+nu)))
    # free of cancellation: in the plain form 2k-1+nu-x cancels against the
    # square roots, costing 5e-12 at n = 2769, x = 9
    quarter, half = 0.25 * nu * nu, 0.5 * nu
    out = [unit]
    g, dg = 1.0, 0.0                         # g_k and g_k - g_{k-1}
    back, gap_back = 0.0, half
    for k in range(1, n_max + 1):
        ahead = math.sqrt(k * (k + nu))
        gap = quarter / (k + half + ahead)
        dg = ((gap + gap_back - x) * g + back * dg) / ahead
        g += dg
        back, gap_back = ahead, gap
        if not -big <= g <= big:
            g, shift = math.frexp(g)
            dg = math.ldexp(dg, -shift)
            scale += shift
            unit = math.ldexp(mant, scale)
            big = 1e300 / b if scale > -1022 else 1.0
        out.append(unit * g)
    return out


def radial_wavefunction(model: OscillatorModel, qn: QuantumNumbers,
                        r: float) -> float:
    """Real radial factor N_nm r^nu e^{-(M omega/2 hbar) r^2} 1F1(-n, nu+1; (M omega/hbar) r^2).

    The last entry of ``radial_wavefunctions``."""
    return radial_wavefunctions(model, qn.m, qn.n, r)[-1]


def wavefunction(model: OscillatorModel, qn: QuantumNumbers,
                 r: float, theta: float) -> complex:
    """Full eigenfunction Psi_nm(r, theta) = e^{i m theta} times the radial factor."""
    rad = radial_wavefunction(model, qn, r)
    return complex(math.cos(qn.m * theta), math.sin(qn.m * theta)) * rad


def enumerate_states(model: OscillatorModel, e_max: float,
                     m_max: int) -> list:
    """All states with |m| <= m_max and E_nm <= e_max.

    Sorted by ascending energy; ties broken by |m|, then negative m before
    positive, then n.  The |m| loop ends at the first |m| whose n = 0 level
    lies above e_max, since nu(m, sigma) grows with |m|.  Each m's
    floor((e_max/(hbar omega) - 1 - nu)/2) + 1 levels are counted in closed
    form before they are built, and ValueError is raised once the count
    passes 1,000,000, or where e_max/(hbar omega) overflows.
    """
    e_max = float(e_max)
    if not math.isfinite(e_max) or e_max <= 0.0:
        raise ValueError(f"e_max must be a finite real > 0, got {e_max!r}")
    if not isinstance(m_max, int) or isinstance(m_max, bool) or m_max < 0:
        raise ValueError(f"m_max must be a non-negative integer, got {m_max!r}")
    hbar_omega = model.consts.hbar * model.omega
    count = 0
    records = []
    for m_abs in range(m_max + 1):
        if energy(model, QuantumNumbers(0, m_abs)) > e_max:
            break
        nu = model.nu(m_abs)
        span = (e_max / hbar_omega - 1.0 - nu) / 2.0 if hbar_omega \
            else math.inf
        # past the double range the levels count as inf
        levels = math.floor(span) + 1 if span < math.inf else math.inf
        count += levels if m_abs == 0 else 2 * levels
        if count > _MAX_STATES:
            raise ValueError(
                f"e_max={e_max!r} with hbar omega = {hbar_omega!r} and "
                f"m_max={m_max} lists at least {count:.3g} states (counted "
                f"up to |m| = {m_abs}), more than {_MAX_STATES}; lower e_max "
                "or m_max")
        for m in ([0] if m_abs == 0 else [-m_abs, m_abs]):
            n = 0
            while True:
                qn = QuantumNumbers(n, m)
                e = energy(model, qn)
                if e > e_max:
                    break
                records.append(StateRecord(qn=qn, energy=e, nu=nu,
                                           marginal=(nu == 0.0)))
                n += 1
    records.sort(key=lambda s: (s.energy, abs(s.qn.m),
                                0 if s.qn.m < 0 else 1, s.qn.n))
    return records
