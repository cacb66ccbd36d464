"""Exact bound states of the conical oscillator.

The model potential is V(r) = (1/2) M omega^2 r^2 + kappa hbar^2/(8 sigma^2 M r^2)
(long-range attraction, short-range repulsion).  Energies, wavefunctions, and
normalization constants are closed-form; the Bessel order nu(m, sigma) carries
all the cone dependence.

Inner products use the measure r dr dtheta, the unique measure under which the
closed-form normalization constants give unit norm.
"""

import math
from dataclasses import dataclass

from .geometry import ConeGeometry, PhysicalConstants, coupled_index_nu
from .specfun import hyp1f1_terminating, ln_gamma

# largest state list enumerate_states builds
_MAX_STATES = 1_000_000


@dataclass(frozen=True)
class OscillatorModel:
    """Cone + constants + oscillator frequency omega + inverse-square coupling kappa."""

    geom: ConeGeometry
    consts: PhysicalConstants
    omega: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        w = self.omega
        if not isinstance(w, (int, float)) or isinstance(w, bool) \
                or not math.isfinite(w) or w <= 0.0:
            raise ValueError(f"omega must be a finite real > 0, got {w!r}")
        # delegates the kappa >= 1 - sigma^2 check
        coupled_index_nu(self.geom, self.kappa, 0)

    @property
    def marginal(self) -> bool:
        """True on the kappa = 1 - sigma^2 boundary, where nu(0, sigma) = 0."""
        return self.nu(0) == 0.0

    def nu(self, m: int) -> float:
        return coupled_index_nu(self.geom, self.kappa, m)


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
    return 0.5 * M * model.omega ** 2 * r * r \
        + model.kappa * hbar * hbar / (8.0 * s * s * M * r * r)


def energy(model: OscillatorModel, qn: QuantumNumbers) -> float:
    """E_nm = hbar omega (2n + 1 + nu(m, sigma)); depends on m only via |m|."""
    return model.consts.hbar * model.omega * (2 * qn.n + 1 + model.nu(qn.m))


def normalization_log(model: OscillatorModel, qn: QuantumNumbers) -> float:
    """ln N_nm, always finite; exponentiate only when safe."""
    nu = model.nu(qn.m)
    a = model.consts.mass * model.omega / model.consts.hbar
    return (-ln_gamma(nu + 1.0)
            + 0.5 * (ln_gamma(qn.n + nu + 1.0) - math.log(math.pi)
                     - ln_gamma(qn.n + 1.0))
            + 0.5 * (nu + 1.0) * math.log(a))


def normalization_constant(model: OscillatorModel, qn: QuantumNumbers) -> float:
    """N_nm = (1/Gamma(nu+1)) sqrt(Gamma(n+nu+1) / (pi n!)) (M omega/hbar)^{(nu+1)/2}.

    Computed in log space; raises OverflowError for extreme (n, nu) with the
    log value still available via ``normalization_log``.
    """
    ln = normalization_log(model, qn)
    try:
        return math.exp(ln)
    except OverflowError:
        raise OverflowError(
            f"N_nm overflows a double (ln N = {ln:.6g}); "
            "use normalization_log instead"
        ) from None


def radial_wavefunction(model: OscillatorModel, qn: QuantumNumbers,
                        r: float) -> float:
    """Real radial factor N_nm r^nu e^{-(M omega/2 hbar) r^2} 1F1(-n, nu+1; (M omega/hbar) r^2)."""
    r = float(r)
    if not math.isfinite(r) or r < 0.0:
        raise ValueError(f"r must be a finite real >= 0, got {r!r}")
    nu = model.nu(qn.m)
    N = normalization_constant(model, qn)
    if r == 0.0:
        # r^nu -> 0 for nu > 0; the nu = 0 (marginal) radial factor is N
        return N if nu == 0.0 else 0.0
    a = model.consts.mass * model.omega / model.consts.hbar
    x = a * r * r
    return N * r ** nu * math.exp(-0.5 * x) * hyp1f1_terminating(qn.n, nu + 1.0, x)


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
    passes 1,000,000.
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
        levels = math.floor((e_max / hbar_omega - 1.0 - nu) / 2.0) + 1
        count += levels if m_abs == 0 else 2 * levels
        if count > _MAX_STATES:
            raise ValueError(
                f"e_max={e_max!r} with m_max={m_max} lists at least {count} "
                f"states (counted up to |m| = {m_abs}), more than "
                f"{_MAX_STATES}; lower e_max or m_max")
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
