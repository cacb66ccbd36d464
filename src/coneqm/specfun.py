"""Self-contained special-function layer.

Provides log-gamma, the exponentially scaled modified Bessel function
e^{-x} I_nu(x) of real non-negative order, and the terminating confluent
hypergeometric function 1F1(-n; b; x) evaluated through the
generalized-Laguerre recurrence for every n.

The stable primitive for I_nu is the exponentially scaled value
e^{-x} I_nu(x): every kernel formula downstream multiplies I_nu by a decaying
Gaussian, so working with the scaled value avoids overflow entirely.

Evaluation strategy for ``bessel_i_scaled``:

* x <= max(12, nu): ascending power series (all terms positive, no
  cancellation for any nu >= 0), folded with e^{-x} in log space.
* x >= 30 when it converges: large-argument (Hankel) expansion.
* otherwise: continued fractions -- CF1 (Thompson-Barnett) for the
  logarithmic derivative I'_nu/I_nu, downward recurrence to the fractional
  order mu in [-1/2, 1/2), CF2 (Steed) for the scaled K_mu and K_{mu+1},
  and the Wronskian I_mu K_{mu+1} + I_{mu+1} K_mu = 1/x for normalization.

``bessel_i_scaled_array`` evaluates one order over a numpy array of x, a
branch at a time, with the same branch rule, constants and stopping tests.
Each branch runs its scalar loop on the whole array under a mask of the
elements still iterating, so each element equals ``bessel_i_scaled(nu, x_i)``
bit for bit and the scalar route stays the reference.  It serves fixed-order
grids, such as the quadratures in ``propagator``; sums over the order at one
x (``full_kernel``) stay on the scalar route.

All functions are pure; there is no shared mutable state.
"""

import math

import numpy as np

# branch rule of both routes: series for x <= max(_SERIES_X, nu), else the
# Hankel expansion for x >= _HANKEL_X where it converges, else the CFs
_SERIES_X = 12.0
_HANKEL_X = 30.0
_EPS = 1.0e-16
_FPMIN = 1.0e-290
_MAXIT = 200000
# below this x, 0.5 * x rounds in the subnormal range (to 0 at x = 2^-1074)
_HALVES_EXACTLY = 2.0 ** -1021
_LN2 = math.log(2.0)


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for finite x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _series_scaled(nu: float, x: float) -> float:
    # e^{-x} sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); terms all positive.
    log_half_x = math.log(0.5 * x) if x >= _HALVES_EXACTLY \
        else math.log(x) - _LN2
    lead = nu * log_half_x - math.lgamma(nu + 1.0) - x
    term = math.exp(lead)
    if term == 0.0:
        # leading term already below the double range; the true value is too
        return 0.0
    total = term
    q = 0.25 * x * x
    k = 0
    while k < 20000:
        k += 1
        term *= q / (k * (k + nu))
        total += term
        if term <= 1.0e-17 * total:
            break
    return total


def _asymptotic_scaled(nu: float, x: float):
    # Hankel expansion of e^{-x} I_nu(x); usable only when the alternating
    # series reaches ~1e-17 relative before its terms start growing.  Misses
    # the e^{-2x} reflection term, so callers restrict it to x >= 30.
    mu4 = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = abs(term)
    for k in range(1, 60):
        term *= -(mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag >= prev:
            return None
        total += term
        if mag < 1.0e-17 * abs(total):
            return total / math.sqrt(2.0 * math.pi * x)
        prev = mag
    return None


def _cf_scaled(nu: float, x: float) -> float:
    # CF1 + CF2 + Wronskian normalization; requires x >= 2.
    xi = 1.0 / x
    xi2 = 2.0 * xi

    # CF1 for f = I'_nu/I_nu (modified Lentz).
    h = nu * xi
    if h < _FPMIN:
        h = _FPMIN
    b = xi2 * nu
    d = 0.0
    c = h
    for _ in range(_MAXIT):
        b += xi2
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise ArithmeticError(f"CF1 failed to converge for nu={nu}, x={x}")

    # Downward recurrence from order nu to its fractional part mu.
    nl = int(nu + 0.5)
    mu = nu - nl
    ril = _FPMIN
    rip = h * ril
    ril_top = ril
    fact = nu * xi
    for _ in range(nl):
        ritemp = fact * ril + rip
        fact -= xi
        rip = fact * ritemp + ril
        ril = ritemp
    f = rip / ril

    # CF2 for the scaled K_mu (Steed's algorithm).
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h2 = delh = d
    q1, q2 = 0.0, 1.0
    a1 = 0.25 - mu * mu
    q = cc = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAXIT):
        a -= 2 * (i - 1)
        cc = -a * cc / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += cc * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h2 += delh
        dels = q * delh
        s += dels
        if abs(dels / s) < _EPS:
            break
    else:
        raise ArithmeticError(f"CF2 failed to converge for nu={nu}, x={x}")
    h2 = a1 * h2

    kmu = math.sqrt(math.pi / (2.0 * x)) / s            # e^{x} K_mu
    kmu1 = kmu * (mu + x + 0.5 - h2) * xi               # e^{x} K_{mu+1}
    imu = xi / (kmu1 + (f - mu * xi) * kmu)             # e^{-x} I_mu
    return imu * (ril_top / ril)


def bessel_i_scaled(nu: float, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x).

    Requires nu >= 0 and x >= 0.  Relative accuracy is ~1e-13 over
    x in [0, 1e4], nu in [0, 200].
    """
    nu = float(nu)
    x = float(x)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be a finite real >= 0, got {nu!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be a finite real >= 0, got {x!r}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if x <= max(_SERIES_X, nu):
        return _series_scaled(nu, x)
    if x >= _HANKEL_X:
        val = _asymptotic_scaled(nu, x)
        if val is not None:
            return val
    return _cf_scaled(nu, x)


# The array route below runs each scalar helper's loop body statement for
# statement on a whole numpy array.  A boolean mask marks the elements still
# iterating: an element leaves it at the scalar stopping test, and from then on
# np.where freezes its accumulated results, so every element sees exactly the
# scalar route's IEEE operations.  Finished elements keep iterating harmlessly
# until no element is live.  numpy's exp and log may differ from libm's in the
# last bit, so those two are applied through math, element by element.


def exp_each(v: np.ndarray) -> np.ndarray:
    """math.exp of every element of v, as an array of v's shape."""
    return np.fromiter(map(math.exp, v.ravel().tolist()), float,
                       v.size).reshape(v.shape)


def _series_scaled_array(nu: float, x: np.ndarray) -> np.ndarray:
    log_half_x = np.fromiter(
        (math.log(0.5 * v) if v >= _HALVES_EXACTLY else math.log(v) - _LN2
         for v in x.tolist()), float, x.size)
    term = exp_each(nu * log_half_x - math.lgamma(nu + 1.0) - x)
    # a leading term of 0 is never live, so its total stays 0
    live = term != 0.0
    total = term.copy()
    q = 0.25 * x * x
    k = 0
    while live.any() and k < 20000:
        k += 1
        term *= q / (k * (k + nu))
        total = np.where(live, total + term, total)
        live &= ~(term <= 1.0e-17 * total)
    return total


def _asymptotic_scaled_array(nu: float, x: np.ndarray) -> np.ndarray:
    # NaN where the scalar _asymptotic_scaled returns None
    mu4 = 4.0 * nu * nu
    term = np.ones_like(x)
    total = np.ones_like(x)
    prev = np.abs(term)
    live = np.ones(x.shape, dtype=bool)
    converged = np.zeros(x.shape, dtype=bool)
    for k in range(1, 60):
        term *= -(mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = np.abs(term)
        live &= ~(mag >= prev)
        total = np.where(live, total + term, total)
        done = live & (mag < 1.0e-17 * np.abs(total))
        converged |= done
        live &= ~done
        if not live.any():
            break
        prev = mag
    return np.where(converged, total / np.sqrt(2.0 * math.pi * x), math.nan)


def _cf_scaled_array(nu: float, x: np.ndarray) -> np.ndarray:
    xi = 1.0 / x
    xi2 = 2.0 * xi

    # CF1 for f = I'_nu/I_nu (modified Lentz).
    h = np.maximum(nu * xi, _FPMIN)
    b = xi2 * nu
    d = np.zeros_like(x)
    c = h
    live = np.ones(x.shape, dtype=bool)
    for _ in range(_MAXIT):
        b += xi2
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        h = np.where(live, h * delta, h)
        live &= ~(np.abs(delta - 1.0) < _EPS)
        if not live.any():
            break
    else:
        raise ArithmeticError(
            f"CF1 failed to converge for nu={nu}, x={float(x[live][0])}")

    # Downward recurrence from order nu to its fractional part mu.
    nl = int(nu + 0.5)
    mu = nu - nl
    ril = np.full_like(x, _FPMIN)
    rip = h * ril
    fact = nu * xi
    for _ in range(nl):
        ritemp = fact * ril + rip
        fact -= xi
        rip = fact * ritemp + ril
        ril = ritemp
    f = rip / ril

    # CF2 for the scaled K_mu (Steed's algorithm); a and cc are the same
    # for every element.
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h2 = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    a1 = 0.25 - mu * mu
    q = cc = a1
    a = -a1
    s = 1.0 + q * delh
    live = np.ones(x.shape, dtype=bool)
    for i in range(2, _MAXIT):
        a -= 2 * (i - 1)
        cc = -a * cc / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += cc * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h2 = np.where(live, h2 + delh, h2)
        dels = q * delh
        s = np.where(live, s + dels, s)
        live &= ~(np.abs(dels / s) < _EPS)
        if not live.any():
            break
    else:
        raise ArithmeticError(
            f"CF2 failed to converge for nu={nu}, x={float(x[live][0])}")
    h2 = a1 * h2

    kmu = np.sqrt(math.pi / (2.0 * x)) / s              # e^{x} K_mu
    kmu1 = kmu * (mu + x + 0.5 - h2) * xi               # e^{x} K_{mu+1}
    imu = xi / (kmu1 + (f - mu * xi) * kmu)             # e^{-x} I_mu
    return imu * (_FPMIN / ril)


def bessel_i_scaled_array(nu: float, x) -> np.ndarray:
    """e^{-x} I_nu(x) at one order nu over an array x, of x's shape.

    Each element equals ``bessel_i_scaled(nu, xi)`` bit for bit: the same
    branches, constants and stopping tests, evaluated a branch at a time.
    Raises ValueError where the scalar route does, for any element, and
    the bare ArithmeticError when a continued fraction does not converge.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be a finite real >= 0, got {nu!r}")
    x = np.asarray(x, dtype=float)
    bad = ~(np.isfinite(x) & (x >= 0.0))
    if bad.any():
        raise ValueError(f"argument must be a finite real >= 0, "
                         f"got {float(x[bad][0])!r}")
    flat = x.ravel()
    out = np.full_like(flat, 1.0 if nu == 0.0 else 0.0)   # x == 0
    series = (flat > 0.0) & (flat <= max(_SERIES_X, nu))
    out[series] = _series_scaled_array(nu, flat[series])
    rest = np.flatnonzero((flat > 0.0) & ~series)
    out[rest] = math.nan
    large = rest[flat[rest] >= _HANKEL_X]
    out[large] = _asymptotic_scaled_array(nu, flat[large])
    cf = rest[np.isnan(out[rest])]
    if cf.size:
        out[cf] = _cf_scaled_array(nu, flat[cf])
    return out.reshape(x.shape)


def laguerre_sequence(n_max: int, alpha: float, x: float) -> list:
    """Values [L_0^alpha(x), ..., L_{n_max}^alpha(x)] by the stable
    three-term recurrence (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    out = [1.0]
    if n_max == 0:
        return out
    out.append(1.0 + alpha - x)
    for k in range(1, n_max):
        out.append(((2 * k + 1 + alpha - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1))
    return out


def hyp1f1_terminating(n: int, b: float, x: float) -> float:
    """Terminating confluent hypergeometric 1F1(-n; b; x) for integer n >= 0.

    Evaluated through the generalized-Laguerre recurrence for every n, using
    1F1(-n; alpha+1; x) = L_n^alpha(x) / C(n+alpha, n) with alpha = b - 1.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    b = float(b)
    x = float(x)
    if not math.isfinite(b) or b <= 0.0:
        raise ValueError(f"b must be a finite real > 0, got {b!r}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    ln = laguerre_sequence(n, b - 1.0, x)[n]
    return ln * math.exp(math.lgamma(n + 1.0) + math.lgamma(b) - math.lgamma(n + b))
