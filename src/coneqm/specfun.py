"""Self-contained special-function layer.

Provides log-gamma, the exponentially scaled modified Bessel function
e^{-x} I_nu(x) of real non-negative order, and the terminating confluent
hypergeometric function 1F1(-n; b; x) evaluated through the
generalized-Laguerre recurrence for every n.

The stable primitive for I_nu is the exponentially scaled value
e^{-x} I_nu(x): every kernel formula downstream multiplies I_nu by a decaying
Gaussian, so working with the scaled value avoids overflow entirely.

Evaluation strategy for ``bessel_i_scaled``:

* x <= 30: ascending power series (all terms positive, no cancellation
  for any nu >= 0), folded with e^{-x} in log space.
* 30 < x <= 2 nu: the same series, where its leading term
  (x/2)^nu e^{-x} / Gamma(nu+1) is a normal double.  Where it is not
  (nu >~ 700), the series would return a silent 0 for a value that may
  still be representable, so these points go on to the branches below.
* otherwise, where it converges: large-argument (Hankel) expansion.
* otherwise: continued fractions -- CF1 (Thompson-Barnett) for the
  logarithmic derivative I'_nu/I_nu, downward recurrence to the fractional
  order mu in [-1/2, 1/2), CF2 (Steed) for the scaled K_mu and K_{mu+1},
  and the Wronskian I_mu K_{mu+1} + I_{mu+1} K_mu = 1/x for normalization.
  x > 30 here, inside the x >= 2 the continued fractions need.  When the
  recurrence overflows, I_mu/I_nu > 1e598 and the value, below 1e-598, is
  returned as 0.

Below x = 30 the series is kept even where its leading term is not normal:
all later terms then add less than a factor e^{x^2 / (4 (nu + 1))} < 2,
so the value itself is below the normal range.

``bessel_i_scaled_array`` evaluates one order over a numpy array of x with
the same branch rule.  The series and Hankel branches, which take nearly
every element of the quadratures' grids, run their scalar loops on the whole
array under a mask of the elements still iterating.  The few elements left
for the continued fractions go to the scalar ``_cf_scaled`` one at a time.
So each element equals ``bessel_i_scaled(nu, x_i)`` bit for bit and the
scalar route stays the reference.  It serves fixed-order grids, such as the
quadratures in ``propagator``.

``bessel_i_scaled_orders`` serves sums over the order at one x, such as
``full_kernel``.  It yields ``bessel_i_scaled(nu, x)`` for each order of a
list, bit for bit.  For x up to ``_ORDERS_MAX_X`` it runs the series of every
series-branch order at once, as a matrix of the scalar loop's term ratios
whose cumulative products and sums along k are the scalar loop's terms and
partial totals, operation for operation.  Each order is read at the scalar
loop's stopping index.  Every other order is evaluated by the scalar route,
and only when the caller asks for its value, so the continued fractions run
(and may raise) only where the scalar route would run them.

All functions are pure; there is no shared mutable state.
"""

import math
import sys

import numpy as np

# branch rule of both routes: series for x <= max(_SERIES_X,
# _SERIES_PER_ORDER * nu), above _SERIES_X only where its leading term is at
# least _NORMAL_MIN; else the Hankel expansion where it converges, else the CFs
_SERIES_X = 30.0
_SERIES_PER_ORDER = 2.0
_NORMAL_MIN = sys.float_info.min
_EPS = 1.0e-16
_FPMIN = 1.0e-290
_MAXIT = 200000
# bessel_i_scaled_orders forms its series matrix only for x <= _ORDERS_MAX_X,
# with int(x) + _ORDERS_EXTRA_STEPS steps of k; the scalar loop stops within
# that many steps for every order on the series branch (44 at x = 30, nu = 0;
# 125 at x = 200, nu = 100).  An order that does not stop in the matrix goes
# to the scalar route.  Above the limit, the matrix would grow with x while
# the series branch keeps only orders nu >= x / 2.
_ORDERS_MAX_X = 256.0
_ORDERS_EXTRA_STEPS = 24
_ORDERS_K = np.arange(1.0, _ORDERS_MAX_X + _ORDERS_EXTRA_STEPS + 1.0)[:, None]
# below this x, 0.5 * x rounds in the subnormal range (to 0 at x = 2^-1074)
_HALVES_EXACTLY = 2.0 ** -1021
_LN2 = math.log(2.0)


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for finite x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _series_scaled(nu: float, x: float, floor: float):
    # e^{-x} sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); terms all positive.
    # None when the leading term is below floor.
    log_half_x = math.log(0.5 * x) if x >= _HALVES_EXACTLY \
        else math.log(x) - _LN2
    lead = nu * log_half_x - math.lgamma(nu + 1.0) - x
    term = math.exp(lead)
    if term < floor:
        return None
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
    # the e^{-2x} reflection term, so callers restrict it to x > _SERIES_X.
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
            # sqrt(2 pi x) as 4 sqrt(pi x / 8): 2 pi x overflows for
            # x >~ 2.9e307, and scaling by the powers of two 16 and 4 is
            # exact, so this equals the direct form wherever that is finite
            return total / (4.0 * math.sqrt(0.125 * math.pi * x))
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
    if not math.isfinite(f):
        # the recurrence overflowed: I_mu/I_nu > 1e598
        return 0.0

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
    if x <= _SERIES_X:
        return _series_scaled(nu, x, 0.0)
    if x <= _SERIES_PER_ORDER * nu:
        val = _series_scaled(nu, x, _NORMAL_MIN)
        if val is not None:
            return val
    val = _asymptotic_scaled(nu, x)
    if val is not None:
        return val
    return _cf_scaled(nu, x)


def _series_orders(orders: list, x: float) -> list:
    # the series at each order on the series branch with a normal leading
    # term, for 0 < x <= _ORDERS_MAX_X: row 0 holds the leading terms, row k
    # the scalar loop's ratio q / (k * (k + nu)); np.multiply.accumulate and
    # np.add.accumulate along k repeat the loop's term *= and total +=.
    # None where the order is left to the scalar route: off the series
    # branch, a leading term below the normal range (a value at most a few
    # scalar iterations away), a leading term whose lgamma overflows (the
    # scalar route raises it when reached), or no stop inside the matrix
    out = [None] * len(orders)
    log_half_x = math.log(0.5 * x) if x >= _HALVES_EXACTLY \
        else math.log(x) - _LN2
    small_x = x <= _SERIES_X
    cols, col_nus, lead = [], [], []
    for i, nu in enumerate(orders):
        if 0.0 <= nu < math.inf and (small_x or x <= _SERIES_PER_ORDER * nu):
            try:
                term = math.exp(nu * log_half_x - math.lgamma(nu + 1.0) - x)
            except OverflowError:
                continue
            if term >= _NORMAL_MIN:
                cols.append(i)
                col_nus.append(nu)
                lead.append(term)
    if not cols:
        return out
    steps = int(x) + _ORDERS_EXTRA_STEPS
    k = _ORDERS_K[:steps]
    den = k + np.array(col_nus)
    den *= k
    ratios = np.empty((steps + 1, len(cols)))
    ratios[0] = lead
    np.divide(0.25 * x * x, den, out=ratios[1:])
    terms = np.multiply.accumulate(ratios, axis=0)
    totals = np.add.accumulate(terms, axis=0)
    stops = terms[1:] <= 1.0e-17 * totals[1:]
    first = stops.argmax(axis=0)
    at = np.arange(len(cols))
    for i, stopped, total in zip(cols, stops[first, at].tolist(),
                                 totals[first + 1, at].tolist()):
        if stopped:
            out[i] = total
    return out


def bessel_i_scaled_orders(orders, x: float):
    """Yield ``bessel_i_scaled(nu, x)`` for each nu in orders, bit for bit.

    For 0 < x <= _ORDERS_MAX_X the series-branch orders are evaluated
    together when the first value is asked for; every other order goes to
    the scalar route when its own value is asked for, so a caller that stops
    early never evaluates (or raises from) the continued fractions of the
    orders it did not reach.  Raises what the scalar route raises, at the
    order that raises it.
    """
    x = float(x)
    orders = [float(nu) for nu in orders]
    done = _series_orders(orders, x) if 0.0 < x <= _ORDERS_MAX_X \
        else [None] * len(orders)
    for nu, val in zip(orders, done):
        yield bessel_i_scaled(nu, x) if val is None else val


# The array route below runs the series and Hankel loop bodies statement for
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
    # NaN where the scalar _series_scaled returns None
    log_half_x = np.fromiter(
        (math.log(0.5 * v) if v >= _HALVES_EXACTLY else math.log(v) - _LN2
         for v in x.tolist()), float, x.size)
    term = exp_each(nu * log_half_x - math.lgamma(nu + 1.0) - x)
    refused = (x > _SERIES_X) & (term < _NORMAL_MIN)
    # a leading term of 0 is never live, so its total stays 0
    live = (term != 0.0) & ~refused
    total = term.copy()
    q = 0.25 * x * x
    k = 0
    while live.any() and k < 20000:
        k += 1
        term *= q / (k * (k + nu))
        total = np.where(live, total + term, total)
        live &= ~(term <= 1.0e-17 * total)
    return np.where(refused, math.nan, total)


def _asymptotic_scaled_array(nu: float, x: np.ndarray) -> np.ndarray:
    # NaN where the scalar _asymptotic_scaled returns None
    mu4 = 4.0 * nu * nu
    term = np.ones_like(x)
    total = np.ones_like(x)
    prev = np.abs(term)
    live = np.ones(x.shape, dtype=bool)
    converged = np.zeros(x.shape, dtype=bool)
    # 8 k x overflows to inf for x >~ 2.2e307 / k, as it does in the scalar
    # route, where the ratio then rounds to -0.0
    with np.errstate(over="ignore"):
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
    # sqrt(2 pi x) formed as in the scalar route
    return np.where(converged, total / (4.0 * np.sqrt(0.125 * math.pi * x)),
                    math.nan)


def bessel_i_scaled_array(nu: float, x) -> np.ndarray:
    """e^{-x} I_nu(x) at one order nu over an array x, of x's shape.

    Each element equals ``bessel_i_scaled(nu, xi)`` bit for bit: the same
    branch rule, with the series and Hankel branches vectorised and the
    continued-fraction elements handed to the scalar code in ascending
    index order.  Raises ValueError where the scalar route does, for any
    element, and the scalar route's bare ArithmeticError at the first
    element whose continued fraction does not converge.
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
    out = np.full_like(flat, math.nan)
    out[flat == 0.0] = 1.0 if nu == 0.0 else 0.0
    series = (flat > 0.0) & (flat <= max(_SERIES_X, _SERIES_PER_ORDER * nu))
    out[series] = _series_scaled_array(nu, flat[series])
    rest = np.flatnonzero(np.isnan(out))
    out[rest] = _asymptotic_scaled_array(nu, flat[rest])
    for i in rest[np.isnan(out[rest])].tolist():
        out[i] = _cf_scaled(nu, float(flat[i]))
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
