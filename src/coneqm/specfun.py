"""Self-contained special-function layer.

Provides log-gamma, the exponentially scaled modified Bessel function
e^{-x} I_nu(x) of real non-negative order, and the terminating confluent
hypergeometric function 1F1(-n; b; x) evaluated through the
generalized-Laguerre recurrence for every n.

The stable primitive for I_nu is the exponentially scaled value
e^{-x} I_nu(x): every kernel formula downstream multiplies I_nu by a decaying
Gaussian, so working with the scaled value avoids overflow entirely.

``bessel_i_scaled`` has two branches, split at x = 30 for every order:

* x <= 30: ascending power series (DLMF 10.25.2; all terms positive, no
  cancellation for any nu >= 0), folded with e^{-x} in log space.  Where
  its leading term is not a normal double, all later terms add less than a
  factor e^{x^2 / (4 (nu + 1))} < 2, so the value itself is below the
  normal range.
* x > 30: Debye's uniform expansion for large order (DLMF 10.41.3, with
  U_k from the recurrence 10.41.10; Amos, ACM TOMS 644, 1986)

      e^{-x} I_nu(x) = e^E sum_{k<=14} U_k(p) / nu^k / sqrt(2 pi s),

  s = sqrt(nu^2 + x^2), p = nu / s, E = nu^2 / (s + x) - nu asinh(nu / x).
  U_k(p) holds only the powers p^k, p^(k+2), ..., p^(3k), so term k is
  s^{-k} P_k(p^2) with a polynomial P_k of degree k: nothing divides by nu,
  and the same expansion serves nu = 0.  Its coefficients are exact
  rationals, rounded once at import.  s, s + x and sqrt(2 pi s) are formed
  from nu / max(nu, x) and x / max(nu, x), so nothing overflows up to the
  largest double.  E, up to several hundred, is carried as a double-double
  product, so its rounding does not scale with nu.  No branch iterates to
  convergence, so no input can exhaust an iteration budget.

``bessel_i_scaled_array`` evaluates one order over a numpy array of x, and
``bessel_i_scaled_orders`` many orders at one x, as in the partial-wave sum
of ``full_kernel``.  Both check every input before any work, raising what
the scalar route raises, and return every value from that one call, so a
wrapper around the call (a tracer's span) holds the whole cost of the
array or the block of orders.  Both equal the scalar route bit for bit:

* both form their x <= 30 series as a matrix of the scalar loop's term
  ratios, a column per order or per x, whose products and sums along k are
  the loop's terms and totals operation for operation, and read each
  column's stop off it; a column that does not stop there goes scalar;
* both evaluate the expansion of all their x > 30 elements in one numpy
  pass, in the scalar route's order of operations.

numpy's + - * / and sqrt round correctly, as Python's do; its exp, log and
asinh may differ from libm's in the last bit, so those go through ``math``
element by element.  All functions are pure; there is no shared mutable
state.
"""

import math

import numpy as np

# the series for 0 < x <= _SERIES_X, the expansion above, for every order
_SERIES_X = 30.0
# the series matrices take int(x) + _ORDERS_EXTRA_STEPS steps of k, x the
# largest argument; the scalar loop stops within that many steps (44 at
# x = 30, nu = 0).  A column that does not stop in the matrix goes to the
# scalar route.
_ORDERS_EXTRA_STEPS = 24
_ORDERS_K = np.arange(1.0, _SERIES_X + _ORDERS_EXTRA_STEPS + 1.0)[:, None]
# bessel_i_scaled_array's series tables hold 2048 x at most: as fast as
# 1024 or 4096 at 1,600 and 100,000 x, with a tracemalloc peak at 100,000 x
# of 7.5 MB against 9.7 MB for 4096.  From _ROWS_FROM columns on a table
# fills a row at a time, below by accumulate: 181 against 106 us at 161
# columns, 211 against 190 at 300, 248 against 301 at 500 (nu = 0.5)
_ARRAY_CHUNK = 2048
_ROWS_FROM = 320
# below this x, 0.5 * x rounds in the subnormal range (to 0 at x = 2^-1074)
_HALVES_EXACTLY = 2.0 ** -1021
_LN2 = math.log(2.0)
# Debye terms k = 0.._DEBYE_K: the last one is below 1e-16 relative for x >
# 30 and every order (about 6e-17 at nu = 0, where the terms are largest)
_DEBYE_K = 14
_PI_8 = 0.125 * math.pi
# Veltkamp's splitter, exact for |v| < 2^996; orders above the clamp have
# E < -1e291, whatever x, so the clamp leaves every value 0
_SPLITTER = 2.0 ** 27 + 1.0
_SPLIT_MAX = 2.0 ** 996


def _debye_coefficients(k_max: int) -> list:
    # rows [c_k0, ..., c_kk] with U_k(p) = sum_i c_ki p^(k + 2i), from
    # U_{k+1} = p^2 (1 - p^2) U_k' / 2 + (1/8) int_0^p (1 - 5 t^2) U_k dt,
    # exactly: U_k = sum_j u[j] p^j / den with integers u[j] and den, and
    # each c_ki rounded once (int / int rounds correctly)
    u, den = [1], 1
    rows = [[1.0]]
    for k in range(k_max):
        scale = 8 * math.lcm(*range(1, len(u) + 3))
        nxt = [0] * (len(u) + 3)
        for j, c in enumerate(u):
            nxt[j + 1] += c * scale // (8 * (j + 1)) + j * c * scale // 2
            nxt[j + 3] -= 5 * c * scale // (8 * (j + 3)) + j * c * scale // 2
        g = math.gcd(den * scale, *nxt)
        u, den = [c // g for c in nxt], den * scale // g
        rows.append([u[k + 1 + 2 * i] / den for i in range(k + 2)])
    return rows


_DEBYE_ROWS = _debye_coefficients(_DEBYE_K)
# column i of the coefficient triangle, c_ki for every k (0 where i > k)
_DEBYE_COLUMNS = [np.array([[row[i] if i < len(row) else 0.0]
                            for row in _DEBYE_ROWS])
                  for i in range(_DEBYE_K + 1)]


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for finite x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def _series_scaled(nu: float, x: float) -> float:
    # e^{-x} sum_k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)); terms all positive
    log_half_x = math.log(0.5 * x) if x >= _HALVES_EXACTLY \
        else math.log(x) - _LN2
    term = math.exp(nu * log_half_x - math.lgamma(nu + 1.0) - x)
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


def _two_product(a, b):
    # Dekker: a * b = p + err exactly, for |a|, |b| < 2^996
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _debye_sum(q: float, u: float) -> float:
    # sum_k u^k P_k(q): each P_k by Horner in q, then Horner in u
    total = 0.0
    for row in reversed(_DEBYE_ROWS):
        pk = 0.0
        for c in reversed(row):
            pk = pk * q + c
        total = total * u + pk
    return total


def _debye_sum_array(q: np.ndarray, u: np.ndarray) -> np.ndarray:
    # _debye_sum for every element, as rows k of a (k, element) matrix:
    # step i of the Horner scheme in q starts row i at c_ii and advances the
    # rows below it, which the scalar loop starts at 0.0 * q + c_kk = c_kk
    pk = np.empty((_DEBYE_K + 1, q.size))
    for i in range(_DEBYE_K, -1, -1):
        below = pk[i + 1:]
        below *= q
        below += _DEBYE_COLUMNS[i][i + 1:]
        pk[i] = _DEBYE_ROWS[i][i]
    total = np.zeros_like(q)
    for row in pk[::-1]:
        total *= u
        total += row
    return total


def _map_each(f, v: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, v.ravel().tolist()), float,
                       v.size).reshape(v.shape)


def exp_each(v: np.ndarray) -> np.ndarray:
    """math.exp of every element of v, as an array of v's shape."""
    return _map_each(math.exp, v)


# the one set of operations of the expansion, on Python floats and on numpy
# arrays: (maximum, minimum, sqrt, asinh, exp, sum of the terms)
_SCALAR_OPS = (max, min, math.sqrt, math.asinh, math.exp, _debye_sum)
_ARRAY_OPS = (np.maximum, np.minimum, np.sqrt,
              lambda v: _map_each(math.asinh, v), exp_each, _debye_sum_array)


def _debye_scaled(nu, x, ops):
    # e^{-x} I_nu(x) for x > 30 by the expansion; nu and x are floats, or
    # numpy arrays broadcast together, with ops to match
    maximum, minimum, sqrt, asinh, exp, terms = ops
    big = maximum(nu, x)
    a = nu / big
    b = x / big
    r = sqrt(a * a + b * b)             # s / big
    p = a / r
    lead = a / (r + b)                  # nu / (s + x)
    y = asinh(nu / x)
    d = lead - y
    d_lo = lead - (d + y)               # exact, as y >= lead (Fast2Sum)
    nu_e = minimum(nu, _SPLIT_MAX)
    e, e_lo = _two_product(nu_e, d)     # E = e + e_lo
    e_lo = e_lo + nu_e * d_lo
    # sqrt(2 pi s) as 4 sqrt((pi / 8) big r), which cannot overflow
    return exp(e) * (1.0 + e_lo) * terms(p * p, 1.0 / big / r) \
        / (4.0 * sqrt(_PI_8 * big * r))


def bessel_i_scaled(nu: float, x: float) -> float:
    """Exponentially scaled modified Bessel function e^{-x} I_nu(x).

    Requires nu >= 0 and x >= 0.  Worst relative error measured against
    40-digit mpmath for nu in [0, 200], on seeded scans with values in the
    normal range: 2.1e-13 for 0 < x <= 30 (3000 points, 155 of them above
    1e-13, all at nu > 70), and 8.8e-14 for x in (30, 1e4] (22,000
    points), which holds up to the largest double.
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
        return _series_scaled(nu, x)
    return _debye_scaled(nu, x, _SCALAR_OPS)


def _series_totals(lead, q, nu, x_max: float):
    # the scalar loop's total at each column's first stop (term <= 1e-17 *
    # total), and whether it stopped, with one order (nu) or one q per
    # column.  Row 0 of the table holds the leading terms, row k <= max(1,
    # int(x_max) + _ORDERS_EXTRA_STEPS) the ratio q / (k * (k + nu)); their
    # products and sums along k are the loop's terms and totals.  Narrow
    # tables accumulate in two calls, wide ones fill a row at a time up to
    # the stop of the column whose terms fall the slowest (largest ratios)
    ks = _ORDERS_K[:max(1, int(x_max) + _ORDERS_EXTRA_STEPS)]
    # one allocation for both tables: 1,100 page faults per 100,000-x array
    # call against 18,500 with two
    terms, totals = np.empty((2, len(ks) + 1, len(lead)))
    terms[0] = lead
    np.divide(q, (ks + nu) * ks, out=terms[1:])
    if terms.shape[1] < _ROWS_FROM:
        terms = np.multiply.accumulate(terms, axis=0)
        totals = np.add.accumulate(terms, axis=0)
    else:
        totals[0] = terms[0]
        top = int(terms[-1].argmax())
        for k in range(1, len(terms)):
            np.multiply(terms[k - 1], terms[k], out=terms[k])
            np.add(totals[k - 1], terms[k], out=totals[k])
            if terms[k, top] <= 1.0e-17 * totals[k, top]:
                terms, totals = terms[:k + 1], totals[:k + 1]
                break
    stops = terms[1:] <= 1.0e-17 * totals[1:]
    first, at = stops.argmax(axis=0), np.arange(stops.shape[1])
    return stops[first, at], totals[first + 1, at]


def _series_orders(orders: list, x: float) -> list:
    # the series at each order, for 0 < x <= _SERIES_X, by _series_totals;
    # a column that does not stop inside the table takes the scalar loop
    log_half_x = math.log(0.5 * x) if x >= _HALVES_EXACTLY \
        else math.log(x) - _LN2
    lead = [math.exp(nu * log_half_x - math.lgamma(nu + 1.0) - x)
            for nu in orders]
    stopped, totals = _series_totals(lead, 0.25 * x * x, np.array(orders), x)
    return [total if stop else _series_scaled(nu, x)
            for nu, stop, total in zip(orders, stopped.tolist(),
                                       totals.tolist())]


def bessel_i_scaled_orders(orders, x: float) -> list:
    """``[bessel_i_scaled(nu, x) for nu in orders]``, bit for bit, in one
    call: x and every order are checked first, raising what the scalar
    route raises before any table is built, and then all orders are
    evaluated together.
    """
    x = float(x)
    orders = [float(nu) for nu in orders]
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"argument must be a finite real >= 0, got {x!r}")
    for nu in orders:
        if not math.isfinite(nu) or nu < 0.0:
            raise ValueError(f"order must be a finite real >= 0, got {nu!r}")
    if x == 0.0:
        return [1.0 if nu == 0.0 else 0.0 for nu in orders]
    if x <= _SERIES_X:
        return _series_orders(orders, x)
    return _debye_scaled(np.array(orders), x, _ARRAY_OPS).tolist()


def _series_array(nu: float, x: np.ndarray) -> np.ndarray:
    # the series at one order for each 0 < x <= _SERIES_X, per chunk of x;
    # an x that does not stop in its table takes the scalar loop
    tiny = x < _HALVES_EXACTLY
    log_half_x = _map_each(math.log, np.where(tiny, x, 0.5 * x))
    log_half_x[tiny] -= _LN2
    lead = exp_each(nu * log_half_x - math.lgamma(nu + 1.0) - x)
    out = np.empty_like(x)
    for start in range(0, x.size, _ARRAY_CHUNK):
        part = slice(start, start + _ARRAY_CHUNK)
        xs = x[part]
        stopped, out[part] = _series_totals(lead[part], 0.25 * xs * xs, nu,
                                            xs.max())
        for i in np.flatnonzero(~stopped).tolist():
            out[start + i] = _series_scaled(nu, float(xs[i]))
    return out


def bessel_i_scaled_array(nu: float, x) -> np.ndarray:
    """e^{-x} I_nu(x) at one order nu over an array x, of x's shape.

    Each element equals ``bessel_i_scaled(nu, xi)`` bit for bit: the same
    branch rule, with both branches vectorised.  Raises ValueError where the
    scalar route does, for any element.
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
    out = np.full_like(flat, 1.0 if nu == 0.0 else 0.0)
    series = (flat > 0.0) & (flat <= _SERIES_X)
    if series.any():
        out[series] = _series_array(nu, flat[series])
    debye = flat > _SERIES_X
    if debye.any():
        out[debye] = _debye_scaled(nu, flat[debye], _ARRAY_OPS)
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
