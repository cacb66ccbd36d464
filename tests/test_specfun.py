"""Special-function layer tests.

Reference values are computed by independent oracles: explicit power-series
summation, closed forms (half-integer Bessel, factorials), and mpmath
high-precision evaluation.  The production code path is never used to
generate its own expected values.  The array route is the one exception by
design: its reference is the scalar route, which it must match bit for bit.
"""

import functools
import math
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from coneqm import specfun
from coneqm.specfun import (bessel_i_scaled, bessel_i_scaled_array,
                            bessel_i_scaled_orders, hyp1f1_terminating,
                            laguerre_sequence, ln_gamma)

mpmath.mp.dps = 30


# ---------------------------------------------------------------- oracles


def series_i_scaled(nu, x, terms=400):
    """Direct power-series oracle: e^{-x} sum_k (x/2)^(nu+2k)/(k! Gamma(nu+k+1))."""
    total = mpmath.mpf(0)
    xh = mpmath.mpf(x) / 2
    for k in range(terms):
        total += xh ** (nu + 2 * k) / (mpmath.factorial(k) * mpmath.gamma(nu + k + 1))
    return float(total * mpmath.exp(-mpmath.mpf(x)))


def mp_i_scaled(nu, x):
    return float(mpmath.besseli(mpmath.mpf(nu), mpmath.mpf(x))
                 * mpmath.exp(-mpmath.mpf(x)))


def hyp1f1_direct(n, b, x):
    """Term-by-term oracle for the terminating 1F1(-n; b; x)."""
    total = mpmath.mpf(0)
    for k in range(n + 1):
        total += (mpmath.rf(-n, k) / mpmath.rf(b, k)
                  * mpmath.mpf(x) ** k / mpmath.factorial(k))
    return float(total)


# ---------------------------------------------------------------- ln_gamma


def test_ln_gamma_trivial_values():
    assert ln_gamma(1.0) == 0.0
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


def test_ln_gamma_half():
    # oracle: Gamma(1/2) = sqrt(pi), frozen from 30-digit evaluation
    assert ln_gamma(0.5) == pytest.approx(0.5723649429247001, rel=1e-14)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.75, 10.0, 57.3, 200.0])
def test_ln_gamma_accuracy(x):
    ref = float(mpmath.loggamma(mpmath.mpf(x)))
    assert ln_gamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_ln_gamma_domain(bad):
    with pytest.raises(ValueError):
        ln_gamma(bad)


# ---------------------------------------------------------- bessel_i_scaled


def test_bessel_trivial_at_zero():
    assert bessel_i_scaled(0.0, 0.0) == 1.0
    assert bessel_i_scaled(0.7, 0.0) == 0.0


def test_bessel_at_subnormal_argument():
    # halving a subnormal x rounds, and at 2^-1074 it underflows to 0
    for nu in (0.01, 0.1, 0.5):
        for x in (5e-324, 1.5e-323, 1e-310):
            assert bessel_i_scaled(nu, x) == pytest.approx(mp_i_scaled(nu, x),
                                                           rel=1e-13)


def test_bessel_i0_of_1():
    # series oracle value, frozen: e^{-1} I_0(1)
    assert bessel_i_scaled(0.0, 1.0) == pytest.approx(0.46575960759364043,
                                                      rel=1e-12)


def test_bessel_half_order_closed_form():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
    for x in (0.3, 1.0, 7.0, 42.0):
        ref = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x) * math.exp(-x)
        assert bessel_i_scaled(0.5, x) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.25, 0.5, 1.0, 2.0615528128088303,
                                5.5, 10.0, 33.3, 100.0, 200.0])
@pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 11.9, 12.1, 25.0, 30.0,
                               100.0, 1e3, 1e4])
def test_bessel_accuracy_grid(nu, x):
    mine = bessel_i_scaled(nu, x)
    ref = mp_i_scaled(nu, x)
    if ref == 0.0 or ref < 1e-290:
        assert mine == pytest.approx(ref, abs=1e-300)
    else:
        assert mine == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("nu,x", [(0.0, 0.7), (1.5, 3.0), (4.0, 9.5)])
def test_bessel_matches_series_oracle(nu, x):
    assert bessel_i_scaled(nu, x) == pytest.approx(series_i_scaled(nu, x),
                                                   rel=1e-12)


def test_bessel_recurrence_consistency():
    # I_{nu-1}(x) - I_{nu+1}(x) = (2 nu / x) I_nu(x), in scaled form
    for nu in (1.0, 2.5, 7.0, 13.5, 20.0):
        for x in (1.0, 3.7, 10.0, 31.0, 100.0):
            lhs = bessel_i_scaled(nu - 1, x) - bessel_i_scaled(nu + 1, x)
            rhs = (2.0 * nu / x) * bessel_i_scaled(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_bessel_generating_function_identity():
    # sum_m e^{i m dth} I_m(z) = e^{z cos dth}, compared in scaled form.
    # Where the phase factors cancel the sum below the f64 noise floor of
    # its own terms (z (1 - cos dth) > 12), the check is against that floor
    # instead of a meaningless relative figure.
    for z in (0.5, 2.0, 7.3, 15.0, 30.0):
        m_top = math.ceil(z) + 40
        vals = [bessel_i_scaled(m, z) for m in range(m_top + 1)]
        term_scale = vals[0] + 2.0 * sum(vals[1:])
        for dth in (0.0, 0.7, math.pi / 2, 2.3, math.pi):
            acc = complex(vals[0], 0.0)
            for m in range(1, m_top + 1):
                phase = complex(math.cos(m * dth), math.sin(m * dth))
                acc += (phase + phase.conjugate()) * vals[m]
            target = math.exp(z * (math.cos(dth) - 1.0))
            if z * (1.0 - math.cos(dth)) <= 12.0:
                assert abs(acc.real - target) / target < 1e-10
            else:
                assert abs(acc.real - target) < 1e-13 * term_scale
            assert abs(acc.imag) < 1e-12


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i_scaled(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_i_scaled(1.0, -2.0)
    with pytest.raises(ValueError):
        bessel_i_scaled(math.nan, 1.0)


def test_bessel_series_region_matches_mpmath():
    # max(12, nu) < x <= max(30, 2 nu), here with nu <= 64: the series up
    # to x = 30, the expansion above
    rng = np.random.default_rng(13)
    nu = rng.uniform(0.0, 64.0, 400)
    lo = np.maximum(12.0, nu)
    x = lo + (np.maximum(30.0, 2.0 * nu) - lo) * rng.uniform(0.0, 1.0, 400)
    with mpmath.workdps(40):
        worst = max(abs(bessel_i_scaled(n, v) / mp_i_scaled(n, v) - 1.0)
                    for n, v in zip(nu.tolist(), x.tolist()))
    assert worst <= 1e-13


@pytest.mark.parametrize("nu, x", [(1100.0, 1100.0), (800.0, 1600.0),
                                   (1000.0, 2000.0), (1500.0, 2900.0)])
def test_bessel_large_order_is_not_a_silent_zero(nu, x):
    # the series' leading term underflows here but the value does not, so
    # the series must not be the branch that answers
    with mpmath.workdps(40):
        ref = mp_i_scaled(nu, x)
    for val in (bessel_i_scaled(nu, x),
                float(bessel_i_scaled_array(nu, [x])[0])):
        assert math.isfinite(val) and val != 0.0
        assert val == pytest.approx(ref, rel=1e-10)
    assert_same_bits(nu, [x])


@pytest.mark.parametrize("nu, x", [(1500.0, 100.0), (3000.0, 3001.0),
                                   (10000.0, 20000.0)])
def test_bessel_below_the_double_range_is_zero(nu, x):
    # values below 1e-600, where the expansion's exponent E is below -1300:
    # the result is an exact 0, not NaN
    with mpmath.workdps(40):
        assert mpmath.besseli(nu, x) * mpmath.exp(-x) < mpmath.mpf("1e-600")
    assert bessel_i_scaled(nu, x) == 0.0
    assert_same_bits(nu, [x, 0.5 * x, x])


# ---------------------------------------------------- bessel_i_scaled_array
# The scalar route is the reference: the array route must reproduce it bit
# for bit, element by element.


def assert_same_bits(nu, x):
    x = np.asarray(x, dtype=float)
    got = bessel_i_scaled_array(nu, x)
    want = np.array([bessel_i_scaled(nu, v) for v in x.ravel()],
                    dtype=float).reshape(x.shape)
    assert got.shape == x.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64),
                                  err_msg=f"nu={nu!r}")


_X = st.one_of(st.floats(0.0, 1.0e4),
               st.floats(-3.0, 4.0).map(lambda e: 10.0 ** e))


@settings(max_examples=200, deadline=None)
@given(nu=st.floats(0.0, 200.0), xs=st.lists(_X, min_size=1, max_size=40))
@example(nu=0.0, xs=[0.0, 5e-324, 12.0, 30.0, 1.0e4])
@example(nu=150.3, xs=[150.3, 151.0, 160.0, 200.0, 1.0e4])
@example(nu=20.0, xs=[40.5, 45.0, 60.0, 1000.0])
@example(nu=50.0, xs=[100.5, 150.0, 300.0, 5000.0])
@example(nu=120.0, xs=[240.5, 400.0, 1000.0, 9000.0])
def test_bessel_array_matches_scalar_bit_for_bit(nu, xs):
    assert_same_bits(nu, xs)


@pytest.mark.parametrize("nu", [0.0, 0.3, 0.5, 2.0615528128088303, 11.7,
                                12.0, 15.0, 29.5, 30.0, 45.5, 150.3, 200.0,
                                700.0, 720.0])
def test_bessel_array_branch_edges(nu):
    # zero, subnormals, the 0.5 x rounding edge, and each side of the
    # branch edges x = 30 and x = 2 nu; at x = 2 nu the series' leading
    # term is normal for nu = 700 and not for nu = 720
    edges = [30.0] + ([2.0 * nu] if nu > 0.0 else [])
    x = [0.0, 5e-324, 1.5e-323, 1e-310, 2.0 ** -1021] + [
        v for e in edges
        for v in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
    assert_same_bits(nu, x)
    assert_same_bits(nu, [x, x[::-1]])


@pytest.mark.parametrize("nu, x", [
    (-0.5, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (1.0, -2.0), (1.0, math.nan), (1.0, math.inf),
])
def test_bessel_array_domain_errors_match_scalar(nu, x):
    with pytest.raises(ValueError):
        bessel_i_scaled(nu, x)
    with pytest.raises(ValueError):
        bessel_i_scaled_array(nu, np.array([1.0, x, 40.0]))


_CHUNK = specfun._ARRAY_CHUNK
_ROWS = specfun._ROWS_FROM
_ARRAY_ORDERS = [0.0, 0.5, 70.0, 200.0]


def series_lead(nu, x):
    """The series' leading term (x/2)^nu e^{-x} / Gamma(nu + 1), as the
    scalar route forms it for normal x."""
    return math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) - x)


@pytest.mark.parametrize("nu", _ARRAY_ORDERS)
@pytest.mark.parametrize("size", [_ROWS - 1, _ROWS, _CHUNK - 1, _CHUNK,
                                  _CHUNK + 1])
def test_bessel_array_chunk_edges(nu, size, monkeypatch):
    # the series tables hold a chunk of x each, and from _ROWS_FROM columns
    # on they fill a row at a time instead of by accumulate, up to the
    # largest x's stop; every x stops inside its table
    x = np.random.default_rng(size).uniform(0.0, 30.0, size)
    monkeypatch.setattr(specfun, "_series_scaled", None)
    got = bessel_i_scaled_array(nu, x)
    monkeypatch.undo()
    assert_same_bits(nu, x)
    np.testing.assert_array_equal(got, bessel_i_scaled_array(nu, x))


@pytest.mark.parametrize("nu", _ARRAY_ORDERS)
def test_bessel_array_unsorted_with_repeats(nu):
    rng = np.random.default_rng(18)
    x = rng.choice(rng.uniform(0.0, 30.0, 40), 500)
    assert_same_bits(nu, np.concatenate([x, [30.0, 30.0], x[::-1]]))
    assert_same_bits(nu, x.reshape(20, 25))


@pytest.mark.parametrize("nu", _ARRAY_ORDERS)
def test_bessel_array_special_points(nu):
    # x = 30, the smallest double, and leading terms of 0 and subnormal,
    # among other x and each as the only (so the largest) x of its call
    grid = np.linspace(0.5, 12.0, 2300)
    lead = np.array([series_lead(nu, v) for v in grid])
    zero = grid[lead == 0.0][-3:]
    sub = grid[(lead > 0.0) & (lead < sys.float_info.min)][:3]
    if nu == 200.0:
        assert zero.size == 3 and sub.size == 3
    special = [30.0, 5e-324, *zero, *sub]
    assert_same_bits(nu, special + [1.0, 29.0, 5e-324])
    for v in special:
        assert_same_bits(nu, [v])


@pytest.mark.parametrize("nu", _ARRAY_ORDERS)
def test_bessel_array_columns_without_a_stop_go_scalar(nu, monkeypatch):
    # with int(x) steps of k and no allowance, columns run out of rows
    # before their stop and take the scalar loop instead
    monkeypatch.setattr(specfun, "_ORDERS_EXTRA_STEPS", 0)
    x = np.concatenate([np.random.default_rng(7).uniform(0.0, 30.0, 300),
                        [0.3, 1e-300, 30.0]])
    wide = np.concatenate([x, x + 1e-3])       # filled a row at a time
    calls = []
    series = specfun._series_scaled
    monkeypatch.setattr(specfun, "_series_scaled",
                        lambda *a: calls.append(a) or series(*a))
    for xs, leaves in ((x, nu <= 0.5), (wide, nu <= 0.5),
                       ([0.3], nu < 200.0)):
        calls.clear()
        bessel_i_scaled_array(nu, xs)
        assert bool(calls) == leaves
        assert_same_bits(nu, xs)


def test_series_table_reports_no_stop_past_the_rows_it_filled(monkeypatch):
    # a wide table stops filling at its slowest column's stop; a column
    # that has not stopped by then (here a NaN leading term, which never
    # does) is reported as not stopped, not read from unfilled rows, whose
    # totals (inf here) would pass the stop test
    monkeypatch.setattr(np, "empty", lambda shape: np.full(shape, math.inf))
    n = _ROWS + 10
    lead = np.full(n, 1.0)
    lead[-1] = math.nan
    q = np.full(n, 4.0)
    q[-1] = 1.0
    stopped, totals = specfun._series_totals(lead, q, 0.5, 4.0)
    assert stopped[:-1].all() and not stopped[-1]
    want = specfun._series_totals(lead[:2], q[:2], 0.5, 4.0)[1][0]
    assert (totals[:-1] == want).all()


def test_bessel_array_memory_stays_bounded():
    # the series tables come a chunk of x at a time, so they add little to
    # the peak of a 100,000-x call: at most twice 7.4 MB
    x = np.random.default_rng(3).uniform(0.0, 30.0, 100_000)
    tracemalloc.start()
    try:
        bessel_i_scaled_array(0.5, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 7.4e6


def test_bessel_at_huge_argument():
    # 2 pi x overflows for x >~ 2.9e307; e^{-x} I_nu(x) is near
    # 1/sqrt(2 pi x) there, about 4e-155, not 0
    xs = [3e307, 1e308, sys.float_info.max]
    for nu in (0.0, 0.5, 2.0615528128088303, 80.0):
        for x in xs:
            assert bessel_i_scaled(nu, x) == pytest.approx(
                mp_i_scaled(nu, x), rel=1e-13, abs=0.0)
        assert_same_bits(nu, xs)


# ------------------------------------------------ the expansion above x = 30

_LARGE_X = st.one_of(st.floats(30.0, 1.0e4, exclude_min=True),
                     st.floats(4.0, 308.25).map(lambda e: 10.0 ** e))


@settings(max_examples=300)
@given(x=_LARGE_X)
@example(x=math.nextafter(30.0, math.inf))
@example(x=sys.float_info.max)
def test_bessel_half_order_closed_form_above_30(x):
    # e^{-x} I_{1/2}(x) = (1 - e^{-2x}) / sqrt(2 pi x), here from 40-digit
    # mpmath so that 2 pi x does not overflow
    with mpmath.workdps(40):
        ref = float(-mpmath.expm1(-2 * mpmath.mpf(x))
                    / mpmath.sqrt(2 * mpmath.pi * x))
    val = bessel_i_scaled(0.5, x)
    assert val == pytest.approx(ref, rel=2e-15, abs=0.0)
    assert_same_bits(0.5, [x])
    assert_orders_same_bits([0.5], x)


@settings(max_examples=300)
@given(nu=st.floats(0.0, 200.0), x=_LARGE_X)
@example(nu=200.0, x=math.nextafter(30.0, math.inf))
@example(nu=0.0, x=math.nextafter(30.0, math.inf))
@example(nu=200.0, x=sys.float_info.max)
def test_bessel_above_30_matches_mpmath(nu, x):
    with mpmath.workdps(40):
        ref = mpmath.besseli(nu, x) * mpmath.exp(-mpmath.mpf(x))
        assert abs(bessel_i_scaled(nu, x) / ref - 1) <= 1e-13


def test_bessel_above_30_seeded_scan():
    # 3000 points: nu uniform on [0, 200]; 2000 x log-uniform on (30, 1e4],
    # 1000 on (30, 120], where large orders make E several hundred
    rng = np.random.default_rng(16)
    nu = rng.uniform(0.0, 200.0, 3000)
    x = 30.0 * np.exp(np.concatenate([
        rng.uniform(0.0, math.log(1.0e4 / 30.0), 2000),
        rng.uniform(0.0, math.log(4.0), 1000)]))
    x[x <= 30.0] = math.nextafter(30.0, math.inf)
    with mpmath.workdps(40):
        worst = max(abs(bessel_i_scaled(n, v)
                        / (mpmath.besseli(n, v) * mpmath.exp(-mpmath.mpf(v)))
                        - 1) for n, v in zip(nu.tolist(), x.tolist()))
    assert worst <= 1e-13


def test_debye_coefficients_are_dlmf_10_41_10():
    # U_1 and U_2 of DLMF 10.41.10, as rows of coefficients of p^(k + 2i)
    rows = specfun._debye_coefficients(2)
    assert rows[1] == [3.0 / 24.0, -5.0 / 24.0]
    assert rows[2] == [81.0 / 1152.0, -462.0 / 1152.0, 385.0 / 1152.0]
    # at nu = 0 the expansion is Hankel's: c_k0 = prod (2j-1)^2 / (k! 8^k)
    for k, row in enumerate(specfun._DEBYE_ROWS):
        want = math.prod((2 * j - 1) ** 2 for j in range(1, k + 1)) \
            / (math.factorial(k) * 8 ** k)
        assert row[0] == pytest.approx(want, rel=1e-15)


# --------------------------------------------------- bessel_i_scaled_orders
# Again the scalar route is the reference, order by order, bit for bit.


def assert_orders_same_bits(orders, x):
    got = list(bessel_i_scaled_orders(orders, x))
    want = [bessel_i_scaled(nu, x) for nu in orders]
    assert np.array_equal(np.array(got).view(np.int64),
                          np.array(want).view(np.int64)), \
        f"x={x!r}, orders={orders!r}"


@st.composite
def _orders_at_one_x(draw):
    # increasing orders, as full_kernel asks for them, with x log-uniform
    # over every double, at the branch edges 30 and 2 nu, or subnormal
    n = draw(st.integers(1, 64))
    start = draw(st.floats(0.0, 200.0))
    steps = draw(st.lists(st.floats(0.0, 8.0), min_size=n - 1,
                          max_size=n - 1))
    orders = [start]
    for step in steps:
        orders.append(min(orders[-1] + step, 200.0))
    edge = draw(st.sampled_from(["log", "log", "30", "2nu", "subnormal"]))
    if edge == "log":
        x = 10.0 ** draw(st.floats(-300.0, 308.25))
    elif edge == "30":
        x = specfun._SERIES_X
        x = draw(st.sampled_from([math.nextafter(x, 0.0), x,
                                  math.nextafter(x, math.inf)]))
    elif edge == "2nu":
        x = 2.0 * draw(st.sampled_from(orders))
        x = draw(st.sampled_from([math.nextafter(x, 0.0), x,
                                  math.nextafter(x, math.inf)]))
    else:
        x = draw(st.sampled_from([5e-324, 1.5e-323, 1e-310, 2.0 ** -1021]))
    return orders, x


@settings(max_examples=300, deadline=None)
@given(case=_orders_at_one_x(), extra_steps=st.sampled_from([None, 1, 3, 10]))
def test_bessel_orders_match_scalar_bit_for_bit(case, extra_steps):
    # a small step allowance makes columns run out of matrix rows before
    # their stop, and those orders go to the scalar route
    orders, x = case
    with pytest.MonkeyPatch.context() as mp:
        if extra_steps is not None:
            mp.setattr(specfun, "_ORDERS_EXTRA_STEPS", extra_steps)
        assert_orders_same_bits(orders, x)


def _spy(monkeypatch, name, calls):
    # record each call of specfun.<name>, then run it
    fn = getattr(specfun, name)
    monkeypatch.setattr(specfun, name,
                        lambda *a: calls.append((name, a)) or fn(*a))


def test_bessel_orders_cover_each_branch(monkeypatch):
    # x <= 30: one series table for the block, and only the columns that do
    # not stop inside it go to the scalar series; above x = 30 one
    # expansion pass takes every order; at x = 0 neither runs
    calls = []
    for name in ("_series_totals", "_series_scaled", "_debye_scaled"):
        _spy(monkeypatch, name, calls)

    def names(orders, x):
        calls.clear()
        bessel_i_scaled_orders(orders, x)
        return [name for name, _ in calls]

    assert names([0.5, 10.0, 400.0], 25.0) == ["_series_totals"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "_ORDERS_EXTRA_STEPS", 0)
        assert names([0.0, 200.0], 25.0) == ["_series_totals",
                                             "_series_scaled"]
        assert calls[1][1] == (0.0, 25.0)
    assert names([0.0, 0.5, 10.0, 1e306], 40.0) == ["_debye_scaled"]
    assert calls[0][1][0].tolist() == [0.0, 0.5, 10.0, 1e306]
    assert names([0.0, 3.0], 0.0) == []
    monkeypatch.undo()
    for x in (0.0, 40.0, 512.0, 1.0e4):
        assert_orders_same_bits([0.0, 3.0, 150.3, 700.0, 720.0], x)


@pytest.mark.parametrize("extra_steps", [None, 0, 3])
@pytest.mark.parametrize("x", [5e-324, 0.7, 12.0, 29.5, 30.0])
def test_bessel_orders_wide_block_fills_row_by_row(x, extra_steps):
    # from _ROWS_FROM orders on the series table fills a row at a time and
    # stops at the smallest order's stop, unsorted orders included
    orders = np.random.default_rng(9).uniform(0.0, 200.0, _ROWS + 40)
    orders = [0.0, *orders.tolist(), 0.5, 150.3]
    with pytest.MonkeyPatch.context() as mp:
        if extra_steps is not None:
            mp.setattr(specfun, "_ORDERS_EXTRA_STEPS", extra_steps)
        assert_orders_same_bits(orders, x)


@pytest.mark.parametrize("orders, x, error", [
    ([1.0, -0.5], 1.0, ValueError), ([1.0, math.nan], 1.0, ValueError),
    ([1.0, math.inf], 1.0, ValueError), ([1.0], -2.0, ValueError),
    ([1.0], math.nan, ValueError), ([1.0], math.inf, ValueError),
    # lgamma(nu + 1) of the series' leading term overflows
    ([1.0, 1e306], 1.0, OverflowError),
    ([1.0, -0.5], 40.0, ValueError), ([1.0, math.nan], 40.0, ValueError),
])
def test_bessel_orders_errors_at_the_order_reached(orders, x, error,
                                                   monkeypatch):
    # the call raises what the scalar route raises at the bad order or x,
    # before any series table or expansion pass runs
    with pytest.raises(error):
        bessel_i_scaled(orders[-1], x)
    calls = []
    for name in ("_series_totals", "_debye_scaled"):
        _spy(monkeypatch, name, calls)
    with pytest.raises(error):
        bessel_i_scaled_orders(orders, x)
    assert calls == []


@pytest.mark.parametrize("x, error", [
    (0.0, None), (1.0, None), (40.0, None),
    (-2.0, ValueError), (math.nan, ValueError), (math.inf, ValueError),
])
def test_bessel_orders_of_no_orders(x, error):
    # an empty block is still a call: x is checked, and no order is left
    if error is None:
        assert bessel_i_scaled_orders([], x) == []
    else:
        with pytest.raises(error):
            bessel_i_scaled_orders([], x)


@pytest.mark.parametrize("x", [12.0, 40.0])
def test_bessel_orders_work_inside_a_timing_wrapper(x, monkeypatch):
    # a span around the call, made as bench/tracing.py makes its wrappers,
    # holds the whole cost of the block: the series table or expansion pass
    # runs while the span is open, not after the wrapper has returned
    open_spans, seen = [], []

    def span(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
        return traced

    for name in ("_series_totals", "_debye_scaled"):
        fn = getattr(specfun, name)
        monkeypatch.setattr(specfun, name, lambda *a, fn=fn:
                            seen.append(bool(open_spans)) or fn(*a))
    orders = [0.5, 3.0, 10.0]
    got = list(span(specfun.bessel_i_scaled_orders)(orders, x))
    assert seen == [True]
    monkeypatch.undo()
    assert got == [bessel_i_scaled(nu, x) for nu in orders]


# ------------------------------------------------------------------- 1F1


def test_hyp1f1_trivial():
    assert hyp1f1_terminating(0, 1.5, 7.3) == 1.0
    assert hyp1f1_terminating(1, 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_hyp1f1_direct_sum_example():
    # (n=2, b=2, x=1): 1 - 1 + 1/6
    assert hyp1f1_terminating(2, 2.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 15])
@pytest.mark.parametrize("b", [1.0, 1.5, 3.0615528128088303])
@pytest.mark.parametrize("x", [0.2, 1.0, 4.5, 12.0])
def test_hyp1f1_matches_oracles(n, b, x):
    val = hyp1f1_terminating(n, b, x)
    # zeroprec: 1F1(-1; 1; 1) = 0 exactly, which mpmath cannot reach by
    # relative precision alone
    ref = float(mpmath.hyp1f1(-n, b, x, zeroprec=200))
    assert val == pytest.approx(ref, rel=1e-11, abs=1e-13)
    assert val == pytest.approx(hyp1f1_direct(n, b, x), rel=1e-9, abs=1e-11)


def test_hyp1f1_domain():
    with pytest.raises(ValueError):
        hyp1f1_terminating(-1, 2.0, 1.0)
    with pytest.raises(ValueError):
        hyp1f1_terminating(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        hyp1f1_terminating(2, -1.5, 1.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0615528128088303])
def test_laguerre_orthogonality(alpha):
    # integral_0^inf x^alpha e^{-x} L_n L_n' dx = delta_{nn'} Gamma(n+alpha+1)/n!
    def lag(n, x):
        return laguerre_sequence(n, alpha, x)[n]

    for n in range(6):
        for np_ in range(n, 6):
            val, _ = quad(lambda x: x ** alpha * math.exp(-x)
                          * lag(n, x) * lag(np_, x),
                          0.0, 60.0, epsabs=1e-12, epsrel=1e-12, limit=200)
            if n == np_:
                expect = math.exp(math.lgamma(n + alpha + 1.0)
                                  - math.lgamma(n + 1.0))
            else:
                expect = 0.0
            assert val == pytest.approx(expect, abs=1e-8, rel=1e-8)
