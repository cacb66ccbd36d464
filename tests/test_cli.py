"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings

import mpmath
import numpy as np
import pytest

import coneqm
from coneqm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text):
    # every JSON the CLI prints is strict: NaN or Infinity fails the test
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


# ----------------------------------------------------------------- convert


def test_convert_from_deficit_angle(capsys):
    code, out, _ = run(capsys, "convert", "--deficit-angle", "3.14159265")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "sigma,deficit_angle,g_eta,embeddable"
    sigma, _, g_eta, emb = row.split(",")
    assert float(sigma) == pytest.approx(0.5, abs=1e-9)
    assert float(g_eta) == pytest.approx(0.125, abs=1e-9)
    assert emb == "True"


def test_convert_from_sigma_flat(capsys):
    code, out, _ = run(capsys, "convert", "--sigma", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[1]) == 0.0
    assert float(row[2]) == 0.0


def test_convert_out_of_range(capsys):
    code, _, err = run(capsys, "convert", "--g-eta", "0.3")
    assert code == 2
    assert "0.25" in err


def test_convert_requires_exactly_one(capsys):
    code, _, err = run(capsys, "convert")
    assert code == 2
    code, _, err = run(capsys, "convert", "--sigma", "0.5",
                       "--g-eta", "0.1")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (("--sigma", "1e308"), "--sigma 1e+308"),
    (("--g-eta=-1e307",), "--g-eta -1e+307"),
])
def test_convert_overflowing_deficit_angle_exit_2(capsys, argv, flag):
    # 2 pi (1 - sigma) overflows: refused by name, not printed as -inf
    code, out, err = run(capsys, "convert", *argv)
    assert code == 2
    assert out == ""
    assert flag in err and "deficit angle" in err


# ---------------------------------------------------------------- spectrum


def test_spectrum_default_model(capsys):
    code, out, _ = run(capsys, "spectrum", "--e-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,nu,energy"
    first = lines[1].split(",")
    assert (first[0], first[1]) == ("0", "0")
    assert float(first[2]) == pytest.approx(0.5)
    assert float(first[3]) == pytest.approx(1.5)


def test_spectrum_flat_ladder(capsys):
    code, out, _ = run(capsys, "spectrum", "--sigma", "1", "--kappa", "0",
                       "--e-max", "2.5")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows] == [("0", "0"), ("0", "-1"), ("0", "1")]
    assert [float(r[3]) for r in rows] == pytest.approx([1.0, 2.0, 2.0])


def test_spectrum_natural_units(capsys):
    code, out, _ = run(capsys, "spectrum", "--hbar", "2", "--omega", "3",
                       "--e-max", "20", "--natural")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[3]) == pytest.approx(1.5)    # in units of hbar*omega


def test_spectrum_invalid_kappa_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--kappa", "0.5", "--e-max", "4")
    assert code == 2
    assert "kappa must be >= 1 - sigma^2" in err
    assert "0.75" in err


def test_spectrum_kappa_bound_message_gives_both_values(capsys):
    # the bound 1 - 1.4^2 = -0.9599999999999997 lies above -0.96
    code, _, err = run(capsys, "spectrum", "--sigma", "1.4", "--kappa=-0.96",
                       "--e-max", "10")
    assert code == 2
    assert "= -0.9599999999999997, got -0.96" in err


def test_spectrum_ladder_at_small_sigma_starts_at_three_halves(capsys):
    # sigma = 1e-8, kappa = 1: c = (kappa - 1) + sigma^2 = sigma^2, so
    # nu(0) = 1/2; kappa + sigma^2 - 1 would round it to 0 and E to 1, 3
    code, out, _ = run(capsys, "spectrum", "--e-max", "3.9",
                       "--sigma", "1e-8")
    assert code == 0
    assert out.splitlines() == ["n,m,nu,energy", "0,0,0.5,1.5",
                                "1,0,0.5,3.5"]


@pytest.mark.parametrize("sigma, kappa", [("0.7", "0.51"), ("0.3", "0.91")])
def test_spectrum_on_the_bound_keeps_nu_zero(capsys, sigma, kappa):
    # kappa equals the rounded 1 - sigma^2, where (kappa - 1) + sigma^2
    # alone would give -5.6e-17 and 2.8e-17
    code, out, _ = run(capsys, "spectrum", "--e-max", "3.5",
                       "--sigma", sigma, "--kappa", kappa)
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert [r[2] for r in rows if r[1] == "0"] == ["0.0", "0.0"]


def test_spectrum_malformed_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--e-max"])
    assert exc.value.code == 2


def test_spectrum_json_format(capsys):
    code, out, _ = run(capsys, "spectrum", "--e-max", "2", "--format", "json")
    assert code == 0
    data = _strict_json(out)
    assert data[0]["n"] == 0 and data[0]["m"] == 0
    assert data[0]["energy"] == pytest.approx(1.5)


def test_spectrum_m_loop_stops_at_last_bound_m(capsys):
    # nu grows with |m|, so no |m| beyond the first empty one is visited
    start = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--e-max", "3",
                       "--m-max", "100000000")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert out == run(capsys, "spectrum", "--e-max", "3", "--m-max", "6")[1]


def test_spectrum_state_budget_exit_2(capsys):
    # the ~5e8 levels of m = 0 alone pass the budget: counted, never built
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--e-max", "1e9")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert "5e+08 states" in err


@pytest.mark.parametrize("argv, names", [
    # hbar omega = 1e-310 and e_max / (hbar omega) overflows
    (("--e-max", "1e10", "--hbar", "1e-300", "--omega", "1e-10"),
     ("e_max=10000000000.0", "hbar omega = 1e-310")),
    (("--e-max", "1e300", "--hbar", "1e-300"),
     ("e_max=1e+300", "hbar omega = 1e-300")),
    # hbar omega underflows to 0
    (("--e-max", "1", "--hbar", "1e-300", "--omega", "1e-30"),
     ("e_max=1.0", "hbar omega = 0.0")),
])
def test_spectrum_overflowing_level_count_exit_2(capsys, argv, names):
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 2
    assert out == ""
    assert "at least inf states" in err and "overflow" not in err
    assert all(name in err for name in names), err


def test_spectrum_state_budget_prints_three_digits(capsys):
    # 5e299 levels, not their 300-digit integer
    code, out, err = run(capsys, "spectrum", "--e-max", "1e300")
    assert code == 2
    assert "at least 5e+299 states" in err and len(err) < 200


# ------------------------------------------------------------ wavefunction


def test_wavefunction_flat_gaussian(capsys):
    code, out, _ = run(capsys, "wavefunction", "--sigma", "1", "--kappa", "0",
                       "--n", "0", "--m", "0", "--r-min", "0",
                       "--r-max", "2", "--points", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,psi_abs,psi_radial"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0                    # first row at r_min
    for ln in lines[1:]:
        r, psi_abs, psi_rad = (float(v) for v in ln.split(","))
        expect = math.sqrt(1.0 / math.pi) * math.exp(-0.5 * r * r)
        assert psi_rad == pytest.approx(expect, rel=1e-12)
        assert psi_abs == pytest.approx(abs(expect), rel=1e-12)


def test_wavefunction_at_small_sigma_uses_nu_one_half(capsys):
    # psi_00 = r^nu e^{-r^2/2} / sqrt(pi Gamma(nu + 1)) with nu = 1/2
    code, out, _ = run(capsys, "wavefunction", "--n", "0", "--m", "0",
                       "--sigma", "1e-8", "--points", "3")
    assert code == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.splitlines()[1:]]
    assert [r[0] for r in rows] == [0.0, 3.0, 6.0]
    for r, _, psi in rows:
        expect = float(mpmath.sqrt(r) * mpmath.exp(-r * r / 2)
                       / mpmath.sqrt(mpmath.pi * mpmath.gamma(1.5)))
        assert psi == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_wavefunction_vanishes_at_origin_for_positive_nu(capsys):
    code, out, _ = run(capsys, "wavefunction", "--n", "0", "--m", "0",
                       "--r-min", "0", "--r-max", "1", "--points", "3")
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[1]) == 0.0


def test_wavefunction_density_integrates_to_inv_two_pi(capsys):
    code, out, _ = run(capsys, "wavefunction", "--n", "1", "--m", "1",
                       "--r-min", "0", "--r-max", "12", "--points", "1201")
    assert code == 0
    rows = [tuple(float(v) for v in ln.split(","))
            for ln in out.strip().splitlines()[1:]]
    h = rows[1][0] - rows[0][0]
    total = 0.0
    for i, (r, psi_abs, _) in enumerate(rows):
        w = 0.5 * h if i in (0, len(rows) - 1) else h
        total += w * psi_abs ** 2 * r
    assert total == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)


def test_wavefunction_invalid_state_exit_2(capsys):
    code, _, err = run(capsys, "wavefunction", "--n", "-1", "--m", "0")
    assert code == 2


def test_wavefunction_non_finite_bound_names_flag(capsys):
    for flag in ("--r-min", "--r-max"):
        for bad in ("inf", "nan"):
            code, out, err = run(capsys, "wavefunction", "--n", "0",
                                 "--m", "0", flag, bad, "--points", "3")
            assert code == 2
            assert out == ""
            assert f"{flag} must be a finite real, got {float(bad)!r}" in err


def test_wavefunction_m_whose_index_overflows_names_m(capsys):
    m = 10 ** 160
    code, out, err = run(capsys, "wavefunction", "--n", "0", "--m", str(m),
                         "--points", "3")
    assert code == 2 and out == ""
    assert f"at m = {m}:" in err and "ln_gamma" not in err


@pytest.mark.parametrize("m", ["-2", "0", "3"])
def test_wavefunction_psi_abs_is_abs_of_psi_radial(capsys, m):
    code, out, _ = run(capsys, "wavefunction", "--n", "2", "--m", m,
                       "--r-min", "0", "--r-max", "6", "--points", "401")
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        _, psi_abs, psi_rad = (float(v) for v in ln.split(","))
        assert psi_abs == abs(psi_rad)


@pytest.mark.parametrize("n, r_max, points, r_ref, psi_ref", [
    ("300", "40", "4", 40.0, 1.1148896322479383e-32),
    ("3000", "150", "3", 75.0, -0.0046485856550042065),
])
def test_wavefunction_large_n_far_out_is_finite(capsys, n, r_max, points,
                                                r_ref, psi_ref):
    # these rows used to print nan; psi_ref is a 40-digit mpmath value
    code, out, err = run(capsys, "wavefunction", "--n", n, "--m", "1",
                         "--points", points, "--r-max", r_max)
    assert code == 0
    assert err == ""
    rows = [[float(v) for v in ln.split(",")]
            for ln in out.strip().splitlines()[1:]]
    assert len(rows) == int(points)
    assert all(math.isfinite(v) for row in rows for v in row)
    psi = {r: psi_rad for r, _, psi_rad in rows}
    assert psi[r_ref] == pytest.approx(psi_ref, rel=1e-12)


@pytest.mark.parametrize("flag", ["--points", "--n"])
def test_wavefunction_budget_exit_2(capsys, flag):
    # refused before any row is computed
    argv = {"--points": ["--n", "0", "--points", "1000000000"],
            "--n": ["--n", "1000000000"]}[flag]
    start = time.perf_counter()
    code, out, err = run(capsys, "wavefunction", "--m", "0", *argv)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert f"lower {flag}" in err


# ---------------------------------------------------------------- kernel


def test_kernel_flat_matches_mehler(capsys):
    code, out, _ = run(capsys, "kernel", "--sigma", "1", "--kappa", "0",
                       "--r1", "1", "--r2", "1", "--beta", "1",
                       "--dtheta", "0", "--m-max", "60", "--format", "json")
    assert code == 0
    rec = _strict_json(out)[0]
    sh, ch = math.sinh(1.0), math.cosh(1.0)
    mehler = math.exp(-(ch - 1.0) / sh) / (2.0 * math.pi * sh)
    assert rec["value"] == pytest.approx(mehler, rel=1e-8)
    assert rec["m_max"] == 60


def test_kernel_dtheta_ordering(capsys):
    _, out0, _ = run(capsys, "kernel", "--r1", "1", "--r2", "1",
                     "--beta", "1", "--dtheta", "0", "--format", "json")
    _, outpi, _ = run(capsys, "kernel", "--r1", "1", "--r2", "1",
                      "--beta", "1", "--dtheta", str(math.pi),
                      "--format", "json")
    assert _strict_json(out0)[0]["value"] >= _strict_json(outpi)[0]["value"]


def test_kernel_non_finite_dtheta_exit_2(capsys):
    for bad in ("nan", "inf"):
        code, out, err = run(capsys, "kernel", "--r1", "1", "--r2", "1",
                             "--beta", "1", "--dtheta", bad)
        assert code == 2
        assert out == ""
        assert "dtheta" in err


def test_kernel_m_max_zero_is_isotropic_term(capsys):
    from coneqm import (ConeGeometry, OscillatorModel, PhysicalConstants,
                        radial_kernel_closed)
    code, out, _ = run(capsys, "kernel", "--r1", "0.9", "--r2", "1.1",
                       "--beta", "0.7", "--dtheta", "2.0", "--m-max", "0",
                       "--format", "json")
    assert code == 0
    m = OscillatorModel(geom=ConeGeometry(0.5), consts=PhysicalConstants(),
                        omega=1.0, kappa=1.0)
    expect = radial_kernel_closed(m, 0, 0.9, 1.1, 0.7) / (2.0 * math.pi)
    assert _strict_json(out)[0]["value"] == pytest.approx(expect, rel=1e-14)


def test_kernel_tail_tolerance_exit_3(capsys):
    code, out, err = run(capsys, "kernel", "--r1", "1", "--r2", "1",
                         "--beta", "0.2", "--m-max", "1",
                         "--tail-tol", "1e-30")
    assert code == 3
    assert "tail bound" in err
    # the record is still emitted with the bound
    assert "value,tail_bound,m_max" in out


@pytest.mark.parametrize("argv, tail_at_most", [
    # large z = r1 r2 / sinh(beta)
    (("--r1", "1", "--r2", "1", "--beta", "1e-6"), math.inf),
    (("--r1", "4", "--r2", "4.4", "--beta", "0.01"), math.inf),
    # value 0.713, of which the true tail past m_max = 40 is 1.3e-3
    (("--sigma", "1", "--kappa", "0", "--r1", "4", "--r2", "4",
      "--beta", "0.1"), 0.01 * 0.713),
    # r1 r2 underflows to z = 0, where every R_m with m >= 1 is 0
    (("--r1", "1e-170", "--r2", "1e-170", "--beta", "1"), 0.0),
    # z = 1e300 and 1e200: capped by sum_{m >= 1} e^{-z} I_nu(m)(z) <= C,
    # C = 1/2 for sigma <= 1 and ceil(sigma) above, times pref / pi
    (("--r1", "1", "--r2", "1", "--beta", "1e-300"),
     1.001 * 0.5 * (1.0 / math.sinh(1e-300)) / math.pi),
    (("--r1", "1", "--r2", "1", "--beta", "1e-200"),
     1.001 * 0.5 * (1.0 / math.sinh(1e-200)) / math.pi),
    (("--sigma", "1.5", "--r1", "1", "--r2", "1", "--beta", "1e-200"),
     1.001 * 2 * (1.0 / math.sinh(1e-200)) / math.pi),
])
def test_kernel_tail_bound_finite(capsys, argv, tail_at_most):
    code, out, err = run(capsys, "kernel", *argv, "--format", "json")
    assert code == 0
    assert err == ""
    rec = _strict_json(out)[0]
    assert math.isfinite(rec["value"])
    assert math.isfinite(rec["tail_bound"])
    assert rec["tail_bound"] <= tail_at_most


@pytest.mark.parametrize("sigma, true_tail_at_least", [
    # nu(m) = sqrt(4 m^2 + 1/4) lies in (2m, 2m + 1), so I_nu(m) >= I_{2m+1}:
    # the odd orders k >= 83 hold (1 - e^{-2z})/4 - O(41/sqrt(z)) of
    # sum_k e^{-z} I_k(z) = 1 (DLMF 10.35)
    ("0.5", 0.25),
    # nu(3j + i) = sqrt(4 (3j + i)^2 + 9/4)/3 <= 2j + i for i = 1, 2, 3, so
    # the orders m > 40 bound every k >= 29 from below once and every odd
    # k >= 31 once more: 1/2 + 1/4, more than the cap C = 1/2 of sigma <= 1
    ("1.5", 0.75),
])
def test_kernel_tail_at_huge_z_covers_the_true_tail(capsys, sigma,
                                                    true_tail_at_least):
    # z = 1e200: every order below 1e100 has e^{-z} I_nu(z) near
    # 1/sqrt(2 pi z), so nearly all of the sum lies past m_max = 40
    code, out, err = run(capsys, "kernel", "--sigma", sigma, "--r1", "1",
                         "--r2", "1", "--beta", "1e-200", "--format", "json")
    assert (code, err) == (0, "")
    pref = 1.0 / math.sinh(1e-200)
    assert _strict_json(out)[0]["tail_bound"] \
        >= true_tail_at_least * (1.0 - 1e-12) * pref / math.pi


def test_kernel_at_the_largest_bessel_argument(capsys):
    # z = 1 / sinh(1e-308) = 1e308, where 2 pi z overflows: every
    # e^{-z} I_nu(z) is near 1/sqrt(2 pi z), not 0
    code, out, err = run(capsys, "kernel", "--r1", "1", "--r2", "1",
                         "--beta", "1e-308", "--format", "json")
    assert (code, err) == (0, "")
    got = _strict_json(out)[0]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        beta = mpmath.mpf(1e-308)
        sh = mpmath.sinh(beta)
        z = 1 / sh
        scale = mpmath.exp(-2 * mpmath.sinh(beta / 2) ** 2 / sh) / sh
        terms = [scale * mpmath.besseli(mpmath.sqrt(4 * m * m + 0.25), z)
                 * mpmath.exp(-z) * (1 if m == 0 else 2) for m in range(41)]
        want = float(mpmath.fsum(terms) / (2 * mpmath.pi))
    assert want == pytest.approx(5.14e154, rel=1e-3)
    assert got["value"] == pytest.approx(want, rel=1e-12)
    # the true tail is about pref / (4 pi) = 7.96e306 (see
    # test_kernel_tail_at_huge_z_covers_the_true_tail)
    pref = 1.0 / math.sinh(1e-308)
    assert 7.9e306 <= got["tail_bound"] <= 1.001 * 0.5 * pref / math.pi


@pytest.mark.parametrize("argv", [
    # z = 1 / sinh(1e-310) overflows
    ("--r1", "1", "--r2", "1", "--beta", "1e-310"),
    # z = 1e308, but M omega / (hbar sinh(omega beta)) overflows
    ("--r1", "0.1", "--r2", "0.1", "--beta", "1e-310"),
    # sinh(omega beta) underflows to 0
    ("--r1", "1", "--r2", "1", "--beta", "5e-324", "--omega", "0.5"),
])
def test_kernel_overflowing_factors_exit_2(capsys, argv):
    code, out, err = run(capsys, "kernel", *argv)
    assert code == 2
    assert out == ""
    assert "beta" in err


@pytest.mark.parametrize("beta", ["710", "711", "1e300"])
def test_kernel_where_sinh_overflows_exit_0(capsys, beta):
    # above omega beta = 709.78, 2 sinh(omega beta) overflows; the flat
    # Mehler kernel at dtheta = 0 is (a/pi) e^{-omega beta}
    # e^{-(r1^2 + r2^2)/2} there, subnormal at 710 and 711, 0 beyond 745
    code, out, err = run(capsys, "kernel", "--r1", "1", "--r2", "1.5",
                         "--beta", beta, "--sigma", "1", "--kappa", "0",
                         "--format", "json")
    assert (code, err) == (0, "")
    got = _strict_json(out)[0]
    with mpmath.workdps(40):
        b = mpmath.mpf(beta)
        want = float(mpmath.exp(-b - mpmath.mpf(1.625)) / mpmath.pi)
    assert got["value"] == pytest.approx(want, rel=1e-12, abs=1e-323)
    assert got["tail_bound"] == 0.0


def test_verify_overflowing_closed_kernel_exit_2(capsys):
    # M omega / (hbar sinh(omega beta)) = 1e308 / sinh(0.5) overflows in the
    # semigroup suite's closed kernels
    code, out, err = run(capsys, "verify", "--suite", "semigroup",
                         "--mass", "1e308")
    assert code == 2
    assert out == ""
    assert "overflows at r1 = " in err and "r2 = " in err and "beta = " in err


def test_kernel_large_tail_asks_for_m_max(capsys):
    code, out, err = run(capsys, "kernel", "--r1", "4", "--r2", "4.4",
                         "--beta", "0.01", "--tail-tol", "1e-6")
    assert code == 3
    assert "increase --m-max" in err
    assert "overflow" not in err
    assert "value,tail_bound,m_max" in out


def test_kernel_overflowing_angle_exit_2(capsys):
    base = ("kernel", "--r1", "1", "--r2", "1", "--beta", "1")
    code, out, err = run(capsys, *base, "--dtheta", "1e308")
    assert code == 2
    assert out == ""
    assert "dtheta" in err
    # m * 1e307 overflows from m = 18 on, past the certified stop
    code, out, _ = run(capsys, *base, "--dtheta", "1e307",
                       "--m-max", "100000000")
    assert code == 0
    assert math.isfinite(float(out.splitlines()[1].split(",")[0]))


def test_kernel_huge_m_max_stops_at_certified_term(capsys):
    # terms past the certified point are never computed
    base = ("kernel", "--r1", "1", "--r2", "1", "--beta", "1", "--format",
            "json")
    start = time.perf_counter()
    code, out, _ = run(capsys, *base, "--m-max", "100000000")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    _, ref, _ = run(capsys, *base, "--m-max", "40")
    assert _strict_json(out)[0]["value"] == _strict_json(ref)[0]["value"]


def test_kernel_blocked_equals_scalar_above_30_exit_0(capsys, monkeypatch):
    # sigma = 0.05 gives nu(m) near 20 m.  At z = 37.21 / sinh(1) = 31.7
    # every order of the first block takes the expansion, up to nu ~ 800;
    # the sum is certified near m = 4, and the output equals the scalar
    # calls' byte for byte
    from coneqm import propagator
    base = ("kernel", "--sigma", "0.05", "--r1", "6.1", "--r2", "6.1",
            "--beta", "1", "--format", "json")
    with monkeypatch.context() as mp:
        mp.setattr(propagator, "_BLOCK_MIN_Z", math.inf)
        code, scalar, err = run(capsys, *base)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, *base)
    assert (code, err) == (0, "")
    assert out == scalar


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
def test_kernel_bad_tail_tol_exit_2(capsys, tol):
    # nan used to exit 0 (tail_bound > nan is False) and -1 to exit 3
    for r in ("1", "1e-170"):
        code, out, err = run(capsys, "kernel", "--r1", r, "--r2", r,
                             "--beta", "1", f"--tail-tol={tol}")
        assert code == 2
        assert out == ""
        assert "--tail-tol" in err


def test_kernel_zero_tail_tol_is_accepted(capsys):
    code, _, err = run(capsys, "kernel", "--r1", "1e-170", "--r2", "1e-170",
                       "--beta", "1", "--tail-tol", "0")
    assert code == 0
    assert err == ""


def test_verify_semigroup_verdict_is_independent_of_units(capsys):
    # the defect is reported in units of the kernel scale M omega / hbar
    def records(*flags):
        code, out, _ = run(capsys, "verify", "--suite", "semigroup", *flags)
        recs = _strict_json(out)["records"]
        assert code == (0 if all(r["pass"] for r in recs) else 1)
        return recs
    natural = records()
    for flags in (("--hbar", "1e-3"), ("--mass", "1e3"), ("--omega", "100"),
                  ("--hbar", "1e3")):
        recs = records(*flags)
        assert [r["pass"] for r in recs] == [r["pass"] for r in natural]
        for r, n in zip(recs, natural):
            assert r["case"] == n["case"]
            if r["case"].startswith("composition defect"):
                assert r["actual"] == pytest.approx(n["actual"], abs=1e-14)


def test_verify_verdicts_are_independent_of_units(capsys):
    # every suite works in units of the oscillator length and of 1/omega, so
    # a change of units moves no verdict and no case string
    def records(*flags):
        code, out, _ = run(capsys, "verify", *flags)
        recs = _strict_json(out)["records"]
        assert code == (0 if all(r["pass"] for r in recs) else 1)
        return [(r["suite"], r["case"], r["pass"]) for r in recs]
    natural = records()
    assert {suite for suite, _, _ in natural} == {
        "spectrum", "recombination", "transfer", "semigroup", "normalization"}
    for flags in (("--omega", "4"), ("--omega", "10", "--mass", "0.1"),
                  ("--mass", "10", "--hbar", "0.1")):
        assert records(*flags) == natural, flags
    # at omega = 1e-200 the harmonic term is formed as (omega r)^2, the
    # levels are solved in units of hbar omega and the composition integrand
    # is formed in units of M omega / hbar, so nothing underflows
    for suite in ("transfer", "spectrum", "semigroup"):
        assert records("--suite", suite, "--omega", "1e-200") == [
            rec for rec in natural if rec[0] == suite], suite


def test_main_does_not_hide_zero_division(monkeypatch):
    from coneqm import cli

    def divide_by_zero(args):
        return 1 / 0
    monkeypatch.setattr(cli, "_cmd_kernel", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        main(["kernel", "--r1", "1", "--r2", "1", "--beta", "1"])


# ---------------------------------------------------------------- config


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("# comment line\nsigma = 0.8\nkappa = 2\n")
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                       "--e-max", "4")
    assert code == 0
    nu0 = float(out.strip().splitlines()[1].split(",")[2])
    expect = math.sqrt(2.0 + 0.8 ** 2 - 1.0) / 1.6
    assert nu0 == pytest.approx(expect, rel=1e-12)
    # flags override the file
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                       "--sigma", "0.5", "--kappa", "1", "--e-max", "4")
    assert float(out.strip().splitlines()[1].split(",")[2]) \
        == pytest.approx(0.5, rel=1e-12)


def test_config_file_bad_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigmo = 0.8\n")
    code, _, err = run(capsys, "spectrum", "--config", str(cfg),
                       "--e-max", "4")
    assert code == 2
    assert "sigmo" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "spectrum", "--e-max", "2",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,m,nu,energy")


@pytest.mark.parametrize("where", ["missing/out.csv", "."])
def test_output_unwritable_exit_2(tmp_path, capsys, where):
    # a directory that does not exist, and a path that is a directory
    target = tmp_path / where
    code, out, err = run(capsys, "convert", "--sigma", "0.5",
                         "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"coneqm: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_outputs_are_byte_identical_across_runs(capsys):
    args = ("spectrum", "--e-max", "6", "--m-max", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    kargs = ("kernel", "--r1", "1", "--r2", "1.3", "--beta", "0.9",
             "--dtheta", "0.4")
    _, k1, _ = run(capsys, *kargs)
    _, k2, _ = run(capsys, *kargs)
    assert k1 == k2


# ------------------------------------------------- one parser per process


def suites_of(out):
    return {rec["suite"] for rec in _strict_json(out)["records"]}


def test_parser_reuse_keeps_calls_apart(capsys):
    from coneqm import cli
    code, out, _ = run(capsys, "verify", "--suite", "recombination",
                       "--suite", "normalization")
    assert code == 0 and suites_of(out) == {"recombination", "normalization"}
    assert cli._build_parser() is cli._build_parser()
    # the repeatable --suite starts empty on every call
    code, out, _ = run(capsys, "verify", "--suite", "semigroup")
    assert code == 0 and suites_of(out) == {"semigroup"}
    code, out, _ = run(capsys, "verify", "--suite", "recombination")
    assert code == 0 and suites_of(out) == {"recombination"}


def test_parser_reuse_after_a_usage_error(capsys):
    kargs = ("kernel", "--r1", "1", "--r2", "1.3", "--beta", "0.9")
    _, before, _ = run(capsys, *kargs)
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--r1", "1", "--beta", "0.9", "--m-max", "x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: coneqm kernel")
    code, after, err = run(capsys, *kargs)
    assert (code, after, err) == (0, before, "")


def test_monkeypatched_command_runs_after_an_earlier_call(capsys,
                                                         monkeypatch):
    from coneqm import cli
    assert run(capsys, "kernel", "--r1", "1", "--r2", "1", "--beta",
               "1")[0] == 0
    monkeypatch.setattr(cli, "_cmd_kernel", lambda args: 42)
    assert main(["kernel", "--r1", "1", "--r2", "1", "--beta", "1"]) == 42


def test_parser_shared_by_threads_writes_serial_bytes(tmp_path):
    # two threads per sigma, more threads than cores, switching often
    def convert(sigma, path):
        assert main(["convert", "--sigma", sigma, "--output", str(path)]) == 0
        return path.read_bytes()
    sigmas = ("0.5", "1.7")
    serial = {s: convert(s, tmp_path / f"serial-{s}.csv") for s in sigmas}
    got = {(s, t): [] for s in sigmas for t in range(2)}

    def worker(sigma, t):
        for i in range(50):
            got[sigma, t].append(
                convert(sigma, tmp_path / f"{sigma}-{t}-{i}.csv"))
    threads = [threading.Thread(target=worker, args=key) for key in got]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert serial["0.5"] != serial["1.7"]
    for (s, _), outs in got.items():
        assert outs == [serial[s]] * 50


# ---------------------------------------------------------------- verify


def test_verify_fast_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recombination",
                       "--suite", "normalization", "--suite", "semigroup")
    assert code == 0
    report = _strict_json(out)
    assert report["pass"] is True
    assert all(r["pass"] for r in report["records"])
    assert all({"suite", "case", "expected", "actual", "tolerance", "pass"}
               <= set(r) for r in report["records"])


def test_verify_transfer_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "transfer")
    assert code == 0
    report = _strict_json(out)
    assert report["pass"] is True
    cases = [r["case"] for r in report["records"]]
    assert any("first-order" in c for c in cases)


def test_verify_transfer_stdout_does_not_depend_on_blas_threads():
    # every product runs on one BLAS thread of a pool worker, whose kernels
    # are the same whatever OPENBLAS_NUM_THREADS says
    src = os.path.dirname(os.path.dirname(os.path.abspath(coneqm.__file__)))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-m", "coneqm.cli", "verify", "--suite",
             "transfer", "--sigma", "0.7"],
            env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


def test_verify_spectrum_podolsky_excludes_and_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spectrum",
                       "--mode", "podolsky")
    assert code == 0
    report = _strict_json(out)
    assert report["pass"] is True
    assert all(r["actual"] == "excludes" for r in report["records"])


def test_verify_spectrum_imaginary_index_exit_2(capsys):
    # sigma=2, kappa=-3: the Podolsky s-wave index is imaginary, which
    # Podolsky mode reports by name instead of a bare math domain error
    # (Jensen-Koppe mode gives verdicts there, tested below)
    code, _, err = run(capsys, "verify", "--suite", "spectrum",
                       "--sigma", "2", "--kappa", "-3", "--mode", "podolsky")
    assert code == 2
    assert "imaginary" in err and "m=0" in err
    assert "math domain error" not in err


@pytest.mark.parametrize("sigma, kappa", [
    ("1.2", "-0.39"), ("1.2", "-0.2"), ("2", "-3")])
def test_verify_spectrum_without_a_podolsky_ladder_gives_verdicts(
        capsys, sigma, kappa):
    # kappa < 0, inside kappa >= 1 - sigma^2: at m = 0, 4 m^2 + kappa < 0,
    # so no Podolsky ladder exists, and Jensen-Koppe mode has no gap to
    # resolve
    code, out, err = run(capsys, "verify", "--suite", "spectrum",
                         "--sigma", sigma, f"--kappa={kappa}")
    assert code == 0 and err == ""
    records = _strict_json(out)["records"]
    assert len(records) == 12
    assert all(r["actual"] == "matches" for r in records)


@pytest.mark.parametrize("sigma, kappa, exponent", [
    ("1.2", "-0.39", "4231.77"), ("2", "-2", "7812.49")])
def test_verify_transfer_overflowing_short_time_factor_is_a_record(
        capsys, sigma, kappa, exponent):
    # e^(-V eps/hbar) past e^709 at the first node: a failing record that
    # names it, not a NaN ratio and an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--suite", "transfer",
                             "--sigma", sigma, f"--kappa={kappa}")
    assert code == 1 and err == ""
    report = _strict_json(out)
    [record] = report["records"]
    assert report["pass"] is False and record["pass"] is False
    for name in ("grid node 0, r = 0.001", f"exponent is {exponent}",
                 f"sigma = {float(sigma)!r}", f"kappa = {float(kappa)!r}"):
        assert name in record["actual"], record


@pytest.mark.parametrize("sigma, kappa", [
    ("1.87", "-0.064"), ("1.172", "-0.058"), ("1.736", "-0.099"),
    ("1.799", "-0.142")])
def test_verify_transfer_overflowing_products_are_a_record(capsys, sigma,
                                                           kappa):
    # e^(-V eps/hbar) stays below e^709, but the doubling products overflow:
    # a failing record that names the transfer matrix, not a NaN ratio and
    # an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--suite", "transfer",
                             "--sigma", sigma, f"--kappa={kappa}")
    assert code == 1 and err == ""
    report = _strict_json(out)
    [record] = report["records"]
    assert report["pass"] is False and record["pass"] is False
    assert record["case"] == "transfer matrix in the double range"
    for name in ("transfer matrix of 8 slices overflows",
                 f"sigma = {float(sigma)!r}", f"kappa = {float(kappa)!r}"):
        assert name in record["actual"], record


@pytest.mark.parametrize("command", [
    ("spectrum", "--e-max", "5"), ("wavefunction", "--n", "1", "--m", "0"),
    ("kernel", "--r1", "1", "--r2", "1.2", "--beta", "0.8"), ("verify",)],
    ids=lambda command: command[0])
@pytest.mark.parametrize("flag, message", [
    ("--sigma=1e155", "sigma^2 overflows at sigma = 1e+155"),
    ("--sigma=1e300", "sigma^2 overflows at sigma = 1e+300"),
    ("--kappa=inf", "kappa must be a finite real, got inf"),
    ("--kappa=nan", "kappa must be a finite real, got nan"),
], ids=["sigma=1e155", "sigma=1e300", "kappa=inf", "kappa=nan"])
def test_model_past_the_doubles_exit_2(capsys, command, flag, message):
    # the model refuses a sigma whose square overflows, and a kappa that is
    # not finite, in one line, before any subcommand's work: no empty table
    # with exit 0, and no error from deep inside the closed form
    code, out, err = run(capsys, *command, flag)
    assert (code, out, err) == (2, "", f"coneqm: {message}\n")


@pytest.mark.parametrize("argv, names", [
    # e^{-w} I_{m/sigma}(w) underflows to 0 at m/sigma = 518
    (("--sigma", "0.0019300679415509298", "--kappa", "0.999996274837741",
      "--suite", "recombination"),
     ("sigma = 0.0019300679415509298", "m = 1", "eps = 0.02")),
    # sigma^2 underflows to 0
    (("--sigma", "1e-300", "--kappa", "7.75", "--suite", "spectrum"),
     ("sigma = 1e-300",)),
])
def test_verify_underflowing_divisor_exit_2(capsys, argv, names):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "underflows to 0" in err
    assert all(name in err for name in names)


@pytest.mark.parametrize("argv, names", [
    # sigma^2 = 1e-320 is subnormal: kappa/(4 sigma^2) overflows to inf, and
    # the Jensen-Koppe term makes 1/4 + C inf - inf = nan
    (("--sigma", "1e-160", "--kappa", "7.75", "--suite", "spectrum"),
     ("is nan", "sigma = 1e-160", "kappa = 7.75", "m = 0")),
    (("--sigma", "1e-160", "--kappa", "7.75", "--suite", "spectrum",
      "--mode", "podolsky"),
     ("is inf", "sigma = 1e-160", "kappa = 7.75", "m = 0")),
    # e^{-V_eff eps/hbar} = e^{(1 - sigma^2) eps/(8 sigma^2)} past e^709
    (("--sigma", "0.0015", "--suite", "recombination"),
     ("overflows", "sigma = 0.0015", "m = 1", "eps = 0.02",
      "exponent is 1111.1")),
    # 4 sigma^2 r^2 in V_eff underflows to 0
    (("--sigma", "1e-170", "--suite", "recombination"),
     ("underflows to 0", "sigma = 1e-170", "r = 1.0")),
])
def test_verify_too_small_sigma_squared_exit_2(capsys, argv, names):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "too small a divisor" in err or "underflows to 0" in err
    assert all(name in err for name in names), err


@pytest.mark.parametrize("argv, names", [
    # sigma^2 overflows in the radial operator's inverse-square terms
    (("--suite", "spectrum", "--sigma", "2e154"),
     ("sigma^2 overflows", "sigma = 2e+154")),
    # hbar^2 overflows in the radial operator's kinetic factor
    (("--suite", "spectrum", "--hbar", "1e200"),
     ("hbar^2 overflows", "hbar = 1e+200")),
    # and in V_eff
    (("--suite", "recombination", "--hbar", "1e200"),
     ("hbar^2 overflows", "hbar = 1e+200", "V_eff")),
])
def test_verify_overflowing_square_exit_2(capsys, argv, names):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "Numerical result out of range" not in err
    assert all(name in err for name in names), err


@pytest.mark.parametrize("suite, largest", [
    # sigma^2 M r_hat^2/(hbar eps) = 9e6 / 0.005
    ("recombination", "argument 1800000000.0"),
    # c r_i r_j of the Bessel table, first refused in one band's block
    ("transfer", "argument 1"),
])
def test_verify_past_amos_range_exit_2(capsys, suite, largest):
    # scipy's ive is NaN past |x| = 2^30 - 1/2: refused, not reported
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--sigma", "3000")
    assert code == 2
    assert out == ""
    assert "sigma = 3000.0" in err and largest in err
    assert "up to 1073741823.5" in err


def test_verify_recombination_identity_in_oscillator_units(capsys):
    # the sigma = 1 identity's Bessel argument M r_hat^2/(hbar eps) is 10 in
    # any units, so a small hbar keeps it in AMOS's range
    code, out, err = run(capsys, "verify", "--suite", "recombination",
                         "--hbar", "1e-10")
    assert code == 0, err
    assert _strict_json(out)["records"][0]["actual"] == 1.0


@pytest.mark.parametrize("flags, code", [
    ((), 0),
    (("--mode", "podolsky"), 0),
    (("--sigma", "1", "--kappa", "0"), 0),
    # thresholds above the Jensen-Koppe / Podolsky gap still call "matches"
    (("--mode", "podolsky", "--sigma", "0.999"), 1),
    # no Podolsky ladder at m = 0: no gap for the verdicts to resolve
    (("--sigma", "2", "--kappa", "-3"), 0),
    # ImaginaryIndexError from the matrix build, before any solve
    (("--sigma", "2", "--kappa", "-3", "--mode", "podolsky"), 2),
])
def test_verify_spectrum_exit_codes(capsys, flags, code):
    got, out, err = run(capsys, "verify", "--suite", "spectrum", *flags)
    assert got == code
    assert (code == 2) == (out == "")
    assert (code == 2) == ("imaginary" in err)


def test_verify_spectrum_s_wave_threshold_at_sigma_one(capsys):
    # at sigma = 1, kappa = 0 the s-wave index is the marginal nu = 0; its
    # threshold, 10x the estimate, stays below half the 2 hbar omega level
    # spacing (it was 2.41 hbar omega under the hard-wall law)
    code, out, _ = run(capsys, "verify", "--suite", "spectrum", "--sigma",
                       "1", "--kappa", "0")
    assert code == 0
    s_wave = [r for r in _strict_json(out)["records"]
              if ",m=0," in r["case"]]
    assert len(s_wave) == 4
    assert all(r["tolerance"] < 1.0 for r in s_wave)


def test_verify_podolsky_excludes_near_the_marginal_index(capsys):
    # kappa + sigma^2 - 1 is about 1e-5, so nu(0) is near 0 while the
    # Podolsky s-wave index is 0.166: its four levels read "excludes"
    code, out, _ = run(capsys, "verify", "--suite", "spectrum", "--mode",
                       "podolsky", "--sigma", "0.9492170015297476",
                       "--kappa", "0.09898708400687506")
    assert code == 0
    assert {r["actual"] for r in _strict_json(out)["records"]} == \
        {"excludes"}


def test_verify_failing_record_exits_1(capsys, monkeypatch):
    import coneqm.cli as cli
    fail_record = [{"suite": "semigroup", "case": "forced failure",
                    "expected": 0.0, "actual": 1.0, "tolerance": 1e-8,
                    "pass": False}]
    monkeypatch.setattr(cli, "_suite_semigroup", lambda model: fail_record)
    code, out, _ = run(capsys, "verify", "--suite", "semigroup")
    assert code == 1
    report = _strict_json(out)
    assert report["pass"] is False
    assert report["records"][0]["case"] == "forced failure"


def test_verify_writes_json_to_output_and_refuses_format(capsys, tmp_path):
    # verify's report is always JSON, so a --format it would ignore is a
    # usage error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "recombination", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "recombination",
                       "--output", str(path))
    assert code == 0 and out == ""
    assert suites_of(path.read_text()) == {"recombination"}


def test_verify_sigma_one_modes_identical(capsys):
    _, out_jk, _ = run(capsys, "verify", "--suite", "spectrum",
                       "--sigma", "1", "--kappa", "1")
    _, out_pod, _ = run(capsys, "verify", "--suite", "spectrum",
                        "--sigma", "1", "--kappa", "1", "--mode", "podolsky")
    jk = _strict_json(out_jk)
    pod = _strict_json(out_pod)
    assert [r["actual"] for r in jk["records"]] \
        == [r["actual"] for r in pod["records"]]
    assert jk["pass"] and pod["pass"]


# ------------------------------------------------- semigroup and normalization


def _records(capsys, *argv):
    code, out, _ = run(capsys, "verify", *argv)
    return code, _strict_json(out)["records"]


@pytest.mark.parametrize("sigma, kappa", [("1", "0"), ("0.45", "0.7975")])
def test_verify_semigroup_passes_at_zero_order(capsys, sigma, kappa):
    # nu(0) = 0: flat space, and kappa = 1 - sigma^2
    code, recs = _records(capsys, "--suite", "semigroup",
                          "--sigma", sigma, "--kappa", kappa)
    assert code == 0
    assert len(recs) == 11 and all(r["pass"] for r in recs)


def test_verify_semigroup_plain_trapezoid_fails_at_zero_order(capsys,
                                                              monkeypatch):
    # the rule with its endpoint clustering removed: the same 161 nodes
    # spaced uniformly between its first and last node
    import coneqm.cli as cli
    from coneqm.grids import RadialGrid, TanhSinhRule

    def plain(upper):
        s = TanhSinhRule(upper).values
        return RadialGrid(float(s[0]), float(s[-1]), len(s))
    monkeypatch.setattr(cli, "TanhSinhRule", plain)
    code, recs = _records(capsys, "--suite", "semigroup",
                          "--sigma", "1", "--kappa", "0")
    assert code == 1
    zero = [r for r in recs if "m=0" in r["case"]]
    assert len(zero) == 4 and not any(r["pass"] for r in zero)


def test_verify_semigroup_and_normalization_seeded_scan(capsys):
    # sigma in [0.1, 3] times kappa in {1 - sigma^2, 1 - sigma^2 + 0.05,
    # 1, 2}: 32 configurations, every record within its tolerance
    rng = np.random.default_rng(17)
    failed = []
    for sigma in rng.uniform(0.1, 3.0, 8).tolist():
        low = 1.0 - sigma * sigma
        for kappa in (low, low + 0.05, 1.0, 2.0):
            code, recs = _records(capsys, "--suite", "semigroup",
                                  "--suite", "normalization",
                                  "--sigma", repr(sigma),
                                  "--kappa", repr(kappa))
            bad = [r["case"] for r in recs if not r["pass"]]
            assert len(recs) == 17 and code == (1 if bad else 0)
            failed += [(sigma, kappa, case) for case in bad]
    assert failed == []


def test_verify_leaves_scipy_integrate_unimported(tmp_path):
    # every suite runs on the package's own quadratures
    src = os.path.dirname(os.path.dirname(os.path.abspath(coneqm.__file__)))
    report = str(tmp_path / "report.json")
    script = ("import sys\n"
              "from coneqm.cli import main\n"
              f"code = main(['verify', '--output', {report!r}])\n"
              "print(code, 'scipy.integrate' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
