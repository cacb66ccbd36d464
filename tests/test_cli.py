"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import math
import time

import pytest

from coneqm.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_spectrum_malformed_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--e-max"])
    assert exc.value.code == 2


def test_spectrum_json_format(capsys):
    code, out, _ = run(capsys, "spectrum", "--e-max", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
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
    assert "500000000 states" in err


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


@pytest.mark.parametrize("m", ["-2", "0", "3"])
def test_wavefunction_psi_abs_is_abs_of_psi_radial(capsys, m):
    code, out, _ = run(capsys, "wavefunction", "--n", "2", "--m", m,
                       "--r-min", "0", "--r-max", "6", "--points", "401")
    assert code == 0
    for ln in out.strip().splitlines()[1:]:
        _, psi_abs, psi_rad = (float(v) for v in ln.split(","))
        assert psi_abs == abs(psi_rad)


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
    rec = json.loads(out)[0]
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
    assert json.loads(out0)[0]["value"] >= json.loads(outpi)[0]["value"]


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
    assert json.loads(out)[0]["value"] == pytest.approx(expect, rel=1e-14)


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
])
def test_kernel_tail_bound_finite(capsys, argv, tail_at_most):
    code, out, err = run(capsys, "kernel", *argv, "--format", "json")
    assert code == 0
    assert err == ""
    rec = json.loads(out)[0]
    assert math.isfinite(rec["value"])
    assert math.isfinite(rec["tail_bound"])
    assert rec["tail_bound"] <= tail_at_most


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
    assert json.loads(out)[0]["value"] == json.loads(ref)[0]["value"]


def test_kernel_bessel_non_convergence_exit_3(capsys, monkeypatch):
    from coneqm import specfun
    monkeypatch.setattr(specfun, "_MAXIT", 3)
    code, out, err = run(capsys, "kernel", "--r1", "4", "--r2", "4",
                         "--beta", "1", "--m-max", "5")
    assert code == 3
    assert out == ""
    assert "failed to converge" in err


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


def test_verify_semigroup_bessel_non_convergence_exit_3(capsys, monkeypatch):
    # the semigroup suite reaches specfun through the array route
    from coneqm import specfun
    monkeypatch.setattr(specfun, "_MAXIT", 3)
    code, out, err = run(capsys, "verify", "--suite", "semigroup")
    assert code == 3
    assert out == ""
    assert "failed to converge" in err


def test_verify_semigroup_verdict_is_independent_of_units(capsys):
    # the defect is reported in units of the kernel scale M omega / hbar
    def records(*flags):
        code, out, _ = run(capsys, "verify", "--suite", "semigroup", *flags)
        recs = json.loads(out)["records"]
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


# ---------------------------------------------------------------- verify


def test_verify_fast_suites_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recombination",
                       "--suite", "normalization", "--suite", "semigroup")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(r["pass"] for r in report["records"])
    assert all({"suite", "case", "expected", "actual", "tolerance", "pass"}
               <= set(r) for r in report["records"])


def test_verify_transfer_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "transfer")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    cases = [r["case"] for r in report["records"]]
    assert any("first-order" in c for c in cases)


def test_verify_spectrum_podolsky_excludes_and_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "spectrum",
                       "--mode", "podolsky")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(r["actual"] == "excludes" for r in report["records"])


def test_verify_spectrum_imaginary_index_exit_2(capsys):
    # sigma=2, kappa=-3: the Podolsky s-wave index is imaginary, which both
    # modes report by name instead of a bare math domain error
    for mode in ("jensen-koppe", "podolsky"):
        code, _, err = run(capsys, "verify", "--suite", "spectrum",
                           "--sigma", "2", "--kappa", "-3", "--mode", mode)
        assert code == 2
        assert "imaginary" in err and "m=0" in err
        assert "math domain error" not in err


def test_verify_failing_record_exits_1(capsys, monkeypatch):
    import coneqm.cli as cli
    fail_record = [{"suite": "semigroup", "case": "forced failure",
                    "expected": 0.0, "actual": 1.0, "tolerance": 1e-8,
                    "pass": False}]
    monkeypatch.setattr(cli, "_suite_semigroup", lambda model: fail_record)
    code, out, _ = run(capsys, "verify", "--suite", "semigroup")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["records"][0]["case"] == "forced failure"


def test_verify_sigma_one_modes_identical(capsys):
    _, out_jk, _ = run(capsys, "verify", "--suite", "spectrum",
                       "--sigma", "1", "--kappa", "1")
    _, out_pod, _ = run(capsys, "verify", "--suite", "spectrum",
                        "--sigma", "1", "--kappa", "1", "--mode", "podolsky")
    jk = json.loads(out_jk)
    pod = json.loads(out_pod)
    assert [r["actual"] for r in jk["records"]] \
        == [r["actual"] for r in pod["records"]]
    assert jk["pass"] and pod["pass"]
