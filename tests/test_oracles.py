"""Oracle layer: eigensolver, mode discrimination, short-time factor,
recombination, transfer matrix.

Several tests here double as the quantitative analysis behind the strict
acceptance checks.  The eigensolver tests that use hard_wall_matrix, a
hard-wall (u(r_min) = 0) discretization built here from the stencil alone,
pin down the r_min wall shift of the nu = 1/2 eigenvalues under a hard wall,
the error that the oracle's regular (Frobenius) inner closure removes; the
Frobenius tests show the levels then reproduce the analytic ladder.  The
transfer-matrix tests measure the convergence of the time-sliced kernel,
whose local order in beta/N is near min(1, nu), and its constant N * dev
where that order is 1.
"""

import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from coneqm import oracles
from coneqm.geometry import (ConeGeometry, ImaginaryIndexError,
                             PhysicalConstants, UnderflowError,
                             effective_potential)
from coneqm.grids import RadialGrid
from coneqm.oracles import (CurvatureTermMode, TridiagonalMatrix,
                            eigen_lowest, podolsky_index,
                            radial_hamiltonian_matrix, recombination_ratio,
                            spectrum_match_report, transfer_matrix_kernel)
from coneqm.propagator import radial_kernel_closed
from coneqm.spectrum import OscillatorModel, QuantumNumbers, energy

NAT = PhysicalConstants()


def model(sigma=0.5, kappa=1.0, omega=1.0, consts=NAT):
    return OscillatorModel(geom=ConeGeometry(sigma), consts=consts,
                           omega=omega, kappa=kappa)


def test_radial_grid_contract():
    g = RadialGrid(0.5, 2.5, 21)
    assert g.spacing == pytest.approx(0.1, rel=1e-15)
    assert g.values[0] == 0.5 and g.values[-1] == 2.5 and len(g.values) == 21
    fine = g.refined()
    assert fine.points == 41 and fine.spacing == pytest.approx(0.05)
    w = g.trapezoid_weights()
    assert w[0] == w[-1] == pytest.approx(0.05)
    assert w[1:-1] == pytest.approx(np.full(19, 0.1))
    with pytest.raises(ValueError):
        RadialGrid(0.0, 2.0, 50)          # r_min must be > 0
    with pytest.raises(ValueError):
        RadialGrid(2.0, 1.0, 50)
    with pytest.raises(ValueError):
        RadialGrid(0.1, 1.0, 8)           # too few points


# ------------------------------------------------------ Hamiltonian matrix


def hard_wall_matrix(mdl, m, mode, grid):
    """The radial operator on grid's interior nodes with a hard wall
    u(r_min) = 0, from the stencil alone: 2 kin/h^2 + kin C/r^2 + V on the
    diagonal and -kin/h^2 off it, kin = hbar^2/2M, with the mode's
    inverse-square coefficient C = m^2/sigma^2 - 1/4 + kappa/(4 sigma^2)
    [- (1 - sigma^2)/(4 sigma^2) in Jensen-Koppe mode]."""
    s2 = mdl.geom.sigma ** 2
    c = m * m / s2 - 0.25 + mdl.kappa / (4.0 * s2)
    if mode is CurvatureTermMode.JENSEN_KOPPE:
        c -= (1.0 - s2) / (4.0 * s2)
    mass = mdl.consts.mass
    kin = mdl.consts.hbar ** 2 / (2.0 * mass)
    h = grid.spacing
    r = grid.values[1:-1]
    diag = 2.0 * kin / h ** 2 + kin * c / r ** 2 \
        + 0.5 * mass * mdl.omega ** 2 * r ** 2
    return TridiagonalMatrix(diagonal=diag,
                             offdiagonal=np.full(len(r) - 1, -kin / h ** 2))


def assert_frobenius_closure(mat, wall, grid, p):
    # every entry but the first is the stencil's; the first adds the ghost
    # node's -(kin/h^2)(r_0/r_1)^p, where -kin/h^2 is the off-diagonal
    r0, r1 = grid.values[:2]
    np.testing.assert_allclose(mat.offdiagonal, wall.offdiagonal, rtol=1e-14)
    np.testing.assert_allclose(mat.diagonal[1:], wall.diagonal[1:],
                               rtol=1e-13)
    ghost = wall.offdiagonal[0] * (r0 / r1) ** p
    assert mat.diagonal[0] - wall.diagonal[0] == pytest.approx(ghost,
                                                               rel=1e-12)


def test_matrix_structure_flat():
    # flat kappa = 0, m = 0: C = -1/4, so p = 1/2
    m = model(sigma=1.0, kappa=0.0)
    grid = RadialGrid(0.5, 2.5, 21)
    h = grid.spacing
    mat = radial_hamiltonian_matrix(m, 0, CurvatureTermMode.JENSEN_KOPPE, grid)
    assert mat.dimension == 19
    r = grid.values[1:-1]
    expect_diag = 1.0 / h ** 2 + 0.5 * (-0.25) / r ** 2 + 0.5 * r ** 2
    wall = hard_wall_matrix(m, 0, CurvatureTermMode.JENSEN_KOPPE, grid)
    assert np.allclose(wall.diagonal, expect_diag, rtol=1e-14)
    assert np.allclose(wall.offdiagonal, -0.5 / h ** 2, rtol=1e-14)
    assert_frobenius_closure(mat, wall, grid, 0.5)


def test_matrix_is_symmetric():
    m = model()
    mat = radial_hamiltonian_matrix(m, 1, CurvatureTermMode.PODOLSKY,
                                    RadialGrid(0.1, 5.0, 30))
    dense = (np.diag(mat.diagonal) + np.diag(mat.offdiagonal, 1)
             + np.diag(mat.offdiagonal, -1))
    assert np.array_equal(dense, dense.T)


def test_mode_difference_is_effective_potential():
    # the stencils of the two modes differ by V_eff on every node; the
    # oracle's do too, but for the first node's closure, whose exponent
    # p = index + 1/2 differs between the modes
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(0.2, 6.0, 40)
    expect = [effective_potential(m.geom, m.consts, r)
              for r in grid.values[1:-1]]
    walls = {}
    for mode, index in ((CurvatureTermMode.JENSEN_KOPPE, m.nu(2)),
                        (CurvatureTermMode.PODOLSKY, podolsky_index(m, 2))):
        walls[mode] = hard_wall_matrix(m, 2, mode, grid)
        assert_frobenius_closure(radial_hamiltonian_matrix(m, 2, mode, grid),
                                 walls[mode], grid, index + 0.5)
    jk = walls[CurvatureTermMode.JENSEN_KOPPE]
    pod = walls[CurvatureTermMode.PODOLSKY]
    assert np.allclose(jk.diagonal - pod.diagonal, expect, rtol=1e-13)
    assert np.array_equal(jk.offdiagonal, pod.offdiagonal)


def test_modes_coincide_at_sigma_one():
    m = model(sigma=1.0, kappa=1.0)
    grid = RadialGrid(1e-2, 8.0, 100)
    jk = radial_hamiltonian_matrix(m, 1, CurvatureTermMode.JENSEN_KOPPE, grid)
    pod = radial_hamiltonian_matrix(m, 1, CurvatureTermMode.PODOLSKY, grid)
    assert np.array_equal(jk.diagonal, pod.diagonal)


# ------------------------------------------------------------ eigen_lowest


def test_eigen_2x2_analytic():
    from coneqm.oracles import TridiagonalMatrix
    mat = TridiagonalMatrix(diagonal=np.array([2.0, 2.0]),
                            offdiagonal=np.array([-1.0]))
    vals = eigen_lowest(mat, 2)
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    assert vals[1] == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        eigen_lowest(mat, 3)


def _tridiagonal(d, e):
    from coneqm.oracles import TridiagonalMatrix
    d = np.asarray(d, dtype=float)
    return TridiagonalMatrix(diagonal=d,
                             offdiagonal=np.asarray(e, dtype=float))


def _parity_cases():
    rng = np.random.default_rng(20261018)
    cases = [
        ("n=1", [-2.5], [], 1),
        ("n=2 k=1", [2.0, -1.0], [0.5], 1),
        ("n=2 k=2", [2.0, -1.0], [0.5], 2),
        ("k=n", rng.normal(size=9), rng.normal(size=8), 9),
    ]
    e = rng.normal(size=39)
    e[[3, 17, 18, 30]] = 0.0                 # splits into four blocks
    cases.append(("split", rng.normal(size=40), e, 12))
    cases.append(("all split, repeated", np.full(25, -3.0), np.zeros(24), 25))
    cases.append(("negative, clustered",
                  -7.0 + 1e-13 * rng.normal(size=60), 1e-14 * rng.normal(size=59),
                  30))
    cases.append(("scaled", 1e8 * rng.normal(size=300),
                  1e8 * rng.normal(size=299), 40))
    for i, n in enumerate((16, 101, 1000)):
        cases.append((f"seeded {i}", rng.normal(size=n), rng.normal(size=n - 1),
                      min(n, 20)))
    m = model(sigma=0.5, kappa=1.0)
    for points in (4000, 7999):
        for mode in CurvatureTermMode:
            mat = radial_hamiltonian_matrix(m, 1, mode,
                                            RadialGrid(1e-3, 12.0, points))
            cases.append((f"oracle {points} {mode.value}", mat.diagonal,
                          mat.offdiagonal, 20))
    return cases


def test_eigen_lowest_is_eigh_tridiagonal_stebz_bit_for_bit():
    from scipy.linalg import eigh_tridiagonal
    for label, d, e, k in _parity_cases():
        ours = eigen_lowest(_tridiagonal(d, e), k)
        ref = eigh_tridiagonal(np.asarray(d, float), np.asarray(e, float),
                               eigvals_only=True, select="i",
                               select_range=(0, k - 1), lapack_driver="stebz")
        assert ours.dtype == np.float64 and ours.shape == (k,), label
        assert ours.tobytes() == ref.tobytes(), label


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["diagonal", "offdiagonal"])
def test_eigen_lowest_refuses_non_finite_entries(bad, where):
    d, e = np.full(6, 2.0), np.full(5, -1.0)
    (d if where == "diagonal" else e)[2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigen_lowest(_tridiagonal(d, e), 2)


@pytest.mark.parametrize("d, e", [
    (np.full(6, 2.0), np.full(6, -1.0)),          # off-diagonal too long
    (np.full(6, 2.0), np.full(4, -1.0)),          # off-diagonal too short
    (np.full((6, 1), 2.0), np.full(5, -1.0)),     # 2-D diagonal
    (np.full(6, 2.0), np.full((5, 1), -1.0)),     # 2-D off-diagonal
])
def test_eigen_lowest_refuses_wrong_shapes(d, e):
    with pytest.raises(ValueError, match="must be 1-D"):
        eigen_lowest(_tridiagonal(d, e), 2)


@pytest.mark.parametrize("k, message", [
    (0, "positive integer"), (-1, "positive integer"),
    (2.0, "positive integer"), (True, "positive integer"),
    ("2", "positive integer"), (7, "requested 7 eigenvalues of a 6-dim"),
])
def test_eigen_lowest_refuses_bad_k(k, message):
    with pytest.raises(ValueError, match=message):
        eigen_lowest(_tridiagonal(np.full(6, 2.0), np.full(5, -1.0)), k)


@pytest.mark.parametrize("info, found", [(1, 2), (3, 1), (0, 1), (-4, 0)])
def test_eigen_lowest_reports_lapack_failure(monkeypatch, info, found):
    import coneqm.oracles as oracles
    from scipy.linalg import LinAlgError

    calls = []

    def fake(range_, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w,
             iblock, isplit, work, iwork, info_out, range_len, order_len):
        # an exception here would be swallowed by ctypes: record, check later
        calls.append((range_, order, n[0], il[0], iu[0], abstol[0],
                      range_len, order_len))
        m[0] = found
        info_out[0] = info

    monkeypatch.setattr(oracles, "_dstebz", oracles._DSTEBZ_PROTOTYPE(fake))
    with pytest.raises(LinAlgError, match=f"found {found} of the 2 lowest.*"
                       rf"info={info}\)"):
        eigen_lowest(_tridiagonal(np.full(6, 2.0), np.full(5, -1.0)), 2)
    # 64-bit integers, then the hidden lengths of RANGE and ORDER
    assert calls == [(b"I", b"E", 6, 1, 2, 0.0, 1, 1)]


def test_dstebz_signature_is_checked_on_load():
    from scipy.linalg import cython_lapack

    import coneqm.oracles as oracles
    wrong = cython_lapack.__pyx_capi__["dsterf"]    # (int *, d *, d *, int *)
    with pytest.raises(ImportError, match=r"exports dstebz as 'void \(int \*"):
        oracles._load_lapack({"dstebz": wrong}, "dstebz",
                             oracles._CAPSULE_PROTOTYPE)
    right = oracles._load_lapack(cython_lapack.__pyx_capi__, "dstebz",
                                 oracles._CAPSULE_PROTOTYPE)
    assert isinstance(right, oracles._CAPSULE_PROTOTYPE)


def test_dlaebz_signature_is_checked_on_load():
    from scipy.linalg import cython_lapack

    import coneqm.oracles as oracles
    # dlaebz's signature, which begins with six int *
    wrong = cython_lapack.__pyx_capi__["dlaebz"]
    with pytest.raises(ImportError, match=r"exports dstebz as 'void \(int \*"):
        oracles._load_lapack({"dstebz": wrong}, "dstebz",
                             oracles._CAPSULE_PROTOTYPE)



def test_capsule_fallback_gives_the_same_bits(monkeypatch, tmp_path):
    # numpy's OpenBLAS exports dstebz here.  A lookup in a directory with no
    # OpenBLAS finds none, which leaves dstebz to scipy.linalg.cython_lapack's
    # capsule (int integers, no hidden lengths): the same reference-LAPACK
    # Fortran, so the same bits, from scratch and in a staged report
    spellings = ("scipy_dstebz_64_", "dstebz_64_")
    assert oracles._NUMPY_DSTEBZ is not None
    assert oracles._exported(oracles._OPENBLAS, oracles._DSTEBZ_PROTOTYPE,
                             ("no_such_routine_",) + spellings) is not None
    mdl = model(sigma=0.7, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 800)
    mode = CurvatureTermMode.JENSEN_KOPPE
    mat = radial_hamiltonian_matrix(mdl, 1, mode, grid)

    def solve():
        reports = spectrum_match_report(mdl, (0, 1, 2), mode, grid, 6)
        return (eigen_lowest(mat, 6).tobytes(),
                [(lv.numeric.hex(), lv.est_error.hex())
                 for report in reports for lv in report.levels])

    primary = solve()
    none = oracles._exported(oracles._numpy_openblas(str(tmp_path)),
                             oracles._DSTEBZ_PROTOTYPE, spellings)
    assert none is None
    monkeypatch.setattr(oracles, "_NUMPY_DSTEBZ", none)
    monkeypatch.setattr(oracles, "_capsule_dstebz", None)
    assert solve() == primary
    assert isinstance(oracles._capsule_dstebz, oracles._CAPSULE_PROTOTYPE)

# A fresh interpreter whose first solve is a report over several orders, so
# that pool threads race to the first dstebz call.  Prints, as JSON, the
# report's levels (hex), whether one-order reports give the same bits, and
# whether a later import of scipy.linalg.cython_lapack and eigh_tridiagonal
# still work.
_FIRST_LOAD = """
import json
from coneqm import oracles
from coneqm.geometry import ConeGeometry, PhysicalConstants
from coneqm.grids import RadialGrid
from coneqm.spectrum import OscillatorModel
model = OscillatorModel(ConeGeometry(0.5), PhysicalConstants(), 1.0, 1.0)
grid = RadialGrid(1e-3, 12.0, 300)
mode = oracles.CurvatureTermMode.JENSEN_KOPPE
reports = oracles.spectrum_match_report(model, range(6), mode, grid, 4)
levels = [[lv.numeric.hex() for lv in r.levels] for r in reports]
alone = [[lv.numeric.hex() for lv in
          oracles.spectrum_match_report(model, m, mode, grid, 4).levels]
         for m in range(6)]
import scipy.linalg.cython_lapack
from scipy.linalg import eigh_tridiagonal
mat = oracles.radial_hamiltonian_matrix(model, 1, mode, grid)
ref = eigh_tridiagonal(mat.diagonal, mat.offdiagonal, eigvals_only=True,
                       select="i", select_range=(0, 3), lapack_driver="stebz")
print(json.dumps({"levels": levels, "alone": alone == levels,
                  "eigh": ref.tobytes() == oracles.eigen_lowest(mat, 4).tobytes(),
                  "capi": "dstebz" in scipy.linalg.cython_lapack.__pyx_capi__}))
"""


def test_threads_racing_to_the_first_solve_load_dstebz():
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracles.__file__)))
    done = subprocess.run([sys.executable, "-c", _FIRST_LOAD],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    assert len(got["levels"]) == 6
    assert got["alone"] and got["eigh"] and got["capi"]


# ------------------------------------------------------- bracketed solve


def _report_matrices(mdl, m, mode, grid):
    # the three matrices of a spectrum_match_report, in its order and units
    hbar_omega = mdl.consts.hbar * mdl.omega
    coarser = RadialGrid(grid.r_min, grid.r_max, (grid.points + 1) // 2)
    out = []
    for g in (grid, grid.refined(), coarser):
        mat = radial_hamiltonian_matrix(mdl, m, mode, g)
        out.append(_tridiagonal(mat.diagonal / hbar_omega,
                                mat.offdiagonal / hbar_omega))
    return out


def _atoli(mat):
    # dstebz's absolute tolerance ulp * max(|GL|, |GU|) from the Gershgorin
    # bounds; the slack covers its widening of them by ~2 n ulp
    d, e = mat.diagonal, np.abs(mat.offdiagonal)
    radius = np.concatenate(([0.0], e)) + np.concatenate((e, [0.0]))
    bound = max(abs(np.min(d - radius)), abs(np.max(d + radius)))
    return np.finfo(float).eps * bound * (1.0 + 1e-9)


def test_bracketed_report_levels_match_eigen_lowest(monkeypatch):
    # the coarse and coarser grids bit for bit, the refined one within
    # dstebz's own tolerance, over a seeded scan of the oracle's matrices;
    # no grid of the scan needs the fallback, though some need a widening
    rng = np.random.default_rng(20261019)
    real = oracles.eigen_lowest
    solved = []

    def spy(matrix, k):
        solved.append(matrix.dimension)
        return real(matrix, k)

    monkeypatch.setattr(oracles, "eigen_lowest", spy)
    calls = _dstebz_calls(monkeypatch)
    checked, brackets = 0, 0
    while checked < 30:
        sigma = float(rng.uniform(0.3, 2.0))
        kappa = (1.0 - sigma ** 2, 1.0, 2.0)[rng.integers(3)]
        m = int(rng.integers(5))
        mode = list(CurvatureTermMode)[rng.integers(2)]
        points, k = int(rng.integers(300, 4001)), int(rng.integers(1, 21))
        try:
            mats = _report_matrices(model(sigma, kappa), m, mode,
                                    RadialGrid(1e-3, 12.0, points))
        except ImaginaryIndexError:
            continue                 # Podolsky m = 0 with kappa < 0
        solved.clear()
        got = oracles._report_levels(mats, k)
        assert sorted(solved) == [(points + 1) // 2 - 2, points - 2]
        label = (sigma, kappa, m, mode, points, k)
        for i, (mat, levels) in enumerate(zip(mats, got)):
            ref = real(mat, k)
            if i in (0, 2):
                assert levels.tobytes() == ref.tobytes(), label
            else:
                assert np.all(np.abs(levels - ref) <= _atoli(mat)), label
        checked += 1
        brackets += k
    ranges = [call[0] for call in calls]
    # one certificate count per refined grid; some brackets were widened
    assert sum(1 for call in calls if _is_count(call)) == checked
    assert ranges.count(b"V") > brackets + checked


def _bracket_case():
    mat = radial_hamiltonian_matrix(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                                    RadialGrid(1e-3, 12.0, 4000))
    levels = eigen_lowest(mat, 6)
    half = 1e-3 * np.diff(levels).min() * np.ones(6)
    return mat, levels, half, eigen_lowest(mat, 7)[6]


def _dstebz_calls(monkeypatch):
    # (RANGE, VL, VU, ABSTOL) of every dstebz call, forwarded to the real
    # routine; calls from pool threads arrive in any order
    real = oracles._dstebz
    calls = []

    def spy(range_, order, n, vl, vu, il, iu, abstol, *rest):
        calls.append((range_, vl._obj.value, vu._obj.value,
                      abstol._obj.value))
        real(range_, order, n, vl, vu, il, iu, abstol, *rest)

    monkeypatch.setattr(oracles, "_dstebz", spy)
    return calls


def _is_count(call):
    # the certificate: every level at or below VU, with an ABSTOL that
    # stops the bisection at once
    range_, vl, vu, abstol = call
    return range_ == b"V" and vl == oracles._BELOW_ALL and abstol >= vu - vl


def test_bracketed_solve_counts_then_bisects(monkeypatch):
    mat, levels, half, _ = _bracket_case()
    d, e = mat.diagonal, mat.offdiagonal
    calls = _dstebz_calls(monkeypatch)
    got, lows, highs = oracles._solve_brackets(d, e, levels + 0.3 * half,
                                               half)
    # one RANGE='V' call per bracket, with dstebz's own tolerance
    assert calls == [(b"V", lo, hi, 0.0) for lo, hi in zip(lows, highs)]
    assert np.all((lows < levels) & (levels < highs))
    assert np.all(np.abs(got - levels) <= _atoli(mat))
    # a part of the brackets gives its own levels
    got, _, _ = oracles._solve_brackets(d, e, levels[2:5], half[2:5])
    assert np.all(np.abs(got - levels[2:5]) <= _atoli(mat))
    # the whole grid: the brackets, then one count up to the last bracket
    calls.clear()
    got = oracles._collect_near(*oracles._submit_near(
        mat, levels + 0.3 * half, half))
    assert np.all(np.abs(got - levels) <= _atoli(mat))
    assert sorted(_is_count(call) for call in calls) == [False] * 6 + [True]
    assert max(call[2] for call in calls) == levels[5] + 1.3 * half[5]


@pytest.mark.parametrize("mutation", ["shifted by a level", "two levels"])
def test_counts_refuse_a_wrong_bracket_and_the_solve_falls_back(
        monkeypatch, mutation):
    mat, levels, half, _ = _bracket_case()
    d, e = mat.diagonal, mat.offdiagonal
    centres = levels.copy()
    calls = _dstebz_calls(monkeypatch)
    if mutation == "shifted by a level":
        # each bracket holds one level, but brackets 2 and 3 the same one
        centres[2] = levels[3]
        got, lows, highs = oracles._solve_brackets(d, e, centres, half)
        assert got[2] == got[3] and highs[2] > lows[3]
        assert len(calls) == 6
    else:
        centres[2] = 0.5 * (levels[2] + levels[3])
        half[2] = levels[3] - levels[2]
        assert oracles._solve_brackets(d, e, centres, half) is None
        # bracket 2 holds two levels, every widening too
        assert len(calls) == 2 + oracles._WIDENINGS + 1
    calls.clear()
    got = oracles._collect_near(*oracles._submit_near(mat, centres, half))
    assert got.tobytes() == levels.tobytes()
    # refused before the certificate's count; then solved from scratch
    assert not any(_is_count(call) for call in calls)
    assert [call[0] for call in calls].count(b"I") == 1


def test_every_bracket_one_level_up_falls_back(monkeypatch):
    # brackets around levels 1..6 each hold one level, sorted and disjoint;
    # only the count (seven levels at or below the top, not six) refuses them
    mat, levels, half, above = _bracket_case()
    centres = np.append(levels[1:], above)
    calls = _dstebz_calls(monkeypatch)
    got = oracles._collect_near(*oracles._submit_near(mat, centres, half))
    assert got.tobytes() == levels.tobytes()
    assert sum(1 for call in calls if _is_count(call)) == 1
    assert [call[0] for call in calls].count(b"I") == 1


def test_widening_finds_a_missed_level_and_budget_zero_falls_back(
        monkeypatch):
    mat, levels, half, _ = _bracket_case()
    d, e = mat.diagonal, mat.offdiagonal
    centres = levels.copy()
    centres[4] += 3.0 * half[4]          # level 4 outside, inside once widened
    calls = _dstebz_calls(monkeypatch)
    got, lows, highs = oracles._solve_brackets(d, e, centres, half)
    assert len(calls) == 7               # bracket 4 twice
    assert highs[4] - lows[4] == pytest.approx(2.0 * oracles._WIDEN * half[4])
    assert np.all(np.abs(got - levels) <= _atoli(mat))
    monkeypatch.setattr(oracles, "_WIDENINGS", 0)
    assert oracles._solve_brackets(d, e, centres, half) is None
    got = oracles._collect_near(*oracles._submit_near(mat, centres, half))
    assert got.tobytes() == levels.tobytes()


def test_bracketed_solve_of_a_matrix_dstebz_splits_falls_back(monkeypatch):
    # dstebz splits the matrix itself: the brackets still give the levels,
    # within its tolerance, and nothing is solved from scratch
    rng = np.random.default_rng(7)
    e = rng.normal(size=39)
    e[17] = 0.0
    mat = _tridiagonal(rng.normal(size=40), e)
    levels = eigen_lowest(mat, 5)
    calls = _dstebz_calls(monkeypatch)
    got = oracles._collect_near(*oracles._submit_near(
        mat, levels, np.full(5, 1e-3)))
    assert np.all(np.abs(got - levels) <= _atoli(mat))
    assert [call[0] for call in calls] == [b"V"] * 6


def _first_brackets(monkeypatch):
    # {rows: (centres, half_widths)} of every refined grid's first brackets,
    # its parts joined in order
    real = oracles._solve_brackets
    parts = {}

    def spy(d, e, centres, half_widths):
        parts.setdefault(len(d), []).append((centres, half_widths))
        return real(d, e, centres, half_widths)

    monkeypatch.setattr(oracles, "_solve_brackets", spy)
    return parts, lambda rows: np.concatenate(
        sorted(parts[rows], key=lambda part: part[0][0]), axis=1)


def _prediction(mats, k):
    # the h^2 prediction of the refined levels, its step and the floor of
    # the first half-widths, from eigen_lowest on the coarse and coarser grid
    coarse, coarser = eigen_lowest(mats[0], k), eigen_lowest(mats[2], k)
    ratio = (mats[0].dimension + 1) / (mats[2].dimension + 1)
    step = (coarser - coarse) / (ratio * ratio - 1.0)
    cap = oracles._FINE_SHARE * oracles._level_gaps(coarse)
    floor = np.maximum(cap / oracles._WIDEN ** oracles._WIDENINGS,
                       1e-12 * np.abs(coarse))
    return coarse - 0.75 * step, step, floor, cap


def test_refined_brackets_start_at_the_h2_prediction(monkeypatch):
    # each first bracket is centred on coarse - 0.75 step and no wider than
    # _STEP_SHARE |step| plus the floor, nor than the cap on the level gap
    rng = np.random.default_rng(20261021)
    parts, joined = _first_brackets(monkeypatch)
    checked = 0
    while checked < 8:
        sigma = float(rng.uniform(0.3, 2.0))
        kappa = (1.0 - sigma ** 2, 1.0, 2.0)[rng.integers(3)]
        mode = list(CurvatureTermMode)[rng.integers(2)]
        points, k = int(rng.integers(300, 2001)), int(rng.integers(1, 13))
        try:
            mats = _report_matrices(model(sigma, kappa), int(rng.integers(4)),
                                    mode, RadialGrid(1e-3, 12.0, points))
        except ImaginaryIndexError:
            continue                 # Podolsky m = 0 with kappa < 0
        parts.clear()
        oracles._report_levels(mats, k)
        centres, half = joined(mats[1].dimension)
        predicted, step, floor, cap = _prediction(mats, k)
        label = (sigma, kappa, mode, points, k)
        assert centres.tobytes() == predicted.tobytes(), label
        assert np.all(half <= oracles._STEP_SHARE * np.abs(step) + floor)
        assert np.all((half <= cap) & (half > 0.0)), label
        checked += 1


def test_oracle_refine_grids_certify_without_a_fallback(monkeypatch):
    # the ten grids of a 4000-point, k = 20 report: coarse and coarser bit
    # for bit, refined within dstebz's tolerance, one count each, and no
    # grid solved from scratch a third time
    grid, k = RadialGrid(1e-3, 12.0, 4000), 20
    calls = _dstebz_calls(monkeypatch)
    for mode in CurvatureTermMode:
        for m in range(5):
            mats = _report_matrices(model(0.5, 1.0), m, mode, grid)
            calls.clear()
            got = oracles._report_levels(mats, k)
            ranges = [call[0] for call in calls]
            assert ranges.count(b"I") == 2, (mode, m)
            assert sum(1 for call in calls if _is_count(call)) == 1
            assert got[0].tobytes() == eigen_lowest(mats[0], k).tobytes()
            assert got[2].tobytes() == eigen_lowest(mats[2], k).tobytes()
            ref = eigen_lowest(mats[1], k)
            assert np.all(np.abs(got[1] - ref) <= _atoli(mats[1])), (mode, m)


def test_a_prediction_one_level_off_is_refused_by_the_certificate(
        monkeypatch):
    # every centre moved up by its distance to the next refined level: each
    # bracket holds one level, the next one, and only the count refuses
    mats = _report_matrices(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                            RadialGrid(1e-3, 12.0, 1200))
    k = 6
    distance = np.diff(eigen_lowest(mats[1], k + 1))
    real = oracles._fine_brackets

    def one_level_up(coarse, coarser, ratio):
        centres, half_widths = real(coarse, coarser, ratio)
        return centres + distance, half_widths

    monkeypatch.setattr(oracles, "_fine_brackets", one_level_up)
    calls = _dstebz_calls(monkeypatch)
    got = oracles._report_levels(mats, k)
    # the brackets passed, the count refused them, the grid was solved again
    assert sum(1 for call in calls if _is_count(call)) == 1
    assert [call[0] for call in calls].count(b"I") == 3
    assert got[1].tobytes() == eigen_lowest(mats[1], k).tobytes()


def test_a_prediction_with_no_step_widens_to_the_cap_and_certifies(
        monkeypatch):
    # coarser levels equal to the coarse ones give step 0: the brackets
    # start at the floor, around the coarse levels, and widen to the cap
    mats = _report_matrices(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                            RadialGrid(1e-3, 12.0, 4000))
    k = 20
    real = oracles.eigen_lowest
    coarse = real(mats[0], k)

    def no_step(matrix, k):
        return real(mats[0] if matrix is mats[2] else matrix, k)

    monkeypatch.setattr(oracles, "eigen_lowest", no_step)
    parts, joined = _first_brackets(monkeypatch)
    calls = _dstebz_calls(monkeypatch)
    got = oracles._report_levels(mats, k)
    centres, half = joined(mats[1].dimension)
    cap = oracles._FINE_SHARE * oracles._level_gaps(coarse)
    assert centres.tobytes() == coarse.tobytes()
    assert np.all(half == cap / oracles._WIDEN ** oracles._WIDENINGS)
    assert np.all(centres - half < centres + half)
    ranges = [call[0] for call in calls]
    assert ranges.count(b"I") == 2        # no fallback
    assert ranges.count(b"V") > k + 1     # some brackets were widened
    assert sum(1 for call in calls if _is_count(call)) == 1
    assert np.all(np.abs(got[1] - real(mats[1], k)) <= _atoli(mats[1]))


def test_eigen_flat_oscillator_m1():
    # flat kappa=0, m=1: u ~ r^{3/2} at the origin, so the r_min=1e-3 wall
    # is harmless and the plain grid already reproduces E = 2, 4, 6
    m = model(sigma=1.0, kappa=0.0)
    mat = radial_hamiltonian_matrix(m, 1, CurvatureTermMode.JENSEN_KOPPE,
                                    RadialGrid(1e-3, 12.0, 4000))
    vals = eigen_lowest(mat, 3)
    assert np.allclose(vals, [2.0, 4.0, 6.0], rtol=1e-4)


def test_eigen_flat_oscillator_m0_marginal_wall_shift():
    # flat kappa=0, m=0 is the marginal -1/(4 r^2) problem: the Dirichlet
    # cutoff converges only logarithmically, E(a) ~ 1 + 1/ln(1/a) -- the
    # lowest level at a=1e-3 sits near 1.15, NOT within 1e-4 of 1.0
    m = model(sigma=1.0, kappa=0.0)
    mat = hard_wall_matrix(m, 0, CurvatureTermMode.JENSEN_KOPPE,
                           RadialGrid(1e-3, 12.0, 4000))
    e0 = eigen_lowest(mat, 1)[0]
    assert e0 == pytest.approx(1.1505, abs=2e-3)
    shift = e0 - 1.0
    # N^2/ln(1/a) prediction with N^2 = 2 for the flat ground state
    assert shift == pytest.approx(1.0 / math.log(1e3), rel=0.25)


def test_eigen_cone_jk_ground_with_wall_shift():
    # sigma=0.5, kappa=1, m=0 has nu = 1/2: the exact E0 = 1.5 plus the
    # analytic Dirichlet-wall shift (hbar^2/2M) u'(0)^2 a with
    # u'(0)^2 = 4/sqrt(pi)
    m = model(sigma=0.5, kappa=1.0)
    a = 1e-3
    mat = hard_wall_matrix(m, 0, CurvatureTermMode.JENSEN_KOPPE,
                           RadialGrid(a, 12.0, 4000))
    e0 = eigen_lowest(mat, 1)[0]
    wall = 0.5 * (4.0 / math.sqrt(math.pi)) * a
    assert e0 == pytest.approx(1.5 + wall, abs=5e-5)


def test_eigen_converges_to_analytic_as_wall_recedes():
    # solver-correctness companion: extrapolating the linear r_min dependence
    # away reproduces the analytic 1.5 to better than 1e-5
    m = model(sigma=0.5, kappa=1.0)

    def level(a):
        coarse = eigen_lowest(hard_wall_matrix(
            m, 0, CurvatureTermMode.JENSEN_KOPPE, RadialGrid(a, 12.0, 3000)),
            1)[0]
        fine = eigen_lowest(hard_wall_matrix(
            m, 0, CurvatureTermMode.JENSEN_KOPPE, RadialGrid(a, 12.0, 5999)),
            1)[0]
        return (4.0 * fine - coarse) / 3.0

    e1 = level(1e-3)
    e2 = level(5e-4)
    extrapolated = 2.0 * e2 - e1     # removes the linear wall term
    assert extrapolated == pytest.approx(1.5, abs=1e-5)
    # and the wall shifts themselves halve with r_min
    assert (e1 - 1.5) / (e2 - 1.5) == pytest.approx(2.0, abs=0.02)


# ------------------------------------------------ Frobenius inner boundary


def test_frobenius_boundary_changes_only_first_diagonal():
    # ghost-node elimination u(r_0) = (r_0/r_1)^p u(r_1): one diagonal
    # correction -(hbar^2/2M h^2)(r_0/r_1)^p, with p = index + 1/2 for the
    # mode's own Bessel index (nu in Jensen-Koppe mode, nu_P in Podolsky)
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(0.2, 6.0, 40)
    for mode, index in ((CurvatureTermMode.JENSEN_KOPPE, m.nu(1)),
                        (CurvatureTermMode.PODOLSKY, podolsky_index(m, 1))):
        assert_frobenius_closure(radial_hamiltonian_matrix(m, 1, mode, grid),
                                 hard_wall_matrix(m, 1, mode, grid), grid,
                                 index + 0.5)


def test_frobenius_removes_wall_shift():
    # the nu = 1/2 ground state, which a hard wall at r_min = 1e-3 lifts by
    # ~1.1e-3, comes out at the analytic 1.5 with spacing extrapolation alone
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 4000)
    coarse = eigen_lowest(radial_hamiltonian_matrix(
        m, 0, CurvatureTermMode.JENSEN_KOPPE, grid), 1)[0]
    fine = eigen_lowest(radial_hamiltonian_matrix(
        m, 0, CurvatureTermMode.JENSEN_KOPPE, grid.refined()), 1)[0]
    assert (4.0 * fine - coarse) / 3.0 == pytest.approx(1.5, abs=1e-6)


def test_frobenius_marginal_double_root():
    # kappa = 1 - sigma^2, m = 0: C = -1/4 and p = 1/2 is a double root.
    # The levels stay finite and no farther from 2n + 1 than under the wall
    # (the stencil still converges only slowly at this index).
    grid = RadialGrid(1e-3, 12.0, 4000)
    exact = np.array([1.0, 3.0])
    for sigma, kappa in ((1.0, 0.0), (0.5, 0.75)):
        m = model(sigma=sigma, kappa=kappa)
        frob = eigen_lowest(radial_hamiltonian_matrix(
            m, 0, CurvatureTermMode.JENSEN_KOPPE, grid), 2)
        wall = eigen_lowest(hard_wall_matrix(
            m, 0, CurvatureTermMode.JENSEN_KOPPE, grid), 2)
        assert np.all(np.isfinite(frob))
        assert np.all(np.abs(frob - exact) < np.abs(wall - exact))


def test_frobenius_imaginary_exponent_raises():
    # sigma = 2, kappa = -3 = 1 - sigma^2: the Jensen-Koppe s-wave is the
    # marginal double root, the Podolsky s-wave has C = -7/16 < -1/4
    m = model(sigma=2.0, kappa=-3.0)
    grid = RadialGrid(1e-3, 6.0, 100)
    radial_hamiltonian_matrix(m, 0, CurvatureTermMode.JENSEN_KOPPE, grid)
    with pytest.raises(ImaginaryIndexError,
                       match=r"m=0, mode=podolsky.*C = -0\.4375"):
        radial_hamiltonian_matrix(m, 0, CurvatureTermMode.PODOLSKY, grid)
    with pytest.raises(ImaginaryIndexError, match="Podolsky index"):
        podolsky_index(m, 0)
    # there is no other closure to fall back on
    with pytest.raises(TypeError):
        radial_hamiltonian_matrix(m, 0, CurvatureTermMode.PODOLSKY, grid,
                                  "dirichlet")


def test_operator_with_underflowing_sigma_squared_raises():
    m = model(sigma=1e-300, kappa=7.75)
    for mode in CurvatureTermMode:
        with pytest.raises(UnderflowError, match=r"sigma = 1e-300"):
            radial_hamiltonian_matrix(m, 0, mode, RadialGrid(1e-3, 6.0, 100))


def test_operator_with_non_finite_quarter_plus_c_raises():
    # sigma^2 = 1e-320 is subnormal, not 0: kappa/(4 sigma^2) overflows to
    # inf, and the Jensen-Koppe term makes 1/4 + C inf - inf
    m = model(sigma=1e-160, kappa=7.75)
    for mode, value in ((CurvatureTermMode.JENSEN_KOPPE, "nan"),
                        (CurvatureTermMode.PODOLSKY, "inf")):
        with pytest.raises(UnderflowError, match=rf"is {value} at sigma = "
                           r"1e-160, kappa = 7\.75, m = 0: sigma\^2 = "
                           r"1e-320 is too small a divisor"):
            radial_hamiltonian_matrix(m, 0, mode, RadialGrid(1e-3, 6.0, 100))


# --------------------------------------------------- spectrum match report


def test_spectrum_match_jk_all_match():
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 2001)
    for mm in (0, 1, 2):
        rep = spectrum_match_report(m, mm, CurvatureTermMode.JENSEN_KOPPE,
                                    grid, k=4)
        assert rep.all_match, [lv.verdict for lv in rep.levels]


def test_jk_deviation_shrinks_second_order_with_grid():
    # away from the wall-limited nu = 1/2 family, the Jensen-Koppe deviation
    # from the analytic ladder is pure h^2 discretization error
    m = model(sigma=0.5, kappa=1.0)
    exact = energy(m, QuantumNumbers(0, 1))

    def dev(points):
        mat = radial_hamiltonian_matrix(m, 1, CurvatureTermMode.JENSEN_KOPPE,
                                        RadialGrid(1e-3, 12.0, points))
        return abs(eigen_lowest(mat, 1)[0] - exact)

    d1 = dev(1000)
    d2 = dev(1999)      # spacing halved
    assert d1 / d2 == pytest.approx(4.0, abs=0.4)


def test_spectrum_match_podolsky_excludes():
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 2001)
    rep = spectrum_match_report(m, 0, CurvatureTermMode.PODOLSKY, grid, k=3)
    assert all(lv.verdict == "excludes" for lv in rep.levels)
    # the Podolsky run converges to its own ladder hbar w (2n + 1 + nu_P)
    nu_p = podolsky_index(m, 0)
    assert nu_p == pytest.approx(1.0, rel=1e-15)
    for lv in rep.levels:
        assert lv.numeric == pytest.approx(2 * lv.n + 1 + nu_p, abs=2e-4)


def test_spectrum_match_sigma_one_modes_identical():
    m = model(sigma=1.0, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 2001)
    for mode in CurvatureTermMode:
        rep = spectrum_match_report(m, 1, mode, grid, k=3)
        assert rep.mode_gap == 0.0
        assert rep.all_match


def test_spectrum_match_report_scales_with_hbar_omega():
    # at omega = 1e-200 the off-diagonal is ~1e-196 and the bisection's
    # squares of it underflow, unless the levels are solved in units of
    # hbar omega; lengths scale by the oscillator length 1e100
    grid = RadialGrid(1e-3, 12.0, 600)
    natural = spectrum_match_report(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                                    grid, 3)
    tiny = spectrum_match_report(
        model(omega=1e-200), 1, CurvatureTermMode.JENSEN_KOPPE,
        RadialGrid(1e97, 1.2e101, 600), 3)
    for a, b in zip(natural.levels, tiny.levels):
        assert b.verdict == a.verdict
        assert b.numeric / 1e-200 == pytest.approx(a.numeric, rel=1e-10)
        assert b.est_error / 1e-200 == pytest.approx(a.est_error, rel=1e-3)


def _own_ladder(mdl, m, mode):
    # the exact levels hbar omega (2n + 1 + idx) of the mode's own operator
    idx = mdl.nu(m) if mode is CurvatureTermMode.JENSEN_KOPPE \
        else podolsky_index(mdl, m)
    return lambda n: mdl.consts.hbar * mdl.omega * (2 * n + 1 + idx)


def test_estimate_covers_the_error_of_the_reported_level():
    # on verify's grid, over a seeded scan, every reported level lies
    # within twice its estimate of its own mode's exact ladder
    rng = np.random.default_rng(20261021)
    grid = RadialGrid(1e-3, 12.0, 2001)
    checked = 0
    while checked < 30:
        sigma = float(rng.uniform(0.3, 3.0))
        mdl = model(sigma, (1.0 - sigma ** 2, 1.0, 2.0)[rng.integers(3)])
        for mode in CurvatureTermMode:
            try:
                reports = spectrum_match_report(mdl, (0, 1, 2), mode, grid, 4)
            except ImaginaryIndexError:
                continue             # Podolsky m = 0 with kappa < 0
            for rep in reports:
                exact = _own_ladder(mdl, rep.m, mode)
                for lv in rep.levels:
                    assert abs(lv.numeric - exact(lv.n)) \
                        <= 2.0 * lv.est_error, (sigma, mdl.kappa, rep.m,
                                                mode, lv.n)
        checked += 1


def test_levels_shifted_by_eleven_estimates_are_excluded(monkeypatch):
    # every grid's levels moved by 11x the level's estimate, away from the
    # analytic one: the estimate, formed from differences, stays as it was,
    # and the reported level is 11 estimates further off, so "excludes"
    grid = RadialGrid(1e-3, 12.0, 2001)
    mode = CurvatureTermMode.JENSEN_KOPPE
    real = oracles._report_levels
    for sigma, kappa in ((0.5, 1.0), (1.5, 2.0)):
        mdl = model(sigma, kappa)
        honest = spectrum_match_report(mdl, (0, 1, 2), mode, grid, 4)
        assert all(rep.all_match for rep in honest)
        shifts = [np.array([math.copysign(11.0 * lv.est_error,
                                          lv.numeric - lv.analytic)
                            for lv in rep.levels]) for rep in honest]

        def shifted(matrices, k):
            levels = real(matrices, k)
            return [lv + shifts[i // 3] for i, lv in enumerate(levels)]

        monkeypatch.setattr(oracles, "_report_levels", shifted)
        moved = spectrum_match_report(mdl, (0, 1, 2), mode, grid, 4)
        monkeypatch.setattr(oracles, "_report_levels", real)
        for before, after in zip(honest, moved):
            for a, b in zip(before.levels, after.levels):
                assert b.est_error == pytest.approx(a.est_error, rel=1e-6)
                assert b.verdict == "excludes", (sigma, kappa, before.m, a.n)


def test_report_refuses_a_grid_too_small_for_its_coarser_grid(monkeypatch):
    # the coarser grid has (points + 1)//2 nodes and (points + 1)//2 - 2
    # rows; a grid or k it cannot take is refused before any matrix is built
    real, built = oracles.radial_hamiltonian_matrix, []

    def spy(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "radial_hamiltonian_matrix", spy)
    mode = CurvatureTermMode.JENSEN_KOPPE
    for points, k, name in ((16, 1, "points"), (30, 1, "points"),
                            (31, 15, "k"), (400, 199, "k"), (400, 0, "k"),
                            (400, 2.0, "k")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            spectrum_match_report(model(), 1, mode,
                                  RadialGrid(1e-3, 12.0, points), k)
    assert built == []
    for points, k in ((31, 14), (32, 14), (400, 198)):
        rep = spectrum_match_report(model(), 1, mode,
                                    RadialGrid(1e-3, 12.0, points), k)
        assert len(rep.levels) == k


def _report_bits(rep):
    return [(lv.n, lv.numeric.hex(), lv.est_error.hex(), lv.verdict)
            for lv in rep.levels]


def test_concurrent_reports_equal_serial_reports():
    # more callers than cores, with a short switch interval, all at once
    import sys
    import threading
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 12.0, 1200)
    jobs = [(mm, mode) for mm in (0, 2) for mode in CurvatureTermMode]
    serial = [_report_bits(spectrum_match_report(m, mm, mode, grid, 6))
              for mm, mode in jobs]
    start = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def work(i):
        start.wait()
        mm, mode = jobs[i]
        got[i] = _report_bits(spectrum_match_report(m, mm, mode, grid, 6))

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def test_report_solves_run_pooled_through_the_module_function(monkeypatch):
    # the coarse and coarser grids through eigen_lowest, the refined one
    # through the bracketed solve in min(k, _WORKERS) parts, all on pool
    # threads
    import threading

    import coneqm.oracles as oracles
    real_eigen, real_brackets = oracles.eigen_lowest, oracles._solve_brackets
    seen, brackets = [], []

    def spy(matrix, k):
        seen.append((matrix.dimension, threading.current_thread().name))
        return real_eigen(matrix, k)

    def bracket_spy(d, *rest):
        brackets.append((len(d), threading.current_thread().name))
        return real_brackets(d, *rest)

    monkeypatch.setattr(oracles, "eigen_lowest", spy)
    monkeypatch.setattr(oracles, "_solve_brackets", bracket_spy)
    spectrum_match_report(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                          RadialGrid(1e-3, 12.0, 300), 3)
    assert sorted(dim for dim, _ in seen) == [148, 298]
    assert sorted(dim for dim, _ in brackets) == [597] * 3
    assert all(name.startswith("coneqm-eigen") for _, name in seen + brackets)


def test_pooled_solve_error_reaches_caller_unchanged(monkeypatch):
    import coneqm.oracles as oracles
    real_eigen, real_brackets = oracles.eigen_lowest, oracles._solve_brackets
    boom = RuntimeError("solve failed")
    args = (model(), 1, CurvatureTermMode.JENSEN_KOPPE,
            RadialGrid(1e-3, 12.0, 300), 3)

    def failing_brackets(d, *rest):
        if len(d) == 597:                   # the refined grids' solves
            raise boom
        return real_brackets(d, *rest)

    monkeypatch.setattr(oracles, "_solve_brackets", failing_brackets)
    with pytest.raises(RuntimeError) as caught:
        spectrum_match_report(*args)
    assert caught.value is boom

    def failing(matrix, k):
        if matrix.dimension == 298:         # the coarse grids' solves
            raise boom
        return real_eigen(matrix, k)

    monkeypatch.setattr(oracles, "_solve_brackets", real_brackets)
    monkeypatch.setattr(oracles, "eigen_lowest", failing)
    with pytest.raises(RuntimeError) as caught:
        spectrum_match_report(*args)
    assert caught.value is boom


def _report_in_child(queue):
    rep = spectrum_match_report(model(), 1, CurvatureTermMode.JENSEN_KOPPE,
                                RadialGrid(1e-3, 12.0, 300), 3)
    queue.put(_report_bits(rep))


def test_reports_work_in_a_forked_child():
    # a forked child inherits the pool object but none of its threads; with
    # all four started in the parent, an inherited pool would take the work
    # and never run it
    import multiprocessing
    import threading

    import coneqm.oracles as oracles
    gate = threading.Barrier(5)
    started = [oracles._SOLVES.submit(gate.wait) for _ in range(4)]
    gate.wait()
    for job in started:
        job.result()
    args = (model(), 1, CurvatureTermMode.JENSEN_KOPPE,
            RadialGrid(1e-3, 12.0, 300), 3)
    parent = _report_bits(spectrum_match_report(*args))
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_report_in_child, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == parent
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


def test_sequence_of_orders_gives_each_report_bit_for_bit():
    # one call with a sequence stages every solve of its orders together;
    # each report equals the one its order gives alone, on seeded sets
    rng = np.random.default_rng(20261020)
    checked = 0
    while checked < 8:
        sigma = float(rng.uniform(0.3, 2.0))
        kappa = (1.0 - sigma ** 2, 1.0, 2.0)[rng.integers(3)]
        mode = list(CurvatureTermMode)[rng.integers(2)]
        grid = RadialGrid(1e-3, 12.0, int(rng.integers(200, 1500)))
        k = int(rng.integers(1, 9))
        orders = [int(o) for o in rng.permutation(5)[:rng.integers(1, 5)]]
        mdl = model(sigma, kappa)
        try:
            alone = [spectrum_match_report(mdl, o, mode, grid, k)
                     for o in orders]
        except ImaginaryIndexError:
            continue                 # Podolsky m = 0 with kappa < 0
        together = spectrum_match_report(mdl, orders, mode, grid, k)
        assert isinstance(together, list)
        assert together == alone, (sigma, kappa, mode, grid.points, k)
        assert [_report_bits(r) for r in together] == \
            [_report_bits(r) for r in alone]
        checked += 1
    # a tuple and a range are sequences too; an empty one gives no report
    mdl, grid = model(), RadialGrid(1e-3, 12.0, 300)
    mode = CurvatureTermMode.JENSEN_KOPPE
    assert spectrum_match_report(mdl, (2, 0), mode, grid, 3) == \
        spectrum_match_report(mdl, [2, 0], mode, grid, 3)
    assert spectrum_match_report(mdl, range(2), mode, grid, 3) == \
        spectrum_match_report(mdl, [0, 1], mode, grid, 3)
    assert spectrum_match_report(mdl, (), mode, grid, 3) == []


def test_error_in_one_report_of_a_sequence_reaches_caller_unchanged(
        monkeypatch):
    mdl, grid = model(), RadialGrid(1e-3, 12.0, 300)
    mode = CurvatureTermMode.JENSEN_KOPPE
    serial = [spectrum_match_report(mdl, o, mode, grid, 3) for o in range(3)]
    real_eigen, real_brackets = oracles.eigen_lowest, oracles._solve_brackets
    boom = RuntimeError("solve failed")
    fine_1 = _report_matrices(mdl, 1, mode, grid)[1].diagonal
    coarse_2 = _report_matrices(mdl, 2, mode, grid)[0].diagonal

    def failing_brackets(d, *rest):
        if np.array_equal(d, fine_1):        # order 1's refined grid
            raise boom
        return real_brackets(d, *rest)

    monkeypatch.setattr(oracles, "_solve_brackets", failing_brackets)
    with pytest.raises(RuntimeError) as caught:
        spectrum_match_report(mdl, (0, 1, 2), mode, grid, 3)
    assert caught.value is boom

    def failing_eigen(matrix, k):
        if np.array_equal(matrix.diagonal, coarse_2):  # order 2's coarse grid
            raise boom
        return real_eigen(matrix, k)

    monkeypatch.setattr(oracles, "_solve_brackets", real_brackets)
    monkeypatch.setattr(oracles, "eigen_lowest", failing_eigen)
    with pytest.raises(RuntimeError) as caught:
        spectrum_match_report(mdl, (0, 1, 2), mode, grid, 3)
    assert caught.value is boom

    # every matrix is built before any solve starts: order 0's Podolsky
    # operator at kappa < 0 is refused with nothing submitted
    solved = []
    monkeypatch.setattr(oracles, "eigen_lowest",
                        lambda matrix, k: solved.append(matrix))
    with pytest.raises(ImaginaryIndexError, match="m=0"):
        spectrum_match_report(model(2.0, -3.0), (1, 0),
                              CurvatureTermMode.PODOLSKY, grid, 3)
    assert solved == []
    # the pool is left working
    monkeypatch.setattr(oracles, "eigen_lowest", real_eigen)
    assert spectrum_match_report(mdl, (0, 1, 2), mode, grid, 3) == serial


def test_callers_mixing_reports_and_transfers_match_serial_results():
    # six callers share the one pool, more than it has threads, with a
    # short switch interval: no job waits on the pool, so all finish
    import sys
    import threading
    mdl = model(sigma=0.5, kappa=1.0)
    spec_grid = RadialGrid(1e-3, 12.0, 800)
    tm_grid = RadialGrid(1e-3, 8.0, 200)
    jobs = [("report", (0, 1, 2), CurvatureTermMode.JENSEN_KOPPE),
            ("transfer", 8, None),
            ("report", 1, CurvatureTermMode.PODOLSKY),
            ("transfer", 5, None),
            ("report", [2, 0], CurvatureTermMode.PODOLSKY),
            ("transfer", 16, None)]

    def run(kind, arg, mode):
        if kind == "report":
            got = spectrum_match_report(mdl, arg, mode, spec_grid, 4)
            return [_report_bits(r) for r in
                    (got if isinstance(got, list) else [got])]
        return transfer_matrix_kernel(mdl, 1, tm_grid, 1.0, arg).values

    serial = [run(*job) for job in jobs]
    start = threading.Barrier(len(jobs))
    got = [None] * len(jobs)

    def work(i):
        start.wait()
        got[i] = run(*jobs[i])

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for (kind, _, _), want, have in zip(jobs, serial, got):
        if kind == "report":
            assert have == want
        else:
            assert np.array_equal(have.view(np.int64), want.view(np.int64))


def test_mode_gap_resolved_across_parameter_grid():
    # the operationalized discrimination claim: for sigma != 1 the
    # Jensen-Koppe run matches the analytic ladder while Podolsky stays a
    # resolvable gap away
    grid = RadialGrid(1e-3, 12.0, 2001)
    for sigma in (0.5, 0.8):
        for kappa in (1.0, 2.0):
            m = model(sigma=sigma, kappa=kappa)
            for mm in (0, 1, 2):
                jk = spectrum_match_report(
                    m, mm, CurvatureTermMode.JENSEN_KOPPE, grid, k=3)
                pod = spectrum_match_report(
                    m, mm, CurvatureTermMode.PODOLSKY, grid, k=3)
                assert jk.all_match
                assert all(lv.verdict == "excludes" for lv in pod.levels)
                # numeric Podolsky levels converge to the V_c = 0 ladder
                # (up to the small r_min wall shift ~ a^{2 nu_P})
                nu_p = podolsky_index(m, mm)
                for lv in pod.levels:
                    assert lv.numeric == pytest.approx(
                        2 * lv.n + 1 + nu_p, abs=2e-3)


def test_jensen_koppe_report_without_a_podolsky_ladder():
    # sigma = 1.2, kappa = -0.39, inside kappa >= 1 - sigma^2: 4 m^2 + kappa
    # < 0 at m = 0, so no Podolsky ladder exists and the Jensen-Koppe
    # verdicts have no gap to resolve; Podolsky mode has no operator there
    mdl = model(sigma=1.2, kappa=-0.39)
    grid = RadialGrid(1e-3, 12.0, 1001)
    s_wave, m1 = spectrum_match_report(
        mdl, (0, 1), CurvatureTermMode.JENSEN_KOPPE, grid, k=3)
    assert s_wave.mode_gap == math.inf and s_wave.all_match
    assert m1.mode_gap == pytest.approx(abs(podolsky_index(mdl, 1)
                                            - mdl.nu(1)))
    with pytest.raises(ImaginaryIndexError, match="m=0"):
        spectrum_match_report(mdl, 0, CurvatureTermMode.PODOLSKY, grid, k=3)


def test_anticone_branch_end_to_end():
    # sigma > 1 (negative deficit): the embedding is gone but the algebraic
    # machinery stays valid -- unit norms, closed = spectral kernel, ladder
    # trace, and the repulsive curvature term still discriminates the modes
    import math
    from scipy.integrate import quad
    from coneqm.propagator import (partial_wave_trace,
                                   partial_wave_trace_exact,
                                   spectral_vs_closed_relative_error)
    from coneqm.spectrum import radial_wavefunction
    m = model(sigma=1.5, kappa=0.5)
    assert m.nu(0) == pytest.approx(math.sqrt(0.5 + 1.25) / 3.0, rel=1e-14)
    val, _ = quad(lambda rr: radial_wavefunction(m, QuantumNumbers(1, 1),
                                                 rr) ** 2 * rr,
                  0.0, 16.0, epsabs=1e-13, epsrel=1e-13, limit=300)
    assert 2.0 * math.pi * val == pytest.approx(1.0, abs=1e-8)
    assert spectral_vs_closed_relative_error(m, 0, 1.0, 1.2, 0.7, 40) < 1e-10
    grid = RadialGrid(1e-4, 12.0, 2000)
    assert abs(partial_wave_trace(m, 1, 1.0, grid)
               - partial_wave_trace_exact(m, 1, 1.0)) < 1e-7
    g = RadialGrid(1e-3, 12.0, 2001)
    jk = spectrum_match_report(m, 1, CurvatureTermMode.JENSEN_KOPPE, g, k=3)
    pod = spectrum_match_report(m, 1, CurvatureTermMode.PODOLSKY, g, k=3)
    assert jk.all_match
    assert all(lv.verdict == "excludes" for lv in pod.levels)


# ---------------------------------------------------------- short-time bfI


def _short_time_factor(res, model, i, j):
    # bfI = sigma e^{(1-sigma^2) w} I_m(sigma^2 w), w = M r_i r_j/(hbar eps),
    # read off the N = 1 matrix
    #   K_1 = (M/hbar eps) exp{-(M/2 hbar eps)(r_i^2+r_j^2)
    #                          - V(r_i) eps/hbar} bfI
    # by dividing out the prefactor, the Gaussian and the potential factor
    from coneqm.spectrum import potential
    M, hbar, eps = model.consts.mass, model.consts.hbar, res.eps
    r = res.grid.values
    gauss = -(M / (2.0 * hbar * eps)) * (r[i] ** 2 + r[j] ** 2) \
        - potential(model, r[i]) * eps / hbar
    return res.values[i, j] / ((M / (hbar * eps)) * math.exp(gauss))


def test_bfI_reduces_to_plain_bessel_at_sigma_one():
    # sigma = 1: the short-time factor of K_1 is the plain I_m(w)
    from scipy.special import iv
    consts = PhysicalConstants(mass=1.5, hbar=0.8)
    flat = model(sigma=1.0, kappa=0.5, consts=consts)
    grid = RadialGrid(0.4, 2.0, 16)
    r = grid.values
    for mm, eps in [(0, 0.1), (2, 0.05)]:
        res = transfer_matrix_kernel(flat, mm, grid, eps, 1)
        for i, j in [(2, 2), (1, 6), (15, 3)]:
            w = consts.mass * r[i] * r[j] / (consts.hbar * eps)
            assert _short_time_factor(res, flat, i, j) == pytest.approx(
                float(iv(mm, w)), rel=1e-12)


def test_bfI_cone_value():
    # sigma=0.5, m=0, r_hat=1, eps=0.1: sigma e^{+(1-sigma^2) w} I_0(sigma^2 w)
    # with w = 10, i.e. 0.5 e^{7.5} I_0(2.5); frozen 30-digit oracle value,
    # read off the N = 1 matrix at r_i = r_j = r_min = 1
    m = model(sigma=0.5, kappa=1.0)
    res = transfer_matrix_kernel(m, 0, RadialGrid(1.0, 2.5, 16), 0.1, 1)
    assert _short_time_factor(res, m, 0, 0) == pytest.approx(
        2974.0843545902264, rel=1e-12)


@pytest.mark.parametrize("sigma", [0.5, 2.0])
def test_bfI_finite_in_short_time_matrix(sigma):
    # at r_hat = 10, eps = 1e-4 (w = 1e6) the factor alone is about e^{1e6},
    # far past a double; the N = 1 matrix folds its growth into the Gaussian
    # and stays finite.  Its diagonal entry's log against
    # the paper's formula in 30-digit arithmetic:
    # ln(M/hbar eps) - V eps/hbar - M r^2/(hbar eps) + ln sigma
    #   + (1 - sigma^2) w + ln I_0(sigma^2 w)
    import mpmath
    m = model(sigma=sigma, kappa=1.0)
    eps = 1e-4
    res = transfer_matrix_kernel(m, 0, RadialGrid(10.0, 10.3, 16), eps, 1)
    assert np.all(np.isfinite(res.values)) and np.all(res.values > 0.0)
    from coneqm.spectrum import potential
    with mpmath.workdps(30):
        r = mpmath.mpf(10)
        e, s = mpmath.mpf(eps), mpmath.mpf(sigma)
        w = r * r / e
        ref = (mpmath.log(1 / e) - mpmath.mpf(potential(m, float(r))) * e
               - w + mpmath.log(s) + (1 - s * s) * w
               + mpmath.log(mpmath.besseli(0, s * s * w)))
        assert math.log(res.values[0, 0]) == pytest.approx(float(ref),
                                                           abs=1e-12)


def test_bfI_domain():
    # recombination_ratio checks the short-time factor's domain (r_hat > 0,
    # eps > 0, both finite) after its m = 0, sigma < 1 guard and before its
    # sigma = 1 early return
    for g in (ConeGeometry(0.5), ConeGeometry(1.0)):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="r_hat must be"):
                recombination_ratio(g, NAT, 1, bad, 0.1)
            with pytest.raises(ValueError, match="eps must be"):
                recombination_ratio(g, NAT, 1, 1.0, bad)
    with pytest.raises(ImaginaryIndexError):
        recombination_ratio(ConeGeometry(0.5), NAT, 0, 0.0, 0.0)


# ----------------------------------------------------------- recombination


def test_recombination_identity_at_sigma_one():
    g = ConeGeometry(1.0)
    for eps in (0.5, 0.1, 0.003):
        assert recombination_ratio(g, NAT, 1, 1.0, eps) == 1.0


def test_recombination_at_sigma_one_makes_no_amos_call(monkeypatch):
    # w = M r_hat^2/(hbar eps) = 1e12 is past AMOS's range, but the flat
    # ratio is 1 without any Bessel value
    g = ConeGeometry(1.0)
    assert recombination_ratio(g, NAT, 1, 1.0, 1e-12) == 1.0

    def refuse(*args, **kwargs):
        raise AssertionError("ive called at sigma = 1")

    monkeypatch.setattr(oracles, "ive", refuse)
    assert recombination_ratio(g, NAT, 1, 1.0, 0.1) == 1.0


def test_recombination_second_order_decay():
    # |rho - 1| = O(eps^2): successive halvings approach factor 4 from above
    g = ConeGeometry(0.5)
    eps = [0.025, 0.0125, 0.00625]
    devs = [abs(recombination_ratio(g, NAT, 1, 1.0, e) - 1.0) for e in eps]
    f1 = devs[0] / devs[1]
    f2 = devs[1] / devs[2]
    assert 3.5 <= f1 <= 4.5
    assert 3.5 <= f2 <= 4.5
    assert f2 < f1


def test_recombination_rhat_scaling():
    # |rho - 1| ~ 1/w^2 with w = M r_hat^2/(hbar eps): doubling r_hat at
    # fixed eps divides the deviation by ~16 (two powers of w); eps small
    # enough that the 1/w^3 correction no longer skews the ratio
    g = ConeGeometry(0.5)
    d1 = abs(recombination_ratio(g, NAT, 1, 1.0, 0.005) - 1.0)
    d2 = abs(recombination_ratio(g, NAT, 1, 2.0, 0.005) - 1.0)
    assert d1 / d2 == pytest.approx(16.0, rel=0.1)


def test_recombination_imaginary_index_guard():
    with pytest.raises(ImaginaryIndexError):
        recombination_ratio(ConeGeometry(0.5), NAT, 0, 1.0, 0.1)
    # m = 0 is fine for sigma >= 1
    assert recombination_ratio(ConeGeometry(1.0), NAT, 0, 1.0, 0.1) == 1.0


def test_recombination_underflowing_factor_raises():
    # e^{-w} I_{m/sigma}(w) at w = 50 and m/sigma = 518 underflows to 0
    geom = ConeGeometry(0.0019300679415509298)
    with pytest.raises(UnderflowError, match=r"sigma = 0\.00193006794155092"
                       r"98, m = 1, eps = 0\.02: .* = 50\.0"):
        recombination_ratio(geom, NAT, 1, 1.0, 0.02)


def test_recombination_overflowing_potential_factor_raises():
    # e^{-V_eff eps/hbar} = e^{(1 - sigma^2) eps/(8 sigma^2 r_hat^2)} is
    # e^1111 at sigma = 0.0015, eps = 0.02
    with pytest.raises(UnderflowError, match=r"sigma = 0\.0015, m = 1, "
                       r"eps = 0\.02: its exponent is 1111\.1"):
        recombination_ratio(ConeGeometry(0.0015), NAT, 1, 1.0, 0.02)
    # sigma^2 = 1e-310 is subnormal: V_eff itself overflows to -inf
    with pytest.raises(UnderflowError, match=r"its exponent is inf"):
        recombination_ratio(ConeGeometry(1e-155), NAT, 1, 1.0, 0.02)


def test_ive_refuses_arguments_past_amos_range():
    from scipy.special import ive as amos
    top = oracles._AMOS_MAX
    past = math.nextafter(top, math.inf)
    # where scipy's ive has no value, at orders 0.5, 1 and 30 alike
    assert math.isfinite(amos(1, top))
    assert all(math.isnan(amos(v, past)) for v in (0.5, 1, 30))
    assert oracles.ive(1, top) == amos(1, top)
    for v, z in ((0.5, past), (1, -past), (30, np.array([1.0, past, 2.0])),
                 (past, 1.0), (1, math.inf)):
        with pytest.raises(oracles.AmosRangeError,
                           match=r"no value at order .* and argument "):
            oracles.ive(v, z)
    out = np.empty(3)
    assert oracles.ive(1, np.array([0.5, 2.0, 40.0]), out=out) is out
    assert out.tobytes() == amos(1, np.array([0.5, 2.0, 40.0])).tobytes()
    assert oracles.ive(1, np.empty((0, 3))).shape == (0, 3)


# --------------------------------------------------------- transfer matrix


def test_transfer_single_slice_is_short_time_kernel():
    # N = 1 returns the short-time kernel itself:
    # (M/hbar eps) exp{-(M/2 hbar eps)(r_i^2+r_j^2) - V(r_i) eps/hbar} bfI
    # with bfI = sigma e^{(1-sigma^2) w} I_m(sigma^2 w),
    # w = M r_i r_j/(hbar eps)
    from scipy.special import iv
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(0.4, 3.0, 24)
    res = transfer_matrix_kernel(m, 1, grid, 0.05, 1)
    r = grid.values
    from coneqm.spectrum import potential
    i, j = 5, 17
    w = r[i] * r[j] / 0.05
    bfI = 0.5 * math.exp(0.75 * w) * float(iv(1, 0.25 * w))
    expect = (1.0 / 0.05) * math.exp(
        -(r[i] ** 2 + r[j] ** 2) / (2 * 0.05) - potential(m, r[i]) * 0.05) \
        * bfI
    assert res.values[i, j] == pytest.approx(expect, rel=1e-12)


def test_transfer_two_slices_equals_manual_composition():
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 6.0, 200)
    beta = 0.5
    two = transfer_matrix_kernel(m, 1, grid, beta, 2)
    one = transfer_matrix_kernel(m, 1, grid, beta / 2, 1)
    w = grid.trapezoid_weights() * grid.values
    manual = one.values @ (w[:, None] * one.values)
    assert np.array_equal(two.values, manual)


def test_transfer_resolution_diagnostic():
    m = model()
    grid = RadialGrid(1e-3, 8.0, 40)       # very coarse: h = 0.2
    fine_eps = transfer_matrix_kernel(m, 1, grid, 0.01, 4)
    assert not fine_eps.resolution_ok      # width 0.05 < 3h
    ok = transfer_matrix_kernel(m, 1, RadialGrid(1e-3, 8.0, 800), 1.0, 8)
    assert ok.resolution_ok


def _peak_dev(m, tm_values, grid, beta, lo=0.7, hi=1.5):
    r = grid.values
    idx = [i for i in range(len(r)) if lo <= r[i] <= hi]
    dev = 0.0
    for i in idx:
        for j in idx:
            closed = radial_kernel_closed(m, 1, r[i], r[j], beta)
            dev = max(dev, abs(tm_values[i, j] - closed) / closed)
    return dev


def test_transfer_flat_convergence():
    # sigma=1 with kappa -> 0 via m=1 (regular index): deviation from the
    # closed form drops with the slice count
    m = model(sigma=1.0, kappa=0.0)
    grid = RadialGrid(1e-3, 8.0, 400)
    devs = []
    for n in (8, 16, 32):
        tm = transfer_matrix_kernel(m, 1, grid, 1.0, n)
        devs.append(_peak_dev(m, tm.values, grid, 1.0))
    assert devs[1] < devs[0] and devs[2] < devs[1]
    assert devs[0] / devs[2] > 3.0
    assert devs[2] < 0.02


def test_transfer_cone_first_order_constant():
    # sigma=0.5, kappa=1, m=1: convergence to the closed cone kernel is
    # cleanly first order -- N * dev stabilizes; this is the measured
    # convergence constant behind the strict acceptance check
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 8.0, 400)
    devs = {}
    for n in (16, 32, 64):
        tm = transfer_matrix_kernel(m, 1, grid, 1.0, n)
        devs[n] = _peak_dev(m, tm.values, grid, 1.0)
    assert devs[32] < devs[16] and devs[64] < devs[32]
    c16 = 16 * devs[16]
    c32 = 32 * devs[32]
    c64 = 64 * devs[64]
    assert c32 == pytest.approx(c64, rel=0.15)
    assert c16 == pytest.approx(c32, rel=0.25)
    # extrapolation of the measured constant: ~2% needs N ~ 300
    assert 4.0 < c64 < 8.0


def test_transfer_doubling_matches_sequential_composition():
    # time doubling associates the same quadratures differently from the
    # slice-by-slice product T (W T)^(N-1); only rounding may separate them
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 6.0, 200)
    beta = 0.8
    w = grid.trapezoid_weights() * grid.values
    for n in (3, 5, 7, 13, 32):
        t = transfer_matrix_kernel(m, 1, grid, beta / n, 1).values
        seq = t
        for _ in range(n - 1):
            seq = seq @ (w[:, None] * t)
        got = transfer_matrix_kernel(m, 1, grid, beta, n).values
        pos = seq > 0.0
        assert np.max(np.abs(got[pos] - seq[pos]) / seq[pos]) <= 1e-13, n
        assert np.array_equal(got[~pos], seq[~pos])
        assert got.min() >= 0.0


def test_transfer_short_time_kernel_symmetry():
    # the single-slice kernel is symmetric once the one-sided potential
    # factor exp(-V(r_i) eps) of its row is divided out
    m = model(sigma=0.5, kappa=1.0)
    # (r_min keeps exp(+V eps) finite next to the inverse-square core)
    grid = RadialGrid(0.3, 4.0, 120)
    eps = 0.5
    k = transfer_matrix_kernel(m, 1, grid, eps, 1).values
    from coneqm.spectrum import potential
    v = np.array([potential(m, ri) for ri in grid.values])
    sym = k * np.exp(v * eps)[:, None]
    assert np.all(sym > 0.0)
    assert np.max(np.abs(sym - sym.T) / sym) <= 1e-14


def test_transfer_cone_first_order_constant_large_n():
    # criterion 4's setup at slice counts that time doubling makes cheap:
    # N * dev settles near 6, so 2% at N = 32 is out of reach of the
    # first-order integer-m construction, not of the slice budget
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 8.0, 450)
    devs = {}
    for n in (128, 256):
        tm = transfer_matrix_kernel(m, 1, grid, 1.0, n)
        devs[n] = _peak_dev(m, tm.values, grid, 1.0)
    assert devs[256] < devs[128]
    for n, dev in devs.items():
        assert 5.7 <= n * dev <= 6.4, (n, dev)


def test_transfer_errors():
    m = model()
    grid = RadialGrid(1e-3, 6.0, 100)
    with pytest.raises(ValueError):
        transfer_matrix_kernel(m, 1, grid, 0.0, 4)
    with pytest.raises(ValueError):
        transfer_matrix_kernel(m, 1, grid, 1.0, 0)


@pytest.mark.parametrize("sigma, kappa, exponent", [
    (1.2, -0.39, "4231.77"), (2.0, -2.0, "7812.49")])
def test_transfer_overflowing_short_time_factor_is_named(sigma, kappa,
                                                         exponent):
    # the attractive kappa < 0 core makes e^(-V eps/hbar) past e^709 at the
    # first node: refused before np.exp, which would warn and give inf
    grid = RadialGrid(1e-3, 8.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnderflowError) as caught:
            transfer_matrix_kernel(model(sigma, kappa), 1, grid, 1.0, 8)
    message = str(caught.value)
    for name in ("grid node 0, r = 0.001", f"exponent is {exponent}",
                 f"sigma = {sigma!r}", f"kappa = {kappa!r}"):
        assert name in message, message


# where the short-time factor stays below e^709 but the doubling products
# overflow
TRANSFER_PRODUCT_OVERFLOWS = [(1.87, -0.064), (1.172, -0.058),
                              (1.736, -0.099), (1.799, -0.142)]


@pytest.mark.parametrize("sigma, kappa", TRANSFER_PRODUCT_OVERFLOWS)
def test_transfer_overflowing_products_are_named(sigma, kappa):
    # the products' inf or NaN is refused by one check on the composed
    # kernel, with no overflow warning from the pool's matmuls
    grid = RadialGrid(1e-3, 8.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnderflowError) as caught:
            transfer_matrix_kernel(model(sigma, kappa), 1, grid, 1.0, 8)
    message = str(caught.value)
    for name in ("transfer matrix of 8 slices overflows",
                 f"sigma = {sigma!r}", f"kappa = {kappa!r}"):
        assert name in message, message


def test_transfer_deterministic():
    m = model()
    grid = RadialGrid(1e-3, 6.0, 150)
    a = transfer_matrix_kernel(m, 1, grid, 0.8, 6).values
    b = transfer_matrix_kernel(m, 1, grid, 0.8, 6).values
    assert np.array_equal(a, b)


def test_transfer_short_time_subnormals_are_flushed_without_moving_bits(
        monkeypatch):
    # oracle-refine's transfer settings: the short-time kernel has 1,341
    # (N = 32) and 2,252 (N = 64) subnormal entries before the flush, and
    # the composed kernels are the same bits with or without them
    m = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 8.0, 450)
    tiny = np.finfo(float).tiny

    def subnormals(values):
        return int(np.count_nonzero((values > 0.0) & (values < tiny)))
    flushed = {n: transfer_matrix_kernel(m, 1, grid, 1.0, n).values
               for n in (1, 32, 64)}
    with monkeypatch.context() as mp:
        mp.setattr(oracles, "_SUBNORMAL_BELOW", 0.0)
        kept = {n: transfer_matrix_kernel(m, 1, grid, 1.0, n).values
                for n in (32, 64)}
        assert [subnormals(oracles._short_time_matrix(
            m, 1, grid.values, 1.0 / n)) for n in (32, 64)] == [1341, 2252]
    assert [subnormals(oracles._short_time_matrix(
        m, 1, grid.values, 1.0 / n)) for n in (32, 64)] == [0, 0]
    assert subnormals(flushed[1]) == 0
    for n in (32, 64):
        assert np.array_equal(flushed[n].view(np.int64),
                              kept[n].view(np.int64)), n


def _row_by_row_short_time_matrix(mdl, m, r, eps):
    # the short-time kernel with its Bessel table filled one row at a time
    # in the calling thread
    from scipy.special import ive

    from coneqm.spectrum import potential
    M, hbar, s = mdl.consts.mass, mdl.consts.hbar, mdl.geom.sigma
    v = np.array([potential(mdl, ri) for ri in r])
    c = M * s * s / (hbar * eps)
    bessel = np.empty((len(r), len(r)))
    for i in range(len(r)):
        bessel[i, i:] = ive(abs(m), c * (r[i] * r[i:]))
        bessel[i:, i] = bessel[i, i:]
    kern = -(M / (2.0 * hbar * eps)) * (r[:, None] - r[None, :]) ** 2
    kern -= v[:, None] * eps / hbar
    np.exp(kern, out=kern)
    kern *= (M / (hbar * eps)) * s
    kern *= bessel
    kern[kern < np.finfo(float).tiny] = 0.0
    return kern


@pytest.mark.parametrize("points, m, eps", [
    (450, 1, 1.0 / 32), (400, 1, 1.0 / 16), (200, 0, 0.5), (16, 3, 0.05)])
def test_banded_bessel_table_equals_the_row_by_row_table(points, m, eps):
    mdl = model(sigma=0.5, kappa=1.0)
    r = RadialGrid(1e-3, 8.0, points).values
    want = _row_by_row_short_time_matrix(mdl, m, r, eps)
    got = oracles._short_time_matrix(mdl, m, r, eps)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # fewer rows than bands leaves some bands empty
    for n in (1, 2, 3):
        got = oracles._short_time_matrix(mdl, m, r[:n], eps)
        want = _row_by_row_short_time_matrix(mdl, m, r[:n], eps)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_any_split_into_bands_fills_the_same_table():
    from scipy.special import ive
    r = RadialGrid(1e-3, 8.0, 120).values
    c = 3.7
    want = np.empty((120, 120))
    for i in range(120):
        want[i, i:] = ive(1, c * (r[i] * r[i:]))
        want[i:, i] = want[i, i:]
    for edges in ([0, 120], [0, 1, 119, 120], [0, 7, 7, 64, 120]):
        table = np.full((120, 120), np.nan)
        for lo, hi in zip(edges, edges[1:]):
            oracles._bessel_band(table, 1, c, r, lo, hi)
        assert np.array_equal(table.view(np.int64), want.view(np.int64))


def test_transfer_leaves_no_blas_thread_spinning():
    # a multi-threaded OpenBLAS product leaves its idle worker spinning on a
    # core for the library's thread timeout; with every product on one BLAS
    # thread of a pool worker, a sleep right after the call burns no CPU
    import time
    mdl = model(sigma=0.5, kappa=1.0)
    grid = RadialGrid(1e-3, 8.0, 400)
    time.sleep(0.3)                     # earlier spinners time out
    transfer_matrix_kernel(mdl, 1, grid, 1.0, 16)
    start = time.process_time()
    time.sleep(0.1)
    assert time.process_time() - start < 0.02
    # numpy's OpenBLAS exports the setter in this environment
    assert oracles._SET_BLAS_THREADS is not None


# --------------------------------------------- eigenfunction residual check


@pytest.mark.parametrize("n,mm", [(0, 0), (1, 0), (0, 2), (2, 1)])
def test_discretized_hamiltonian_annihilates_exact_states(n, mm):
    # applying the Jensen-Koppe tridiagonal operator to the sampled exact
    # eigenfunction u = sqrt(r) psi_nm reproduces E_nm u with a residual
    # falling off second order in the grid spacing.  The residual is
    # measured on a fixed interior window: the first matrix row carries the
    # inner-boundary closure, whose ghost node u(r_min) = (r_min/r_1)^p u(r_1)
    # keeps only the leading term of the regular series, so its residual is
    # set by r_min rather than by the spacing and is not a discretization
    # error of the operator stencil.
    from coneqm.spectrum import radial_wavefunction
    m = model(sigma=0.5, kappa=1.0)
    qn = QuantumNumbers(n, mm)
    e_exact = energy(m, qn)

    def residual(points):
        grid = RadialGrid(1e-3, 14.0, points)
        mat = radial_hamiltonian_matrix(m, mm, CurvatureTermMode.JENSEN_KOPPE,
                                        grid)
        r = grid.values[1:-1]
        u = np.array([math.sqrt(rr) * radial_wavefunction(m, qn, rr)
                      for rr in r])
        hu = mat.diagonal * u
        hu[:-1] += mat.offdiagonal * u[1:]
        hu[1:] += mat.offdiagonal * u[:-1]
        window = (r >= 0.3) & (r <= 10.0)
        return (np.linalg.norm((hu - e_exact * u)[window])
                / np.linalg.norm(u[window]))

    r1 = residual(1000)
    r2 = residual(1999)     # spacing halved
    assert r2 < r1
    assert r1 / r2 == pytest.approx(4.0, abs=0.7)
    assert r2 < 2e-4 * e_exact
