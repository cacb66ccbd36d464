"""Independent numerical verifiers for the cone quantum mechanics.

Three oracles, all deliberately independent of the closed-form kernel code:

* a finite-difference radial eigensolver with a selectable curvature term
  (Jensen-Koppe form -(hbar^2/2M) H^2, or the Podolsky convention of no
  curvature term), used to test which Schroedinger equation matches the
  path-integral spectrum; its one inner closure imposes the regular
  (Frobenius) behaviour u ~ r^p of the mode's own operator, so the levels
  are those of the problem on [0, inf), not of a walled-off [r_min, inf);
* a time-sliced transfer-matrix path integral built from the short-time
  radial kernel with the *integer* angular order m -- the effective order
  nu(m, sigma) has to emerge from the composition, it is never inserted;
* a direct check of the asymptotic recombination that turns the short-time
  kernel into the effective-potential form.

Bessel evaluations here go through scipy (AMOS) rather than the package's own
special-function layer, keeping the two routes of every comparison
independent.  No scipy module loads with this one: ive looks up
scipy.special.ive on its first call, so importing coneqm and running its
closed-form code load no scipy, and verify loads scipy.special alone.  ive
refuses, by AmosRangeError, an order or argument past the range AMOS
computes, where scipy's ive returns NaN.

All of the oracles' parallel work runs on one pool of _WORKERS threads,
which overlap in native code that releases the GIL.  Each worker runs
numpy's OpenBLAS on one thread (openblas_set_num_threads_local, where
numpy's OpenBLAS exports it; numpy's pthreads build applies it to the whole
process), so no BLAS worker is left spinning after a product, and the
transfer matrix's bits do not depend on OPENBLAS_NUM_THREADS.

Eigenvalues come from LAPACK's tridiagonal bisection on Sturm sequences,
dstebz, called by ctypes, which releases the GIL for the call.  The routine
is taken by its symbol from the OpenBLAS that numpy bundles and has already
loaded (scipy_dstebz_64_ in numpy 2.x, dstebz_64_ in numpy 1.2x; 64-bit
integers).  It is the reference-LAPACK Fortran that scipy's own OpenBLAS
compiles too, so its levels are bit-identical to scipy's.  Only where numpy
bundles no OpenBLAS that exports it (numpy linked to Accelerate or to a
system BLAS) does the first call import scipy.linalg.cython_lapack, take
dstebz from it and check its C signature (ImportError if it differs).  Of
a spectrum_match_report's three grids per order (coarse, refined, and a
coarser one of half the nodes), the coarse and the coarser are solved from
scratch by dstebz, and their eigenvalues are bit-identical to
scipy.linalg.eigh_tridiagonal with index selection and
lapack_driver="stebz", which makes the same LAPACK call.  The refined grid
is bisected by dstebz one value range at a time, in brackets around the h^2
prediction of its levels from the two others.  One Sturm count certifies
that bracket j holds level j; a grid it refuses is solved from scratch.  A
report for several orders stages the solves of all of them in one pass on
the pool.  The transfer matrix's Bessel table is filled in bands of rows,
and each of its products in blocks of rows, on the same pool.
"""

import ctypes
import glob
import math
import os
import sys
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import LinAlgError     # the class scipy.linalg raises too

from .geometry import (ConeGeometry, ImaginaryIndexError, PhysicalConstants,
                       UnderflowError, _bessel_order, effective_potential)
from .grids import RadialGrid
from .spectrum import OscillatorModel, QuantumNumbers, energy, potential

__all__ = [
    "RadialGrid", "AmosRangeError", "CurvatureTermMode", "TridiagonalMatrix",
    "LevelComparison", "SpectrumMatchReport", "TransferMatrixResult",
    "radial_hamiltonian_matrix", "eigen_lowest", "podolsky_index",
    "spectrum_match_report", "recombination_ratio", "transfer_matrix_kernel",
]


class AmosRangeError(ValueError):
    """A Bessel order or argument past the range AMOS computes."""


# AMOS's zbesi refuses |z| or an order above I1MACH(9)/2 = 2^30 - 1/2, and
# scipy's ive returns NaN there
_AMOS_MAX = 0.5 * (2 ** 31 - 1)
_amos_ive = None


def ive(v, z, out=None):
    """scipy.special.ive(v, z, out=out): AMOS's e^{-|Re z|} I_v(z) for one
    real order v, scipy.special looked up on the first call.  Raises
    AmosRangeError, before any AMOS call, when |v| or the largest |z| is
    past AMOS's range."""
    global _amos_ive
    largest = np.abs(z).max(initial=0.0)
    if abs(v) > _AMOS_MAX or largest > _AMOS_MAX:
        raise AmosRangeError(
            f"scipy's ive (AMOS) has no value at order {v!r} and argument "
            f"{float(largest)!r}: AMOS computes I_v(x) only for |v| and |x| "
            f"up to {_AMOS_MAX!r}")
    if _amos_ive is None:      # threads racing here all import one module
        import scipy.special
        _amos_ive = scipy.special.ive
    return _amos_ive(v, z, out=out)


class CurvatureTermMode(Enum):
    """Curvature term V_c in the radial Schroedinger operator."""

    JENSEN_KOPPE = "jensen-koppe"   # V_c = -(hbar^2/2M) H^2 (apex delta dropped)
    PODOLSKY = "podolsky"           # V_c = 0


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Real symmetric tridiagonal matrix on the interior grid nodes."""

    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.diagonal)


def _quarter_plus_c(model: OscillatorModel, m: int,
                    mode: CurvatureTermMode) -> float:
    # 1/4 + C, where C/r^2 (in units of hbar^2/2M) is the whole
    # inverse-square part of the mode's operator:
    #   centrifugal m^2/sigma^2 - 1/4, core kappa/(4 sigma^2), and in
    #   Jensen-Koppe mode the curvature term -(1 - sigma^2)/(4 sigma^2).
    # Built from the operator's coefficients only, never from nu(m, sigma).
    # The -1/4 of the centrifugal term cancels the indicial 1/4 exactly, so
    # 1/4 + C is summed without it: on the kappa = 1 - sigma^2 boundary the
    # Jensen-Koppe s-wave then gives exactly 0 (the p = 1/2 double root).
    # sigma ** 2 is finite: the model refuses a sigma whose sigma * sigma
    # overflows, and the two overflow from the same ulp
    s2 = model.geom.sigma ** 2
    if s2 == 0.0:
        raise UnderflowError(
            f"sigma^2 underflows to 0 at sigma = {model.geom.sigma!r}, so "
            "the radial operator's m^2/sigma^2 cannot be formed")
    disc = m * m / s2 + model.kappa / (4.0 * s2)
    if mode is CurvatureTermMode.JENSEN_KOPPE:
        disc -= (1.0 - s2) / (4.0 * s2)
    if not math.isfinite(disc):
        raise UnderflowError(
            f"1/4 + C, the radial operator's inverse-square coefficient, "
            f"is {disc!r} at sigma = {model.geom.sigma!r}, kappa = "
            f"{model.kappa!r}, m = {m}: sigma^2 = {s2!r} is too small a "
            "divisor")
    return disc


def _regular_exponent(disc: float, m: int, mode: CurvatureTermMode) -> float:
    # Regular root p = 1/2 + sqrt(1/4 + C) of the indicial equation
    # p (p - 1) = C, given disc = 1/4 + C.
    if disc < 0.0:
        raise ImaginaryIndexError(
            f"m={m}, mode={mode.value}: inverse-square coefficient "
            f"C = {disc - 0.25:.6g} < -1/4, so sqrt(1/4 + C) in the "
            "regular exponent p = 1/2 + sqrt(1/4 + C) at the apex is "
            "imaginary (the operator falls to the centre)"
        )
    return 0.5 + math.sqrt(disc)


def radial_hamiltonian_matrix(model: OscillatorModel, m: int,
                              mode: CurvatureTermMode,
                              grid: RadialGrid) -> TridiagonalMatrix:
    """Central-difference discretization of the radial operator.

    After the substitution u(r) = sqrt(r) psi(r), the m-channel operator is

        -(hbar^2/2M) [d^2/dr^2 - (m^2/sigma^2 - 1/4)/r^2] + V_c(r) + V(r)

    on the points - 2 interior nodes, with a Dirichlet condition at r_max.
    Its whole inverse-square part is (hbar^2/2M) C / r^2 with

        C = m^2/sigma^2 - 1/4 + kappa/(4 sigma^2)
            [ - (1 - sigma^2)/(4 sigma^2) in Jensen-Koppe mode ],

    so the solution regular at the apex behaves as u ~ r^p with
    p = 1/2 + sqrt(1/4 + C).

    The inner boundary at r_min imposes that regular (Frobenius) behaviour
    on the ghost node, u(r_0) = (r_0/r_1)^p u(r_1), which only changes the
    first diagonal entry by -(hbar^2/2M h^2)(r_0/r_1)^p; the matrix stays
    symmetric tridiagonal.  This models the problem on [0, inf) rather than
    on [r_min, inf), so no wall shift ~ r_min^{2p-1} enters the levels.  In
    Jensen-Koppe mode p = nu(m, sigma) + 1/2 by algebra, but p is computed
    from the operator's own coefficients, never from the closed form,
    keeping the oracle independent of it.  At the marginal double root
    (C = -1/4, p = 1/2) the regular solution is r^{1/2}, without the
    logarithmic partner.  ImaginaryIndexError is raised when 1/4 + C < 0.
    """
    if not isinstance(mode, CurvatureTermMode):
        raise ValueError(f"mode must be a CurvatureTermMode, got {mode!r}")
    h = grid.spacing
    r = grid.values[1:-1]
    M = model.consts.mass
    try:
        kin = model.consts.hbar ** 2 / (2.0 * M)
    except OverflowError:
        raise UnderflowError(
            f"hbar^2 overflows at hbar = {model.consts.hbar!r}, so the "
            "radial operator's kinetic factor hbar^2/2M cannot be "
            "formed") from None
    disc = _quarter_plus_c(model, m, mode)
    wr = model.omega * r
    diag = (2.0 * kin / (h * h)
            + kin * (disc - 0.25) / (r * r)
            + 0.5 * M * wr * wr)
    p = _regular_exponent(disc, m, mode)
    diag[0] -= (kin / (h * h)) * (grid.r_min / r[0]) ** p
    off = np.full(len(r) - 1, -kin / (h * h))
    return TridiagonalMatrix(diagonal=diag, offdiagonal=off)


_INT_P = ctypes.POINTER(ctypes.c_int)
_INT64_P = ctypes.POINTER(ctypes.c_int64)
_DOUBLE_P = ctypes.POINTER(ctypes.c_double)


def _dstebz_prototype(int_p, *lengths):
    # dstebz(range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w,
    # iblock, isplit, work, iwork, info), every argument by reference, with
    # integers through int_p; a ctypes call runs with the GIL released
    return ctypes.CFUNCTYPE(
        None, ctypes.c_char_p, ctypes.c_char_p, int_p, _DOUBLE_P, _DOUBLE_P,
        int_p, int_p, _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, int_p, int_p,
        _DOUBLE_P, int_p, int_p, _DOUBLE_P, int_p, int_p, *lengths)


# the Fortran dstebz of numpy's OpenBLAS, built with 64-bit integers: after
# the arguments come the hidden lengths of RANGE and ORDER
_DSTEBZ_PROTOTYPE = _dstebz_prototype(_INT64_P, ctypes.c_size_t,
                                      ctypes.c_size_t)
# the C wrapper that scipy.linalg.cython_lapack exports: int integers
_CAPSULE_PROTOTYPE = _dstebz_prototype(_INT_P)
# how the capsule's signature spells each argument type (d is
# cython_lapack's typedef of double)
_C_SPELLING = {ctypes.c_char_p: "char *", _INT_P: "int *",
               _DOUBLE_P: "__pyx_t_5scipy_6linalg_13cython_lapack_d *"}


def _load_lapack(capsules, name, prototype):
    """LAPACK routine ``name`` from a Cython ``__pyx_capi__`` table, called
    through prototype; ImportError if the capsule's C signature differs."""
    capsule = capsules[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule)
    expected = ("void (" + ", ".join(_C_SPELLING[t]
                                     for t in prototype._argtypes_) + ")")
    if signature.decode() != expected:
        raise ImportError(
            f"scipy.linalg.cython_lapack exports {name} as "
            f"{signature.decode()!r}, not as the {expected!r} that "
            "coneqm.oracles calls it with")
    return prototype(get_pointer(capsule, signature))


def _numpy_openblas(libs: str) -> list:
    """ctypes handles of the OpenBLAS libraries that numpy bundles in the
    directory libs: none for a numpy linked to another BLAS."""
    return [ctypes.CDLL(path)
            for path in glob.glob(os.path.join(libs, "*openblas*"))]


def _exported(handles: list, prototype, names: tuple):
    """The first of names that one of handles exports, called through
    prototype; None where none of them does."""
    for lib in handles:
        for name in names:
            if hasattr(lib, name):
                return prototype((name, lib))
    return None


_OPENBLAS = _numpy_openblas(
    os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs"))
# dstebz as numpy 2.x and numpy 1.2x spell it in their OpenBLAS; None where
# numpy bundles no OpenBLAS that exports it, and only there does the first
# _dstebz call load scipy.linalg.cython_lapack's
_NUMPY_DSTEBZ = _exported(_OPENBLAS, _DSTEBZ_PROTOTYPE,
                          ("scipy_dstebz_64_", "dstebz_64_"))
_capsule_dstebz = None


def _dstebz(*args):
    """LAPACK dstebz, called with the arguments of _DSTEBZ_PROTOTYPE.

    The routine is _NUMPY_DSTEBZ, from the OpenBLAS numpy has already
    loaded: reference-LAPACK Fortran, as in scipy's OpenBLAS, so the bits
    are scipy's.  Where numpy bundles no OpenBLAS that exports it, and only
    there, the first call loads the capsule of scipy.linalg.cython_lapack,
    checking its signature; _stebz then passes int integers, and the
    capsule's C wrapper takes no hidden lengths."""
    global _capsule_dstebz
    if _NUMPY_DSTEBZ is not None:
        _NUMPY_DSTEBZ(*args)
        return
    if _capsule_dstebz is None:      # racing threads bind the one module
        from scipy.linalg import cython_lapack
        _capsule_dstebz = _load_lapack(cython_lapack.__pyx_capi__, "dstebz",
                                       _CAPSULE_PROTOTYPE)
    _capsule_dstebz(*args[:-2])


def _stebz(d: np.ndarray, e: np.ndarray, range_: bytes, abstol: float):
    """A function (vl, vu, iu) -> (w, info) that calls LAPACK dstebz on the
    tridiagonal matrix (d, e), which must be contiguous float64: w holds,
    ascending, the eigenvalues in (vl, vu] for range_ b"V" or the iu
    smallest for b"I".  The work arrays and fixed arguments are built here,
    once; each call overwrites the w of the last, so one thread calls it."""
    if _NUMPY_DSTEBZ is not None:
        integer, integers, int_p = ctypes.c_int64, np.int64, _INT64_P
    else:
        integer, integers, int_p = ctypes.c_int, np.intc, _INT_P
    n = len(d)
    w = np.empty(n)
    iblock = np.empty(n, dtype=integers)
    isplit = np.empty(n, dtype=integers)
    work = np.empty(4 * n)
    iwork = np.empty(3 * n, dtype=integers)
    vl, vu, iu = ctypes.c_double(), ctypes.c_double(), integer()
    found, nsplit, info = integer(), integer(), integer()
    # byref and data_as keep their objects and arrays alive with args
    args = (range_, b"E", ctypes.byref(integer(n)), ctypes.byref(vl),
            ctypes.byref(vu), ctypes.byref(integer(1)), ctypes.byref(iu),
            ctypes.byref(ctypes.c_double(abstol)),
            d.ctypes.data_as(_DOUBLE_P), e.ctypes.data_as(_DOUBLE_P),
            ctypes.byref(found), ctypes.byref(nsplit),
            w.ctypes.data_as(_DOUBLE_P), iblock.ctypes.data_as(int_p),
            isplit.ctypes.data_as(int_p), work.ctypes.data_as(_DOUBLE_P),
            iwork.ctypes.data_as(int_p), ctypes.byref(info),
            1, 1)                   # the lengths of range_ and b"E"
    def solve(low: float, high: float, top: int):
        vl.value, vu.value, iu.value = low, high, top
        _dstebz(*args)
        return w[:found.value], info.value
    return solve


def _real_vector(values, length: int, name: str) -> np.ndarray:
    # the input checks of eigh_tridiagonal: finite, real, one-dimensional
    a = np.asarray_chkfinite(values)
    if a.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be real, got dtype {a.dtype}")
    if a.ndim != 1 or a.size != length:
        raise ValueError(
            f"{name} must be 1-D of length {length}, got shape {a.shape}")
    return np.ascontiguousarray(a, dtype=np.float64)


def eigen_lowest(matrix: TridiagonalMatrix, k: int) -> np.ndarray:
    """k smallest eigenvalues, ascending.

    Computed by LAPACK bisection on the Sturm sequence: dstebz for the
    indices 1..k in ascending order with abstol 0, so each eigenvalue is
    located to an interval of width ~eps * ||T||, far inside the
    1e-10 * scale contract.  The call releases the GIL, so solves in other
    threads run alongside it.  dstebz is numpy's OpenBLAS routine (the
    capsule of scipy.linalg.cython_lapack only where numpy bundles none),
    the same reference-LAPACK Fortran as scipy's, so the values are
    bit-identical to scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="i", select_range=(0, k - 1), lapack_driver="stebz"), which
    makes the same call, and the same inputs are refused: ValueError for a
    NaN or inf entry or for arrays that are not 1-D of lengths n and n - 1,
    LinAlgError when LAPACK reports a failure or finds fewer than k.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    n = matrix.dimension
    if k > n:
        raise ValueError(
            f"requested {k} eigenvalues of a {n}-dimensional matrix"
        )
    d = _real_vector(matrix.diagonal, n, "diagonal")
    e = _real_vector(matrix.offdiagonal, n - 1, "offdiagonal")
    levels, info = _stebz(d, e, b"I", 0.0)(0.0, 0.0, k)
    if info != 0 or len(levels) != k:
        raise LinAlgError(
            f"dstebz found {len(levels)} of the {k} lowest eigenvalues of a "
            f"{n}-dimensional matrix (LAPACK info={info})")
    return levels


# threads of the solver pool, the one pool of every oracle: the reports'
# coarse solves run side by side, and each refined grid's brackets, each
# transfer-matrix product and each Bessel table are split into this many
# parts
_WORKERS = 4


# openblas_set_num_threads_local of numpy's OpenBLAS, or None where numpy
# bundles none that exports it
_SET_BLAS_THREADS = _exported(
    _OPENBLAS, ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int),
    ("openblas_set_num_threads_local",
     "scipy_openblas_set_num_threads_local64_"))


def _one_blas_thread():
    # The pool's initializer.  An OpenBLAS call on two threads leaves the
    # idle one spinning on a core for the library's thread timeout, a core
    # the pool's next solves need; a worker's products on one BLAS thread
    # leave none.  OpenBLAS's pthreads builds, numpy's among them, keep this
    # count for the whole process.
    if _SET_BLAS_THREADS is not None:
        _SET_BLAS_THREADS(1)


def _start_solver_pool():
    # rebuilt in a forked child, which inherits the pool but none of its
    # threads
    global _SOLVES
    _SOLVES = ThreadPoolExecutor(max_workers=_WORKERS,
                                 thread_name_prefix="coneqm-eigen",
                                 initializer=_one_blas_thread)


_start_solver_pool()
if hasattr(os, "register_at_fork"):      # absent where there is no fork
    os.register_at_fork(after_in_child=_start_solver_pool)


# A bracket that holds other than one level is widened _WIDEN-fold, at most
# _WIDENINGS times; then its grid is solved by eigen_lowest.  Three
# widenings take a refined bracket from 2^-11 to twice the level distance.
_WIDEN = 16.0
_WIDENINGS = 3
# lower end of the certificate's count: below every level of the oracle's
# matrices, which are in units of hbar omega
_BELOW_ALL = -1.0e300


def _solve_brackets(d: np.ndarray, e: np.ndarray, centres: np.ndarray,
                    half_widths: np.ndarray):
    """Rows (levels, lows, highs): the level that dstebz finds in each
    bracket (low, high] = centres[j] -+ half_widths[j], one RANGE='V' call
    per bracket, which is widened _WIDEN-fold while it holds other than one
    level or dstebz reports a failure; None after _WIDENINGS widenings."""
    solve = _stebz(d, e, b"V", 0.0)
    solved = []
    for centre, half in zip(centres.tolist(), half_widths.tolist()):
        for _ in range(_WIDENINGS + 1):
            low, high = centre - half, centre + half
            if not low < high:
                return None
            found, info = solve(low, high, 0)
            if len(found) == 1 and info == 0:
                break
            half *= _WIDEN
        else:
            return None
        solved.append((found[0], low, high))
    return np.array(solved).T


def _submit_near(matrix: TridiagonalMatrix, centres: np.ndarray,
                 half_widths: np.ndarray):
    """Start bisecting the len(centres) smallest eigenvalues of matrix, each
    inside its bracket centres[i] +- half_widths[i], by _solve_brackets in
    _WORKERS parts on the solver pool; _collect_near takes what this
    returns."""
    k = len(centres)
    d = _real_vector(matrix.diagonal, matrix.dimension, "diagonal")
    e = _real_vector(matrix.offdiagonal, matrix.dimension - 1, "offdiagonal")
    jobs = [_SOLVES.submit(_solve_brackets, d, e, centres[part],
                           half_widths[part])
            for part in np.array_split(np.arange(k), min(k, _WORKERS))]
    return matrix, k, d, e, jobs


def _collect_near(matrix: TridiagonalMatrix, k: int, d: np.ndarray,
                  e: np.ndarray, jobs) -> np.ndarray:
    """The levels a _submit_near started, ascending, once one count
    certifies them: with the final brackets sorted and disjoint, each
    holding one level, and exactly k levels at or below the top of the last,
    bracket j holds level j.  A grid with a refused bracket or certificate
    is solved by eigen_lowest instead, bit for bit."""
    parts = [job.result() for job in jobs]
    if all(part is not None for part in parts):
        levels, lows, highs = np.concatenate(parts, axis=1)
        if np.all(highs[:-1] <= lows[1:]):
            # ABSTOL no less than the interval's width: a count, no bisection
            top = float(highs[-1])
            below, info = _stebz(d, e, b"V", top - _BELOW_ALL)(_BELOW_ALL,
                                                              top, 0)
            if info == 0 and len(below) == k:
                return levels
    return _SOLVES.submit(eigen_lowest, matrix, k).result()


def podolsky_index(model: OscillatorModel, m: int) -> float:
    """Bessel order sqrt(4 m^2 + c)/(2 sigma), with c = kappa, of the
    curvature-free (Podolsky) radial equation: an artifact-derived reference.
    nu(m, sigma), whose c = (kappa - 1) + sigma^2 is exactly 0 on the bound
    kappa = 1 - sigma^2, coincides with it only at sigma = 1.

    Raises ImaginaryIndexError when 4 m^2 + kappa < 0 (possible for m = 0
    on a sigma > 1 cone with kappa < 0), where the Podolsky operator has no
    regular real-index solution and no Podolsky ladder exists.
    """
    disc = 4.0 * m * m + model.kappa
    if disc < 0.0:
        raise ImaginaryIndexError(
            f"Podolsky index sqrt(4m^2 + kappa)/(2 sigma) is imaginary for "
            f"m={m}: 4m^2 + kappa = {disc:.6g} < 0, so the curvature-free "
            "operator has no Podolsky ladder to compare against")
    return _bessel_order(model.kappa, model.geom.sigma, m)


@dataclass(frozen=True)
class LevelComparison:
    n: int
    numeric: float
    analytic: float
    abs_dev: float
    rel_dev: float
    est_error: float
    verdict: str            # "matches" | "excludes" | "inconclusive"


@dataclass(frozen=True)
class SpectrumMatchReport:
    m: int
    mode: CurvatureTermMode
    mode_gap: float         # |E_podolsky - E_jensen_koppe| per level (n-independent)
    levels: list

    @property
    def all_match(self) -> bool:
        return all(lv.verdict == "matches" for lv in self.levels)


def _richardson(e_coarse: np.ndarray, e_fine: np.ndarray, ratio: float):
    # second-order extrapolation in the spacing, ratio times smaller on the
    # fine grid, and the residual estimate of the fine level
    q2 = ratio * ratio
    return (q2 * e_fine - e_coarse) / (q2 - 1.0), \
        np.abs(e_fine - e_coarse) / (q2 - 1.0)


# The cap on the refined grid's first half-widths, as a share of each coarse
# level's distance to its nearest neighbour (its own magnitude when alone):
# the refined levels lie within 2^-11.5 of it from the coarse ones on the ten
# grids of a 4000-point, k = 20 report at sigma = 0.5, kappa = 1 (m 0-4, both
# modes), and within 2^-9.1 on 480 2001-point, k = 4 grids (sigma 0.3-2).
_FINE_SHARE = 2.0 ** -11
# The first half-widths as a share of |step|, the coarse level's h^2 error.
# The refined level misses its prediction by a median 4.2e-5 |step| (90th
# percentile 1.1e-3) on the ten grids above, and by 1.6e-3 (0.31) on 1,872
# levels of 2001-point, k = 4 grids (sigma in [0.45, 2], kappa 1 or 2, m
# 0-2, both modes), where small apex exponents converge slower than h^2.  A
# widening costs about nine steps; 2^-4 to 2^-10 cost that family alike.
_STEP_SHARE = 2.0 ** -10


def _level_gaps(levels: np.ndarray) -> np.ndarray:
    if len(levels) == 1:
        return np.abs(levels)
    step = np.diff(levels)
    return np.minimum(np.concatenate((step[:1], step)),
                      np.concatenate((step, step[-1:])))


def _fine_brackets(coarse: np.ndarray, coarser: np.ndarray, ratio: float):
    """(centres, half_widths) of the refined grid's brackets: the h^2
    prediction coarse - 0.75 step, step = (coarser - coarse)/(ratio^2 - 1)
    with ratio the coarser/coarse spacing, -+ _STEP_SHARE |step|, at most
    the _FINE_SHARE cap, at least 1e-12 |coarse| and what widens to the cap."""
    step = (coarser - coarse) / (ratio * ratio - 1.0)
    cap = _FINE_SHARE * _level_gaps(coarse)
    floor = np.maximum(cap / _WIDEN ** _WIDENINGS, 1e-12 * np.abs(coarse))
    return coarse - 0.75 * step, np.minimum(
        cap, np.maximum(_STEP_SHARE * np.abs(step), floor))


def _report_levels(matrices, k: int):
    """k lowest levels of every matrix in matrices, which holds a report's
    coarse, refined and coarser matrices, in that order, for each report in
    turn.

    The solves are staged on the pool, and only the calling thread waits on
    it.  Every coarse and coarser grid is solved from scratch by
    eigen_lowest (looked up in the module at call time).  Once both of a
    report's are in, its refined grid is bracketed around their h^2
    prediction (_fine_brackets), the spacing ratio read from the row counts.
    The brackets come from these solves alone.  An error in any solve is
    raised here as it is.
    """
    reports = [matrices[i:i + 3] for i in range(0, len(matrices), 3)]
    jobs = [[_SOLVES.submit(eigen_lowest, mats[i], k) for i in (0, 2)]
            for mats in reports]
    staged = []
    for mats, (coarse_job, coarser_job) in zip(reports, jobs):
        coarse, coarser = coarse_job.result(), coarser_job.result()
        ratio = (mats[0].dimension + 1) / (mats[2].dimension + 1)
        staged.append((coarse, coarser, _submit_near(
            mats[1], *_fine_brackets(coarse, coarser, ratio))))
    return [levels for coarse, coarser, fine_job in staged
            for levels in (coarse, _collect_near(*fine_job), coarser)]


def spectrum_match_report(model: OscillatorModel, m: int | Sequence[int],
                          mode: CurvatureTermMode, grid: RadialGrid, k: int,
                          ) -> SpectrumMatchReport | list:
    """Compare eigensolver levels against the analytic path-integral spectrum.

    m is one angular order, which gives one SpectrumMatchReport, or a
    sequence of orders, which gives a list of reports in the same order.

    Eigenvalues are Richardson-extrapolated in the grid spacing (second
    order) from the coarse grid and the refined one of half its spacing,
    with the Frobenius inner closure of radial_hamiltonian_matrix.  Each
    level's numerical-error estimate is |fine - coarse|/3, the h^2 residual
    of the refined level, plus |R_low - R|: R is the reported extrapolated
    level, and R_low the same extrapolation from a coarser grid of
    (points + 1)//2 nodes on the same interval and the coarse grid, so the
    second term is what one halving of the spacing moves the extrapolation
    by; 1e-12 |E| covers rounding.  A level "matches" when its deviation
    from the analytic energy is below 10x that estimate, "excludes" when
    above, and is "inconclusive" when the threshold cannot resolve the
    Jensen-Koppe / Podolsky gap.  ValueError is raised, before any matrix
    is built, when the grid has fewer than 31 points or k exceeds the
    (points + 1)//2 - 2 rows of the coarser grid.

    The three matrices of each order (coarse, refined and coarser) are
    built in the calling thread, all of them before any solve starts, and
    solved in units of hbar omega, so that the bisection's squares of the
    off-diagonal stay in the double range at any omega.  The solves of all
    orders run in one staged pass on the solver pool (_report_levels), so a
    sequence of orders keeps the pool busy where one report at a time would
    leave it waiting.  The coarse and coarser matrices are solved from
    scratch by eigen_lowest, and their levels are bit-identical to
    eigh_tridiagonal's.  The refined matrix is bisected by dstebz only
    inside brackets around the h^2 prediction of its levels from those two,
    and one Sturm count certifies that bracket j holds level j; each level
    is within dstebz's absolute tolerance of eigen_lowest's value.  Every
    report is the same, bit for bit, whether its order comes alone or in a
    sequence.  An error in any solve is raised here as it is.
    """
    if grid.points < 31:
        raise ValueError(
            f"points must be >= 31, so that the coarser grid of "
            f"(points + 1)//2 nodes has the 16 a RadialGrid needs, got "
            f"{grid.points!r}")
    coarser = RadialGrid(grid.r_min, grid.r_max, (grid.points + 1) // 2)
    if not isinstance(k, int) or isinstance(k, bool) \
            or not 1 <= k <= coarser.points - 2:
        raise ValueError(
            f"k must be an integer in [1, {coarser.points - 2}], the rows of "
            f"the coarser grid of {coarser.points} nodes, got {k!r}")
    many = isinstance(m, Sequence)
    orders = list(m) if many else [m]
    hbar_omega = model.consts.hbar * model.omega
    matrices, indices = [], []
    for order in orders:
        for g in (grid, grid.refined(), coarser):
            mat = radial_hamiltonian_matrix(model, order, mode, g)
            matrices.append(TridiagonalMatrix(
                diagonal=mat.diagonal / hbar_omega,
                offdiagonal=mat.offdiagonal / hbar_omega))
        try:
            nu_p = podolsky_index(model, order)
        except ImaginaryIndexError:
            if mode is CurvatureTermMode.PODOLSKY:
                raise
            # No Podolsky ladder (4 m^2 + kappa < 0): no rival ladder lies
            # near the Jensen-Koppe one, the gap a verdict has to resolve is
            # infinite, and every level "matches" or "excludes".
            nu_p = math.inf
        indices.append((model.nu(order), nu_p))
    solved = [levels * hbar_omega for levels in _report_levels(matrices, k)]
    low_ratio = (grid.points - 1) / (coarser.points - 1)   # 2 for odd points

    reports = []
    for i, (order, (nu, nu_p)) in enumerate(zip(orders, indices)):
        coarse, fine, coarsest = solved[3 * i:3 * i + 3]
        e_rich, disc_est = _richardson(coarse, fine, 2.0)
        e_low, _ = _richardson(coarsest, coarse, low_ratio)
        low_est = np.abs(e_low - e_rich)

        gap = hbar_omega * abs(nu_p - nu)
        levels = []
        for n in range(k):
            analytic = energy(model, QuantumNumbers(n, order))
            est = float(disc_est[n] + low_est[n]) + 1.0e-12 * abs(analytic)
            dev = abs(float(e_rich[n]) - analytic)
            threshold = 10.0 * est
            if dev <= threshold:
                verdict = "matches"
            elif gap > 0.0 and threshold >= gap:
                verdict = "inconclusive"
            else:
                verdict = "excludes"
            levels.append(LevelComparison(
                n=n, numeric=float(e_rich[n]), analytic=analytic,
                abs_dev=dev, rel_dev=dev / abs(analytic),
                est_error=est, verdict=verdict))
        reports.append(SpectrumMatchReport(m=order, mode=mode, mode_gap=gap,
                                           levels=levels))
    return reports if many else reports[0]


# largest x whose e^x is a finite double
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


def recombination_ratio(geom: ConeGeometry, consts: PhysicalConstants, m: int,
                        r_hat: float, eps: float) -> float:
    """Ratio of the Euclidean short-time angular factor of the sliced cone
    path integral, sigma e^{(1 - sigma^2) w} I_m(sigma^2 w) with
    w = M r_hat^2/(hbar eps), to its recombined form
    exp{-V_eff(r_hat) eps/hbar} I_{m/sigma}(w).

    Tends to 1 as eps -> 0 with |ratio - 1| = O(eps^2); identically 1 in flat
    space.  The e^{w} growth cancels between numerator and denominator, so
    the ratio never overflows.
    """
    if m == 0 and geom.sigma < 1.0:
        raise ImaginaryIndexError(
            "recombination for m = 0 on a sigma < 1 cone corresponds to an "
            "imaginary free-cone index; pick m != 0 or sigma >= 1"
        )
    r_hat = float(r_hat)
    eps = float(eps)
    if not math.isfinite(r_hat) or r_hat <= 0.0:
        raise ValueError(f"r_hat must be a finite real > 0, got {r_hat!r}")
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"eps must be a finite real > 0, got {eps!r}")
    s = geom.sigma
    if s == 1.0:
        return 1.0
    w = consts.mass * r_hat * r_hat / (consts.hbar * eps)
    numer = s * float(ive(abs(m), s * s * w))
    exponent = -effective_potential(geom, consts, r_hat) * eps / consts.hbar
    if exponent > _LOG_DOUBLE_MAX:
        raise UnderflowError(
            f"the recombined factor e^(-V_eff eps/hbar) overflows at sigma = "
            f"{s!r}, m = {m!r}, eps = {eps!r}: its exponent is {exponent!r}, "
            f"as sigma^2 = {s * s!r} is too small a divisor")
    denom = math.exp(exponent) * float(ive(abs(m) / s, w))
    if denom == 0.0:
        raise UnderflowError(
            f"the recombined factor underflows to 0 at sigma = {s!r}, "
            f"m = {m!r}, eps = {eps!r}: e^(-w) I_(m/sigma)(w) with "
            f"w = M r_hat^2/(hbar eps) = {w!r}")
    return numer / denom


@dataclass(frozen=True)
class TransferMatrixResult:
    """Composed kernel values on grid x grid, with slicing metadata."""

    values: np.ndarray
    grid: RadialGrid
    n_slices: int
    eps: float
    thermal_width: float
    resolution_ok: bool


# short-time entries below this are set to 0: subnormals slow the products
_SUBNORMAL_BELOW = np.finfo(float).tiny


def _bessel_band(table: np.ndarray, order: int, c: float, r: np.ndarray,
                 lo: int, hi: int) -> None:
    # Rows lo..hi-1 of the symmetric table ive(order, c r_i r_j), from the
    # diagonal rightwards, and their mirror images: the entries whose
    # smaller index lies in the band, written in place.  c * (r_i r_j) is
    # the same double either way round, so the mirror is exact.
    right = table[lo:hi, hi:]
    np.multiply(r[lo:hi, None], r[None, hi:], out=right)
    right *= c
    ive(order, right, out=right)
    table[hi:, lo:hi] = right.T
    for i in range(lo, hi):
        row = table[i, i:hi]
        np.multiply(r[i], r[i:hi], out=row)
        row *= c
        ive(order, row, out=row)
        table[i:hi, i] = row


def _short_time_matrix(model: OscillatorModel, m: int, r: np.ndarray,
                       eps: float) -> np.ndarray:
    # Euclidean short-time m-channel kernel on the grid; the identity
    #   -(r_i^2+r_j^2)/2 + (1-sigma^2) r_i r_j + sigma^2 r_i r_j
    #       = -(r_i - r_j)^2 / 2
    # folds the growing part of the angular factor into a bounded Gaussian.
    M = model.consts.mass
    hbar = model.consts.hbar
    s = model.geom.sigma
    n = len(r)
    # The (costly) Bessel table is filled on the pool in _WORKERS bands of
    # rows, each holding about as many entries on or right of the diagonal,
    # while this thread forms the Gaussian.
    c = M * s * s / (hbar * eps)
    bessel = np.empty((n, n))
    edges = [round(n * (1.0 - math.sqrt(1.0 - i / _WORKERS)))
             for i in range(_WORKERS + 1)]
    bands = [_SOLVES.submit(_bessel_band, bessel, abs(m), c, r, lo, hi)
             for lo, hi in zip(edges, edges[1:])]
    v = np.array([potential(model, ri) for ri in r])
    kern = -(M / (2.0 * hbar * eps)) * (r[:, None] - r[None, :]) ** 2
    kern -= v[:, None] * eps / hbar
    # row i's largest exponent is its diagonal entry, -V(r_i) eps/hbar
    top = int(np.argmax(kern.diagonal()))
    exponent = float(kern[top, top])
    if exponent > _LOG_DOUBLE_MAX:
        wait(bands)             # the table is dropped, with any error of it
        raise UnderflowError(
            f"the short-time factor e^(-V eps/hbar) overflows at grid node "
            f"{top}, r = {float(r[top])!r}: its exponent is {exponent!r} at "
            f"sigma = {s!r}, kappa = {model.kappa!r}, eps = {eps!r}")
    np.exp(kern, out=kern)
    kern *= (M / (hbar * eps)) * s
    for band in bands:
        band.result()
    kern *= bessel
    kern[kern < _SUBNORMAL_BELOW] = 0.0
    return kern


# a @ b with no overflow warning: the inf or NaN an overflow leaves is named
# by transfer_matrix_kernel's one finiteness check.  numpy's error state is
# per thread, so the pool's products set their own.
_quiet_matmul = np.errstate(over="ignore", invalid="ignore")(np.matmul)


def _pooled_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a @ b in _WORKERS blocks of rows, one matmul each on the pool; a
    # row's bits do not depend on the block it falls in
    out = np.empty((len(a), b.shape[1]))
    edges = [len(a) * i // _WORKERS for i in range(_WORKERS + 1)]
    blocks = [_SOLVES.submit(_quiet_matmul, a[lo:hi], b, out=out[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    for block in blocks:
        block.result()
    return out


def transfer_matrix_kernel(model: OscillatorModel, m: int, grid: RadialGrid,
                           beta: float, n_slices: int) -> TransferMatrixResult:
    """Time-sliced m-channel kernel: n_slices short-time kernels composed by
    n_slices - 1 trapezoid quadratures with measure r dr.

    The composition K_N = T (W T)^(N-1), with T the short-time kernel and
    W = diag(trapezoid weight * r), is formed by time doubling through the
    semigroup identity K_{a+b} = K_a W K_b: the chain K_1 = T,
    K_2 = K_1 W K_1, K_4 = K_2 W K_2, ... is combined over the set bits of
    n_slices, which takes at most 2 log2(n_slices) matrix products instead
    of n_slices - 1.  The quadratures are the same ones as in the
    slice-by-slice product, only associated differently.  Each product runs
    in _WORKERS blocks of rows on the solver pool, on one BLAS thread each,
    so its bits do not depend on the caller's BLAS thread count.

    The short-time kernel uses the integer angular order m throughout; the
    composed result converges to the closed-form kernel carrying the
    effective order nu(m, sigma), at a local order in beta/n_slices near
    min(1, nu) (measured, not derived: 0.49 at nu = 0.5, 0.67 at 0.71).
    ``resolution_ok`` is False when the short-time kernel width
    sqrt(hbar eps / M) falls under three grid spacings, i.e. the quadrature
    can no longer resolve a single slice.  UnderflowError names a
    short-time factor e^(-V eps/hbar) or a product that leaves the doubles.
    """
    beta = float(beta)
    if not math.isfinite(beta) or beta <= 0.0:
        raise ValueError(f"beta must be a finite real > 0, got {beta!r}")
    if not isinstance(n_slices, int) or isinstance(n_slices, bool) or n_slices < 1:
        raise ValueError(f"n_slices must be an integer >= 1, got {n_slices!r}")
    eps = beta / n_slices
    r = grid.values
    width = math.sqrt(model.consts.hbar * eps / model.consts.mass)
    w = (grid.trapezoid_weights() * r)[:, None]
    doubled = _short_time_matrix(model, m, r, eps)    # K_{2^k}
    out = None
    bits = n_slices
    with np.errstate(over="ignore", invalid="ignore"):     # checked below
        while True:
            if bits & 1:
                out = doubled if out is None else _pooled_product(
                    out, w * doubled)
            bits >>= 1
            if not bits:
                break
            doubled = _pooled_product(doubled, w * doubled)
    if not np.isfinite(out).all():
        raise UnderflowError(
            f"the transfer matrix of {n_slices} slices overflows at sigma = "
            f"{model.geom.sigma!r}, kappa = {model.kappa!r}, eps = {eps!r}")
    return TransferMatrixResult(
        values=out, grid=grid, n_slices=n_slices, eps=eps,
        thermal_width=width, resolution_ok=width >= 3.0 * grid.spacing,
    )
