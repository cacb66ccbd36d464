"""Command-line front end.

Subcommands: convert, spectrum, wavefunction, kernel, verify.  Model
parameters come from flags, which override a flat key=value config file,
which overrides the natural-unit defaults (sigma=0.5, omega=kappa=mass=hbar=1).

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 requested tolerance not achievable.

One parser per process; ``main`` finds ``_cmd_<subcommand>`` at call time.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .geometry import (ConeGeometry, PhysicalConstants, UnderflowError,
                       cone_from_deficit_angle, cone_from_sigma,
                       cone_from_string_density, deficit_angle, string_density)
from .grids import RadialGrid, TanhSinhRule
from .oracles import (AmosRangeError, CurvatureTermMode, recombination_ratio,
                      spectrum_match_report, transfer_matrix_kernel)
from .propagator import (KernelQuery, full_kernel, partial_wave_trace,
                         partial_wave_trace_exact, radial_kernel_closed,
                         semigroup_defect)
from .spectrum import (OscillatorModel, QuantumNumbers, enumerate_states,
                       radial_wavefunction)

_MODEL_KEYS = ("sigma", "omega", "kappa", "mass", "hbar")
_MODEL_DEFAULTS = {"sigma": 0.5, "omega": 1.0, "kappa": 1.0,
                   "mass": 1.0, "hbar": 1.0}
_SUITES = ("spectrum", "recombination", "transfer", "semigroup",
           "normalization")
# wavefunction's budget: rows, and rows times n (each row runs the O(n)
# Laguerre recurrence); larger requests exit 2 before any work
_MAX_POINTS = 1_000_000
_MAX_POINT_STEPS = 20_000_000


class _UsageError(ValueError):
    pass


def _read_config(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _UsageError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in _MODEL_KEYS:
                    raise _UsageError(
                        f"{path}:{lineno}: unknown key {key!r} "
                        f"(known: {', '.join(_MODEL_KEYS)})")
                try:
                    values[key] = float(val.strip())
                except ValueError:
                    raise _UsageError(
                        f"{path}:{lineno}: cannot parse {val.strip()!r} as a number")
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    return values


def _resolve_model(args) -> OscillatorModel:
    merged = dict(_MODEL_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config(args.config))
    for key in _MODEL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    geom = ConeGeometry(merged["sigma"])
    consts = PhysicalConstants(mass=merged["mass"], hbar=merged["hbar"])
    return OscillatorModel(geom=geom, consts=consts,
                           omega=merged["omega"], kappa=merged["kappa"])


def _add_model_flags(p, table=True):
    p.add_argument("--sigma", type=float, help="deficit parameter (> 0)")
    p.add_argument("--omega", type=float, help="oscillator frequency (> 0)")
    p.add_argument("--kappa", type=float,
                   help="inverse-square coupling (>= 1 - sigma^2); write a "
                        "negative value as --kappa=-1e-3")
    p.add_argument("--mass", type=float, help="particle mass (> 0)")
    p.add_argument("--hbar", type=float, help="hbar (> 0)")
    p.add_argument("--config", help="flat key=value config file")
    _add_output_flags(p, table)


def _add_output_flags(p, table=True):
    # verify always writes its JSON report, so it takes no --format
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
    p.add_argument("--output", help="write to this path instead of stdout")


def _emit(text, args):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)


def _fmt(v):
    # repr() is the shortest round-trip decimal form for Python floats
    return repr(float(v))


def _rows_to_csv(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(header, rows):
    out = [dict(zip(header, row)) for row in rows]
    return json.dumps(out, indent=2) + "\n"


def _emit_rows(header, rows, args):
    if args.format == "json":
        _emit(_rows_to_json(header, rows), args)
    else:
        _emit(_rows_to_csv(header, rows), args)


def _cmd_convert(args) -> int:
    given = [name for name in ("sigma", "deficit_angle", "g_eta")
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise _UsageError(
            "convert requires exactly one of --sigma, --deficit-angle, --g-eta")
    if args.sigma is not None:
        geom = cone_from_sigma(args.sigma)
    elif args.deficit_angle is not None:
        geom = cone_from_deficit_angle(args.deficit_angle)
    else:
        geom = cone_from_string_density(args.g_eta)
    angle = deficit_angle(geom)
    if math.isinf(angle):
        flag = given[0].replace("_", "-")
        raise _UsageError(
            f"--{flag} {getattr(args, given[0])!r} gives sigma = "
            f"{geom.sigma!r}, whose deficit angle 2 pi (1 - sigma) overflows")
    header = ["sigma", "deficit_angle", "g_eta", "embeddable"]
    rows = [(geom.sigma, angle, string_density(geom), geom.embeddable)]
    _emit_rows(header, rows, args)
    return 0


def _cmd_spectrum(args) -> int:
    model = _resolve_model(args)
    states = enumerate_states(model, args.e_max, args.m_max)
    scale = model.consts.hbar * model.omega if args.natural else 1.0
    header = ["n", "m", "nu", "energy"]
    rows = [(s.qn.n, s.qn.m, s.nu, s.energy / scale) for s in states]
    _emit_rows(header, rows, args)
    return 0


def _cmd_wavefunction(args) -> int:
    model = _resolve_model(args)
    qn = QuantumNumbers(args.n, args.m)
    for flag, v in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not math.isfinite(v):
            raise _UsageError(f"{flag} must be a finite real, got {v!r}")
    if args.points < 2 or not (0.0 <= args.r_min < args.r_max):
        raise _UsageError("need 0 <= r-min < r-max and points >= 2")
    if args.points > _MAX_POINTS:
        raise _UsageError(f"--points {args.points} is more than "
                          f"{_MAX_POINTS}; lower --points")
    if args.points * args.n > _MAX_POINT_STEPS:
        raise _UsageError(
            f"--n {args.n} with --points {args.points} takes "
            f"{args.points * args.n} recurrence steps, more than "
            f"{_MAX_POINT_STEPS}; lower --n or --points")
    h = (args.r_max - args.r_min) / (args.points - 1)
    header = ["r", "psi_abs", "psi_radial"]
    rows = []
    for i in range(args.points):
        r = args.r_min + i * h
        rad = radial_wavefunction(model, qn, r)
        rows.append((r, abs(rad), rad))
    _emit_rows(header, rows, args)
    return 0


def _cmd_kernel(args) -> int:
    model = _resolve_model(args)
    tol = args.tail_tol
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise _UsageError(
            f"--tail-tol must be a finite real >= 0, got {tol!r}")
    query = KernelQuery(r1=args.r1, r2=args.r2, beta=args.beta,
                        m_max=args.m_max)
    result = full_kernel(model, query, args.dtheta)
    header = ["value", "tail_bound", "m_max"]
    rows = [(result.value, result.tail_bound, result.m_max)]
    _emit_rows(header, rows, args)
    if tol is not None and result.tail_bound > tol:
        sys.stderr.write(
            f"kernel: partial-wave tail bound {result.tail_bound!r} exceeds "
            f"requested tolerance {tol!r}; increase --m-max\n")
        return 3
    return 0


def _oscillator_length(model) -> float:
    return math.sqrt(model.consts.hbar / (model.consts.mass * model.omega))


def _record(suite, case, expected, actual, tolerance, ok):
    return {"suite": suite, "case": case, "expected": expected,
            "actual": actual, "tolerance": tolerance, "pass": bool(ok)}


def _suite_spectrum(model, mode) -> list:
    records = []
    length = _oscillator_length(model)
    grid = RadialGrid(1.0e-3 * length, 12.0 * length, 2001)
    sigma_flat = model.geom.sigma == 1.0
    expected = "matches" if (mode is CurvatureTermMode.JENSEN_KOPPE
                             or sigma_flat) else "excludes"
    # the three orders in one call, which stages all their solves together
    for report in spectrum_match_report(model, (0, 1, 2), mode, grid, k=4):
        for lv in report.levels:
            records.append(_record(
                "spectrum", f"mode={mode.value},m={report.m},n={lv.n}",
                expected, lv.verdict, 10.0 * lv.est_error,
                lv.verdict == expected))
    return records


def _suite_recombination(model) -> list:
    geom = model.geom
    consts = model.consts
    records = []
    r_hat = _oscillator_length(model)
    # eps in units of 1/omega, so u = hbar eps / (M r_hat^2), the verdict
    # and the Bessel argument M r_hat^2/(hbar eps) do not depend on the units
    flat = ConeGeometry(1.0)
    rho_flat = recombination_ratio(flat, consts, 1, r_hat, 0.1 / model.omega)
    records.append(_record("recombination", "sigma=1 identity",
                           1.0, rho_flat, 0.0, rho_flat == 1.0))
    if geom.sigma == 1.0:
        return records
    eps_list = [0.02, 0.01, 0.005]
    devs = [abs(recombination_ratio(geom, consts, 1, r_hat, e / model.omega)
                - 1.0) for e in eps_list]
    for i in range(2):
        factor = devs[i] / devs[i + 1] if devs[i + 1] > 0.0 else math.inf
        records.append(_record(
            "recombination",
            f"second-order decay eps={eps_list[i]}->{eps_list[i+1]}",
            4.0, factor, 0.6, abs(factor - 4.0) <= 0.6))
    records.append(_record("recombination", f"|rho-1| at eps={eps_list[-1]}",
                           0.0, devs[-1], 1.0e-3, devs[-1] < 1.0e-3))
    return records


def _suite_transfer(model) -> list:
    length = _oscillator_length(model)
    grid = RadialGrid(1.0e-3 * length, 8.0 * length, 400)
    beta = 1.0 / model.omega
    r = grid.values
    peak = np.flatnonzero((r >= 0.7 * length) & (r <= 1.5 * length))
    # the closed kernel does not depend on the slice count
    closed = radial_kernel_closed(model, 1, r[peak, None], r[None, peak], beta)
    devs = {}
    try:
        for n_slices in (8, 16):
            tm = transfer_matrix_kernel(model, 1, grid, beta, n_slices)
            devs[n_slices] = float(np.max(
                np.abs(tm.values[np.ix_(peak, peak)] - closed) / closed))
    except UnderflowError as exc:      # a factor or product past the doubles
        return [_record("transfer", "transfer matrix in the double range",
                        "finite", str(exc), 0.0, False)]
    ratio = devs[8] / devs[16] if devs[16] > 0.0 else math.inf
    records = [
        _record("transfer", "first-order convergence dev(8)/dev(16)",
                2.0, ratio, 0.7, ratio >= 1.3),
        _record("transfer", "deviation decreases 8->16",
                "decreasing", "decreasing" if devs[16] < devs[8] else "not",
                0.0, devs[16] < devs[8]),
    ]
    return records


def _suite_semigroup(model) -> list:
    length = _oscillator_length(model)
    rule = TanhSinhRule(12.0 * length)
    records = []
    b = 0.5 / model.omega
    for m in (0, 1):
        res = semigroup_defect(model, m, 0.7 * length, 1.3 * length,
                               b, b, rule)
        records.append(_record("semigroup", f"composition defect m={m}",
                               0.0, res.defect, 1.0e-8,
                               res.defect < 1.0e-8 and res.grid_adequate))
    for beta_w in (0.5, 1.0, 2.0):
        beta = beta_w / model.omega
        for m in (0, 1, 2):
            num = partial_wave_trace(model, m, beta, rule)
            exact = partial_wave_trace_exact(model, m, beta)
            records.append(_record(
                "semigroup", f"trace ladder m={m},omega*beta={beta_w}",
                exact, num, 1.0e-7, abs(num - exact) < 1.0e-7))
    return records


def _suite_normalization(model) -> list:
    records = []
    pairs = [((0, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 1)),
             ((2, 1), (2, 1)), ((0, 0), (1, 0)), ((0, 1), (2, 1))]
    rule = TanhSinhRule(14.0 * _oscillator_length(model))
    r = rule.values
    measure = 2.0 * math.pi * rule.trapezoid_weights() * r
    psi = {}
    for (n1, m1), (n2, m2) in pairs:
        # psi once per node and per state, shared by the pairs that use it
        for n, m in ((n1, m1), (n2, m2)):
            if (n, m) not in psi:
                qn = QuantumNumbers(n, m)
                psi[n, m] = np.array([radial_wavefunction(model, qn, x)
                                      for x in r.tolist()])
        val = math.fsum(measure * psi[n1, m1] * psi[n2, m2])
        same = (n1, m1) == (n2, m2)
        expected = 1.0 if same else 0.0
        case = f"<{n1},{m1}|{n2},{m2}>"
        records.append(_record("normalization", case, expected, val,
                               1.0e-8, abs(val - expected) < 1.0e-8))
    return records


def _cmd_verify(args) -> int:
    model = _resolve_model(args)
    mode = CurvatureTermMode(args.mode)
    wanted = args.suite or list(_SUITES)
    records = []
    if "spectrum" in wanted:
        records.extend(_suite_spectrum(model, mode))
    try:
        if "recombination" in wanted:
            records.extend(_suite_recombination(model))
        if "transfer" in wanted:
            records.extend(_suite_transfer(model))
    except AmosRangeError as exc:      # the Bessel arguments grow as sigma^2
        raise AmosRangeError(f"sigma = {model.geom.sigma!r}: {exc}") from None
    if "semigroup" in wanted:
        records.extend(_suite_semigroup(model))
    if "normalization" in wanted:
        records.extend(_suite_normalization(model))
    all_pass = all(r["pass"] for r in records)
    report = {"pass": all_pass, "records": records}
    _emit(json.dumps(report, indent=2) + "\n", args)
    return 0 if all_pass else 1


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="coneqm",
        description="Quantum mechanics on a conical surface: spectra, "
                    "wavefunctions, Euclidean kernels, and verification oracles.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert between cone parameterizations")
    p.add_argument("--sigma", type=float)
    p.add_argument("--deficit-angle", dest="deficit_angle", type=float)
    p.add_argument("--g-eta", dest="g_eta", type=float)
    _add_output_flags(p)

    p = sub.add_parser("spectrum", help="enumerate bound states")
    _add_model_flags(p)
    p.add_argument("--e-max", dest="e_max", type=float, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=6)
    p.add_argument("--natural", action="store_true",
                   help="report energies in units of hbar*omega")

    p = sub.add_parser("wavefunction", help="sample an eigenfunction")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r-min", dest="r_min", type=float, default=0.0)
    p.add_argument("--r-max", dest="r_max", type=float, default=6.0)
    p.add_argument("--points", type=int, default=121)

    p = sub.add_parser("kernel", help="evaluate the Euclidean kernel")
    _add_model_flags(p)
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--dtheta", type=float, default=0.0)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=40)
    p.add_argument("--tail-tol", dest="tail_tol", type=float,
                   help="fail (exit 3) if the tail bound exceeds this")

    p = sub.add_parser("verify", help="run the oracle verification suites")
    _add_model_flags(p, table=False)
    p.add_argument("--suite", action="append", choices=_SUITES,
                   help="suite to run (repeatable; default: all)")
    p.add_argument("--mode", default=CurvatureTermMode.JENSEN_KOPPE.value,
                   choices=[mode.value for mode in CurvatureTermMode],
                   help="curvature term for the spectrum suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except ValueError as exc:
        sys.stderr.write(f"coneqm: {exc}\n")
        return 2
    except OverflowError as exc:
        sys.stderr.write(f"coneqm: overflow: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
