"""The benchmark's three workloads.

Each workload draws its inputs from a seed, names the operations one round
runs, and checks every output against references computed here, apart from
the program: scipy's AMOS Bessel functions and the paper's closed formulas.
Every call into coneqm goes through a module attribute
(``coneqm.propagator.full_kernel``, ``coneqm.cli.main``, ...), looked up at
call time, so that the tracer can wrap it.

A workload provides:

* ``n_ops`` and ``run_op(i)``: the operations of one round;
* ``warm_up()``: first calls that load lazy code paths, part of set-up;
* ``same(a, b)``: whether two rounds gave the same output for one operation;
* ``checks(outputs)``: name -> list of problems, for the outputs of a round
  (``None`` marks an operation that raised);
* ``self_test(outputs)``: names of checks that failed to reject a value
  perturbed on purpose (empty when every check bites);
* ``stdout_bytes(outputs)``: bytes the CLI wrote in a round.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
from scipy.special import ive

import coneqm.cli
import coneqm.oracles
import coneqm.propagator
from coneqm import (ConeGeometry, KernelQuery, OscillatorModel,
                    PhysicalConstants, RadialGrid)
from coneqm.oracles import CurvatureTermMode

CONSTS = PhysicalConstants()   # natural units, M = hbar = 1; omega = 1 below


def paper_nu(m, sigma, kappa):
    """nu(m, sigma) = sqrt(4 m^2 + kappa + sigma^2 - 1) / (2 sigma), from the
    paper's formula rather than from coneqm.geometry."""
    return np.sqrt(4.0 * np.square(m) + kappa + np.square(sigma) - 1.0) \
        / (2.0 * sigma)


def closed_kernel_ive(nu, r1, r2, beta):
    """m-channel radial kernel (omega = M = hbar = 1) through scipy's ive."""
    sh = np.sinh(beta)
    z = r1 * r2 / sh
    expo = z - 0.5 * (r1 * r1 + r2 * r2) * np.cosh(beta) / sh
    return np.exp(expo) * ive(nu, z) / sh


def _problems(ok, label):
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    return [f"{label}: op {i}" for i in bad[:5]] + (
        [f"{label}: {len(bad) - 5} more"] if len(bad) > 5 else [])


class KernelTable:
    """Full-kernel queries at seeded sigma, kappa, r1, r2, beta and dtheta."""

    name = "kernel-table"
    N_OPS = 9600                 # 3200 per m_max, an eighth of them flat
    M_MAX = (10, 40, 80)
    SUM_RTOL = 1.0e-12           # against sum |terms|
    SYM_RTOL = 1.0e-14           # against sum |terms|; exact today
    TAIL_SLACK = 1.0e-12         # rounding of the reference tail sum
    MEHLER_ATOL = 1.0e-12

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 1])
        n = self.N_OPS
        per = n // len(self.M_MAX)
        m_max = np.repeat(self.M_MAX, per)
        flat = np.tile(np.arange(per) < per // 8, len(self.M_MAX))
        sigma = rng.uniform(0.25, 2.0, n)
        kappa = 1.0 - sigma ** 2 + rng.uniform(0.0, 3.0, n)
        sigma[flat] = 1.0
        kappa[flat] = 0.0
        order = rng.permutation(n)
        self.m_max = m_max[order]
        self.flat = flat[order]
        self.sigma = sigma[order]
        self.kappa = kappa[order]
        # beta >= 0.05 and r <= 3 keep the tail bound finite (see CHANGES.md)
        self.r1 = rng.uniform(0.1, 3.0, n)
        self.r2 = rng.uniform(0.1, 3.0, n)
        self.beta = np.exp(rng.uniform(math.log(0.05), math.log(5.0), n))
        self.dtheta = rng.uniform(0.0, math.pi, n)
        self.n_ops = n
        self.models = [OscillatorModel(ConeGeometry(float(s)), CONSTS, 1.0,
                                       float(k))
                       for s, k in zip(self.sigma, self.kappa)]
        self.queries = [KernelQuery(float(a), float(b), float(t), int(mm))
                        for a, b, t, mm in zip(self.r1, self.r2, self.beta,
                                               self.m_max)]
        self._ref = None

    def run_op(self, i):
        return coneqm.propagator.full_kernel(self.models[i], self.queries[i],
                                             float(self.dtheta[i]))

    def warm_up(self):
        for i in range(50):
            self.run_op(i)

    @staticmethod
    def same(a, b):
        return a.value == b.value and a.tail_bound == b.tail_bound

    @staticmethod
    def stdout_bytes(outputs):
        return 0

    def _reference(self):
        """Truncated sums, sum |terms| and discarded tails through ive."""
        if self._ref is not None:
            return self._ref
        n = self.n_ops
        ref = np.empty(n)
        absum = np.empty(n)
        tail = np.zeros(n)
        for mm in self.M_MAX:
            sel = np.flatnonzero(self.m_max == mm)
            s, k = self.sigma[sel, None], self.kappa[sel, None]
            r1, r2, beta = self.r1[sel, None], self.r2[sel, None], \
                self.beta[sel, None]
            m = np.arange(mm + 1)
            rm = closed_kernel_ive(paper_nu(m, s, k), r1, r2, beta)
            weight = np.where(m == 0, 1.0,
                              2.0 * np.cos(m * self.dtheta[sel, None]))
            ref[sel] = (rm * weight).sum(axis=1) / (2.0 * math.pi)
            absum[sel] = np.abs(rm * weight).sum(axis=1) / (2.0 * math.pi)
            # discarded m_max+1, ...: sum R_m / pi, which the bound covers,
            # block by block until the last term is negligible
            start = mm + 1
            live = np.arange(len(sel))
            while live.size:
                mt = np.arange(start, start + 64)
                rt = closed_kernel_ive(paper_nu(mt, s[live], k[live]),
                                       r1[live], r2[live], beta[live])
                tail[sel[live]] += rt.sum(axis=1) / math.pi
                live = live[rt[:, -1] > 1.0e-18 * tail[sel[live]]]
                start += 64
        sh = np.sinh(self.beta)
        mehler = np.exp(-0.5 * (self.r1 ** 2 + self.r2 ** 2)
                        * np.cosh(self.beta) / sh
                        + self.r1 * self.r2 * np.cos(self.dtheta) / sh) \
            / (2.0 * math.pi * sh)
        self._ref = {"sum": ref, "absum": absum, "tail": tail,
                     "mehler": mehler}
        return self._ref

    def _mirror(self, outputs):
        # the same queries with r1 and r2 swapped, computed after timing
        out = np.full(self.n_ops, np.nan)
        for i, res in enumerate(outputs):
            if res is not None:
                q = self.queries[i]
                out[i] = coneqm.propagator.full_kernel(
                    self.models[i], KernelQuery(q.r2, q.r1, q.beta, q.m_max),
                    float(self.dtheta[i])).value
        return out

    def _verdicts(self, done, value, bound, mirror):
        ref = self._reference()
        return {
            "ive-sum": ~done | (np.abs(value - ref["sum"])
                                <= self.SUM_RTOL * ref["absum"]),
            "tail-bound": ~done | (ref["tail"]
                                   <= bound * (1.0 + self.TAIL_SLACK)),
            "symmetry": ~done | (np.abs(value - mirror)
                                 <= self.SYM_RTOL * ref["absum"]),
            "mehler": ~done | ~self.flat
            | (np.abs(value - ref["mehler"]) <= bound + self.MEHLER_ATOL),
        }

    def checks(self, outputs):
        done = np.array([r is not None for r in outputs])
        value = np.array([np.nan if r is None else r.value for r in outputs])
        bound = np.array([np.nan if r is None else r.tail_bound
                          for r in outputs])
        # kept for self_test, which would otherwise redo the mirrored calls
        self._checked = (done, value, bound, self._mirror(outputs))
        return {name: _problems(ok, name)
                for name, ok in self._verdicts(*self._checked).items()}

    def self_test(self, outputs):
        done, value, bound, mirror = self._checked
        ref = self._reference()
        i = 0
        j = int(np.argmax(ref["tail"]))
        f = int(np.flatnonzero(self.flat)[0])
        cases = (("ive-sum", i, 0, value[i] + 1.0e-9 * ref["absum"][i]),
                 ("tail-bound", j, 1, 0.5 * ref["tail"][j]),
                 ("symmetry", i, 2, mirror[i] + 1.0e-9 * ref["absum"][i]),
                 ("mehler", f, 0, ref["mehler"][f] + 2.0 * bound[f] + 1e-9))
        missed = []
        for name, k, which, bad in cases:
            arrays = [value.copy(), bound.copy(), mirror.copy()]
            arrays[which][k] = bad
            if self._verdicts(done, *arrays)[name][k]:
                missed.append(name)
        return missed


_SUITES = (("spectrum", "jensen-koppe"), ("spectrum", "podolsky"),
           ("recombination", "jensen-koppe"), ("transfer", "jensen-koppe"),
           ("semigroup", "jensen-koppe"), ("normalization", "jensen-koppe"))
# records per suite at sigma != 1, as cli.py builds them: spectrum 3 m x k=4;
# recombination identity + 2 decay factors + |rho-1|; transfer 2; semigroup
# 2 defects + 3 beta x 3 m ladders; normalization 6 overlaps
RECORDS = {"spectrum": 12, "recombination": 4, "transfer": 2,
           "semigroup": 11, "normalization": 6}
_LADDER = re.compile(r"trace ladder m=(\d+),omega\*beta=([0-9.]+)$")
# sigma windows left out: near 1 the Podolsky gap falls below the spectrum
# suite's resolution, and near sqrt(3) the recombination suite's eps^2 law
# has a vanishing coefficient (see CHANGES.md)
SIGMA_RANGES = ((0.45, 0.98), (1.02, 1.68), (1.78, 2.0))


class VerifySweep:
    """Every ``coneqm verify`` suite in-process over seeded (sigma, kappa)."""

    name = "verify-sweep"
    N_CONFIGS = 8
    LADDER_RTOL = 1.0e-13

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        # one sigma per stratum of the allowed set; kappa 1 and 2 equally often
        lengths = np.array([b - a for a, b in SIGMA_RANGES])
        u = (np.arange(self.N_CONFIGS) + rng.random(self.N_CONFIGS)) \
            / self.N_CONFIGS * lengths.sum()
        edges = np.concatenate([[0.0], np.cumsum(lengths)])
        sigmas = []
        for x in u:
            r = min(np.searchsorted(edges, x, side="right") - 1,
                    len(SIGMA_RANGES) - 1)
            sigmas.append(SIGMA_RANGES[r][0] + x - edges[r])
        kappas = rng.permutation([1.0, 2.0] * (self.N_CONFIGS // 2))
        self.configs = [(float(s), float(k)) for s, k in zip(sigmas, kappas)]
        self.ops = [(s, k, suite, mode) for s, k in self.configs
                    for suite, mode in _SUITES]
        self.n_ops = len(self.ops)

    @staticmethod
    def _argv(sigma, kappa, suite, mode):
        return ["verify", "--suite", suite, "--sigma", repr(sigma),
                "--kappa", repr(kappa), "--mode", mode]

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = coneqm.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run_op(self, i):
        return self._call(self._argv(*self.ops[i]))

    def warm_up(self):
        # recombination is cheap; normalization imports scipy.integrate lazily
        sigma, kappa = self.configs[0]
        for suite in ("recombination", "normalization"):
            self._call(self._argv(sigma, kappa, suite, "jensen-koppe"))

    @staticmethod
    def same(a, b):
        return a == b

    @staticmethod
    def stdout_bytes(outputs):
        return sum(len(o[1].encode()) for o in outputs if o is not None)

    def _check_one(self, op, output):
        """Problems of one suite call, by check name."""
        sigma, kappa, suite, mode = op
        rc, text, err = output
        found = {"exit": [], "records": [], "ladder": [], "verdict": []}
        try:
            report = json.loads(text)
        except ValueError:
            found["exit"].append("stdout is not one JSON report")
            return found
        if rc != 0 or report.get("pass") is not True or err:
            found["exit"].append(f"exit {rc}, pass {report.get('pass')!r}")
        records = report.get("records", [])
        if len(records) != RECORDS[suite]:
            found["records"].append(
                f"{len(records)} records, expected {RECORDS[suite]}")
        if suite == "semigroup":
            ladders = [(r, _LADDER.match(r["case"])) for r in records]
            ladders = [(r, m) for r, m in ladders if m]
            if len(ladders) != 9:
                found["ladder"].append(f"{len(ladders)} ladder records")
            for r, m in ladders:
                bw = float(m.group(2))
                nu = paper_nu(int(m.group(1)), sigma, kappa)
                want = math.exp(-bw * (1.0 + nu)) / (1.0 - math.exp(-2.0 * bw))
                if abs(r["expected"] - want) > self.LADDER_RTOL * want:
                    found["ladder"].append(
                        f"{r['case']}: expected {r['expected']!r}, "
                        f"ladder {want!r}")
        if suite == "spectrum":
            want = "matches" if mode == "jensen-koppe" else "excludes"
            wrong = [r["case"] for r in records if r["actual"] != want]
            if wrong:
                found["verdict"].append(f"not '{want}': {wrong[:3]}")
        return found

    def checks(self, outputs):
        found = {"exit": [], "records": [], "ladder": [], "verdict": []}
        for i, (op, output) in enumerate(zip(self.ops, outputs)):
            if output is None:
                continue
            for name, msgs in self._check_one(op, output).items():
                found[name].extend(f"op {i} {op}: {m}" for m in msgs)
        return found

    def self_test(self, outputs):
        def first(suite, mode="jensen-koppe"):
            i = next(i for i, op in enumerate(self.ops)
                     if op[2] == suite and op[3] == mode)
            rc, text, err = outputs[i]
            return self.ops[i], rc, json.loads(text), err

        def redo(op, rc, report, err):
            return self._check_one(op, (rc, json.dumps(report), err))

        missed = []
        op, rc, rep, err = first("transfer")
        if not redo(op, 1, rep, err)["exit"]:
            missed.append("exit")
        rep["records"].pop()
        if not redo(op, rc, rep, err)["records"]:
            missed.append("records")
        op, rc, rep, err = first("semigroup")
        ladder = next(r for r in rep["records"] if _LADDER.match(r["case"]))
        ladder["expected"] *= 1.0 + 1.0e-9
        if not redo(op, rc, rep, err)["ladder"]:
            missed.append("ladder")
        op, rc, rep, err = first("spectrum", "podolsky")
        rep["records"][0]["actual"] = "matches"
        if not redo(op, rc, rep, err)["verdict"]:
            missed.append("verdict")
        return missed


class OracleRefine:
    """The eigensolver and the transfer matrix at refinement scale."""

    name = "oracle-refine"
    SIGMA, KAPPA = 0.5, 1.0
    K_LEVELS = 20
    EIG_GRID = RadialGrid(1.0e-3, 12.0, 4000)
    TM_GRID = RadialGrid(1.0e-3, 8.0, 450)
    TM_M, TM_BETA, TM_SLICES = 1, 1.0, (32, 64)
    LEVEL_RTOL = 1.0e-4
    CONVERGENCE = 0.6            # dev(64) <= 0.6 dev(32): first order or more

    def __init__(self, seed):
        self.model = OscillatorModel(ConeGeometry(self.SIGMA), CONSTS, 1.0,
                                     self.KAPPA)
        ops = [("spectrum", m, mode) for mode in CurvatureTermMode
               for m in range(5)]
        ops += [("transfer", n, None) for n in self.TM_SLICES]
        # the inputs are fixed; the seed only orders the operations
        order = np.random.default_rng([seed, 3]).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.n_ops = len(self.ops)
        r = self.TM_GRID.values
        self.peak = (r >= 0.7) & (r <= 1.5)
        rp = r[self.peak]
        nu = paper_nu(self.TM_M, self.SIGMA, self.KAPPA)
        self.closed = closed_kernel_ive(nu, rp[:, None], rp[None, :],
                                        self.TM_BETA)

    def run_op(self, i):
        kind, arg, mode = self.ops[i]
        if kind == "spectrum":
            return coneqm.oracles.spectrum_match_report(
                self.model, arg, mode, self.EIG_GRID, self.K_LEVELS)
        return coneqm.oracles.transfer_matrix_kernel(
            self.model, self.TM_M, self.TM_GRID, self.TM_BETA, arg)

    def warm_up(self):
        coneqm.oracles.spectrum_match_report(
            self.model, 0, CurvatureTermMode.JENSEN_KOPPE,
            RadialGrid(1.0e-3, 12.0, 200), 2)
        coneqm.oracles.transfer_matrix_kernel(
            self.model, self.TM_M, RadialGrid(1.0e-3, 8.0, 100),
            self.TM_BETA, 4)

    def same(self, a, b):
        if hasattr(a, "levels"):
            return [(lv.numeric, lv.verdict) for lv in a.levels] \
                == [(lv.numeric, lv.verdict) for lv in b.levels]
        return np.array_equal(a.values, b.values)

    @staticmethod
    def stdout_bytes(outputs):
        return 0

    def _ladder(self, m, mode):
        n = np.arange(self.K_LEVELS)
        if mode is CurvatureTermMode.JENSEN_KOPPE:
            idx = paper_nu(m, self.SIGMA, self.KAPPA)
        else:
            idx = math.sqrt(4.0 * m * m + self.KAPPA) / (2.0 * self.SIGMA)
        return 2.0 * n + 1.0 + idx

    def _deviation(self, values):
        sub = values[np.ix_(self.peak, self.peak)]
        return float(np.max(np.abs(sub - self.closed) / self.closed))

    def _verdicts(self, levels, matrices):
        """levels: (m, mode) -> numeric levels; matrices: slices -> values."""
        found = {"jensen-koppe-ladder": [], "podolsky-ladder": [],
                 "tm-finite-nonneg": [], "tm-convergence": []}
        for (m, mode), numeric in levels.items():
            rel = np.abs(numeric / self._ladder(m, mode) - 1.0)
            if not np.all(rel <= self.LEVEL_RTOL):
                found[f"{mode.value}-ladder"].append(
                    f"m={m}: worst rel. dev {np.nanmax(rel):.3g}")
        for n, values in matrices.items():
            if not (np.all(np.isfinite(values)) and np.min(values) >= 0.0):
                found["tm-finite-nonneg"].append(f"N={n}")
        if len(matrices) == 2:
            coarse, fine = (self._deviation(matrices[n])
                            for n in self.TM_SLICES)
            if not fine <= self.CONVERGENCE * coarse:
                found["tm-convergence"].append(
                    f"dev({self.TM_SLICES[1]})={fine:.4g} > "
                    f"{self.CONVERGENCE} dev({self.TM_SLICES[0]})"
                    f"={coarse:.4g}")
        return found

    def _split(self, outputs):
        levels, matrices = {}, {}
        for (kind, arg, mode), out in zip(self.ops, outputs):
            if out is None:
                continue
            if kind == "spectrum":
                levels[(arg, mode)] = np.array([lv.numeric
                                                for lv in out.levels])
            else:
                matrices[arg] = out.values
        return levels, matrices

    def checks(self, outputs):
        return self._verdicts(*self._split(outputs))

    def self_test(self, outputs):
        levels, matrices = self._split(outputs)
        jk = (0, CurvatureTermMode.JENSEN_KOPPE)
        pod = (0, CurvatureTermMode.PODOLSKY)
        fine = self.TM_SLICES[1]
        missed = []
        for name, key in (("jensen-koppe-ladder", jk),
                          ("podolsky-ladder", pod)):
            bent = dict(levels)
            bent[key] = levels[key].copy()
            bent[key][3] *= 1.0 + 2.0 * self.LEVEL_RTOL
            if not self._verdicts(bent, matrices)[name]:
                missed.append(name)
        for bad in (np.nan, -1.0e-300):
            bent = {n: v.copy() for n, v in matrices.items()}
            bent[fine][0, 0] = bad
            if not self._verdicts(levels, bent)["tm-finite-nonneg"]:
                missed.append(f"tm-finite-nonneg ({bad!r})")
        bent = {n: v.copy() for n, v in matrices.items()}
        bent[fine][np.ix_(self.peak, self.peak)] = self.closed * 1.5
        if not self._verdicts(levels, bent)["tm-convergence"]:
            missed.append("tm-convergence")
        return missed


WORKLOADS = {w.name: w for w in (KernelTable, VerifySweep, OracleRefine)}
