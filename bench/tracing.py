"""Spans around coneqm's public functions, recorded from outside the program.

``Tracer.install()`` replaces each function in ``TARGETS`` at the module
attribute its callers look up (for example
``coneqm.propagator.bessel_i_scaled``, which is how ``full_kernel`` reaches
the special-function layer) with a wrapper that records one span: name,
start, end, parent span and operation id, plus up to two numbers read from
the arguments.  Spans are kept in flat
arrays in memory and written out by ``save()``.  ``layer_metrics()`` turns
them into the per-layer figures; a span's self time is its duration minus
the durations of its child spans.
"""

import functools
import importlib
import time
from array import array

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _bessel_region(args, kwargs):
    # the argument regions of the specfun docstring: 0 series, 2 Hankel, 1 CF
    nu = float(_arg(args, kwargs, 0, "nu"))
    x = float(_arg(args, kwargs, 1, "x"))
    if x <= max(12.0, nu):
        return 0.0, 0.0
    return (2.0 if x >= 30.0 else 1.0), 0.0


def _eigen_sizes(args, kwargs):
    return float(_arg(args, kwargs, 1, "k")), \
        float(_arg(args, kwargs, 0, "matrix").dimension)


def _transfer_sizes(args, kwargs):
    return float(_arg(args, kwargs, 2, "grid").points), \
        float(_arg(args, kwargs, 4, "n_slices"))


# (module, attribute its callers use, span name, argument reader)
TARGETS = (
    ("coneqm.propagator", "bessel_i_scaled", "specfun.bessel_i_scaled",
     _bessel_region),
    ("coneqm.spectrum", "hyp1f1_terminating", "specfun.hyp1f1_terminating",
     None),
    ("coneqm.spectrum", "ln_gamma", "specfun.ln_gamma", None),
    ("coneqm.propagator", "ln_gamma", "specfun.ln_gamma", None),
    ("coneqm.spectrum", "coupled_index_nu", "geometry.coupled_index_nu", None),
    ("coneqm.propagator", "coupled_index_nu", "geometry.coupled_index_nu",
     None),
    ("coneqm.oracles", "effective_potential", "geometry.effective_potential",
     None),
    ("coneqm.spectrum", "radial_wavefunction", "spectrum.radial_wavefunction",
     None),
    ("coneqm.cli", "radial_wavefunction", "spectrum.radial_wavefunction",
     None),
    ("coneqm.oracles", "potential", "spectrum.potential", None),
    ("coneqm.spectrum", "energy", "spectrum.energy", None),
    ("coneqm.oracles", "energy", "spectrum.energy", None),
    ("coneqm.propagator", "full_kernel", "propagator.full_kernel", None),
    ("coneqm.cli", "full_kernel", "propagator.full_kernel", None),
    ("coneqm.propagator", "radial_kernel_closed",
     "propagator.radial_kernel_closed", None),
    ("coneqm.cli", "radial_kernel_closed", "propagator.radial_kernel_closed",
     None),
    ("coneqm.cli", "semigroup_defect", "propagator.semigroup_defect", None),
    ("coneqm.cli", "partial_wave_trace", "propagator.partial_wave_trace",
     None),
    ("coneqm.oracles", "radial_hamiltonian_matrix",
     "oracles.radial_hamiltonian_matrix", None),
    ("coneqm.oracles", "eigen_lowest", "oracles.eigen_lowest", _eigen_sizes),
    ("coneqm.oracles", "spectrum_match_report",
     "oracles.spectrum_match_report", None),
    ("coneqm.cli", "spectrum_match_report", "oracles.spectrum_match_report",
     None),
    ("coneqm.oracles", "transfer_matrix_kernel",
     "oracles.transfer_matrix_kernel", _transfer_sizes),
    ("coneqm.cli", "transfer_matrix_kernel", "oracles.transfer_matrix_kernel",
     _transfer_sizes),
    ("coneqm.cli", "recombination_ratio", "oracles.recombination_ratio", None),
    ("coneqm.oracles", "ive", "oracles.ive", None),
    ("coneqm.cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder; ``current_op`` is set by the caller."""

    def __init__(self):
        self.names = sorted({t[2] for t in TARGETS})
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.aux1 = array("d")
        self.aux2 = array("d")
        self.current_op = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, span_name, read_args):
        nid = self.names.index(span_name)
        name_id, start, end, parent, op, aux1, aux2 = (
            self.name_id, self.start, self.end, self.parent, self.op,
            self.aux1, self.aux2)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a, b = (0.0, 0.0) if read_args is None else read_args(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            aux1.append(a)
            aux2.append(b)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return traced

    def install(self):
        for module_name, attr, span_name, read_args in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, read_args))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16),
                "start": np.frombuffer(self.start),
                "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "aux1": np.frombuffer(self.aux1),
                "aux2": np.frombuffer(self.aux2)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self):
        """Per-layer figures of everything recorded, keyed by metric name."""
        s = self.arrays()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent],
                            weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = s["name_id"] == nid
            out[f"{name}.calls"] = int(np.count_nonzero(sel))
            out[f"{name}.self_s"] = float(self_time[sel].sum())
        region = s["aux1"][s["name_id"] == self.names.index(
            "specfun.bessel_i_scaled")]
        for code, label in enumerate(("small_x", "mid_x", "large_x")):
            out[f"specfun.bessel_i_scaled.calls_{label}"] = int(
                np.count_nonzero(region == code))
        fk = dur[s["name_id"] == self.names.index("propagator.full_kernel")]
        out["propagator.full_kernel.p90_ms"] = \
            float(np.quantile(fk, 0.9) * 1e3) if fk.size else 0.0
        eig = s["name_id"] == self.names.index("oracles.eigen_lowest")
        out["oracles.eigen_lowest.levels"] = int(s["aux1"][eig].sum())
        out["oracles.eigen_lowest.rows"] = int(s["aux2"][eig].sum())
        tm = s["name_id"] == self.names.index("oracles.transfer_matrix_kernel")
        n, slices = s["aux1"][tm], s["aux2"][tm]
        out["oracles.transfer_matrix_kernel.slices"] = int(slices.sum())
        # 2 n^3 flops per dense n x n product, slices - 1 products per call
        out["oracles.transfer_matrix_kernel.gflop_computed"] = float(
            (2.0 * n ** 3 * (slices - 1.0)).sum() / 1e9)
        return out
