"""The benchmark tracer's targets all exist on the program, and the tracer
still runs on it.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with ``getattr``/``setattr``, so deleting a traced name from the program
breaks ``bench/run.py --trace 1``, and so does a change to an argument that
one of its readers takes apart.  An import that the program keeps only for
the tracer (``# noqa: F401``) names one of its targets.  The tracer is
loaded read-only from its file.
"""

import ast
import importlib
import importlib.util
import math
import os

import numpy as np

import coneqm
from coneqm import cli, oracles
from coneqm.geometry import ConeGeometry, PhysicalConstants
from coneqm.grids import RadialGrid
from coneqm.oracles import CurvatureTermMode
from coneqm.spectrum import OscillatorModel

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_every_kept_import_is_a_tracer_target():
    # once the tracer drops a target, this names the import to delete
    targets = {(module, attr) for module, attr, *_ in _load_tracing().TARGETS}
    package = os.path.dirname(os.path.abspath(coneqm.__file__))
    kept = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            source = f.read()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                kept += [(f"coneqm.{name[:-3]}", alias.asname or alias.name)
                         for alias in node.names]
    assert [entry for entry in kept if entry not in targets] == []


def _traced_entries(capsys):
    # one small call through each entry the benchmark workloads trace, each
    # looked up on its module at call time as the wrappers require
    model = OscillatorModel(geom=ConeGeometry(0.5),
                            consts=PhysicalConstants(), omega=1.0, kappa=1.0)
    out = []
    for argv in (["kernel", "--r1", "1", "--r2", "1.2", "--beta", "0.8"],
                 ["verify", "--suite", "recombination"]):
        code = cli.main(argv)
        out.append((code, capsys.readouterr().out))
    out.append(oracles.spectrum_match_report(
        model, 1, CurvatureTermMode.JENSEN_KOPPE,
        RadialGrid(1e-3, 8.0, 200), k=2))
    out.append(oracles.transfer_matrix_kernel(
        model, 1, RadialGrid(1e-3, 6.0, 100), 1.0, 4).values)
    return out


def test_tracer_runs_on_the_program(capsys):
    tracing = _load_tracing()
    originals = []
    for module_name, attr, *_ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        originals.append((module, attr, getattr(module, attr)))
    untraced = _traced_entries(capsys)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = _traced_entries(capsys)
    finally:
        tracer.uninstall()
    assert [(m.__name__, a) for m, a, fn in originals
            if getattr(m, a) is not fn] == []
    *rest, matrix = traced
    assert rest == untraced[:-1]
    assert np.array_equal(matrix, untraced[-1])
    metrics = tracer.layer_metrics()
    assert metrics["cli.main.calls"] == 2
    assert metrics["oracles.transfer_matrix_kernel.calls"] == 1
    assert [k for k, v in metrics.items() if not math.isfinite(v)] == []
