"""The two invariants of the package, read from its source.

(a) The two Bessel routes stay apart: the closed-form modules import nothing
    from scipy or from ``coneqm.oracles``, and the oracles import nothing
    from ``coneqm.specfun`` or ``coneqm.propagator``.
(b) The transfer matrix never receives nu(m, sigma): the bodies that build
    and compose its short-time kernels name none of the functions that
    compute an effective order.  Likewise the eigensolver's refined-grid
    brackets come only from its own solves: the bodies that form and
    bisect them name neither an effective order nor the analytic energy.

Every import statement counts, at module level or inside a function.  The
run-time half of (a) runs the closed-form subcommands in a fresh interpreter
and finds no scipy module loaded.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import coneqm

SOURCE = os.path.dirname(os.path.abspath(coneqm.__file__))

CLOSED_FORM = ("geometry", "grids", "specfun", "spectrum", "propagator")
TRANSFER_BODIES = ("_short_time_matrix", "_bessel_band", "_pooled_product",
                   "transfer_matrix_kernel")
ORDER_NAMES = {"nu", "coupled_index_nu", "podolsky_index", "_quarter_plus_c",
               "_regular_exponent"}
BRACKET_BODIES = ("_report_levels", "_level_gaps", "_eigen_near",
                  "_submit_near", "_collect_near", "_solve_brackets",
                  "_stebz")
CLOSED_FORM_NAMES = {"energy", "nu", "coupled_index_nu", "podolsky_index"}


def parse(module):
    with open(os.path.join(SOURCE, module + ".py")) as f:
        return ast.parse(f.read())


def imported_modules(tree):
    """Absolute names of every module an import statement in tree reaches;
    ``from X import y`` counts both X and X.y, as y may be a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "coneqm" + ("." + base if base else "")
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def reaches(names, package):
    return sorted(n for n in names
                  if n == package or n.startswith(package + "."))


@pytest.mark.parametrize("module", CLOSED_FORM)
def test_closed_form_modules_import_no_scipy_and_no_oracle(module):
    names = imported_modules(parse(module))
    assert reaches(names, "scipy") == []
    assert reaches(names, "coneqm.oracles") == []


def test_oracles_import_no_closed_form_kernel_code():
    names = imported_modules(parse("oracles"))
    assert reaches(names, "coneqm.specfun") == []
    assert reaches(names, "coneqm.propagator") == []


def names_in(function):
    """Every name and attribute that the body of oracles.<function> uses."""
    bodies = [node for node in ast.walk(parse("oracles"))
              if isinstance(node, ast.FunctionDef) and node.name == function]
    assert len(bodies) == 1
    named = {node.id for node in ast.walk(bodies[0])
             if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(bodies[0])
              if isinstance(node, ast.Attribute)}
    return named


@pytest.mark.parametrize("function", TRANSFER_BODIES)
def test_transfer_matrix_never_names_an_effective_order(function):
    assert sorted(names_in(function) & ORDER_NAMES) == []


@pytest.mark.parametrize("function", BRACKET_BODIES)
def test_bracketed_solve_never_names_the_closed_form(function):
    assert sorted(names_in(function) & CLOSED_FORM_NAMES) == []


def test_the_checks_see_an_import_and_an_order():
    # each check rejects a line that breaks its invariant
    tree = ast.parse("from scipy.special import ive\n"
                     "from . import oracles\n"
                     "def f(model):\n"
                     "    from .specfun import bessel_i_scaled\n"
                     "    return model.nu(1)\n")
    names = imported_modules(tree)
    assert reaches(names, "scipy") == ["scipy.special", "scipy.special.ive"]
    assert reaches(names, "coneqm.oracles") == ["coneqm.oracles"]
    assert reaches(names, "coneqm.specfun") == [
        "coneqm.specfun", "coneqm.specfun.bessel_i_scaled"]
    assert {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)} & ORDER_NAMES == {"nu"}


def test_the_bracket_check_sees_the_closed_form():
    # the report itself names the analytic ladder it compares against
    assert names_in("spectrum_match_report") & CLOSED_FORM_NAMES == {
        "energy", "nu", "podolsky_index"}


# Loaded scipy modules after `import coneqm` and after each subcommand, run
# one after the other through cli.main in one fresh interpreter; verify's
# spectrum suite runs last.
_RUN_COMMANDS = """
import json, os, sys
loaded = lambda: sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))
import coneqm
from coneqm.cli import main
found = {"import coneqm": loaded()}
for argv in (["convert", "--sigma", "0.5"], ["spectrum", "--e-max", "10"],
             ["wavefunction", "--n", "1", "--m", "0"],
             ["kernel", "--r1", "1", "--r2", "1.2", "--beta", "0.8"],
             ["verify", "--suite", "spectrum"]):
    found[argv[0]] = [main(argv + ["--output", os.devnull]), loaded()]
print(json.dumps(found))
"""


def test_closed_form_subcommands_load_no_scipy():
    done = subprocess.run([sys.executable, "-c", _RUN_COMMANDS],
                          env=dict(os.environ,
                                   PYTHONPATH=os.path.dirname(SOURCE)),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found.pop("import coneqm") == []
    code, verify_loaded = found.pop("verify")
    assert found == {name: [0, []] for name in
                     ("convert", "spectrum", "wavefunction", "kernel")}
    # the spectrum oracle loads scipy's LAPACK at its first solve
    assert code == 0 and "scipy.linalg.cython_lapack" in verify_loaded
