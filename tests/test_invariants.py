"""The two invariants of the package, read from its source.

(a) The two Bessel routes stay apart: the closed-form modules, every module
    of the package but ``oracles``, ``cli`` and ``__init__``, import nothing
    from scipy or from ``coneqm.oracles``, and the oracles import nothing
    from ``coneqm.specfun`` or ``coneqm.propagator``.
(b) The transfer matrix never receives nu(m, sigma): no function that
    ``transfer_matrix_kernel`` reaches names one of the functions that
    compute an effective order.  Likewise the eigensolver's refined-grid
    brackets come only from its own solves: no function that
    ``_report_levels`` reaches names an effective order or the analytic
    energy.  A function is reached when a reached body uses its name, called
    or passed as an argument, in its own module or through the package's
    relative imports; the walk starts at the two roots in ``oracles``.

Every import statement counts, at module level or inside a function.  The
run-time half of (a) runs the closed-form subcommands in a fresh interpreter
and finds no scipy module loaded, then verify's spectrum suite, which loads
none either, and every suite of verify, which loads scipy.special and no
scipy.linalg module.
"""

import ast
import json
import os
import subprocess
import sys
import weakref

import pytest

import coneqm

SOURCE = os.path.dirname(os.path.abspath(coneqm.__file__))

CLOSED_FORM = sorted(
    name[:-3] for name in os.listdir(SOURCE)
    if name.endswith(".py") and name[:-3] not in ("oracles", "cli",
                                                  "__init__"))
TRANSFER_ROOT = "transfer_matrix_kernel"
BRACKET_ROOT = "_report_levels"
# marginal is OscillatorModel's test of nu(0) == 0; _bessel_order is the
# order's one expression, _coupled_c and the model's _c its coefficient
ORDER_NAMES = {"nu", "coupled_index_nu", "podolsky_index", "_quarter_plus_c",
               "_regular_exponent", "marginal", "_bessel_order", "_coupled_c",
               "_c"}
CLOSED_FORM_NAMES = {"energy", "nu", "coupled_index_nu", "podolsky_index",
                     "marginal", "_bessel_order", "_coupled_c", "_c"}


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


def names_in(body):
    """Every name and attribute that a function body uses."""
    return {node.id for node in ast.walk(body) if isinstance(node, ast.Name)} \
        | {node.attr for node in ast.walk(body)
           if isinstance(node, ast.Attribute)}


def functions(module, trees):
    """{name: body} of module's module-level functions.  trees caches the
    parsed modules, and a test may seed it with an edited one."""
    if module not in trees:
        trees[module] = parse(module)
    return {node.name: node for node in trees[module].body
            if isinstance(node, ast.FunctionDef)}


# each parsed tree's relative imports, built on its first lookup
_IMPORTS = weakref.WeakKeyDictionary()


def relative_imports(tree):
    """{bound name: (source module or None, imported name)} of tree's
    relative imports, the first binding of each name in ast.walk's order."""
    if tree not in _IMPORTS:
        found = _IMPORTS[tree] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    found.setdefault(alias.asname or alias.name,
                                     (node.module, alias.name))
    return _IMPORTS[tree]


def resolve(module, name, trees):
    """What name means at the top of module: (module, function) for a
    module-level function, followed through the package's relative imports;
    a module name for a package module; None for anything else."""
    if name in functions(module, trees):
        return module, name
    imports = relative_imports(trees[module])
    if name not in imports:
        return None
    source, imported = imports[name]
    if source:
        return resolve(source, imported, trees)
    return imported                         # from . import <module>


def reached(root, trees):
    """{(module, function): body} of oracles.<root> and of every function
    that a body already reached names, or names as an attribute of a package
    module."""
    found = {}
    todo = [("oracles", root)]
    while todo:
        module, function = todo.pop()
        if (module, function) in found:
            continue
        body = found[module, function] = functions(module, trees)[function]
        for node in ast.walk(body):
            target = None
            if isinstance(node, ast.Name):
                target = resolve(module, node.id, trees)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                inner = resolve(module, node.value.id, trees)
                if isinstance(inner, str):          # <module>.<name>
                    target = resolve(inner, node.attr, trees)
            if isinstance(target, tuple):
                todo.append(target)
    return found


def violations(root, forbidden, trees):
    """{"module.function": forbidden names it uses} over what root reaches."""
    return {f"{module}.{function}": sorted(names_in(body) & forbidden)
            for (module, function), body in reached(root, trees).items()
            if names_in(body) & forbidden}


def _id(key):
    # a function of oracles, where both roots live, by its bare name
    module, function = key
    return function if module == "oracles" else f"{module}.{function}"


TRANSFER = reached(TRANSFER_ROOT, {})
BRACKETS = reached(BRACKET_ROOT, {})


@pytest.mark.parametrize("function", sorted(TRANSFER), ids=_id)
def test_transfer_matrix_never_names_an_effective_order(function):
    assert sorted(names_in(TRANSFER[function]) & ORDER_NAMES) == []


@pytest.mark.parametrize("function", sorted(BRACKETS), ids=_id)
def test_bracketed_solve_never_names_the_closed_form(function):
    assert sorted(names_in(BRACKETS[function]) & CLOSED_FORM_NAMES) == []


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
    report = functions("oracles", {})["spectrum_match_report"]
    assert names_in(report) & CLOSED_FORM_NAMES == {
        "energy", "nu", "podolsky_index"}


def planted(caller, helper):
    """A parsed copy of oracles with helper, the source of one function of
    model, added and called first thing in caller; the file is untouched."""
    tree = parse("oracles")
    definition = ast.parse(helper).body[0]
    tree.body.append(definition)
    trees = {"oracles": tree}
    functions("oracles", trees)[caller].body.insert(
        0, ast.parse(f"{definition.name}(model)").body[0])
    return trees


def test_the_transfer_check_follows_calls_to_a_planted_order():
    assert violations(TRANSFER_ROOT, ORDER_NAMES, {}) == {}
    trees = planted("_pooled_product",
                    "def _planted(model):\n    return model.nu(1)\n")
    assert violations(TRANSFER_ROOT, ORDER_NAMES, trees) == {
        "oracles._planted": ["nu"]}
    # and into a function named as an attribute of a package module
    trees = planted("_bessel_band",
                    "def _planted(model):\n"
                    "    from . import spectrum\n"
                    "    return spectrum.energy(model, None)\n")
    assert violations(TRANSFER_ROOT, ORDER_NAMES, trees) == {
        "spectrum.energy": ["nu"]}


def test_the_bracket_check_follows_calls_to_a_planted_energy():
    assert violations(BRACKET_ROOT, CLOSED_FORM_NAMES, {}) == {}
    trees = planted("_solve_brackets",
                    "def _planted(model):\n"
                    "    return energy(model, QuantumNumbers(0, 1))\n")
    found = violations(BRACKET_ROOT, CLOSED_FORM_NAMES, trees)
    assert found.pop("oracles._planted") == ["energy"]
    # the walk follows the import into the analytic energy, which reads nu
    assert found == {"spectrum.energy": ["nu"]}


# Loaded scipy modules after `import coneqm` and after each subcommand, run
# one after the other through cli.main in one fresh interpreter; verify's
# spectrum suite runs next to last, and every suite of verify last.
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
             ["verify", "--suite", "spectrum"], ["verify"]):
    found[" ".join(argv[:3])] = [main(argv + ["--output", os.devnull]),
                                 loaded()]
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
    # the spectrum oracle takes dstebz from numpy's OpenBLAS: no scipy
    assert found.pop("verify --suite spectrum") == [0, []]
    # every suite: scipy.special for AMOS, and no scipy.linalg module
    code, verify_loaded = found.pop("verify")
    assert found == {name: [0, []] for name in
                     ("convert --sigma 0.5", "spectrum --e-max 10",
                      "wavefunction --n 1", "kernel --r1 1")}
    assert code == 0 and "scipy.special" in verify_loaded
    assert [m for m in verify_loaded if m.startswith("scipy.linalg")] == []
