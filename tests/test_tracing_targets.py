"""The benchmark tracer's targets all exist on the program.

``bench/tracing.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with ``getattr``/``setattr``, so deleting a traced name from the program
breaks ``bench/run.py --trace 1``.  The tracer is loaded read-only from its
file; nothing is installed.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, *_ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
