"""Every function the benchmark's span recorder patches still exists.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs of ``basiq`` and
only notes a missing one as "not observed" in a traced run; here a
deleted or renamed target fails the suite instead.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_targets():
    """The ``(module, attribute)`` pairs of the ``TARGETS`` tuple, read from source."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(ast.literal_eval(e.elts[0]), ast.literal_eval(e.elts[1]))
                    for e in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_traced_targets_resolve():
    targets = traced_targets()
    assert len(targets) >= 18
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
