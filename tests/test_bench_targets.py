"""Every function the benchmark's span recorder patches still exists and
is recorded on a real run.

``bench/tracing.py`` wraps ``(module, attribute)`` pairs of ``basiq`` and
only notes a missing one as "not observed" in a traced run; here a
deleted or renamed target, or an attribute reader that breaks on what its
target returns, fails the suite instead.
"""

import ast
import importlib
import json
from importlib import resources
from pathlib import Path

import numpy as np

import basiq.generator
from basiq import cli
from basiq.solver import DEFAULT_TOL

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def test_tracer_records_every_target_on_a_real_run(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))  # tracing imports bench/checks.py as ``checks``
    tracing = importlib.import_module("tracing")
    data = resources.files("basiq") / "data"
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    pred.write_text(json.dumps({"question_id": "q1", "answer": "red"}) + "\n", encoding="utf-8")
    anno.write_text(json.dumps({"question_id": "q1", "answers": ["red"]}) + "\n", encoding="utf-8")
    bqd = tmp_path / "bq.jsonl"
    steps = [
        ["build-dict", data / "mini_corpus.txt", "--out", tmp_path / "dict.bin"],
        ["gen-bq", "--dict", tmp_path / "dict.bin", "--queries", data / "mini_queries.txt",
         "--out", bqd],
        ["concat", "--bqd", bqd, "--out", tmp_path / "joined.jsonl"],
        ["stats", "--bqd", bqd, "--candidates"],
        ["partition", "--bqd", bqd],
        ["eval", "--predictions", pred, "--annotations", anno],
    ]
    # The recorder recomputes each solve's certificate from
    # ``getattr(d, "matrix", d)``; that must be the float64 matrix, never
    # the float32 search copy, or the check would not be independent.
    certified_from = []
    solve = basiq.generator.solve_lasso

    def spy(d, *args, **kwargs):
        certified_from.append(getattr(d, "matrix", d).dtype)
        return solve(d, *args, **kwargs)

    monkeypatch.setattr(basiq.generator, "solve_lasso", spy)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Through the module attribute, so the patched ``cli.main`` is the one called.
        codes = [cli.main([str(a) for a in step]) for step in steps]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(steps)
    expected = {name for _, _, name, _ in tracing.TARGETS}
    assert sorted(expected - set(tracer.names)) == []
    assert tracer.missing == set()
    gaps = [tracer.attrs[i]["gap_indep"] for i, name in enumerate(tracer.names)
            if name == "solver.solve_lasso"]
    assert len(gaps) == len(certified_from) > 0
    assert set(certified_from) == {np.dtype(np.float64)}
    assert max(gaps) <= DEFAULT_TOL
