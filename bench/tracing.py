"""Outside-in span recorder for the traced benchmark run.

The recorder replaces public functions of ``basiq`` with wrappers that
record one span per call: name, start, end, parent span and the step
(request) it belongs to, plus a few counts read from the arguments or
the result after the span has ended.  The program itself is unchanged;
the CLI and the generator look these names up as module attributes, so
patching the attribute the caller uses is enough (for example
``basiq.generator.solve_lasso``, which makes solve spans nest under
``generator.generate_batch`` spans).  Untraced runs never call
``install``.

Spans are kept in flat lists in memory and written out once, at the end.
"""

import importlib
import json
import os
from time import perf_counter

import numpy as np

from checks import certificate_problems, lasso_certificate


def _solve_attrs(args, kwargs, sol):
    d, b = args[0], args[1]
    config = args[2] if len(args) > 2 else kwargs.get("config")
    a = getattr(d, "matrix", d)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lam = config.resolve_lambda(float(np.max(np.abs(a.T @ b))))
    gap, kkt = lasso_certificate(a, b, lam, sol.coefficients)
    failures, contradictions = certificate_problems(
        sol.converged, sol.duality_gap, gap, kkt, config.tol)
    return {
        "sweeps": sol.sweeps_used, "duality_gap": sol.duality_gap,
        "converged": bool(sol.converged), "nnz": int(np.count_nonzero(sol.coefficients)),
        "gap_indep": gap, "kkt": kkt, "max_sweeps": config.max_sweeps,
        "certified": not failures, "contradictions": contradictions,
    }


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("basiq.cli", "main", "cli.main", lambda a, k, r: {"command": a[0][0], "exit": r}),
    ("basiq.cli", "load_embeddings", "fileformats.load_embeddings",
     lambda a, k, r: {"bytes": os.path.getsize(a[0]), "records": len(r)}),
    ("basiq.fileformats", "write_jsonl", "fileformats.write_jsonl",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("basiq.cli", "build_dictionary", "dictionary.build_dictionary",
     lambda a, k, r: {"columns": r.n_columns, "dropped": len(a[0]) - r.n_columns,
                      "matrix_bytes": r.matrix.nbytes}),
    ("basiq.cli", "save_dictionary_cache", "dictionary.save_dictionary_cache",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("basiq.cli", "load_dictionary_cache", "dictionary.load_dictionary_cache", None),
    ("basiq.dictionary", "load_dictionary_cache", "dictionary.load_dictionary_cache", None),
    ("basiq.cli", "generate_batch", "generator.generate_batch",
     lambda a, k, r: {"records": len(r.records), "errors": len(r.diagnostics.errors),
                      "clamped": r.diagnostics.clamped}),
    ("basiq.generator", "solve_lasso", "solver.solve_lasso", _solve_attrs),
    ("basiq.solver", "solve_lasso", "solver.solve_lasso", _solve_attrs),
    ("basiq.cli", "read_bqd", "generator.read_bqd", lambda a, k, r: {"records": len(r)}),
    ("basiq.cli", "decide_appends", "policy.decide_appends", None),
    ("basiq.cli", "concatenate", "policy.concatenate", None),
    ("basiq.cli", "score_statistics", "policy.score_statistics", None),
    ("basiq.cli", "threshold_candidates", "policy.threshold_candidates", None),
    ("basiq.cli", "partition_counts", "policy.partition_counts",
     lambda a, k, r: {"by_appends": list(r.by_appends)}),
    ("basiq.cli", "load_answer_records", "vqa_metric.load_answer_records", None),
    ("basiq.cli", "evaluate", "vqa_metric.evaluate", lambda a, k, r: {"questions": r.n}),
)


class Tracer:
    """Flat in-memory span store; one instance per traced pass."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spent = 0.0    # seconds spent reading attributes, kept out of spans
        self.names, self.parents, self.steps = [], [], []
        self.starts, self.ends = [], []
        self.attrs = {}
        self.step = -1
        self.missing = set()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.steps.append(self.step)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            t0 = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.now()
                self._stack.pop()
                self.starts[idx] = t0
                self.ends[idx] = t1
            if attrs is not None:
                a0 = self.clock()
                self.attrs[idx] = attrs(args, kwargs, result)
                self.spent += self.clock() - a0
            return result

        return wrapper

    def now(self):
        """The span clock: it stands still while attributes are read, so
        the certificate recomputed for each solve is not charged to the
        spans that enclose it."""
        return self.clock() - self.spent

    def install(self):
        """Patch every target; a missing one is noted, not fatal."""
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, attrs))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def duration(self, i):
        return self.ends[i] - self.starts[i]

    def self_time(self, i, children):
        """Span duration minus the part its direct children cover."""
        return self.duration(i) - sum(self.duration(c) for c in children.get(i, ()))

    def children(self):
        out = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                out.setdefault(p, []).append(i)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i], "step": self.steps[i],
                    "start": self.starts[i], "end": self.ends[i],
                    "attrs": self.attrs.get(i, {}),
                }, default=str) + "\n")
