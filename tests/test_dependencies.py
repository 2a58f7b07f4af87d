"""The package imports nothing but numpy and the standard library, its
sources parse under the declared Python floor, a cold import builds no
CLI parser, its public functions all have a caller outside the tests,
one function of ``fileformats`` decodes text lines, and its value types
are checked tuples rather than generated classes, whose configs write as
JSON."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from basiq.coattention import AttentionParameters
from basiq.dictionary import Dictionary
from basiq.errors import InvalidInputError, ShapeError
from basiq.policy import ConcatenationPolicy
from basiq.solver import LassoConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "basiq").glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_imports_are_numpy_or_stdlib():
    assert SOURCES
    foreign = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
    }
    assert not foreign


def test_sources_parse_as_python_3_10():
    # pyproject.toml and the README declare Python 3.10 as the floor.
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_import_loads_its_modules_and_no_dataclasses():
    # A fresh process: what `import basiq` loads is what every CLI stage pays
    # for, so its cost may be cut but not moved into a later import.
    code = ("import basiq, sys; print('dataclasses' in sys.modules); "
            "print(sorted(k[6:] for k in sys.modules if k.startswith('basiq.')))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.splitlines()
    assert out == ["False", str(["coattention", "dictionary", "errors", "fileformats",
                                 "generator", "immutable", "policy", "solver", "vqa_metric"])]


def test_import_builds_no_argument_parser():
    # A fresh process: the CLI's parser is built on the first ``main`` call,
    # once, so a cold import does not pay for it.
    code = ("import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k): built.append(1); init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import basiq, basiq.cli; print(len(built))\n"
            "for _ in range(2): basiq.cli.main(['stats']); print(len(built))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out[0] == "0" and out[1] == out[2] != "0"


def _uses(path):
    """The names the code of ``path`` uses: loaded names, attributes, and the
    last dotted part of each string constant (a tracer patches by name)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rpartition(".")[2]


def test_every_fileformats_function_has_a_caller():
    # Code only the tests use belongs in the tests: each public module-level
    # function of the package is used, not only defined or imported, in the
    # package, the benchmark or a demo.  ``synthetic`` is left out: its
    # functions make the inputs of the demos and the acceptance tests, so
    # tests are among the callers it exists for.
    modules = [importlib.import_module(f"basiq.{path.stem}") for path in SOURCES
               if path.stem not in ("__init__", "synthetic")]
    public = {f"{module.__name__}.{name}" for module in modules
              for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_")}
    callers = SOURCES + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = {name for path in callers for name in _uses(path)}
    assert {"basiq.fileformats.load_embeddings", "basiq.solver.solve_lasso"} <= public
    assert sorted(name for name in public if name.rpartition(".")[2] not in used) == []


def test_fileformats_decodes_text_lines_in_one_place():
    # Every text input reads its lines through ``_lines``; apart from it,
    # only ``_read_strings`` decodes, the ids and texts of the binary layout.
    tree = ast.parse((SRC / "basiq" / "fileformats.py").read_text(encoding="utf-8"))
    decoding = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "decode"}
    assert decoding == {"_lines", "_read_strings"}


def _dictionary():
    return Dictionary(np.eye(3), ("a", "b", "c"), ("a?", "b?", "c?"))


def _parameters():
    return AttentionParameters(np.zeros((3, 4)), np.zeros((3, 2)), np.zeros(3))


@pytest.mark.parametrize("make, change, error, message", [
    (LassoConfig, {"tol": -1}, InvalidInputError, "tol must be positive"),
    (ConcatenationPolicy, {"s1": 2}, InvalidInputError, "s1=2 outside [0, 1]"),
    (_dictionary, {"ids": ("a", "a", "c")}, InvalidInputError, "ids must be unique"),
    (_parameters, {"w_g": np.zeros((2, 2))}, ShapeError,
     "w_g has 2 rows, expected 3 to match w_x"),
], ids=["LassoConfig", "ConcatenationPolicy", "Dictionary", "AttentionParameters"])
def test_value_types_replace_through_their_checks(make, change, error, message):
    value = make()
    with pytest.raises(error) as info:
        value._replace(**change)
    assert str(info.value) == message
    [name] = change
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))


@pytest.mark.parametrize("config, fields", [
    (LassoConfig.absolute(np.float32(0.5), tol=np.float32(0.25), max_sweeps=np.int64(7)),
     {"lambda_abs": 0.5, "lambda_rel": None, "tol": 0.25, "max_sweeps": 7}),
    (LassoConfig.relative(np.int64(1), tol=np.float64(1e-6)),
     {"lambda_abs": None, "lambda_rel": 1.0, "tol": 1e-6, "max_sweeps": 1000}),
    (ConcatenationPolicy(np.float32(0.5), np.int64(1), np.float64(0.25)),
     {"s1": 0.5, "s2": 1.0, "s3": 0.25}),
], ids=["LassoConfig.absolute", "LassoConfig.relative", "ConcatenationPolicy"])
def test_configs_from_numpy_scalars_serialize(config, fields):
    # A manifest writes ``_asdict()``: numpy scalars are stored as Python numbers.
    assert json.dumps(config._asdict()) == json.dumps(fields)
    assert all(type(v) in (float, int, type(None)) for v in config)
