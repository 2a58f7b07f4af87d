"""Every demo script, and the README's library-use example, runs to completion
against the package in ``src``, with warnings raised as errors; every demo
and API name the README gives exists."""

import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import basiq

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-W", "error", str(path)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_script(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_use_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "library_use.py"
    script.write_text(snippet, encoding="utf-8")
    proc = run_script(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[0].endswith("question 3?")  # the query's main column


def test_readme_demo_paths_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"demos/[\w.-]+\.py", readme))
    assert named
    assert sorted(p for p in named if not (ROOT / p).is_file()) == []


_NAME_PART = r"(?:[a-z][a-z0-9]*(?:_[a-z0-9]+)+|[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)"


def _resolves(name, modules):
    for module in modules:
        try:
            functools.reduce(getattr, name.split("."), module)
            return True
        except AttributeError:
            pass
    return False


def test_readme_api_names_exist():
    # An inline-code snake_case or CamelCase name, optionally dotted, is an
    # attribute of basiq or of one of its modules; a name README also
    # quotes, such as the JSON key "question_id", is a field, not an API name.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {name for name in re.findall(rf"`({_NAME_PART}(?:\.\w+)*)`", readme)
             if f'"{name}"' not in readme}
    modules = [basiq] + [importlib.import_module(f"basiq.{m.name}")
                         for m in pkgutil.iter_modules(basiq.__path__)]
    assert named
    assert sorted(name for name in named if not _resolves(name, modules)) == []
