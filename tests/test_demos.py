"""Every demo script, and the README's library-use example, runs to completion
against the package in ``src``, with warnings raised as errors; every demo
the README names exists."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
