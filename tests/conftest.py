"""Shared builders for solver and dictionary tests."""

import numpy as np
import pytest

from basiq.dictionary import build_dictionary
from basiq.encoder import QuestionRecord

# verdict lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def unit_columns(rng, dim, n):
    """Random dense matrix with unit-L2 columns, column-major."""
    a = rng.standard_normal((dim, n))
    a /= np.linalg.norm(a, axis=0)
    return np.asfortranarray(a)


def near_duplicate_pairs(seed):
    """An 8x16 unit-column design whose columns 2k and 2k+1 differ by about
    1e-8, and a Gaussian query.  At ``lambda_rel = 1e-3`` seed 116 (signed)
    and seed 127 (nonnegative) reach a singular active Gram matrix."""
    rng = np.random.default_rng(seed)
    a = unit_columns(rng, 8, 16)
    a[:, 1::2] = a[:, ::2] + 1e-8 * rng.standard_normal((8, 8)).T
    a /= np.linalg.norm(a, axis=0)
    return a, rng.standard_normal(8)


def question_records(vectors, prefix="q"):
    """Wrap columns as records with distinct ids and texts."""
    return [
        QuestionRecord(id=f"{prefix}{j:04d}", text=f"is item {j} visible in frame {prefix}?",
                       vector=np.asarray(col))
        for j, col in enumerate(np.asarray(vectors).T)
    ]


def orthogonal_dictionary(dim, n, seed=0):
    """Dictionary whose columns are mutually orthogonal (n <= dim)."""
    assert n <= dim
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return build_dictionary(question_records(q[:, :n]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
