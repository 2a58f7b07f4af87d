"""Turning a sparse solve into ranked supporting questions and output records.

Each query is solved against the dictionary, the coefficients are ranked
by signed value, and the top k (default 3) become scored supporting
questions.  A record always carries exactly three entries, padded with
zero-score placeholders drawn from the smallest unused column indices
when fewer than three coefficients are positive; a zero score never
passes any concatenation threshold, so padding is inert downstream.

Scores are the raw coefficients clamped into [0, 1]; clamping events are
counted and surfaced in batch diagnostics rather than hidden.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import fileformats
from .errors import BasiqError, InvalidInputError, ParseError
from .solver import LassoConfig, solve_lasso

SCORE_DECIMALS = 6


@dataclass(frozen=True)
class ScoredBasicQuestion:
    """One retrieved question with its similarity score and source column."""

    text: str
    score: float
    column_index: int

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score {self.score!r} outside [0, 1]")


@dataclass(frozen=True)
class BqdRecord:
    """{image id, query text, exactly 3 scored supporting questions}."""

    image_id: str
    mq_text: str
    basic_questions: tuple

    def __post_init__(self):
        bqs = tuple(self.basic_questions)
        if len(bqs) != 3:
            raise InvalidInputError(f"expected exactly 3 supporting questions, got {len(bqs)}")
        scores = [bq.score for bq in bqs]
        if not (scores[0] >= scores[1] >= scores[2]):
            raise InvalidInputError(f"scores must be nonincreasing, got {scores}")
        if not self.image_id:
            raise InvalidInputError("image_id must be nonempty")
        if not self.mq_text.strip():
            raise InvalidInputError("mq_text must be nonempty")
        object.__setattr__(self, "basic_questions", bqs)

    @property
    def scores(self):
        return tuple(bq.score for bq in self.basic_questions)


@dataclass
class GenerationDiagnostics:
    """Counters surfaced alongside batch output."""

    clamped: int = 0
    errors: list = field(default_factory=list)


@dataclass(frozen=True)
class BatchResult:
    records: tuple
    diagnostics: GenerationDiagnostics


def generate_basic_questions(d, mq, k=3, config=None, exclude_text=None):
    """Solve for the query and return the k best-scoring dictionary questions.

    Coefficients are ranked in descending signed value with ties broken
    by ascending column index; only positive coefficients are eligible.
    If fewer than k are positive, the remainder are zero-score entries
    taken from the smallest-index columns not already used.  With
    ``exclude_text`` set, columns whose text equals it are skipped
    entirely (self-match exclusion).
    """
    return _ranked_entries(d, mq, k, config, exclude_text)[0]


def _ranked_entries(d, mq, k, config, exclude_text):
    """``generate_basic_questions`` plus how many of its scores were clamped to 1."""
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if d.n_columns < k:
        raise InvalidInputError(
            f"dictionary has {d.n_columns} columns, cannot return {k} distinct questions"
        )
    if config is None:
        config = LassoConfig()
    solution = solve_lasso(d, mq, config)
    coef = solution.coefficients

    if exclude_text is None:
        excluded = frozenset()
    else:
        excluded = frozenset(j for j, text in enumerate(d.texts) if text == exclude_text)
    if d.n_columns - len(excluded) < k:
        raise InvalidInputError("exclusion leaves fewer columns than requested questions")

    order = np.argsort(-coef, kind="stable")
    entries = []
    used = set()
    clamped = 0
    for j in order:
        if len(entries) == k:
            break
        j = int(j)
        if coef[j] <= 0.0:
            break
        if j in excluded:
            continue
        score = float(coef[j])
        if score > 1.0:
            score = 1.0
            clamped += 1
        entries.append(ScoredBasicQuestion(text=d.texts[j], score=score, column_index=j))
        used.add(j)
    pad_j = 0
    while len(entries) < k:
        if pad_j in used or pad_j in excluded:
            pad_j += 1
            continue
        entries.append(ScoredBasicQuestion(text=d.texts[pad_j], score=0.0, column_index=pad_j))
        pad_j += 1
    return entries, clamped


def emit_bqd_record(image_id, mq_text, bqs):
    """Validate and assemble one output record from 3 sorted entries."""
    bqs = list(bqs)
    if len(bqs) != 3:
        raise InvalidInputError(f"expected 3 supporting questions, got {len(bqs)}")
    return BqdRecord(image_id=image_id, mq_text=mq_text, basic_questions=tuple(bqs))


def generate_batch(d, queries, config=None, k=3, exclude_exact=False):
    """Generate one record per (image_id, mq_text, vector) query, in order.

    Per-query failures (any ``BasiqError``) are collected in the
    diagnostics with their ids and the batch continues; any other
    exception is a fault in the program and propagates.
    """
    queries = list(queries)
    if not queries:
        raise InvalidInputError("query batch is empty")
    diagnostics = GenerationDiagnostics()
    records = []
    for image_id, mq_text, vec in queries:
        exclude = mq_text if exclude_exact else None
        try:
            entries, clamped = _ranked_entries(d, vec, k, config, exclude)
            record = emit_bqd_record(image_id, mq_text, entries)
        except BasiqError as exc:
            diagnostics.errors.append((image_id, str(exc)))
        else:
            diagnostics.clamped += clamped
            records.append(record)
    return BatchResult(records=tuple(records), diagnostics=diagnostics)


def record_to_json(record):
    """One output line; scores printed at fixed 6-decimal precision."""
    bq_parts = ", ".join(
        '{"text": %s, "score": %s}'
        % (json.dumps(bq.text, ensure_ascii=False), format(bq.score, f".{SCORE_DECIMALS}f"))
        for bq in record.basic_questions
    )
    return '{"image_id": %s, "mq": %s, "bqs": [%s]}' % (
        json.dumps(record.image_id, ensure_ascii=False),
        json.dumps(record.mq_text, ensure_ascii=False),
        bq_parts,
    )


def record_from_json(line, where="<string>"):
    """Parse one output line back into a record (column indices are not stored)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc}") from None
    try:
        bqs = tuple(
            ScoredBasicQuestion(
                text=_string(bq, "text"), score=_number(bq, "score"), column_index=-1
            )
            for bq in obj["bqs"]
        )
        return BqdRecord(
            image_id=_string(obj, "image_id"), mq_text=_string(obj, "mq"), basic_questions=bqs
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: malformed record: {exc}") from None


def _string(obj, key):
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string, got {type(value).__name__}")
    return value


def _number(obj, key):
    value = obj[key]
    if type(value) not in (int, float):  # a JSON true or false is a bool, not a number
        raise TypeError(f"{key!r} must be a number, got {type(value).__name__}")
    return float(value)


def write_bqd(path, records):
    fileformats.write_jsonl(path, (record_to_json(r) for r in records))


def read_bqd(path):
    return [record_from_json(line, where=f"{path}:{ln}") for ln, line in fileformats.read_jsonl(path)]
