"""Turning a sparse solve into ranked supporting questions and output records.

Each query is solved against the dictionary, the coefficients are ranked
by signed value, and the top 3 become scored supporting questions.  A
solve that misses its duality-gap certificate is an error, never a
record.  Scores are the raw coefficients clamped into [0, 1]; clamping
events are counted in the batch diagnostics rather than hidden.

Records (``BqdRecord``) and their questions (``ScoredBasicQuestion``) are
tuples that one constructor each checks, however they are built: three
entries, scores in [0, 1] and nonincreasing.  Fewer than three positive
coefficients are padded with zero-score entries from the smallest unused
column indices; a zero score passes no concatenation threshold.
"""

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring

import numpy as np

from . import fileformats
from .errors import BasiqError, InvalidInputError, ParseError, UncertifiedSolveError
from .immutable import checked_tuple
from .solver import LassoConfig, solve_lasso

SCORE_DECIMALS = 6
BQ_COUNT = 3  # supporting questions per record
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)  # JSONDecodeError is a ValueError


class ScoredBasicQuestion(checked_tuple("ScoredBasicQuestion", "text score column_index")):
    """One retrieved question with its similarity score and source column."""

    __slots__ = ()

    def __new__(cls, text, score, column_index):
        if not 0.0 <= score <= 1.0:
            raise InvalidInputError(f"score {score!r} outside [0, 1]")
        return tuple.__new__(cls, (text, score, column_index))


class BqdRecord(checked_tuple("BqdRecord", "image_id mq_text basic_questions")):
    """{image id, query text, exactly 3 scored supporting questions}."""

    __slots__ = ()

    def __new__(cls, image_id, mq_text, basic_questions):
        bqs = tuple(basic_questions)
        if len(bqs) != BQ_COUNT:
            raise InvalidInputError(f"expected exactly {BQ_COUNT} supporting questions, got {len(bqs)}")
        if not (bqs[0].score >= bqs[1].score >= bqs[2].score):
            raise InvalidInputError(f"scores must be nonincreasing, got {[bq.score for bq in bqs]}")
        if not image_id:
            raise InvalidInputError("image_id must be nonempty")
        if not mq_text.strip():
            raise InvalidInputError("mq_text must be nonempty")
        return tuple.__new__(cls, (image_id, mq_text, bqs))

    @property
    def scores(self):
        return tuple([bq.score for bq in self.basic_questions])


@dataclass
class GenerationDiagnostics:
    """Counters surfaced alongside batch output."""

    clamped: int = 0
    errors: list = field(default_factory=list)


@dataclass(frozen=True)
class BatchResult:
    records: tuple
    diagnostics: GenerationDiagnostics


def generate_basic_questions(d, mq, config=None, exclude_text=None):
    """Solve for the query and return the top 3 dictionary questions.

    Coefficients are ranked in descending signed value with ties broken
    by ascending column index; only positive coefficients are eligible.
    If fewer than 3 are positive, the remainder are zero-score entries
    taken from the smallest-index columns not already used.  With
    ``exclude_text`` set, columns whose text equals it are skipped
    entirely (self-match exclusion).  A solve whose duality gap exceeds
    ``config.tol`` raises ``UncertifiedSolveError``.
    """
    return _ranked_entries(d, mq, config, exclude_text)[0]


def _ranked_entries(d, mq, config, exclude_text):
    """``generate_basic_questions`` plus how many of its scores were clamped to 1."""
    if d.n_columns < BQ_COUNT:
        raise InvalidInputError(
            f"dictionary has {d.n_columns} columns, cannot return {BQ_COUNT} distinct questions"
        )
    if config is None:
        config = LassoConfig()
    solution = solve_lasso(d, mq, config)
    if not solution.converged:
        raise UncertifiedSolveError(
            f"solve not certified: duality gap {solution.duality_gap!r} > tol {config.tol!r} "
            f"after {solution.sweeps_used} path steps"
        )
    coef = solution.coefficients

    if exclude_text is None:
        excluded = frozenset()
    else:
        excluded = frozenset(j for j, text in enumerate(d.texts) if text == exclude_text)
    if d.n_columns - len(excluded) < BQ_COUNT:
        raise InvalidInputError("exclusion leaves fewer columns than requested questions")

    order = np.argsort(-coef, kind="stable")
    entries = []
    clamped = 0
    for j in order:
        if len(entries) == BQ_COUNT:
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
    used = {bq.column_index for bq in entries}
    pad_j = 0
    while len(entries) < BQ_COUNT:
        if pad_j not in used and pad_j not in excluded:
            entries.append(ScoredBasicQuestion(text=d.texts[pad_j], score=0.0, column_index=pad_j))
        pad_j += 1
    return entries, clamped


def generate_batch(d, queries, config=None, exclude_exact=False):
    """Generate one record per (image_id, mq_text, vector) query, in order.

    Per-query failures (any ``BasiqError``, an uncertified solve
    included) are collected in the diagnostics with their ids and the
    batch continues; any other exception is a fault in the program and
    propagates.
    """
    queries = list(queries)
    if not queries:
        raise InvalidInputError("query batch is empty")
    diagnostics = GenerationDiagnostics()
    records = []
    for image_id, mq_text, vec in queries:
        exclude = mq_text if exclude_exact else None
        try:
            entries, clamped = _ranked_entries(d, vec, config, exclude)
            record = BqdRecord(image_id, mq_text, entries)
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
        % (encode_basestring(bq.text), format(bq.score, f".{SCORE_DECIMALS}f"))
        for bq in record.basic_questions
    )
    return '{"image_id": %s, "mq": %s, "bqs": [%s]}' % (
        encode_basestring(record.image_id), encode_basestring(record.mq_text), bq_parts)


def record_from_json(line, where="<string>"):
    """Parse one output line back into a record (column indices are not stored)."""
    try:
        return _parse_record(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {exc}") from None
    except _MALFORMED as exc:
        raise ParseError(f"{where}: malformed record: {exc}") from None


def _parse_record(line):
    # Each field is read, then type-checked, in this order; a JSON true or false is not a number.
    obj = fileformats.decode_json_line(line)
    bqs = []
    for bq in obj["bqs"]:
        if type(text := bq["text"]) is not str:
            raise TypeError(f"'text' must be a string, got {type(text).__name__}")
        if type(score := bq["score"]) is not float and type(score) is not int:
            raise TypeError(f"'score' must be a number, got {type(score).__name__}")
        bqs.append(ScoredBasicQuestion(text, float(score), -1))
    if type(image_id := obj["image_id"]) is not str:
        raise TypeError(f"'image_id' must be a string, got {type(image_id).__name__}")
    if type(mq := obj["mq"]) is not str:
        raise TypeError(f"'mq' must be a string, got {type(mq).__name__}")
    return BqdRecord(image_id, mq, bqs)


def write_bqd(path, records):
    fileformats.write_jsonl(path, (record_to_json(r) for r in records))


def read_bqd(path):
    records = []
    for ln, line in fileformats.read_jsonl(path):
        try:
            records.append(_parse_record(line))
        except _MALFORMED:
            # Parsed again to raise the error naming its line; good lines format none.
            records.append(record_from_json(line, f"{path}:{ln}"))
    return records
