"""Turning a sparse solve into ranked supporting questions and output records.

Each query is solved against the dictionary, the coefficients are ranked
by signed value, and the top 3 become scored supporting questions.  A
solve that misses its duality-gap certificate is an error, never a
record.  Scores are the raw coefficients clamped into [0, 1]; clamping
events are counted in the batch diagnostics rather than hidden, and so
are the solves whose float32 event search missed the certificate and
were solved again in float64; a batch builds its
``GenerationDiagnostics`` once, at the end.

A record (``BqdRecord``) is one flat tuple: image id, query text, and the
supporting questions' texts and scores as two 3-tuples, best first.  Its
one constructor checks it, however it is built; the scores keep the law
of ``check_scores``, which ``decide_appends`` also applies: three
entries, each in [0, 1], nonincreasing.  Fewer than three positive
coefficients are padded with zero-score entries from the smallest unused
column indices; a zero score passes no concatenation threshold.
"""

from itertools import islice
from json.encoder import encode_basestring
from typing import NamedTuple

import numpy as np

from . import fileformats
from .errors import BasiqError, InvalidInputError, ParseError, UncertifiedSolveError
from .immutable import checked_tuple
from .solver import LassoConfig, solve_lasso

SCORE_DECIMALS = 6
BQ_COUNT = 3  # supporting questions per record
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def check_scores(scores):
    """``scores`` as a tuple that keeps the score law: three scores, each in
    [0, 1], nonincreasing.  One chained comparison checks the whole law; the
    scores are walked only to name a fault, the range before the count and
    the order."""
    scores = tuple(scores)
    try:
        if len(scores) == BQ_COUNT and 1.0 >= scores[0] >= scores[1] >= scores[2] >= 0.0:
            return scores
    except TypeError:  # the walk raises it, for the first score that has it
        pass
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise InvalidInputError(f"score {s!r} outside [0, 1]")
    if len(scores) != BQ_COUNT:
        raise InvalidInputError(f"expected exactly {BQ_COUNT} supporting questions, got {len(scores)}")
    if not (scores[0] >= scores[1] >= scores[2]):
        raise InvalidInputError(f"scores must be nonincreasing, got {list(scores)}")
    return scores


class BqdRecord(checked_tuple("BqdRecord", "image_id mq_text texts scores")):
    """{image id, query text, the 3 supporting questions' texts and scores, best first}."""

    __slots__ = ()

    def __new__(cls, image_id, mq_text, texts, scores):
        texts, scores = tuple(texts), check_scores(scores)
        if len(texts) != BQ_COUNT:
            raise InvalidInputError(f"expected {BQ_COUNT} texts, got {len(texts)}")
        if not image_id:
            raise InvalidInputError("image_id must be nonempty")
        if not mq_text.strip():
            raise InvalidInputError("mq_text must be nonempty")
        return tuple.__new__(cls, (image_id, mq_text, texts, scores))


class GenerationDiagnostics(NamedTuple):
    """Counters surfaced alongside batch output: scores clamped to 1, the
    ``(image_id, message)`` pair of each failed query, and the solves
    re-run in float64 (``SparseSolution.re_solved``), failed ones included."""

    clamped: int
    errors: tuple
    re_solved: int


class BatchResult(NamedTuple):
    records: tuple
    diagnostics: GenerationDiagnostics


def generate_basic_questions(d, mq, config=None, exclude_text=None):
    """Solve for the query and return the top 3 dictionary questions as
    ``(columns, scores)``: their column indices and clamped scores, best first.

    Coefficients are ranked in descending signed value with ties broken
    by ascending column index; only positive coefficients are eligible.
    If fewer than 3 are positive, the remainder are zero-score entries
    taken from the smallest-index columns not already used.  With
    ``exclude_text`` set, columns whose text equals it are skipped
    entirely (self-match exclusion).  A solve whose duality gap exceeds
    ``config.tol`` raises ``UncertifiedSolveError``.
    """
    config = LassoConfig() if config is None else config
    columns, scores, _ = _ranked_entries(d, _solve(d, mq, config), config, exclude_text)
    return columns, scores


def _solve(d, mq, config):
    if d.n_columns < BQ_COUNT:
        raise InvalidInputError(
            f"dictionary has {d.n_columns} columns, cannot return {BQ_COUNT} distinct questions"
        )
    return solve_lasso(d, mq, config)


def _ranked_entries(d, solution, config, exclude_text):
    """``generate_basic_questions`` from the query's solution, plus how many
    of its scores were clamped to 1."""
    if not solution.converged:
        raise UncertifiedSolveError(
            f"solve not certified: duality gap {solution.duality_gap!r} > tol {config.tol!r} "
            f"after {solution.sweeps_used} path steps"
            + (" of a float64 re-solve" if solution.re_solved else "")
        )
    coef = solution.coefficients
    excluded = (frozenset() if exclude_text is None
                else frozenset(j for j, text in enumerate(d.texts) if text == exclude_text))
    if d.n_columns - len(excluded) < BQ_COUNT:
        raise InvalidInputError("exclusion leaves fewer columns than requested questions")

    # A stable sort, so equal coefficients keep ascending column order.
    positive = [j for j in np.flatnonzero(coef > 0.0).tolist() if j not in excluded]
    columns = sorted(positive, key=coef.__getitem__, reverse=True)[:BQ_COUNT]
    scores = [min(float(coef[j]), 1.0) for j in columns]
    clamped = sum(float(coef[j]) > 1.0 for j in columns)
    pads = (j for j in range(d.n_columns) if j not in excluded and j not in columns)
    missing = BQ_COUNT - len(columns)
    return columns + list(islice(pads, missing)), scores + [0.0] * missing, clamped


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
    config = LassoConfig() if config is None else config
    records, errors, total_clamped, re_solved = [], [], 0, 0
    for image_id, mq_text, vec in queries:
        exclude = mq_text if exclude_exact else None
        try:
            solution = _solve(d, vec, config)
            re_solved += solution.re_solved
            columns, scores, clamped = _ranked_entries(d, solution, config, exclude)
            record = BqdRecord(image_id, mq_text, [d.texts[j] for j in columns], scores)
        except BasiqError as exc:
            errors.append((image_id, str(exc)))
        else:
            total_clamped += clamped
            records.append(record)
    return BatchResult(tuple(records),
                       GenerationDiagnostics(total_clamped, tuple(errors), re_solved))


def record_to_json(record):
    """One output line; scores printed at fixed 6-decimal precision."""
    bq_parts = ", ".join(
        '{"text": %s, "score": %s}'
        % (encode_basestring(text), format(score, f".{SCORE_DECIMALS}f"))
        for text, score in zip(record.texts, record.scores)
    )
    return '{"image_id": %s, "mq": %s, "bqs": [%s]}' % (
        encode_basestring(record.image_id), encode_basestring(record.mq_text), bq_parts)


def _parse_record(obj):
    # Each field is read, then type-checked, in this order; a JSON true or false is not a number.
    texts, scores = [], []
    for bq in obj["bqs"]:
        if type(text := bq["text"]) is not str:
            raise TypeError(f"'text' must be a string, got {type(text).__name__}")
        if type(score := bq["score"]) is not float and type(score) is not int:
            raise TypeError(f"'score' must be a number, got {type(score).__name__}")
        texts.append(text)
        scores.append(float(score))
    if type(image_id := obj["image_id"]) is not str:
        raise TypeError(f"'image_id' must be a string, got {type(image_id).__name__}")
    if type(mq := obj["mq"]) is not str:
        raise TypeError(f"'mq' must be a string, got {type(mq).__name__}")
    return BqdRecord(image_id, mq, texts, scores)


def write_bqd(path, records):
    fileformats.write_jsonl(path, (record_to_json(r) for r in records))


def read_bqd(path):
    records = []
    for ln, obj in fileformats.read_jsonl(path, "%s:%d", "%s:%d: malformed record"):
        try:
            records.append(_parse_record(obj))
        except _MALFORMED as exc:
            raise ParseError(f"{path}:{ln}: malformed record: {exc}") from None
    return records
