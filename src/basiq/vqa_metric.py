"""Consensus accuracy: a prediction scores by how many annotators agree.

A predicted answer earns min(matches / 3, 1) where matches counts the
annotator answers equal to it, so three agreeing annotators already
mean full credit; the mean over all questions is the reported accuracy.
Answers are normalized as the dictionary's dedup key normalizes question
text (trim, collapse whitespace, casefold) before comparison unless raw
matching is requested.
"""

import functools
import json
import math
from dataclasses import dataclass

from . import fileformats
from .dictionary import normalize_question_text
from .errors import InvalidInputError, ParseError
from .immutable import checked_tuple


class AnswerRecord(checked_tuple("AnswerRecord", "question_id predicted annotator_answers")):
    """One evaluated question: the prediction plus the annotator answer set."""

    __slots__ = ()

    def __new__(cls, question_id, predicted, annotator_answers):
        answers = tuple(annotator_answers)
        if not answers:
            raise InvalidInputError(f"question {question_id!r}: annotator answer set is empty")
        return tuple.__new__(cls, (question_id, predicted, answers))


@dataclass(frozen=True)
class AccuracyReport:
    n: int
    per_question: tuple
    mean: float

    def as_dict(self):
        return {
            "n": self.n,
            "mean": self.mean,
            "per_question": [
                {"question_id": qid, "score": score} for qid, score in self.per_question
            ],
        }


def _consensus_score(record, norm):
    matches = list(map(norm, record.annotator_answers)).count(norm(record.predicted))
    return min(matches / 3.0, 1.0)


def question_score(record, normalize=True):
    """min(matches / 3, 1) over the record's annotator answers."""
    return _consensus_score(record, normalize_question_text if normalize else (lambda s: s))


def evaluate(records, normalize=True):
    """Per-question scores plus their mean, in input order."""
    records = list(records)
    if not records:
        raise InvalidInputError("cannot evaluate zero records")
    # Annotator answers repeat heavily: normalize each distinct one once.
    norm = functools.cache(normalize_question_text) if normalize else (lambda s: s)
    seen, per_question = set(), []
    for rec in records:
        if rec.question_id in seen:
            raise InvalidInputError(f"duplicate question_id {rec.question_id!r}")
        seen.add(rec.question_id)
        per_question.append((rec.question_id, _consensus_score(rec, norm)))
    mean = math.fsum(score for _, score in per_question) / len(per_question)
    return AccuracyReport(n=len(per_question), per_question=tuple(per_question), mean=mean)


def _jsonl_fields(path, value_key):
    """(line number, str(question_id), value) per nonblank line, decoded and checked as read."""
    for lineno, line in fileformats.read_jsonl(path):
        try:
            obj = fileformats.decode_json_line(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        try:
            qid, value = obj["question_id"], obj[value_key]
        except (KeyError, TypeError):
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object") from None
            missing = [k for k in ("question_id", value_key) if k not in obj]
            raise ParseError(f"{path}: line {lineno}: missing keys {missing}") from None
        yield lineno, str(qid), value


def _raise_after(rows, fault):
    """Decode the rest of ``rows``, then raise ``fault``: a malformed later line wins."""
    for _ in rows:
        pass
    raise fault


def load_answer_records(predictions_path, annotations_path):
    """Join prediction and annotation files on question_id, in one streaming pass each.

    Ids and answers compare as strings (``str()`` of other JSON values). Every
    prediction needs an annotation; annotations without one are ignored. Faults
    name ``path: line N``. A line that is not a JSON object with the required keys
    wins over the other faults of its file (empty or non-list ``answers``, a
    duplicate id, a prediction without annotations), of which the first is raised
    once the file is decoded. Annotations are checked before predictions.
    """
    annotations = {}
    rows = _jsonl_fields(annotations_path, "answers")
    for lineno, qid, answers in rows:
        if not isinstance(answers, list) or not answers:
            _raise_after(rows, ParseError(
                f"{annotations_path}: line {lineno}: 'answers' must be a nonempty list"))
        if qid in annotations:
            _raise_after(rows, ParseError(
                f"{annotations_path}: line {lineno}: duplicate question_id {qid!r}"))
        try:
            "".join(answers)  # a TypeError unless every answer is already a str
            annotations[qid] = tuple(answers)
        except TypeError:
            annotations[qid] = tuple(map(str, answers))

    records, joined = [], set()
    rows = _jsonl_fields(predictions_path, "answer")
    for lineno, qid, answer in rows:
        if qid not in annotations:
            _raise_after(rows, InvalidInputError(
                f"{predictions_path}: line {lineno}: no annotations for question_id {qid!r}"))
        if qid in joined:
            _raise_after(rows, ParseError(
                f"{predictions_path}: line {lineno}: duplicate question_id {qid!r}"))
        joined.add(qid)
        records.append(AnswerRecord(qid, str(answer), annotations[qid]))
    return records


def aggregate_by_type(report, type_map):
    """Group per-question scores by a question-type map (qid -> type label)."""
    groups = {}
    for qid, score in report.per_question:
        label = type_map.get(qid, "other")
        groups.setdefault(label, []).append(score)
    return {
        label: {"n": len(scores), "mean": math.fsum(scores) / len(scores)}
        for label, scores in sorted(groups.items())
    }
