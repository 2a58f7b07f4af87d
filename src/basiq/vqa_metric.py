"""Consensus accuracy: a prediction scores by how many annotators agree.

A predicted answer earns min(matches / 3, 1) where matches counts the
annotator answers equal to it, so three agreeing annotators already
mean full credit; the mean over all questions is the reported accuracy.
Answers are normalized (lowercase, trim, collapse whitespace) before
comparison unless raw matching is requested.
"""

import json
import math
from dataclasses import dataclass

from . import fileformats
from .errors import InvalidInputError, ParseError


def normalize_answer(answer):
    """Lowercase, trim, and collapse internal whitespace."""
    return " ".join(answer.split()).casefold()


@dataclass(frozen=True)
class AnswerRecord:
    """One evaluated question: the prediction plus the annotator answer set."""

    question_id: str
    predicted: str
    annotator_answers: tuple

    def __post_init__(self):
        answers = tuple(self.annotator_answers)
        if not answers:
            raise InvalidInputError(
                f"question {self.question_id!r}: annotator answer set is empty"
            )
        object.__setattr__(self, "annotator_answers", answers)


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


def question_score(record, normalize=True):
    """min(matches / 3, 1) over the record's annotator answers."""
    if not record.annotator_answers:
        raise InvalidInputError("annotator answer set is empty")
    norm = normalize_answer if normalize else (lambda s: s)
    predicted = norm(record.predicted)
    matches = sum(1 for ans in record.annotator_answers if norm(ans) == predicted)
    return min(matches / 3.0, 1.0)


def evaluate(records, normalize=True):
    """Per-question scores plus their mean, in input order."""
    records = list(records)
    if not records:
        raise InvalidInputError("cannot evaluate zero records")
    seen = set()
    per_question = []
    for rec in records:
        if rec.question_id in seen:
            raise InvalidInputError(f"duplicate question_id {rec.question_id!r}")
        seen.add(rec.question_id)
        per_question.append((rec.question_id, question_score(rec, normalize=normalize)))
    mean = math.fsum(score for _, score in per_question) / len(per_question)
    return AccuracyReport(n=len(per_question), per_question=tuple(per_question), mean=mean)


def _parse_jsonl_objects(path, required_keys):
    out = []
    for lineno, line in fileformats.read_jsonl(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: line {lineno}: expected a JSON object")
        missing = [k for k in required_keys if k not in obj]
        if missing:
            raise ParseError(f"{path}: line {lineno}: missing keys {missing}")
        out.append((lineno, obj))
    return out


def load_answer_records(predictions_path, annotations_path):
    """Join prediction and annotation files on question_id.

    Every prediction must have an annotation record; annotations without
    predictions are ignored.
    """
    annotations = {}
    for lineno, obj in _parse_jsonl_objects(annotations_path, ("question_id", "answers")):
        qid = str(obj["question_id"])
        answers = obj["answers"]
        if not isinstance(answers, list) or not answers:
            raise ParseError(
                f"{annotations_path}: line {lineno}: 'answers' must be a nonempty list"
            )
        if qid in annotations:
            raise ParseError(f"{annotations_path}: line {lineno}: duplicate question_id {qid!r}")
        annotations[qid] = tuple(str(a) for a in answers)

    records = []
    for lineno, obj in _parse_jsonl_objects(predictions_path, ("question_id", "answer")):
        qid = str(obj["question_id"])
        if qid not in annotations:
            raise InvalidInputError(
                f"{predictions_path}: line {lineno}: no annotations for question_id {qid!r}"
            )
        records.append(
            AnswerRecord(
                question_id=qid,
                predicted=str(obj["answer"]),
                annotator_answers=annotations[qid],
            )
        )
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


def report_to_json(report, per_type=None):
    payload = report.as_dict()
    if per_type is not None:
        payload["per_type"] = per_type
    return json.dumps(payload, indent=2, sort_keys=True)
