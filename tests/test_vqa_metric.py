"""Consensus accuracy metric and its file loaders."""

import json
import math

import pytest

from basiq.dictionary import normalize_question_text
from basiq.errors import InvalidInputError, ParseError
from basiq.vqa_metric import (
    AnswerRecord,
    aggregate_by_type,
    evaluate,
    load_answer_records,
    question_score,
)


def make_record(qid, predicted, answers):
    return AnswerRecord(question_id=qid, predicted=predicted,
                        annotator_answers=tuple(answers))


def test_five_of_ten_matches_is_full_credit():
    record = make_record("q1", "red", ["red"] * 5 + ["blue"] * 5)
    assert question_score(record) == 1.0


def test_two_of_ten_matches_is_two_thirds():
    record = make_record("q1", "red", ["red"] * 2 + ["blue"] * 8)
    assert question_score(record) == 2.0 / 3.0


def test_zero_matches_is_zero():
    record = make_record("q1", "red", ["blue"] * 10)
    assert question_score(record) == 0.0


def test_three_matches_saturates():
    record = make_record("q1", "red", ["red"] * 3 + ["blue"] * 7)
    assert question_score(record) == 1.0


def test_normalization_folds_case_and_whitespace():
    record = make_record("q1", "Red", ["red", " RED ", "red  ", "blue"])
    assert question_score(record) == 1.0
    assert question_score(record, normalize=False) == 0.0


def test_normalize_answer_rule():
    assert normalize_question_text("  Two   Dogs ") == "two dogs"


def test_mean_of_two_records():
    records = [
        make_record("q1", "red", ["red"] * 5 + ["blue"] * 5),
        make_record("q2", "2", ["2", "2", "3", "3", "3"]),
    ]
    report = evaluate(records)
    assert report.n == 2
    assert report.mean == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_single_record_mean_is_its_score():
    records = [make_record("q1", "red", ["red", "blue", "blue"])]
    report = evaluate(records)
    assert report.mean == report.per_question[0][1] == 1.0 / 3.0


def test_hundred_records_against_brute_force(rng):
    answers_pool = ["yes", "no", "red", "blue", "2", "3"]
    records = []
    for i in range(100):
        predicted = answers_pool[rng.integers(len(answers_pool))]
        annotators = [answers_pool[rng.integers(len(answers_pool))] for _ in range(10)]
        records.append(make_record(f"q{i}", predicted, annotators))
    report = evaluate(records)
    brute = [
        min(sum(a == rec.predicted for a in rec.annotator_answers) / 3.0, 1.0)
        for rec in records
    ]
    assert [s for _, s in report.per_question] == pytest.approx(brute, abs=0.0)
    assert report.mean == pytest.approx(math.fsum(brute) / 100.0, abs=1e-15)


def test_scores_quantized_to_thirds(rng):
    allowed = {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}
    for i in range(50):
        n_match = int(rng.integers(0, 11))
        record = make_record("q", "x", ["x"] * n_match + ["y"] * (10 - n_match))
        assert question_score(record) in allowed


def test_record_order_preserved_mean_invariant():
    records = [
        make_record("q1", "red", ["red"] * 5),
        make_record("q2", "2", ["2", "3", "3"]),
        make_record("q3", "no", ["yes"] * 4),
    ]
    fwd = evaluate(records)
    rev = evaluate(list(reversed(records)))
    assert fwd.mean == rev.mean
    assert [qid for qid, _ in fwd.per_question] == ["q1", "q2", "q3"]


def test_adding_perfect_record_never_decreases_mean():
    base = [make_record("q1", "red", ["blue"] * 5)]
    more = base + [make_record("q2", "red", ["red"] * 5)]
    assert evaluate(more).mean >= evaluate(base).mean


def test_duplicate_question_id_named():
    records = [
        make_record("q7", "red", ["red"]),
        make_record("q7", "blue", ["blue"]),
    ]
    with pytest.raises(InvalidInputError, match="q7"):
        evaluate(records)


def test_empty_annotators_rejected():
    with pytest.raises(InvalidInputError):
        AnswerRecord(question_id="q", predicted="x", annotator_answers=())


def test_empty_record_list_rejected():
    with pytest.raises(InvalidInputError):
        evaluate([])


def _write_jsonl(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


def test_load_answer_records_joins_files(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    _write_jsonl(pred, [{"question_id": "q1", "answer": "red"}])
    _write_jsonl(anno, [
        {"question_id": "q1", "answers": ["red", "blue"]},
        {"question_id": "q2", "answers": ["ignored"]},
    ])
    records = load_answer_records(pred, anno)
    assert len(records) == 1
    assert records[0].predicted == "red"
    assert records[0].annotator_answers == ("red", "blue")


def test_load_answer_records_missing_annotation(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    _write_jsonl(pred, [{"question_id": "q9", "answer": "red"}])
    _write_jsonl(anno, [{"question_id": "q1", "answers": ["red"]}])
    with pytest.raises(InvalidInputError, match="q9"):
        load_answer_records(pred, anno)


def test_load_answer_records_malformed_json(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    pred.write_text('{"question_id": "q1", "answer": oops}\n', encoding="utf-8")
    _write_jsonl(anno, [{"question_id": "q1", "answers": ["red"]}])
    with pytest.raises(ParseError, match="line 1"):
        load_answer_records(pred, anno)


def test_aggregate_by_type():
    records = [
        make_record("q1", "red", ["red"] * 5),
        make_record("q2", "2", ["2", "3", "3"]),
        make_record("q3", "no", ["yes"] * 4),
    ]
    report = evaluate(records)
    groups = aggregate_by_type(report, {"q2": "number", "q3": "yes/no"})
    assert groups["number"] == {"n": 1, "mean": pytest.approx(1.0 / 3.0)}
    assert groups["yes/no"] == {"n": 1, "mean": 0.0}
    assert groups["other"] == {"n": 1, "mean": 1.0}  # unmapped ids


def test_report_json_shape():
    report = evaluate([make_record("q1", "red", ["red"] * 3)])
    payload = report.as_dict()
    assert payload["n"] == 1
    assert payload["mean"] == 1.0
    assert payload["per_question"] == [{"question_id": "q1", "score": 1.0}]
