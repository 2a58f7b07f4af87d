"""Consensus accuracy metric and its file loaders."""

import itertools
import json
import math
import random
import re

import pytest

from basiq import fileformats
from basiq.dictionary import normalize_question_text
from basiq.errors import BasiqError, InvalidInputError, ParseError
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


def test_numeric_ids_and_answers_join_and_score_as_strings(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    _write_jsonl(pred, [{"question_id": 5, "answer": 2}])
    _write_jsonl(anno, [{"question_id": "5", "answers": ["2", 2, "3"]}])
    records = load_answer_records(pred, anno)
    assert records == [AnswerRecord("5", "2", ("2", "2", "3"))]
    assert evaluate(records).mean == evaluate(records, normalize=False).mean == 2.0 / 3.0


def test_raw_matching_keeps_case(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    _write_jsonl(pred, [{"question_id": "q1", "answer": "Red"}])
    _write_jsonl(anno, [{"question_id": "q1", "answers": ["red", "red", "red"]}])
    records = load_answer_records(pred, anno)
    assert evaluate(records).mean == 1.0
    assert evaluate(records, normalize=False).mean == 0.0


def test_load_answer_records_duplicate_prediction_named(tmp_path):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    _write_jsonl(pred, [{"question_id": "q1", "answer": "red"},
                        {"question_id": 1, "answer": "red"},
                        {"question_id": "1", "answer": "red"}])
    _write_jsonl(anno, [{"question_id": "q1", "answers": ["red"]},
                        {"question_id": "1", "answers": ["red"]}])
    with pytest.raises(ParseError) as exc:
        load_answer_records(pred, anno)
    assert str(exc.value) == f"{pred}: line 3: duplicate question_id '1'"


def _reference_load_answer_records(predictions_path, annotations_path):
    """The two-phase loader written plainly: each file is parsed whole, then joined.

    An oracle for ``load_answer_records``: the same records, or the same
    exception type and message, except that it lets a duplicate
    prediction through.
    """
    def parse(path, required_keys):
        out = []
        for lineno, line in fileformats.read_jsonl(path):
            try:
                obj = fileformats.decode_json_line(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: line {lineno}: expected a JSON object")
            missing = [k for k in required_keys if k not in obj]
            if missing:
                raise ParseError(f"{path}: line {lineno}: missing keys {missing}")
            out.append((lineno, obj))
        return out

    annotations = {}
    for lineno, obj in parse(annotations_path, ("question_id", "answers")):
        qid = str(obj["question_id"])
        answers = obj["answers"]
        if not isinstance(answers, list) or not answers:
            raise ParseError(
                f"{annotations_path}: line {lineno}: 'answers' must be a nonempty list"
            )
        if qid in annotations:
            raise ParseError(f"{annotations_path}: line {lineno}: duplicate question_id {qid!r}")
        annotations[qid] = tuple(map(str, answers))

    records = []
    for lineno, obj in parse(predictions_path, ("question_id", "answer")):
        qid = str(obj["question_id"])
        if qid not in annotations:
            raise InvalidInputError(
                f"{predictions_path}: line {lineno}: no annotations for question_id {qid!r}"
            )
        records.append(AnswerRecord(qid, str(obj["answer"]), annotations[qid]))
    return records


_ANSWER_POOL = ["red", " Red", "2", 2, 2.5, True, None, "yes"]
_FAULTS = ("syntax", "not an object", "missing key", "empty answers", "non-list answers",
           "duplicate annotation", "missing annotation", "duplicate prediction")
_VARIANTS = ("numeric", "blank lines")


def _answer_files(rng, kinds):
    """Seeded prediction and annotation lines, with each of ``kinds`` injected."""
    n = rng.randrange(2, 7)
    numeric = "numeric" in kinds

    def qid(i):
        return i if numeric and rng.random() < 0.5 else str(i)

    def answer():
        return rng.choice(_ANSWER_POOL if numeric else _ANSWER_POOL[:3])

    anno = [{"question_id": qid(i), "answers": [answer() for _ in range(rng.randrange(1, 5))]}
            for i in range(n + 2)]
    pred = [{"question_id": qid(i), "answer": answer()} for i in rng.sample(range(n), n)]
    files = {"pred": [json.dumps(o) for o in pred], "anno": [json.dumps(o) for o in anno]}

    def put(name, line):
        lines = files[name]
        lines.insert(rng.randrange(len(lines) + 1), line)

    def pick(name):
        return rng.randrange(len(files[name]))

    def repeat(name):
        lines = files[name]
        i = pick(name)
        lines.insert(rng.randrange(i + 1, len(lines) + 1), lines[i])

    for kind in kinds:
        name = "pred" if rng.random() < 0.5 else "anno"
        if kind == "syntax":
            i = pick(name)
            files[name][i] = rng.choice([files[name][i][:-2], "  ", "{'question_id': 1}"])
        elif kind == "not an object":
            files[name][pick(name)] = rng.choice(["[1, 2]", "17", '"q1"', "null"])
        elif kind == "missing key":
            obj = dict(rng.choice(pred if name == "pred" else anno))
            del obj[rng.choice(sorted(obj))]
            put(name, json.dumps(obj))
        elif kind == "empty answers":
            put("anno", json.dumps({"question_id": "e", "answers": []}))
        elif kind == "non-list answers":
            put("anno", json.dumps({"question_id": "f", "answers": rng.choice(["red", None])}))
        elif kind == "duplicate annotation":
            repeat("anno")
        elif kind == "missing annotation":
            put("pred", json.dumps({"question_id": "nowhere", "answer": "red"}))
        elif kind == "duplicate prediction":
            repeat("pred")
        elif kind == "blank lines":
            for _ in range(3):
                put(name, "")
    return files["pred"], files["anno"]


def _first_duplicate_line(lines):
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if line:
            qid = str(json.loads(line)["question_id"])
            if qid in seen:
                return lineno, qid
            seen.add(qid)


def _line_of(message):
    return int(re.search(r": line (\d+): ", message).group(1))


def _outcome(load, pred, anno):
    try:
        return load(pred, anno)
    except BasiqError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kinds", [(), *[(k,) for k in _FAULTS + _VARIANTS],
                                   *itertools.combinations(_FAULTS, 2),
                                   *[(k, "numeric", "blank lines") for k in _FAULTS]],
                         ids="+".join)
def test_load_answer_records_matches_two_phase_reference(tmp_path, kinds):
    pred, anno = tmp_path / "pred.jsonl", tmp_path / "anno.jsonl"
    for seed in range(12):
        pred_lines, anno_lines = _answer_files(random.Random(seed), kinds)
        pred.write_text("".join(f"{line}\n" for line in pred_lines), encoding="utf-8")
        anno.write_text("".join(f"{line}\n" for line in anno_lines), encoding="utf-8")
        expected = _outcome(_reference_load_answer_records, pred, anno)
        got = _outcome(load_answer_records, pred, anno)
        if "duplicate prediction" in kinds and (
                isinstance(expected, list) or expected[0] is InvalidInputError):
            # The one difference: a duplicate prediction is a fault of its own,
            # raised unless a JSON fault or an earlier missing annotation wins.
            lineno, qid = _first_duplicate_line(pred_lines)
            if isinstance(expected, list) or _line_of(expected[1]) > lineno:
                expected = ParseError, f"{pred}: line {lineno}: duplicate question_id {qid!r}"
        assert got == expected, (seed, pred_lines, anno_lines)
