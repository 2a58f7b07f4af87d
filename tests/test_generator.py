"""Top-3 extraction, record validation, batch behavior, JSON format."""

import json

import numpy as np
import pytest

from basiq.errors import InvalidInputError
from basiq.generator import (
    BqdRecord,
    ScoredBasicQuestion,
    emit_bqd_record,
    generate_basic_questions,
    generate_batch,
    read_bqd,
    record_from_json,
    record_to_json,
    write_bqd,
)
from basiq.solver import LassoConfig

from conftest import orthogonal_dictionary, question_records, unit_columns
from basiq.dictionary import build_dictionary


def test_planted_query_top_score():
    d = orthogonal_dictionary(16, 10, seed=1)
    b = d.matrix[:, 4].copy()
    bqs = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert bqs[0].column_index == 4
    assert bqs[0].text == d.texts[4]
    assert bqs[0].score == pytest.approx(0.976, abs=1e-6)


def test_single_positive_coefficient_pads_with_zeros():
    d = orthogonal_dictionary(8, 5, seed=2)
    b = d.matrix[:, 3].copy()
    bqs = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert [bq.score for bq in bqs[1:]] == [0.0, 0.0]
    # padding comes from the smallest unused column indices
    assert [bq.column_index for bq in bqs[1:]] == [0, 1]


def test_scores_sorted_nonincreasing(rng):
    for trial in range(20):
        d = build_dictionary(question_records(unit_columns(rng, 10, 24)))
        b = rng.standard_normal(10)
        bqs = generate_basic_questions(d, b)
        scores = [bq.score for bq in bqs]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)


def test_negative_coefficients_never_selected():
    d = orthogonal_dictionary(8, 5, seed=3)
    b = -d.matrix[:, 3]  # anti-aligned: its coefficient would be negative
    bqs = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert all(bq.score == 0.0 for bq in bqs)
    assert [bq.column_index for bq in bqs] == [0, 1, 2]


def test_clamping_counts_reported():
    d = orthogonal_dictionary(8, 4, seed=4)
    b = 2.0 * d.matrix[:, 2]  # coefficient 2 - lambda, clamped to 1
    result = generate_batch(d, [("img", "main?", b)], config=LassoConfig.relative(0.024))
    assert result.diagnostics.clamped == 1
    assert result.records[0].scores[0] == 1.0


def test_exclude_text_skips_self_match():
    d = orthogonal_dictionary(12, 6, seed=5)
    b = d.matrix[:, 2].copy()
    bqs = generate_basic_questions(
        d, b, config=LassoConfig.relative(0.024), exclude_text=d.texts[2]
    )
    assert all(bq.text != d.texts[2] for bq in bqs)


def test_k_larger_than_dictionary_rejected():
    d = orthogonal_dictionary(4, 2, seed=6)
    with pytest.raises(InvalidInputError):
        generate_basic_questions(d, d.matrix[:, 0], k=3)


def test_emit_record_validates_count_and_order():
    entries = [
        ScoredBasicQuestion("a?", 0.9, 0),
        ScoredBasicQuestion("b?", 0.5, 1),
        ScoredBasicQuestion("c?", 0.2, 2),
    ]
    record = emit_bqd_record("img1", "main?", entries)
    assert record.scores == (0.9, 0.5, 0.2)
    with pytest.raises(InvalidInputError):
        emit_bqd_record("img1", "main?", entries[:2])
    with pytest.raises(InvalidInputError):
        emit_bqd_record("img1", "main?", list(reversed(entries)))


def test_score_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        ScoredBasicQuestion("a?", 1.5, 0)
    with pytest.raises(InvalidInputError):
        ScoredBasicQuestion("a?", -0.1, 0)


def test_record_json_round_trip():
    record = emit_bqd_record("img9", "what is it?", [
        ScoredBasicQuestion("first?", 0.976, 3),
        ScoredBasicQuestion("second?", 0.1234565, 7),
        ScoredBasicQuestion("third?", 0.0, 0),
    ])
    line = record_to_json(record)
    again = record_to_json(record_from_json(line))
    assert line == again


def test_record_json_six_decimal_scores():
    record = emit_bqd_record("img9", "why?", [
        ScoredBasicQuestion("a?", 0.5, 0),
        ScoredBasicQuestion("b?", 1.0 / 3.0, 1),
        ScoredBasicQuestion("c?", 0.0, 2),
    ])
    obj = json.loads(record_to_json(record))
    assert obj["image_id"] == "img9"
    assert obj["mq"] == "why?"
    assert record_to_json(record).count("0.333333") == 1
    assert '"score": 0.500000' in record_to_json(record)


def test_batch_matches_per_query_oracle(rng):
    d = build_dictionary(question_records(unit_columns(rng, 12, 40)))
    queries = [(f"img{i}", f"query {i}?", rng.standard_normal(12)) for i in range(8)]
    result = generate_batch(d, queries)
    assert len(result.records) == 8
    for (image_id, mq_text, vec), record in zip(queries, result.records):
        expected = generate_basic_questions(d, vec)
        assert record.image_id == image_id
        assert record.mq_text == mq_text
        assert record.basic_questions == tuple(expected)
        s1, s2, s3 = record.scores
        assert s1 >= s2 >= s3


def test_batch_empty_rejected(rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 6)))
    with pytest.raises(InvalidInputError):
        generate_batch(d, [])


def test_batch_collects_per_query_errors(rng):
    d = build_dictionary(question_records(unit_columns(rng, 6, 9)))
    queries = [
        ("ok1", "fine?", rng.standard_normal(6)),
        ("bad", "zero vector?", np.zeros(6)),  # resolves to a zero penalty
        ("ok2", "also fine?", rng.standard_normal(6)),
    ]
    result = generate_batch(d, queries)
    assert [r.image_id for r in result.records] == ["ok1", "ok2"]
    assert len(result.diagnostics.errors) == 1
    assert result.diagnostics.errors[0][0] == "bad"


def test_batch_propagates_program_errors(rng, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("not a per-query failure")

    monkeypatch.setattr("basiq.generator.solve_lasso", broken)
    d = build_dictionary(question_records(unit_columns(rng, 6, 9)))
    with pytest.raises(TypeError, match="not a per-query failure"):
        generate_batch(d, [("q", "fine?", rng.standard_normal(6))])


def test_batch_deterministic_reruns(rng, tmp_path):
    d = build_dictionary(question_records(unit_columns(rng, 8, 20)))
    queries = [(f"img{i}", f"query {i}?", rng.standard_normal(8)) for i in range(5)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_bqd(p1, generate_batch(d, queries).records)
    write_bqd(p2, generate_batch(d, queries).records)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_bqd_round_trip(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 8, 20)))
    queries = [(f"img{i}", f"query {i}?", rng.standard_normal(8)) for i in range(4)]
    records = generate_batch(d, queries).records
    path = tmp_path / "out.jsonl"
    write_bqd(path, records)
    loaded = read_bqd(path)
    assert [r.image_id for r in loaded] == [r.image_id for r in records]
    for orig, back in zip(records, loaded):
        # scores survive at the printed 6-decimal precision
        assert back.scores == tuple(float(f"{s:.6f}") for s in orig.scores)


def test_bqd_record_enforces_score_ordering():
    entries = (
        ScoredBasicQuestion("a?", 0.1, 0),
        ScoredBasicQuestion("b?", 0.5, 1),
        ScoredBasicQuestion("c?", 0.2, 2),
    )
    with pytest.raises(InvalidInputError):
        BqdRecord(image_id="x", mq_text="y?", basic_questions=entries)
