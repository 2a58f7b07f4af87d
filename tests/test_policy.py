"""Threshold cascade, score statistics, partition accounting."""

import numpy as np
import pytest

from basiq.errors import InvalidInputError
from basiq.generator import BqdRecord
from basiq.policy import (
    DEFAULT_THRESHOLDS,
    ConcatenationPolicy,
    concatenate,
    decide_appends,
    format_partition_table,
    format_stats_table,
    partition_counts,
    score_statistics,
    threshold_candidates,
)

OPERATING_POINT = ConcatenationPolicy(0.43, 0.82, 0.53)


def make_record(scores, image_id="img", mq="main question?"):
    return BqdRecord(image_id, mq, [f"basic {i}?" for i in range(len(scores))], scores)


def test_hand_trace_all_three_append():
    # 0.9 > 0.43; 0.8/0.9 = 0.889 > 0.82; 0.5/0.8 = 0.625 > 0.53
    assert decide_appends((0.9, 0.8, 0.5), OPERATING_POINT) == 3


def test_hand_trace_boundary_equality_no_append():
    assert decide_appends((0.43, 0.43, 0.43), OPERATING_POINT) == 0


def test_hand_trace_second_ratio_fails():
    # 0.1/0.5 = 0.2, not above 0.82
    assert decide_appends((0.5, 0.1, 0.05), OPERATING_POINT) == 1


def test_boundary_equality_on_ratio_stops():
    # 0.41/0.5 equals 0.82 exactly in binary (scaling by 1/2 is exact),
    # and strict comparison must fail on equality
    assert 0.41 / 0.5 == 0.82
    assert decide_appends((0.5, 0.41, 0.0), OPERATING_POINT) == 1
    # same construction one level down: 0.265/0.5 == 0.53 exactly
    assert 0.265 / 0.5 == 0.53
    assert decide_appends((0.6, 0.5, 0.265), OPERATING_POINT) == 2


def test_zero_scores_append_nothing():
    assert decide_appends((0.0, 0.0, 0.0), OPERATING_POINT) == 0


def test_zero_denominator_fails_the_test():
    # score2 = 0 makes the third ratio undefined; the cascade stops
    assert decide_appends((0.9, 0.0, 0.0), OPERATING_POINT) == 1


def test_unsorted_scores_rejected():
    with pytest.raises(InvalidInputError):
        decide_appends((0.1, 0.5, 0.2), OPERATING_POINT)


def test_out_of_range_scores_rejected():
    with pytest.raises(InvalidInputError):
        decide_appends((1.2, 0.5, 0.2), OPERATING_POINT)


@pytest.mark.parametrize("scores, message", [
    ((0.1, 0.5, 0.2), "scores must be nonincreasing, got [0.1, 0.5, 0.2]"),
    ((1.2, 0.5, 0.2), "score 1.2 outside [0, 1]"),
    ((0.5, 0.2, -0.1), "score -0.1 outside [0, 1]"),
    ((0.5, float("nan"), 0.1), "score nan outside [0, 1]"),
    ((0.5, 0.2), "expected exactly 3 supporting questions, got 2"),
    ((0.5, 0.2, 0.1, 9.0), "score 9.0 outside [0, 1]"),
    ((0.5, 0.2, 0.1, 0.0), "expected exactly 3 supporting questions, got 4"),
], ids=["unsorted", "above 1", "negative", "NaN", "two", "four, fourth above 1", "four"])
def test_policy_and_record_share_one_score_law(scores, message):
    with pytest.raises(InvalidInputError) as from_policy:
        decide_appends(scores, OPERATING_POINT)
    with pytest.raises(InvalidInputError) as from_record:
        BqdRecord("img", "main?", ["a?", "b?", "c?"], scores)
    assert str(from_policy.value) == str(from_record.value) == message


def test_threshold_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        ConcatenationPolicy(1.5, 0.5, 0.5)


@pytest.mark.parametrize("field, value", [
    ("s1", True), ("s2", "0.5"), ("s3", np.array([0.5])), ("s1", np.True_),
], ids=["bool", "string", "array", "numpy-bool"])
def test_threshold_must_be_a_real_number(field, value):
    with pytest.raises(InvalidInputError) as info:
        ConcatenationPolicy(**{field: value})
    assert str(info.value) == f"{field} must be a real number, got {value!r}"


def test_monotone_in_each_threshold():
    # raising any single threshold never increases the append count
    triples = []
    for i in range(0, 21, 2):
        for j in range(0, i + 1, 2):
            for k in range(0, j + 1, 2):
                triples.append((i / 20, j / 20, k / 20))
    base = ConcatenationPolicy(0.3, 0.5, 0.4)
    for idx in range(3):
        raised_fields = [0.3, 0.5, 0.4]
        raised_fields[idx] += 0.25
        raised = ConcatenationPolicy(*raised_fields)
        for scores in triples:
            assert decide_appends(scores, raised) <= decide_appends(scores, base)


def test_prefix_rule_under_lowered_thresholds():
    lowered = ConcatenationPolicy(0.2, 0.4, 0.3)
    base = ConcatenationPolicy(0.3, 0.5, 0.4)
    for scores in [(0.9, 0.8, 0.5), (0.5, 0.1, 0.05), (0.35, 0.2, 0.1), (0.0, 0.0, 0.0)]:
        assert decide_appends(scores, lowered) >= decide_appends(scores, base)


def test_concatenate_zero_is_identity():
    record = make_record((0.1, 0.05, 0.0))
    n = decide_appends(record.scores, OPERATING_POINT)
    assert concatenate(record.mq_text, record.texts, n) == record.mq_text


def test_concatenate_two():
    record = make_record((0.9, 0.8, 0.1))
    n = decide_appends(record.scores, OPERATING_POINT)
    out = concatenate(record.mq_text, record.texts, n)
    assert out == "main question? basic 0? basic 1?"


def test_concatenate_custom_separator():
    record = make_record((0.9, 0.8, 0.1))
    n = decide_appends(record.scores, OPERATING_POINT)
    out = concatenate(record.mq_text, record.texts, n, separator=" | ")
    assert out == "main question? | basic 0? | basic 1?"


def test_concatenate_empty_mq_rejected():
    record = make_record((0.9, 0.8, 0.1))
    with pytest.raises(InvalidInputError):
        concatenate("", record.texts, decide_appends(record.scores, OPERATING_POINT))


def test_statistics_two_record_hand_values():
    records = [make_record((0.4, 0.2, 0.1)), make_record((0.6, 0.3, 0.15))]
    stats = score_statistics(records)
    assert abs(stats.score1.avg - 0.5) <= 1e-12
    assert abs(stats.score1.std - 0.1) <= 1e-12
    # both ratio channels are exactly 0.5 for both records
    assert abs(stats.score2_over_score1.avg - 0.5) <= 1e-12
    assert stats.score2_over_score1.std <= 1e-12
    assert abs(stats.score3_over_score2.avg - 0.5) <= 1e-12
    assert stats.score3_over_score2.std <= 1e-12
    assert stats.score1.count == stats.score2_over_score1.count == 2


def test_statistics_identical_records_zero_std():
    records = [make_record((0.5, 0.25, 0.2))] * 4
    stats = score_statistics(records)
    assert stats.score1.std == 0.0
    assert stats.score2_over_score1.std == 0.0
    assert stats.score3_over_score2.std == 0.0


def test_statistics_zero_denominator_excluded():
    records = [make_record((0.5, 0.25, 0.2)), make_record((0.0, 0.0, 0.0))]
    stats = score_statistics(records)
    assert stats.total == 2
    assert stats.score1.count == 2
    assert stats.score2_over_score1.count == 1
    assert stats.score3_over_score2.count == 1
    assert abs(stats.score2_over_score1.avg - 0.5) <= 1e-12


def test_statistics_empty_rejected():
    with pytest.raises(InvalidInputError):
        score_statistics([])


def test_threshold_candidates_arithmetic():
    records = [make_record((0.4, 0.2, 0.1)), make_record((0.6, 0.3, 0.15))]
    grid = threshold_candidates(score_statistics(records))
    assert grid["score1"]["avg"] == pytest.approx(0.5, abs=1e-12)
    assert grid["score1"]["avg_plus_std"] == pytest.approx(0.6, abs=1e-12)
    assert grid["score1"]["avg_minus_std"] == pytest.approx(0.4, abs=1e-12)
    # candidates are clipped into [0, 1]
    wide = threshold_candidates(score_statistics(
        [make_record((1.0, 0.0, 0.0)), make_record((0.0, 0.0, 0.0))]
    ))
    assert wide["score1"]["avg_plus_std"] == 1.0
    assert wide["score1"]["avg_minus_std"] == 0.0


def test_partition_hits_each_branch_once():
    records = [
        make_record((0.2, 0.1, 0.05)),   # score1 below threshold: 0
        make_record((0.9, 0.2, 0.1)),    # ratio2 fails: 1
        make_record((0.9, 0.8, 0.2)),    # ratio3 fails: 2
        make_record((0.9, 0.8, 0.5)),    # all pass: 3
    ]
    counts = partition_counts(records, OPERATING_POINT)
    assert counts.by_appends == (1, 1, 1, 1)
    assert counts.total == 4


def test_partition_impossible_first_threshold():
    records = [make_record((0.9, 0.8, 0.5)), make_record((1.0, 1.0, 1.0))]
    counts = partition_counts(records, ConcatenationPolicy(1.0, 0.5, 0.5))
    assert counts.by_appends == (2, 0, 0, 0)


def test_partition_counts_sum_to_total():
    records = [make_record((s / 10, s / 20, s / 40)) for s in range(1, 10)]
    counts = partition_counts(records, OPERATING_POINT)
    assert sum(counts.by_appends) == counts.total == len(records)


def test_partition_empty_rejected():
    with pytest.raises(InvalidInputError):
        partition_counts([], OPERATING_POINT)


def test_stats_table_layout():
    records = [make_record((0.4, 0.2, 0.1)), make_record((0.6, 0.3, 0.15))]
    table = format_stats_table(score_statistics(records))
    lines = table.splitlines()
    assert lines[0].split() == ["score1", "score2/score1", "score3/score2"]
    assert lines[1].startswith("avg") and "0.5000" in lines[1]
    assert lines[2].startswith("std") and "0.1000" in lines[2]


def test_partition_table_layout():
    records = [
        make_record((0.2, 0.1, 0.05)),
        make_record((0.9, 0.2, 0.1)),
        make_record((0.9, 0.8, 0.2)),
        make_record((0.9, 0.8, 0.5)),
    ]
    table = format_partition_table(partition_counts(records, OPERATING_POINT))
    lines = table.splitlines()
    assert lines[0] == "Total: 4 questions"
    assert lines[1].split() == ["0", "BQ", "1", "BQ", "2", "BQ", "3", "BQ"]
    assert lines[2].split() == ["(25.00%)"] * 4
    assert lines[3].split() == ["#", "Q", "1", "1", "1", "1"]


def test_default_thresholds_value():
    assert DEFAULT_THRESHOLDS == (0.43, 0.82, 0.53)
