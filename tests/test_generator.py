"""Top-3 extraction, record validation, batch behavior, JSON format."""

import json

import numpy as np
import pytest

from basiq.errors import InvalidInputError, ParseError, UncertifiedSolveError
from basiq.generator import (
    BqdRecord,
    _parse_record,
    _ranked_entries,
    check_scores,
    generate_basic_questions,
    generate_batch,
    read_bqd,
    record_to_json,
    write_bqd,
)
from basiq.solver import LassoConfig, SparseSolution
from basiq.vqa_metric import AnswerRecord

from conftest import (
    CHUNK_CASES,
    chunk_ends,
    jsonl_over_chunks,
    near_duplicate_pairs,
    orthogonal_dictionary,
    outcome,
    plain_jsonl,
    question_records,
    unit_columns,
)
from basiq.dictionary import Dictionary, build_dictionary


def test_planted_query_top_score():
    d = orthogonal_dictionary(16, 10, seed=1)
    b = d.matrix[:, 4].copy()
    columns, scores = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert columns[0] == 4
    assert scores[0] == pytest.approx(0.976, abs=1e-6)


def test_single_positive_coefficient_pads_with_zeros():
    d = orthogonal_dictionary(8, 5, seed=2)
    b = d.matrix[:, 3].copy()
    columns, scores = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert scores[1:] == [0.0, 0.0]
    # padding comes from the smallest unused column indices
    assert columns[1:] == [0, 1]


def test_scores_sorted_nonincreasing(rng):
    for trial in range(20):
        d = build_dictionary(question_records(unit_columns(rng, 10, 24)))
        b = rng.standard_normal(10)
        _, scores = generate_basic_questions(d, b)
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)


def test_negative_coefficients_never_selected():
    d = orthogonal_dictionary(8, 5, seed=3)
    b = -d.matrix[:, 3]  # anti-aligned: its coefficient would be negative
    columns, scores = generate_basic_questions(d, b, config=LassoConfig.relative(0.024))
    assert scores == [0.0, 0.0, 0.0]
    assert columns == [0, 1, 2]


def test_clamping_counts_reported():
    d = orthogonal_dictionary(8, 4, seed=4)
    b = 2.0 * d.matrix[:, 2]  # coefficient 2 - lambda, clamped to 1
    result = generate_batch(d, [("img", "main?", b)], config=LassoConfig.relative(0.024))
    assert result.diagnostics.clamped == 1
    assert result.records[0].scores[0] == 1.0


def test_exclude_text_skips_self_match():
    d = orthogonal_dictionary(12, 6, seed=5)
    b = d.matrix[:, 2].copy()
    columns, _ = generate_basic_questions(
        d, b, config=LassoConfig.relative(0.024), exclude_text=d.texts[2]
    )
    assert 2 not in columns


@pytest.mark.parametrize("coefficients, excluded, expected", [
    ([0.0, 0.5, 0.2, 0.5, 0.5, 0.5], None, ([1, 3, 4], [0.5, 0.5, 0.5], 0)),
    ([0.1, 0.9, 0.3, 0.8, 0.2, 0.0], 1, ([3, 2, 4], [0.8, 0.3, 0.2], 0)),
    ([0.0, 0.0, 0.4, -0.5, 0.0, 0.0], 1, ([2, 0, 3], [0.4, 0.0, 0.0], 0)),
    ([1.5, 0.3, 2.0, 1.0, 0.0, 0.0], None, ([2, 0, 3], [1.0, 1.0, 1.0], 2)),
    ([-0.1, 0.0, -2.0, -0.0, -0.3, 0.0], None, ([0, 1, 2], [0.0, 0.0, 0.0], 0)),
], ids=["ties by ascending column", "excluded column skipped", "pads skip used and excluded",
        "clamped above 1", "all nonpositive"])
def test_ranking_of_hand_built_solutions(coefficients, excluded, expected):
    # Column ``excluded`` shares the self-match text with no other column;
    # a coefficient of exactly 1 is not a clamp.
    n = len(coefficients)
    texts = ["self?" if j == excluded else f"q{j}?" for j in range(n)]
    d = Dictionary(np.eye(n), [f"id{j}" for j in range(n)], texts)
    solution = SparseSolution(coefficients, 0.0, 1, 0.0, True)
    exclude_text = None if excluded is None else "self?"
    ranked = _ranked_entries(d, solution, LassoConfig(), exclude_text)
    assert ranked == expected
    assert type(ranked[2]) is int


def test_k_larger_than_dictionary_rejected():
    d = orthogonal_dictionary(4, 2, seed=6)
    with pytest.raises(InvalidInputError):
        generate_basic_questions(d, d.matrix[:, 0])


def test_emit_record_validates_count_and_order():
    texts, scores = ["a?", "b?", "c?"], [0.9, 0.5, 0.2]
    record = BqdRecord("img1", "main?", texts, scores)
    assert record.texts == ("a?", "b?", "c?")
    assert record.scores == (0.9, 0.5, 0.2)
    with pytest.raises(InvalidInputError, match="got 2"):
        BqdRecord("img1", "main?", texts[:2], scores[:2])
    with pytest.raises(InvalidInputError, match="expected 3 texts, got 2"):
        BqdRecord("img1", "main?", texts[:2], scores)
    with pytest.raises(InvalidInputError, match="nonincreasing"):
        BqdRecord("img1", "main?", texts, scores[::-1])


def test_score_out_of_range_rejected():
    with pytest.raises(InvalidInputError, match=r"score 1.5 outside \[0, 1\]"):
        BqdRecord("img1", "main?", ["a?", "b?", "c?"], [1.5, 0.5, 0.0])
    with pytest.raises(InvalidInputError, match=r"score -0.1 outside \[0, 1\]"):
        BqdRecord("img1", "main?", ["a?", "b?", "c?"], [0.5, 0.0, -0.1])


@pytest.mark.parametrize("make", ["_replace", "_make"])
def test_records_rebuilt_from_fields_are_checked(make):
    record = BqdRecord("img1", "main?", ("a?", "b?", "c?"), (0.5, 0.25, 0.0))
    answer = AnswerRecord("q1", "red", ("red",))
    invalid = [
        (record, {"scores": (5.0, 0.25, 0.0)}),
        (record, {"scores": (0.5, 0.25)}),
        (record, {"scores": (0.0, 0.25, 0.5)}),
        (record, {"texts": ("a?", "b?")}),
        (record, {"image_id": ""}),
        (answer, {"annotator_answers": ()}),
    ]
    for rec, change in invalid:
        with pytest.raises(InvalidInputError):
            if make == "_replace":
                rec._replace(**change)
            else:
                type(rec)._make({**rec._asdict(), **change}.values())


def test_record_json_round_trip(tmp_path):
    record = BqdRecord("img9", "what is it?", ["first?", "second?", "third?"],
                       [0.976, 0.1234565, 0.0])
    line = record_to_json(record)
    path = tmp_path / "bqd.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    [back] = read_bqd(path)
    assert record_to_json(back) == line


def test_record_json_six_decimal_scores():
    record = BqdRecord("img9", "why?", ["a?", "b?", "c?"], [0.5, 1.0 / 3.0, 0.0])
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
        columns, scores = generate_basic_questions(d, vec)
        assert record.image_id == image_id
        assert record.mq_text == mq_text
        assert record.texts == tuple(d.texts[j] for j in columns)
        assert record.scores == tuple(scores)
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


def uncertified_case():
    """A 16x200 dictionary and a query whose solve stops two path steps in."""
    rng = np.random.default_rng(0)
    d = build_dictionary(question_records(unit_columns(rng, 16, 200)))
    return d, rng.standard_normal(16), LassoConfig.relative(0.024, max_sweeps=2)


def test_uncertified_solve_is_a_batch_error():
    d, b, config = uncertified_case()
    planted = d.matrix[:, 5].copy()  # certifies in two steps
    result = generate_batch(d, [("img1", "main?", b), ("img2", "other?", planted)],
                            config=config)
    assert [r.image_id for r in result.records] == ["img2"]
    [(image_id, message)] = result.diagnostics.errors
    assert image_id == "img1"
    assert "not certified" in message
    assert "duality gap 7.7" in message
    assert "tol 1e-06" in message
    assert "after 2 path steps" in message


def test_uncertified_solve_raises():
    d, b, config = uncertified_case()
    with pytest.raises(UncertifiedSolveError, match="after 2 path steps"):
        generate_basic_questions(d, b, config=config)


def test_near_duplicate_columns_are_not_a_batch_error():
    # Columns about 1e-8 apart once made the active Gram matrix singular;
    # a column in the active span now does not enter, and both queries
    # give records.
    a, b = near_duplicate_pairs(116)
    d = build_dictionary(question_records(a))
    planted = d.matrix[:, 0].copy()
    result = generate_batch(d, [("img1", "main?", b), ("img2", "other?", planted)],
                            config=LassoConfig.relative(1e-3))
    assert [r.image_id for r in result.records] == ["img1", "img2"]
    assert result.diagnostics.errors == ()
    assert result.diagnostics.re_solved == 0


def test_batch_counts_float64_re_solves():
    # The float32 event search misses the certificate on this query (see
    # test_solver); its float64 re-solve certifies and is counted.
    a, b = near_duplicate_pairs(5)
    d = build_dictionary(question_records(a))
    result = generate_batch(d, [("img1", "main?", b), ("img2", "other?", d.matrix[:, 0])],
                            config=LassoConfig.relative(1e-3))
    assert [r.image_id for r in result.records] == ["img1", "img2"]
    assert result.diagnostics.errors == ()
    assert result.diagnostics.re_solved == 1


def test_uncertified_re_solve_says_so():
    # A miss of both searches is an error that names the float64 re-solve.
    d, b, config = uncertified_case()
    result = generate_batch(d, [("img1", "main?", b)], config=config)
    [(_, message)] = result.diagnostics.errors
    assert message.endswith("after 2 path steps of a float64 re-solve")
    assert result.diagnostics.re_solved == 1


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
    with pytest.raises(InvalidInputError):
        BqdRecord(image_id="x", mq_text="y?", texts=("a?", "b?", "c?"), scores=(0.1, 0.5, 0.2))


_GOOD_BQS = [{"text": "a?", "score": 0.5}, {"text": "b?", "score": 0.2},
             {"text": "c?", "score": 0.1}]


# Scores are range-checked before the count and the order, so each of these
# lines names its out-of-range score.
@pytest.mark.parametrize("bqs, message", [
    (_GOOD_BQS + [{"text": "d?", "score": 7.0}], "score 7.0 outside [0, 1]"),
    (_GOOD_BQS[:2] + [{"text": "c?", "score": float("nan")}], "score nan outside [0, 1]"),
], ids=["fourth score 7.0", "NaN last score"])
def test_record_from_json_checks_scores_first(tmp_path, bqs, message):
    good = json.dumps({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS})
    path = tmp_path / "bqd.jsonl"
    path.write_text(good + "\n" + json.dumps({"image_id": "i", "mq": "m?", "bqs": bqs}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_bqd(path)
    assert str(exc.value) == f"{path}:2: malformed record: {message}"


@pytest.mark.parametrize("n_lines, chunk", [(7, 0), (1780, 3)],
                         ids=["same chunk", "three chunks later"])
def test_read_bqd_reports_the_first_fault_in_file_order(tmp_path, n_lines, chunk):
    # A malformed line 2 wins over invalid UTF-8 on the last line, in the
    # chunk of the file that holds line 2 or a later one.
    good = json.dumps({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS})
    lines = [good, good.replace('"m?"', "7")] + [good] * (n_lines - 2)
    data = "\n".join(lines).encode("utf-8") + b"\n"
    path = tmp_path / "bqd.jsonl"
    path.write_bytes(data)
    assert sum(end <= len(data) - 20 for end in chunk_ends(path)) == chunk
    path.write_bytes(data[:-20] + b"\xff" + data[-20:])
    with pytest.raises(ParseError) as exc:
        read_bqd(path)
    assert str(exc.value) == f"{path}:2: malformed record: 'mq' must be a string, got int"


def test_read_bqd_names_an_integer_past_the_digit_limit(tmp_path):
    # json reads the line but int() refuses its value: a malformed record,
    # named with its line, whether the fast scan or json.loads meets it.
    digits = "1" * 5000
    with pytest.raises(ValueError) as refused:
        int(digits)
    good = json.dumps({"image_id": "i", "mq": "m?", "bqs": _GOOD_BQS})
    path = tmp_path / "bqd.jsonl"
    path.write_text(f"{good}\n\n{good.replace('0.1', digits)}\n{good[:-1]}\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_bqd(path)
    assert str(exc.value) == f"{path}:3: malformed record: {refused.value}"


def _reference_read_bqd(path):
    """``read_bqd`` on the lines of ``plain_jsonl``, an oracle for its line reading."""
    records = []
    for ln, obj in plain_jsonl(path, "%s:%d"):
        try:
            records.append(_parse_record(obj))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{ln}: malformed record: {exc}") from None
    return records


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_read_bqd_chunks_read_as_the_plain_reader(tmp_path, case):
    path = tmp_path / "bqd.jsonl"
    path.write_bytes(jsonl_over_chunks(
        lambda i: {"image_id": f"img{i}", "mq": f"m{i}?", "bqs": _GOOD_BQS}, case))
    assert outcome(read_bqd, path) == outcome(_reference_read_bqd, path)


def _walk_check_scores(scores):
    """The score law checked as one walk of the scores, as it was before the
    chained comparison: the oracle for every fault's type and message."""
    scores = tuple(scores)
    for s in scores:
        if not 0.0 <= s <= 1.0:
            raise InvalidInputError(f"score {s!r} outside [0, 1]")
    if len(scores) != 3:
        raise InvalidInputError(f"expected exactly 3 supporting questions, got {len(scores)}")
    if not (scores[0] >= scores[1] >= scores[2]):
        raise InvalidInputError(f"scores must be nonincreasing, got {list(scores)}")
    return scores


_NAN, _INF = float("nan"), float("inf")
_SCORE_CASES = [
    (0.5, 0.25, 0.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.5, 0.5, -0.0), (-0.0, 0.0, -0.0),
    (1, 1, 0), (True, True, False), (1.0, True, 0), [0.9, 0.5, 0.1],
    (_NAN, 0.5, 0.1), (0.5, _NAN, 0.1), (0.5, 0.1, _NAN), (_INF, 0.5, 0.1), (0.5, 0.1, -_INF),
    (1.0000000000000002, 0.5, 0.1), (0.5, 0.1, -5e-324), (2, 1, 0), (1, 0, -1),
    ("0.5", 0.25, 0.0), (0.5, "0.25", 0.0), (0.5, 0.25, None), (None, 0.25, 0.0), (0.5, None, 9.0),
    (), (0.5, 0.25), (0.5, 0.25, 0.1, 0.0), (0.5, 0.25, 0.1, 7.0), (0.5, _NAN),
    (0.1, 0.5, 0.9), (0.1, 0.5, 0.2), (0.5, 0.1, 0.2), (0.5, 0.5, 0.6), (0.0, 0.0, 5e-324),
]


@pytest.mark.parametrize("scores", _SCORE_CASES, ids=repr)
def test_check_scores_matches_the_walk(scores):
    def result(check):
        try:
            got = check(scores)
        except Exception as exc:  # a TypeError from comparing a str or None too
            return type(exc), str(exc)
        return type(got), [(type(s), repr(s)) for s in got]

    assert result(check_scores) == result(_walk_check_scores)
