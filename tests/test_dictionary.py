"""Dictionary construction: dedup, normalization, lookup, cache."""

import struct

import numpy as np
import pytest

from basiq.dictionary import (
    Dictionary,
    build_dictionary,
    load_dictionary_cache,
    normalize_question_text,
    save_dictionary_cache,
)
from basiq.encoder import QuestionRecord
from basiq.errors import InvalidInputError, ParseError, ShapeError

from conftest import question_records, unit_columns


def test_duplicate_normalized_text_collapses():
    records = [
        QuestionRecord("a", "What color is the car?", np.array([1.0, 0.0])),
        QuestionRecord("b", "  what COLOR is  the car? ", np.array([0.0, 1.0])),
    ]
    d = build_dictionary(records)
    assert d.n_columns == 1
    assert d.ids == ("a",)
    assert d.texts == ("What color is the car?",)


def test_exact_dedup_keeps_case_variants():
    records = [
        QuestionRecord("a", "What color is the car?", np.array([1.0, 0.0])),
        QuestionRecord("b", "what color is the car?", np.array([0.0, 1.0])),
    ]
    assert build_dictionary(records, dedup="exact").n_columns == 2


def test_three_four_five_normalization():
    d = build_dictionary([QuestionRecord("a", "ok?", np.array([3.0, 4.0]))])
    assert np.allclose(d.matrix[:, 0], [0.6, 0.8], atol=1e-15)
    assert d.column_norms_original[0] == 5.0


@pytest.mark.parametrize("dim", [64, 300])
def test_columns_match_per_record_normalization(rng, dim):
    vectors = 10.0 ** rng.uniform(-3, 3, size=50) * rng.standard_normal((dim, 50))
    d = build_dictionary(question_records(vectors))
    for j, vec in enumerate(vectors.T):
        norm = float(np.linalg.norm(vec))
        assert d.column_norms_original[j] == norm
        assert d.matrix[:, j].tobytes() == (vec / norm).tobytes()


def test_matrix_shape_contract(rng):
    d = build_dictionary(question_records(unit_columns(rng, 12, 30)))
    assert d.matrix.shape == (12, 30)
    assert d.dim == 12 and d.n_columns == 30


def test_unit_norm_invariant(rng):
    vectors = 10.0 ** rng.uniform(-3, 3, size=40) * unit_columns(rng, 8, 40)
    d = build_dictionary(question_records(vectors))
    norms = np.linalg.norm(d.matrix, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_rebuild_on_own_texts_is_stable(rng):
    d = build_dictionary(question_records(unit_columns(rng, 6, 10)))
    again = build_dictionary(
        QuestionRecord(i, t, v)
        for i, t, v in zip(d.ids, d.texts, d.matrix.T)
    )
    assert again.n_columns == d.n_columns
    assert again.texts == d.texts


def test_dedup_preserves_first_occurrence_order():
    records = [
        QuestionRecord("a", "first?", np.array([1.0, 0.0])),
        QuestionRecord("b", "second?", np.array([0.0, 1.0])),
        QuestionRecord("c", "FIRST?", np.array([1.0, 1.0])),
        QuestionRecord("d", "third?", np.array([1.0, 2.0])),
    ]
    d = build_dictionary(records)
    assert d.ids == ("a", "b", "d")


def test_lookup_single_column():
    d = build_dictionary([QuestionRecord("only", "is that a cat?", np.array([2.0, 0.0]))])
    rec_id, text, column = d.lookup(0)
    assert (rec_id, text) == ("only", "is that a cat?")
    assert np.array_equal(column, np.array([1.0, 0.0]))


def test_lookup_out_of_range():
    d = build_dictionary([QuestionRecord("only", "ok?", np.array([1.0]))])
    with pytest.raises(IndexError):
        d.lookup(1)
    with pytest.raises(IndexError):
        d.lookup(-1)


def test_zero_norm_vector_names_record():
    records = [
        QuestionRecord("good", "fine?", np.array([1.0, 0.0])),
        QuestionRecord("bad", "broken?", np.array([0.0, 0.0])),
    ]
    with pytest.raises(InvalidInputError, match="bad"):
        build_dictionary(records)


@pytest.mark.parametrize("where", ["kept", "dropped duplicate"])
def test_non_finite_vector_names_record(where):
    records = [
        QuestionRecord("good", "fine?", np.array([1.0, 0.0])),
        QuestionRecord("bad", "FINE?" if where == "dropped duplicate" else "broken?",
                       np.array([np.nan, 1.0])),
        QuestionRecord("good", "later?", np.array([0.0, 1.0])),  # duplicate id, reported second
    ]
    with pytest.raises(InvalidInputError, match="'bad': non-finite"):
        build_dictionary(records)


def test_nan_column_rejected():
    m = np.eye(3)
    m[:, 1] = np.nan
    with pytest.raises(InvalidInputError, match="column 1 has norm nan"):
        Dictionary(matrix=m, ids=("a", "b", "c"), texts=("a?", "b?", "c?"),
                   column_norms_original=np.ones(3))


def test_cache_with_nan_column_rejected(tmp_path):
    d = build_dictionary(question_records(np.eye(3)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    blob = bytearray(path.read_bytes())
    column_1 = len(blob) - 8 * 3 * 3 + 8 * 3  # column-major float64 payload ends the file
    blob[column_1 : column_1 + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidInputError, match="column 1 has norm nan"):
        load_dictionary_cache(path)


def test_empty_input_rejected():
    with pytest.raises(InvalidInputError):
        build_dictionary([])


def test_duplicate_id_rejected():
    records = [
        QuestionRecord("a", "one?", np.array([1.0])),
        QuestionRecord("a", "two?", np.array([2.0])),
    ]
    with pytest.raises(InvalidInputError, match="duplicate"):
        build_dictionary(records)


def test_dimension_mismatch_rejected():
    records = [
        QuestionRecord("a", "one?", np.array([1.0, 0.0])),
        QuestionRecord("b", "two?", np.array([1.0, 0.0, 0.0])),
    ]
    with pytest.raises(ShapeError):
        build_dictionary(records)


def test_matrix_is_read_only(rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 5)))
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 7.0


def test_normalize_question_text():
    assert normalize_question_text("  What   IS this? ") == "what is this?"


def test_cache_round_trip_bit_identical(tmp_path, rng):
    records = question_records(3.7 * unit_columns(rng, 9, 21))
    # non-ASCII text exercises the UTF-8 length-prefixed string encoding
    records[5] = records[5]._replace(text="c'est une pomme, n'est-ce pas? 🍎")
    d = build_dictionary(records)
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    loaded = load_dictionary_cache(path)
    assert np.array_equal(loaded.matrix, d.matrix)
    assert loaded.matrix.flags["F_CONTIGUOUS"]
    assert loaded.ids == d.ids
    assert loaded.texts == d.texts
    assert np.array_equal(loaded.column_norms_original, d.column_norms_original)


def test_cache_truncation_rejected(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 3)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError):
        load_dictionary_cache(path)


def test_cache_bad_magic_rejected(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 3)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    raw = bytearray(path.read_bytes())
    raw[:2] = b"zz"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="magic"):
        load_dictionary_cache(path)
