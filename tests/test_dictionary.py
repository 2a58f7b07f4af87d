"""Dictionary construction: dedup, normalization, cache."""

import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from basiq.dictionary import (
    Dictionary,
    build_dictionary,
    load_dictionary_cache,
    normalize_question_text,
    save_dictionary_cache,
)
from basiq.errors import BasiqError, InvalidInputError, ParseError, ShapeError
from basiq.fileformats import QuestionRecord, load_embeddings
from basiq.generator import generate_batch

from conftest import (
    CACHE_FAULTS, corrupt_cache, mapping_of, needs_fifo, question_records, read_through_pipe,
    unit_columns, write_text_embeddings,
)


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


@pytest.mark.parametrize("dim", [64, 300])
def test_columns_match_per_record_normalization(rng, dim):
    vectors = 10.0 ** rng.uniform(-3, 3, size=50) * rng.standard_normal((dim, 50))
    d = build_dictionary(question_records(vectors))
    for j, vec in enumerate(vectors.T):
        assert d.matrix[:, j].tobytes() == (vec / float(np.linalg.norm(vec))).tobytes()


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
        QuestionRecord("other", "later?", np.array([0.0, 1.0])),
    ]
    with pytest.raises(InvalidInputError, match="^record 'bad': non-finite vector$"):
        build_dictionary(records)
    # Every record's fields are checked before any value, so a later
    # duplicate id wins over the earlier non-finite vector.
    records[2] = records[2]._replace(id="good")
    with pytest.raises(InvalidInputError, match="^duplicate record id 'good'$"):
        build_dictionary(records)


def test_first_non_finite_vector_in_file_order_wins(tmp_path):
    # Kept rows and dropped duplicates are checked apart; the record named
    # is the first bad one in the file, whichever kind it is.
    good = QuestionRecord("good", "fine?", np.array([1.0, 0.0]))
    cases = [
        ([good,
          QuestionRecord("dup", "FINE?", np.array([np.nan, 1.0])),
          QuestionRecord("later", "later?", np.array([np.inf, 1.0]))], "dup"),
        ([good,
          QuestionRecord("kept", "kept?", np.array([np.inf, 1.0])),
          QuestionRecord("dup", "FINE?", np.array([np.nan, 1.0]))], "kept"),
        ([good,
          QuestionRecord("dup1", "FINE?", np.array([0.0, 1.0])),
          QuestionRecord("dup2", " fine? ", np.array([np.nan, 1.0])),
          QuestionRecord("later", "later?", np.array([np.inf, 1.0]))], "dup2"),
    ]
    # Read from a file, the vectors view the reader's 256-line blocks: the
    # bad duplicate sits in the second block, the bad kept record in the third.
    path = tmp_path / "emb.txt"
    write_text_embeddings(path, [(f"q{i}", f"question {i}?", [1.0, float(i)])
                                 for i in range(600)], 2)
    records = load_embeddings(path)
    records[300] = records[300]._replace(text="QUESTION 10?")
    records[300].vector[0] = np.nan
    records[550].vector[1] = np.inf
    assert not np.shares_memory(records[300].vector.base, records[550].vector.base)
    cases.append((records, "q300"))
    for records, first in cases:
        with pytest.raises(InvalidInputError, match=f"^record '{first}': non-finite vector$"):
            build_dictionary(records)


def test_zero_norm_vector_loses_to_later_duplicate_id():
    records = [
        QuestionRecord("good", "fine?", np.array([1.0, 0.0])),
        QuestionRecord("bad", "broken?", np.array([0.0, 0.0])),
        QuestionRecord("good", "later?", np.array([0.0, 1.0])),
    ]
    with pytest.raises(InvalidInputError, match="^duplicate record id 'good'$"):
        build_dictionary(records)


def test_non_finite_vector_reported_before_zero_norm():
    records = [
        QuestionRecord("zero", "empty?", np.array([0.0, 0.0])),
        QuestionRecord("bad", "broken?", np.array([np.inf, 1.0])),
    ]
    with pytest.raises(InvalidInputError, match="^record 'bad': non-finite vector$"):
        build_dictionary(records)


@pytest.mark.parametrize("records, dedup, error, message", [
    ([QuestionRecord("a", "one?", np.ones(2))], "fuzzy", InvalidInputError,
     "unknown dedup mode 'fuzzy'"),
    ([QuestionRecord("", "one?", np.ones(2))], "normalized", InvalidInputError,
     "record with empty id"),
    ([QuestionRecord("a", " \t", np.ones(2))], "normalized", InvalidInputError,
     "record 'a' has empty text"),
    ([QuestionRecord("a", "one?", np.ones((2, 2)))], "normalized", ShapeError,
     "record 'a': vector must be 1-D"),
], ids=["unknown dedup", "empty id", "empty text", "2-D vector"])
def test_build_dictionary_record_faults(records, dedup, error, message):
    with pytest.raises(error) as info:
        build_dictionary(records, dedup=dedup)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("fields, error, message", [
    (dict(matrix=np.ones(3)), ShapeError, "matrix must be 2-D, got shape (3,)"),
    (dict(matrix=np.ones((3, 0))), ShapeError,
     "matrix must have at least one row and one column"),
    (dict(matrix=2 * np.eye(3)), InvalidInputError,
     "column 0 has norm 2.0, expected 1 within 1e-09"),
    (dict(ids=("a", "b")), ShapeError, "ids and texts must each have one entry per column"),
    (dict(texts=("a?",) * 4), ShapeError, "ids and texts must each have one entry per column"),
    (dict(ids=("a", "b", "a")), InvalidInputError, "ids must be unique"),
], ids=["1-D", "no columns", "norm 2", "short ids", "long texts", "repeated id"])
def test_dictionary_constructor_faults(fields, error, message):
    good = dict(matrix=np.eye(3), ids=("a", "b", "c"), texts=("a?", "b?", "c?"))
    with pytest.raises(error) as info:
        Dictionary(**dict(good, **fields))
    assert type(info.value) is error and str(info.value) == message


def test_nan_column_rejected():
    m = np.eye(3)
    m[:, 1] = np.nan
    with pytest.raises(InvalidInputError, match="column 1 has norm nan"):
        Dictionary(matrix=m, ids=("a", "b", "c"), texts=("a?", "b?", "c?"))


def test_cache_with_nan_column_rejected(tmp_path):
    d = build_dictionary(question_records(np.eye(3)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    blob = bytearray(path.read_bytes())
    column_1 = len(blob) - 8 * 3 * 3 + 8 * 3  # column-major float64 payload ends the file
    blob[column_1 : column_1 + 8] = struct.pack("<d", np.nan)
    path.write_bytes(bytes(blob))
    with pytest.raises(ParseError) as info:
        load_dictionary_cache(path)
    assert str(info.value) == f"{path}: record 1: non-finite value"


@pytest.mark.parametrize("kind", list(CACHE_FAULTS))
def test_cache_faults_name_the_file(tmp_path, kind):
    error, message = CACHE_FAULTS[kind]
    path = tmp_path / "dict.bin"
    corrupt_cache(path, kind)
    with pytest.raises(error) as info:
        load_dictionary_cache(path)
    assert type(info.value) is error and str(info.value) == f"{path}: {message}"


@needs_fifo
@pytest.mark.parametrize("kind", [None, *CACHE_FAULTS], ids=["intact", *CACHE_FAULTS])
def test_cache_file_and_pipe_read_alike(tmp_path, kind):
    # A pipe is read to its end and its bytes stand in for the file, so both
    # take one path: they give the same dictionary, or the same fault.
    path = tmp_path / "dict.bin"
    if kind is None:
        save_dictionary_cache(Dictionary(np.eye(2), ("a", "b"), ("a?", "b?")), path)
    else:
        corrupt_cache(path, kind)

    def outcome(read, where):
        try:
            d = read()
        except BasiqError as exc:
            return type(exc), str(exc).removeprefix(f"{where}: ")
        return d.ids, d.texts, d.matrix.tobytes()

    from_file = outcome(lambda: load_dictionary_cache(path), path)
    from_pipe = outcome(lambda: read_through_pipe(tmp_path, path.read_bytes(),
                                                  load_dictionary_cache),
                        tmp_path / "input.fifo")
    assert from_pipe == from_file
    assert (kind is None) == (len(from_file) == 3)


@pytest.mark.parametrize("source", ["file", pytest.param("pipe", marks=needs_fifo)])
def test_cache_round_trips_multibyte_and_long_strings(tmp_path, source):
    # Multi-byte ids and texts, and one text longer than 64 KiB, come back as
    # written, from a file and from a pipe.
    texts = ("caf\u00e9 \u2603?", "x" * ((1 << 16) + 5) + "?", "\U0001f600?")
    d = Dictionary(np.eye(3), ("a", "\u00df", "\u6f22"), texts)
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    if source == "file":
        loaded = load_dictionary_cache(path)
    else:
        loaded = read_through_pipe(tmp_path, path.read_bytes(), load_dictionary_cache)
    assert (loaded.ids, loaded.texts) == (d.ids, d.texts)
    assert loaded.matrix.tobytes() == d.matrix.tobytes()


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
    assert path.read_bytes().endswith(d.matrix.tobytes(order="F"))


def test_cache_round_trip_at_retrieval_shape(tmp_path):
    # n >> dim, as in retrieval: the reload is the same dictionary and solves the same.
    rng = np.random.default_rng(4096)
    d = build_dictionary(question_records(rng.standard_normal((64, 4096))))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    loaded = load_dictionary_cache(path)
    assert loaded.matrix.tobytes(order="F") == d.matrix.tobytes(order="F")
    assert loaded.matrix.flags["F_CONTIGUOUS"] and loaded.matrix.flags["ALIGNED"]
    assert (loaded.ids, loaded.texts) == (d.ids, d.texts)
    assert loaded.search_matrix.tobytes() == d.search_matrix.tobytes()
    # half planted near a column, half random
    picks = rng.choice(d.n_columns, 18, replace=False)
    vectors = [*(d.matrix[:, picks].T + 0.05 * rng.standard_normal((18, 64))),
               *rng.standard_normal((18, 64))]
    queries = [(f"img{k}", f"query {k}?", vec) for k, vec in enumerate(vectors)]
    result = generate_batch(loaded, queries)
    assert len(result.records) == 36
    assert result == generate_batch(d, queries)


def test_cache_is_an_embedding_file_of_the_columns(tmp_path, rng):
    d = build_dictionary(question_records(3.0 * unit_columns(rng, 5, 7)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    records = load_embeddings(path)
    assert [(rec.id, rec.text) for rec in records] == list(zip(d.ids, d.texts))
    assert np.array([rec.vector for rec in records]).tobytes() == d.matrix.T.tobytes()


def test_unaligned_matrix_is_stored_aligned():
    # BLAS skips a float64 array off 8-byte alignment, and rounds differently without it.
    raw = b"x" + np.eye(3).tobytes(order="F")
    m = np.frombuffer(raw, dtype=np.float64, offset=1).reshape((3, 3), order="F")
    assert not m.flags["ALIGNED"]
    d = Dictionary(matrix=m, ids=("a", "b", "c"), texts=("a?", "b?", "c?"))
    assert d.matrix.flags["ALIGNED"] and d.matrix.flags["F_CONTIGUOUS"]
    assert np.array_equal(d.matrix, np.eye(3))


def test_constructor_leaves_the_callers_array_writable():
    a = np.asfortranarray(np.eye(2))
    d = Dictionary(a, ("a", "b"), ("a?", "b?"))
    assert a.flags.writeable and not d.matrix.flags.writeable
    a[0, 0] = 7.0
    assert d.matrix[0, 0] == 1.0
    frozen = np.asfortranarray(np.eye(2))
    frozen.setflags(write=False)
    assert Dictionary(frozen, ("a", "b"), ("a?", "b?")).matrix is frozen  # no copy needed


def test_read_only_view_of_a_writable_array_is_copied():
    # The view is read-only, but the array that owns its memory is not.
    a = np.asfortranarray(np.eye(2))
    v = a.view()
    v.setflags(write=False)
    d = Dictionary(v, ("a", "b"), ("a?", "b?"))
    a[0, 0] = 5.0
    assert d.matrix[0, 0] == 1.0


def test_dropped_duplicates_hold_no_rows():
    records = [QuestionRecord("a", "Is it red?", np.array([3.0, 4.0])),
               QuestionRecord("b", "is it  RED?", np.array([0.0, 1.0])),
               QuestionRecord("c", "Is it blue?", np.array([0.0, 2.0]))]
    d = build_dictionary(records)
    assert d.ids == ("a", "c")
    assert d.matrix.base.shape == (2, 2) and not d.matrix.base.flags.writeable
    assert np.array_equal(d.matrix, [[0.6, 0.0], [0.8, 1.0]])


def test_cache_load_peak_memory_is_one_value_block(tmp_path, block_bytes):
    # The values are read straight into the dictionary's matrix: no whole-file
    # bytes and no second array (numpy reports its buffers to tracemalloc).
    # The matrix is a mapping tracemalloc cannot see, so its size is added.
    rng = np.random.default_rng(4096)
    d = build_dictionary(question_records(rng.standard_normal((64, 4096))))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    tracemalloc.start()
    try:
        loaded = load_dictionary_cache(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.n_columns == 4096
    assert block_bytes == [d.matrix.nbytes]
    assert peak + sum(block_bytes) < 1.5 * d.matrix.nbytes


@needs_fifo
def test_piped_cache_load_peak_memory(tmp_path, block_bytes):
    # A pipe is copied to its end before its value block is read into the
    # matrix, so the file's bytes (1.09 blocks) add to the peak.
    rng = np.random.default_rng(4096)
    d = build_dictionary(question_records(rng.standard_normal((64, 4096))))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    data = path.read_bytes()
    tracemalloc.start()
    try:
        loaded = read_through_pipe(tmp_path, data, load_dictionary_cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.matrix.tobytes() == d.matrix.tobytes()
    assert block_bytes == [d.matrix.nbytes]
    assert peak + sum(block_bytes) < 3 * d.matrix.nbytes


@pytest.mark.parametrize("source", ["built", "loaded", pytest.param("piped", marks=needs_fifo)])
def test_dropped_dictionary_unmaps_its_matrix(tmp_path, rng, source):
    # Nothing but the dictionary views its matrix's mapping, so dropping the
    # dictionary returns the memory at once, with no garbage collection.
    d = build_dictionary(question_records(unit_columns(rng, 8, 5)))
    if source != "built":
        save_dictionary_cache(d, tmp_path / "dict.bin")
    if source == "loaded":
        d = load_dictionary_cache(tmp_path / "dict.bin")
    elif source == "piped":
        d = read_through_pipe(tmp_path, (tmp_path / "dict.bin").read_bytes(), load_dictionary_cache)
    mapping = weakref.ref(mapping_of(d.matrix))
    del d
    assert mapping() is None


def test_cache_save_encodes_strings_before_opening(tmp_path):
    d = Dictionary(matrix=np.eye(2), ids=("a", "b\ud800"), texts=("a?", "b?"))
    path = tmp_path / "dict.bin"
    with pytest.raises(InvalidInputError) as info:
        save_dictionary_cache(d, path)
    assert str(info.value).startswith(f"{path}: 'utf-8' codec can't encode character '\\ud800'")
    assert not path.exists()


def test_cache_truncation_rejected(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 3)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ParseError):
        load_dictionary_cache(path)


def test_cache_truncation_names_the_field(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 2)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    raw = path.read_bytes()
    # magic, version, dim and count, then record 0's id and text, each a uint32
    # length and UTF-8 bytes
    start = 4 + 2 + 8 + 4 + len(d.ids[0].encode()) + 4 + len(d.texts[0].encode())
    text_at = start + 4 + len(d.ids[1].encode())
    for cut, field in [(start + 3, "record 1: id length"), (text_at - 1, "record 1: id"),
                       (text_at + 2, "record 1: text length"), (text_at + 5, "record 1: text"),
                       (text_at + 4 + len(d.texts[1].encode()) + 17, "record 0: values"),
                       (len(raw) - 1, "record 1: values")]:
        path.write_bytes(raw[:cut])
        message = f"{path}: truncated while reading {field}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_dictionary_cache(path)


def test_cache_invalid_utf8_names_the_field(tmp_path, rng):
    d = build_dictionary(question_records(unit_columns(rng, 4, 2)))
    path = tmp_path / "dict.bin"
    save_dictionary_cache(d, path)
    raw = bytearray(path.read_bytes())
    text_at = 4 + 2 + 8 + 4 + len(d.ids[0].encode()) + 4 + len(d.texts[0].encode()) + 4 + len(
        d.ids[1].encode()) + 4
    raw[text_at] = 0xFF
    path.write_bytes(bytes(raw[:-1]))  # a truncated matrix after it loses to the bad byte
    message = (f"{path}: record 1: text: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte")
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
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
