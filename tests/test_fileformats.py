"""Embedding, matrix-section, and JSON-lines file format contracts."""

import struct
import warnings

import numpy as np
import pytest

from basiq import fileformats
from basiq.coattention import AttentionParameters
from basiq.errors import ParseError


def _sample_records(dim=16, count=3, seed=5):
    rng = np.random.default_rng(seed)
    return [
        (f"q{i}", f"is sample {i} ready?", rng.standard_normal(dim))
        for i in range(count)
    ]


def test_text_round_trip_exact(tmp_path):
    path = tmp_path / "emb.txt"
    for count in (3, 600):  # a few lines and a corpus-sized file
        records = _sample_records(count=count)
        fileformats.write_embeddings_text(path, records, 16)
        loaded = fileformats.read_embeddings_text(path)
        assert len(loaded) == count
        for (wid, wtext, wvec), (rid, rtext, rvec) in zip(records, loaded):
            assert (wid, wtext) == (rid, rtext)
            assert np.asarray(wvec).tobytes() == rvec.tobytes()


def test_text_round_trip_keeps_unicode_line_separators(tmp_path):
    path = tmp_path / "emb.txt"
    records = _sample_records(count=3)
    records = [(rid, text + sep, vec) for (rid, text, vec), sep
               in zip(records, ("\x0c page", "\x85 next", "\u2028 line"))]
    fileformats.write_embeddings_text(path, records, 16)
    loaded = fileformats.read_embeddings_text(path)
    assert [(r[0], r[1]) for r in loaded] == [(r[0], r[1]) for r in records]


@pytest.mark.parametrize("field", ["id", "text"])
@pytest.mark.parametrize("char", ["\t", "\n", "\r"])
def test_text_writer_rejects_field_breaks(tmp_path, field, char):
    rid, text, vec = _sample_records(count=1)[0]
    if field == "id":
        rid = "q" + char + "0"
    else:
        text = "is it" + char + "ready?"
    with pytest.raises(ValueError, match="tab or line break"):
        fileformats.write_embeddings_text(tmp_path / "emb.txt", [(rid, text, vec)], 16)


def test_text_reader_shapes(tmp_path):
    path = tmp_path / "emb.txt"
    fileformats.write_embeddings_text(path, _sample_records(dim=16), 16)
    loaded = fileformats.read_embeddings_text(path)
    assert all(vec.shape == (16,) for _, _, vec in loaded)


def test_text_empty_body(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("dim=16 count=0\n", encoding="utf-8")
    assert fileformats.read_embeddings_text(path) == []


def test_text_wrong_value_count(tmp_path):
    path = tmp_path / "short.txt"
    values = " ".join(["0.5"] * 15)
    path.write_text(f"dim=16 count=1\nq0\thello?\t{values}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        fileformats.read_embeddings_text(path)


def test_text_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dims=16 n=1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        fileformats.read_embeddings_text(path)


def test_text_count_mismatch(tmp_path):
    path = tmp_path / "miscount.txt"
    path.write_text("dim=2 count=2\nq0\ta?\t1 2\n", encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.read_embeddings_text(path)


def test_text_duplicate_id(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("dim=1 count=2\nq0\ta?\t1\nq0\tb?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="q0"):
        fileformats.read_embeddings_text(path)


def test_text_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t1 inf\n", encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.read_embeddings_text(path)


_BAD_PAYLOADS = {
    "bad token": ("0.5 " * 15 + "0.5x", "could not convert string to float: '0.5x'"),
    "nan": ("0.5 " * 15 + "nan", "non-finite value"),
    "short line": ("0.5 " * 14 + "0.5", "expected 16 values, got 15"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_PAYLOADS))
def test_text_bad_value_in_later_block_names_its_line(tmp_path, kind):
    records = _sample_records(count=600)
    bad = 273  # body index, far past the first lines
    lines = [f"{rid}\t{text}\t{' '.join(map(repr, vec.tolist()))}" for rid, text, vec in records]
    payload, message = _BAD_PAYLOADS[kind]
    lines[bad] = f"q{bad}\tis it broken?\t{payload}"
    if kind == "short line":
        # a long line right after must not make up the short one's missing value
        lines[bad + 1] = f"q{bad + 1}\tis it long?\t{'0.5 ' * 16}0.5"
    path = tmp_path / "bad.txt"
    path.write_text("dim=16 count=600\n" + "\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: line {bad + 2}: {message}"


def test_text_later_field_error_reported_before_bad_value(tmp_path):
    # Every line's fields are checked before any value is converted, so an
    # error in the fields of a later line wins over an earlier bad value.
    path = tmp_path / "two_faults.txt"
    path.write_text("dim=1 count=3\nq0\ta?\t1\nq1\tb?\tinf\nq2\tc?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: line 3: non-finite value"
    path.write_text("dim=1 count=3\nq0\ta?\t1\nq1\tb?\tinf\nq0\tc?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: line 4: duplicate id 'q0'"


@pytest.mark.parametrize("content, message", [
    ("", "empty file, expected 'dim=<D> count=<N>' header"),
    ("dim=0 count=0\n", "line 1: dim must be >= 1"),
    ("dim=1 count=1\n\ta?\t1\n", "line 2: empty id"),
    ("dim=1 count=1\nq0\t \t1\n", "line 2: empty text"),
], ids=["empty file", "dim 0", "empty id", "empty text"])
def test_text_structure_faults(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: {message}"


def test_text_hash_is_a_value_not_a_comment(tmp_path):
    path = tmp_path / "hash.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t1 2 #3\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: line 2: expected 2 values, got 3"


@pytest.mark.parametrize("action", ["error", "always"])
def test_text_blank_values_field_is_a_count_error(tmp_path, action):
    path = tmp_path / "blank.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t \n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(ParseError) as info:
            fileformats.read_embeddings_text(path)
    assert str(info.value) == f"{path}: line 2: expected 2 values, got 0"
    assert caught == []


def test_text_tokens_only_float_accepts_are_read(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("dim=2 count=2\nq0\ta?\t0.25 -3\nq1\tb?\t1_0 \u0661\u0662\n",
                    encoding="utf-8")
    vectors = [vec for _, _, vec in fileformats.read_embeddings_text(path)]
    assert np.array_equal(vectors, [[0.25, -3.0], [float("1_0"), float("\u0661\u0662")]])


def test_binary_round_trip(tmp_path):
    path = tmp_path / "emb.bin"
    records = _sample_records()
    fileformats.write_embeddings_binary(path, records, 16)
    loaded = fileformats.read_embeddings_binary(path)
    assert [(r[0], r[1]) for r in loaded] == [(r[0], r[1]) for r in records]
    # payload is 32-bit; loaded values match to float32 precision
    for (_, _, wvec), (_, _, rvec) in zip(records, loaded):
        assert np.array_equal(np.asarray(wvec, dtype=np.float32).astype(np.float64), rvec)


def test_binary_truncation_rejected(tmp_path):
    path = tmp_path / "trunc.bin"
    fileformats.write_embeddings_binary(path, _sample_records(), 16)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(ParseError):
        fileformats.read_embeddings_binary(path)


def test_binary_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.bin"
    fileformats.write_embeddings_binary(path, _sample_records(), 16)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        fileformats.read_embeddings_binary(path)


def test_binary_invalid_utf8_id_names_field(tmp_path):
    path = tmp_path / "utf8.bin"
    fileformats.write_embeddings_binary(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[4 + 2 + 8 + 4] = 0xFF  # first byte of record 0's id
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="record 0: id: 'utf-8' codec"):
        fileformats.read_embeddings_binary(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "magic.bin"
    fileformats.write_embeddings_binary(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="magic"):
        fileformats.read_embeddings_binary(path)


def test_binary_version_check(tmp_path):
    path = tmp_path / "ver.bin"
    fileformats.write_embeddings_binary(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version"):
        fileformats.read_embeddings_binary(path)


def test_binary_dim_zero_rejected(tmp_path):
    path = tmp_path / "dim0.bin"
    path.write_bytes(fileformats.EMBEDDING_MAGIC + struct.pack("<HII", 1, 0, 0))
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_binary(path)
    assert str(info.value) == f"{path}: dim must be >= 1"


def _records_with_inf(ids):
    records = _sample_records(count=len(ids))
    records = [(rid, text, vec) for rid, (_, text, vec) in zip(ids, records)]
    records[1][2][3] = np.inf
    return records


def test_binary_non_finite_names_record(tmp_path):
    path = tmp_path / "inf.bin"
    fileformats.write_embeddings_binary(path, _records_with_inf(["q0", "q1", "q2"]), 16)
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_binary(path)
    assert str(info.value) == f"{path}: record 1: non-finite value"


def test_binary_later_field_error_reported_before_bad_value(tmp_path):
    path = tmp_path / "two_faults.bin"
    fileformats.write_embeddings_binary(path, _records_with_inf(["q0", "q1", "q0"]), 16)
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_binary(path)
    assert str(info.value) == f"{path}: record 2: duplicate id 'q0'"
    fileformats.write_embeddings_binary(path, _records_with_inf(["q0", "q1", "q2"]), 16)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ParseError) as info:
        fileformats.read_embeddings_binary(path)
    assert str(info.value) == f"{path}: truncated while reading record 2: values"


def test_binary_vectors_are_rows_of_one_array(tmp_path):
    path = tmp_path / "emb.bin"
    fileformats.write_embeddings_binary(path, _sample_records(count=4), 16)
    vectors = [vec for _, _, vec in fileformats.read_embeddings_binary(path)]
    assert vectors[0].base is not None
    assert all(vec.dtype == np.float64 and vec.base is vectors[0].base for vec in vectors)


def test_binary_empty_body(tmp_path):
    path = tmp_path / "empty.bin"
    fileformats.write_embeddings_binary(path, [], 16)
    assert fileformats.read_embeddings_binary(path) == []


def test_read_embeddings_sniffs_format(tmp_path):
    records = _sample_records(dim=4)
    tpath = tmp_path / "a.txt"
    bpath = tmp_path / "a.bin"
    fileformats.write_embeddings_text(tpath, records, 4)
    fileformats.write_embeddings_binary(bpath, records, 4)
    assert [r[0] for r in fileformats.read_embeddings(tpath)] == ["q0", "q1", "q2"]
    assert [r[0] for r in fileformats.read_embeddings(bpath)] == ["q0", "q1", "q2"]


def test_matrix_sections_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "params.txt"
    sections = {"w_a": rng.standard_normal((3, 4)), "w_b": rng.standard_normal((1, 5))}
    fileformats.write_matrix_sections(path, sections)
    loaded = fileformats.read_matrix_sections(path)
    assert list(loaded) == ["w_a", "w_b"]
    for name, mat in sections.items():
        assert np.array_equal(loaded[name], mat)


def test_matrix_sections_shape_enforced(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sections=1\nname=w rows=2 cols=2\n1 2\n3\n", encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.read_matrix_sections(path)


def test_matrix_sections_bad_value_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("sections=2\nname=a rows=1 cols=2\n1 2\nname=b rows=2 cols=2\n3 4\n5 x\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_matrix_sections(path)
    assert str(info.value) == f"{path}: line 6: could not convert string to float: 'x'"


_SECTION_FAULTS = {  # kind: (file content, message after the path)
    "empty file": ("", "empty file, expected 'sections=<N>' header"),
    "malformed header": ("sections=x\n", "line 1: malformed header 'sections=x'"),
    "missing section": ("sections=2\nname=a rows=1 cols=1\n1\n", "expected 2 sections, found 1"),
    "malformed section header": ("sections=1\nname=a rows=1\n1\n",
                                 "line 2: malformed section header 'name=a rows=1'"),
    "duplicate section": ("sections=2\nname=a rows=1 cols=1\n1\nname=a rows=1 cols=1\n2\n",
                          "line 4: duplicate section 'a'"),
    "zero rows": ("sections=1\nname=a rows=0 cols=1\n", "line 2: rows and cols must be >= 1"),
    "zero cols": ("sections=1\nname=a rows=1 cols=0\n\n", "line 2: rows and cols must be >= 1"),
    "truncated payload": ("sections=1\nname=a rows=2 cols=1\n1\n",
                          "section 'a': truncated payload"),
    "extra lines": ("sections=1\nname=a rows=1 cols=1\n1\n2\n3\n",
                    "2 extra lines after last section"),
}


@pytest.mark.parametrize("kind", list(_SECTION_FAULTS))
def test_matrix_sections_structure_faults(tmp_path, kind):
    content, message = _SECTION_FAULTS[kind]
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_matrix_sections(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("kind", ["duplicate section", "truncated payload", "extra lines"])
def test_matrix_sections_structure_fault_reported_before_bad_value(tmp_path, kind):
    # Every header is checked before any payload is converted, so a later
    # structure fault wins over a bad value in an earlier section.
    content, message = _SECTION_FAULTS[kind]
    first_value = content.index("\n", content.index("name=")) + 1
    content = content[:first_value] + "x" + content[first_value + 1:]
    path = tmp_path / "two_faults.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.read_matrix_sections(path)
    assert str(info.value) == f"{path}: {message}"


def test_matrix_sections_missing_field_names_sections(tmp_path):
    path = tmp_path / "params.txt"
    fileformats.write_matrix_sections(path, {"w_x": np.ones((2, 3))})
    with pytest.raises(ParseError) as info:
        AttentionParameters.from_file(path)
    assert str(info.value) == f"{path}: missing sections ['w_g', 'w_hx']"


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    fileformats.write_jsonl(path, ['{"a": 1}', '{"b": 2}'])
    assert path.read_bytes().endswith(b"\n")
    assert [line for _, line in fileformats.read_jsonl(path)] == ['{"a": 1}', '{"b": 2}']
