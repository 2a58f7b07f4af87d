"""Embedding and JSON-lines file format contracts."""

import builtins
import json
import math
import os
import struct
import tracemalloc
import warnings
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest

from basiq import fileformats
from basiq.dictionary import (
    Dictionary,
    build_dictionary,
    load_dictionary_cache,
    save_dictionary_cache,
)
from basiq.errors import BasiqError, InvalidInputError, ParseError, ShapeError

from conftest import (
    CHUNK_CASES,
    JSONL_WIDTH,
    PER_CHUNK,
    chunk_ends,
    jsonl_over_chunks,
    mapping_of,
    needs_fifo,
    outcome,
    pack_string,
    plain_jsonl,
    qemb_bytes,
    question_records,
    read_through_pipe,
    unit_columns,
    write_binary_embeddings,
    write_old_binary_files,
    write_text_embeddings,
)


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
        write_text_embeddings(path, records, 16)
        loaded = fileformats.load_embeddings(path)
        assert len(loaded) == count
        for (wid, wtext, wvec), (rid, rtext, rvec) in zip(records, loaded):
            assert (wid, wtext) == (rid, rtext)
            assert np.asarray(wvec).tobytes() == rvec.tobytes()


def test_text_round_trip_keeps_unicode_line_separators(tmp_path):
    path = tmp_path / "emb.txt"
    records = _sample_records(count=3)
    records = [(rid, text + sep, vec) for (rid, text, vec), sep
               in zip(records, ("\x0c page", "\x85 next", "\u2028 line"))]
    write_text_embeddings(path, records, 16)
    loaded = fileformats.load_embeddings(path)
    assert [(r[0], r[1]) for r in loaded] == [(r[0], r[1]) for r in records]


def test_text_reader_shapes(tmp_path):
    path = tmp_path / "emb.txt"
    write_text_embeddings(path, _sample_records(dim=16), 16)
    loaded = fileformats.load_embeddings(path)
    assert all(vec.shape == (16,) for _, _, vec in loaded)


def test_text_empty_body(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("dim=16 count=0\n", encoding="utf-8")
    assert fileformats.load_embeddings(path) == []


def test_text_wrong_value_count(tmp_path):
    path = tmp_path / "short.txt"
    values = " ".join(["0.5"] * 15)
    path.write_text(f"dim=16 count=1\nq0\thello?\t{values}\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        fileformats.load_embeddings(path)


def test_text_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dims=16 n=1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        fileformats.load_embeddings(path)


def test_text_count_mismatch(tmp_path):
    path = tmp_path / "miscount.txt"
    path.write_text("dim=2 count=2\nq0\ta?\t1 2\n", encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.load_embeddings(path)


def test_text_duplicate_id(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("dim=1 count=2\nq0\ta?\t1\nq0\tb?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError, match="q0"):
        fileformats.load_embeddings(path)


def test_text_non_finite_rejected(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t1 inf\n", encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.load_embeddings(path)


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
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: line {bad + 2}: {message}"


def test_text_later_field_error_reported_before_bad_value(tmp_path):
    # Every line's fields are checked before any value is converted, so an
    # error in the fields of a later line wins over an earlier bad value.
    path = tmp_path / "two_faults.txt"
    path.write_text("dim=1 count=3\nq0\ta?\t1\nq1\tb?\tinf\nq2\tc?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: line 3: non-finite value"
    path.write_text("dim=1 count=3\nq0\ta?\t1\nq1\tb?\tinf\nq0\tc?\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
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
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: {message}"


def test_text_hash_is_a_value_not_a_comment(tmp_path):
    path = tmp_path / "hash.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t1 2 #3\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: line 2: expected 2 values, got 3"


@pytest.mark.parametrize("action", ["error", "always"])
def test_text_blank_values_field_is_a_count_error(tmp_path, action):
    path = tmp_path / "blank.txt"
    path.write_text("dim=2 count=1\nq0\ta?\t \n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(ParseError) as info:
            fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: line 2: expected 2 values, got 0"
    assert caught == []


def test_text_tokens_only_float_accepts_are_read(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("dim=2 count=2\nq0\ta?\t0.25 -3\nq1\tb?\t1_0 \u0661\u0662\n",
                    encoding="utf-8")
    vectors = [vec for _, _, vec in fileformats.load_embeddings(path)]
    assert np.array_equal(vectors, [[0.25, -3.0], [float("1_0"), float("\u0661\u0662")]])


@pytest.mark.parametrize("ends", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\n", "\r")],
                         ids=["LF", "CRLF", "lone CR", "mixed"])
@pytest.mark.parametrize("final", [True, False], ids=["final newline", "no final newline"])
def test_text_lines_end_at_universal_newlines(tmp_path, ends, final):
    path = tmp_path / "emb.txt"
    data = "dim=2 count=2" + ends[0] + "q0\ta?\t1 2" + ends[1] + "q1\tb?\t3 4" + ends[1] * final
    path.write_bytes(data.encode("utf-8"))
    loaded = fileformats.load_embeddings(path)
    assert [(rid, text, vec.tolist()) for rid, text, vec in loaded] == [
        ("q0", "a?", [1.0, 2.0]), ("q1", "b?", [3.0, 4.0])]


def _read_lines(path):
    r"""The lines of a UTF-8 text file, split at "\n", "\r\n" or a lone "\r"
    only, not at the form feeds, ``\x85`` or ``\u2028`` that
    ``str.splitlines`` splits at."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def _reference_fields(line, seen, path, lineno):
    """Split one text record and check everything but its values."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
        )
    rec_id, text, _ = fields
    if not rec_id:
        raise ParseError(f"{path}: line {lineno}: empty id")
    if rec_id in seen:
        raise ParseError(f"{path}: line {lineno}: duplicate id {rec_id!r}")
    seen.add(rec_id)
    if not text.strip():
        raise ParseError(f"{path}: line {lineno}: empty text")
    return fields


def _reference_values(row, dim, path, lineno):
    """One record's values by the per-row rule: split at whitespace, check
    the count, ``float()`` each token, then check that all are finite."""
    parts = row.split()
    if len(parts) != dim:
        raise ParseError(f"{path}: line {lineno}: expected {dim} values, got {len(parts)}")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"{path}: line {lineno}: non-finite value")
    return np.array(values, dtype=np.float64)


def _reference_read_text(path):
    """The whole-file text reader written plainly: every line is read, then checked.

    An oracle for ``load_embeddings`` on a text file: the same records, or
    the same exception type and message.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file, expected 'dim=<D> count=<N>' header")
    m = fileformats._HEADER_RE.match(lines[0])
    if m is None:
        raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
    dim, count = int(m.group(1)), int(m.group(2))
    if dim < 1:
        raise ParseError(f"{path}: line 1: dim must be >= 1")
    if len(lines) - 1 != count:
        raise ParseError(
            f"{path}: header declares {count} records but file has {len(lines) - 1} lines"
        )
    seen = set()
    records = [_reference_fields(line, seen, path, lineno)
               for lineno, line in enumerate(lines[1:], start=2)]
    return [(rec_id, text, _reference_values(row, dim, path, lineno))
            for lineno, (rec_id, text, row) in enumerate(records, start=2)]


def _read_outcome(read, path):
    try:
        return [(rid, text, vec.tobytes()) for rid, text, vec in read(path)]
    except ParseError as exc:
        return type(exc), str(exc)


_DIFF_DIM, _DIFF_COUNT = 8, 600  # body lines span three value blocks and two chunks
_FIELD_FAULTS = {
    "two fields": lambda line: line.rsplit("\t", 1)[0],
    "four fields": lambda line: line + "\t1",
    "empty id": lambda line: line[line.index("\t"):],
    "empty text": lambda line: line.split("\t")[0] + "\t \t" + line.split("\t")[2],
    "blank line": lambda line: "",
}
_VALUE_FAULTS = {
    "bad token": lambda line: line + "x",
    "nan": lambda line: line.rsplit(" ", 1)[0] + " nan",
    "short line": lambda line: line.rsplit(" ", 1)[0],
    "long line": lambda line: line + " 1.5",
}


def _diff_case(case, seed):
    """(header, body lines, line end, bytes to splice in at an offset) for one case."""
    rng = np.random.default_rng(seed)
    header = f"dim={_DIFF_DIM} count={_DIFF_COUNT}"
    values = rng.standard_normal((_DIFF_COUNT, _DIFF_DIM)).tolist()
    body = [f"q{i}\tis sample {i} ready?\t" + " ".join(map(repr, row))
            for i, row in enumerate(values)]
    end, splice = "\n", None
    kind, _, where = case.partition("@")
    at = int(where) - 2 if where else int(rng.integers(1, _DIFF_COUNT))  # body index
    if kind == "count low":
        header = f"dim={_DIFF_DIM} count={_DIFF_COUNT - 1}"
    elif kind == "count high":
        header = f"dim={_DIFF_DIM} count={_DIFF_COUNT + 1}"
    elif kind == "huge count":
        header, body = "dim=100000 count=100000000", body[:1]
    elif kind == "huge dim":  # too small a file for its count, though the count is right
        header = f"dim=1000 count={_DIFF_COUNT}"
    elif kind == "value then count":
        header = f"dim={_DIFF_DIM} count={_DIFF_COUNT - 1}"
        body[at] = _VALUE_FAULTS["nan"](body[at])
    elif kind in _FIELD_FAULTS:
        body[at] = _FIELD_FAULTS[kind](body[at])
    elif kind == "duplicate id":
        body[at] = "q0" + body[at][body[at].index("\t"):]
    elif kind in _VALUE_FAULTS:
        body[at] = _VALUE_FAULTS[kind](body[at])
    elif kind == "value then field":
        body[at // 2] = _VALUE_FAULTS["bad token"](body[at // 2])
        body[at // 2 + 300] = _FIELD_FAULTS["empty id"](body[at // 2 + 300])
    elif kind in ("empty id then fields", "duplicate id then fields", "fields then empty text"):
        first, then = kind.split(" then ")  # two faults, 299 lines apart
        faults = dict(_FIELD_FAULTS, fields=_FIELD_FAULTS["four fields"],
                      **{"duplicate id": lambda line: "q0" + line[line.index("\t"):]})
        i = 1 + at // 2
        body[i] = faults[first](body[i])
        body[i + 299] = faults[then](body[i + 299])
    elif kind == "field then utf-8":
        body[3] = _FIELD_FAULTS["four fields"](body[3])
        splice = 20025
    elif kind == "utf-8":
        splice = fileformats._CHUNK + int(rng.integers(40_000))  # in the second chunk
    elif kind == "header then utf-8":
        header, splice = "dim=0 count=600", 20025
    elif kind == "count then utf-8":
        header, splice = f"dim={_DIFF_DIM} count=1", 20025
    elif kind == "trailing blank":
        body.append("")
    elif kind in ("CRLF", "lone CR"):
        end = "\r\n" if kind == "CRLF" else "\r"
    elif kind == "no final newline":
        end = None
    else:
        assert kind == "clean", kind
    return header, body, end, splice


_DIFF_CASES = [
    "clean", "CRLF", "lone CR", "no final newline", "trailing blank",
    "count low", "count high", "huge count", "huge dim", "value then count", "value then field",
    "utf-8", "field then utf-8", "header then utf-8", "count then utf-8",
    "duplicate id", *_FIELD_FAULTS,
    "empty id then fields", "duplicate id then fields", "fields then empty text",
    *[f"{kind}@{line}" for kind in _VALUE_FAULTS for line in (2, 256, 257, 258, 513, 514, 601)],
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", _DIFF_CASES)
def test_text_reader_matches_whole_file_reference(tmp_path, case, seed):
    header, body, end, splice = _diff_case(case, seed)
    text = header + "\n" + "\n".join(body) + ("\n" if end else "")
    if end and end != "\n":
        text = text.replace("\n", end)
    data = text.encode("utf-8")
    if splice is not None:
        data = data[:splice] + b"\xff" + data[splice:]
    path = tmp_path / "emb.txt"
    path.write_bytes(data)
    expected = _read_outcome(_reference_read_text, path)
    assert _read_outcome(fileformats.load_embeddings, path) == expected
    assert isinstance(expected, list) == (case in ("clean", "CRLF", "lone CR", "no final newline"))


def _with_bad_byte(line):
    """The line with its second byte made 0xff, invalid UTF-8 of the same length."""
    return line[:1] + b"\xff" + line[2:]


def _end_at(lines, offset, end):
    """Lengthen the text of the last line whose "\n" comes at or before file
    offset ``offset`` so that the "\n" sits at ``offset``, then make that
    line end ``end``."""
    newlines = np.cumsum([len(line) for line in lines]) - 1
    i = int(np.searchsorted(newlines, offset, side="right")) - 1
    rec_id, text, row = lines[i].split(b"\t")
    lines[i] = b"\t".join([rec_id, text + b"x" * int(offset - newlines[i]), row[:-1] + end])


def _edit_text_chunks(case, lines, first):
    """Edit ``lines`` (bytes with their ends, the header first) as ``case``
    says, ``first`` being the lines that start each later chunk."""
    if case == "invalid UTF-8 on a later chunk's first line":
        lines[first[1]] = _with_bad_byte(lines[first[1]])
    elif case == "field fault, then invalid UTF-8 in the next chunk":
        lines[first[0] - 1] = lines[first[0] - 1].replace(b"\t", b" ", 1)
        lines[first[0]] = _with_bad_byte(lines[first[0]])
    elif case == "CRLF split by the read's end":
        _end_at(lines, fileformats._CHUNK - 1, b"\r\n")
    elif case == "lone CR at the read's end":
        _end_at(lines, fileformats._CHUNK - 1, b"\r")
    elif case in ("CRLF ends", "lone CR ends"):
        lines[:] = [line[:-1] + (b"\r\n" if case == "CRLF ends" else b"\r") for line in lines]
    elif case == "count low":
        lines[0] = b"dim=16 count=519\n"
    elif case == "count high, then invalid UTF-8 in a later chunk":
        lines[0] = b"dim=16 count=521\n"
        lines[first[1]] = _with_bad_byte(lines[first[1]])
    else:
        assert case == "clean", case


_TEXT_CHUNK_CASES = {  # case: whether the file reads
    "clean": True,
    "invalid UTF-8 on a later chunk's first line": False,
    "field fault, then invalid UTF-8 in the next chunk": False,
    "CRLF split by the read's end": True,
    "lone CR at the read's end": True,
    "CRLF ends": True,
    "lone CR ends": True,
    "count low": False,
    "count high, then invalid UTF-8 in a later chunk": False,
}


@pytest.mark.parametrize("case", list(_TEXT_CHUNK_CASES))
def test_text_chunks_read_as_the_whole_file_reference(tmp_path, case):
    # 520 records of 16 values make a file of more than two chunks; the
    # edits sit on a chunk's first line or end next to a chunk's edge.
    path = tmp_path / "emb.txt"
    write_text_embeddings(path, _sample_records(count=520, seed=520), 16)
    ends = chunk_ends(path)
    assert len(ends) > 2
    lines = path.read_bytes().splitlines(keepends=True)
    starts = np.cumsum([0] + [len(line) for line in lines])
    _edit_text_chunks(case, lines, [int(np.searchsorted(starts, end)) for end in ends[:-1]])
    data = b"".join(lines)
    path.write_bytes(data)
    expected = _read_outcome(_reference_read_text, path)
    assert _read_outcome(fileformats.load_embeddings, path) == expected
    assert isinstance(expected, list) == _TEXT_CHUNK_CASES[case]
    if hasattr(os, "mkfifo"):
        fifo = tmp_path / "input.fifo"
        from_pipe = _read_outcome(
            lambda _: read_through_pipe(tmp_path, data, fileformats.load_embeddings), fifo)
        if not isinstance(expected, list):
            expected = expected[0], expected[1].replace(str(path), str(fifo))
        assert from_pipe == expected


def _midpoint_tokens(rng, count, exponents):
    """``count`` seeded decimal tokens at or near float64 rounding midpoints.

    Each is the exact midpoint between a float64 with a binary exponent in
    ``exponents`` and its neighbour (a quarter of them just below a power
    of two, where the spacing halves), moved by 0 or by 1e-17 to 1e-40 of
    itself and printed with 17 to 45 significant digits.
    """
    tokens = []
    with localcontext() as ctx:
        ctx.prec = 1100  # every float64 and midpoint is exact
        for _ in range(count):
            exp = int(rng.integers(exponents[0], exponents[1] + 1))
            if rng.random() < 0.25:
                x = 2.0 ** exp
                neighbour = np.nextafter(x, 0.0)
            else:
                x = float(np.ldexp(1.0 + rng.random(), exp))
                neighbour = np.nextafter(x, np.inf)
                if np.isinf(neighbour):
                    neighbour = np.nextafter(x, 0.0)
            mid = (Decimal(x) + Decimal(float(neighbour))) / 2
            if rng.random() < 0.75:
                shift = int(rng.integers(1, 10)) * Decimal(10) ** -int(rng.integers(17, 41))
                mid += mid * shift * int(rng.choice([-1, 1]))
            digits = int(rng.integers(17, 46))
            tokens.append(("-" if rng.random() < 0.5 else "") + f"{mid:.{digits - 1}e}")
    return tokens


@pytest.mark.parametrize("band, exponents", [
    ("unit", (-5, 5)),
    ("wide", (-1000, 1000)),
    ("above tiny", (-1022, -960)),  # 2.2e-308 to 1e-289
    ("subnormal", (-1074, -1023)),
    ("near DBL_MAX", (1015, 1023)),
])
def test_text_values_round_once_like_float(tmp_path, band, exponents):
    # A long double rounded again to float64 can miss float()'s one rounding
    # only on a midpoint; these tokens crowd around the midpoints, one a line
    # beside exact values.
    rng = np.random.default_rng(30)
    dim, count = 4, 2000
    tokens = _midpoint_tokens(rng, count, exponents)
    lines = []
    for i, token in enumerate(tokens):
        values = ["0.5"] * dim
        values[i % dim] = token
        lines.append(f"q{i}\tis {i} exact?\t{' '.join(values)}\n")
    path = tmp_path / "emb.txt"
    path.write_text(f"dim={dim} count={count}\n" + "".join(lines), encoding="ascii")
    got = [vec[i % dim] for i, (_, _, vec) in enumerate(fileformats.load_embeddings(path))]
    bad = [token for token, value in zip(tokens, got)
           if np.float64(value).tobytes() != np.float64(float(token)).tobytes()]
    assert bad == []


_DIM, _COUNT, _AT = 8, 600, 300  # _AT: a body index in the second block of 256 lines


def _value_rows(seed):
    rng = np.random.default_rng(seed)
    return [" ".join(map(repr, row)) for row in rng.standard_normal((_COUNT, _DIM)).tolist()]


def _spaced(sep):
    return lambda row: row.replace(" ", sep, 1)


_ODD_BLOCKS = {
    # name: (rewrite of body line _AT, of line _AT + 5, message or None for values)
    "hex": (lambda row: row.rsplit(" ", 1)[0] + " 0x1p3", None,
            "could not convert string to float: '0x1p3'"),
    "upper hex": (lambda row: row.rsplit(" ", 1)[0] + " 0X1P3", None,
                  "could not convert string to float: '0X1P3'"),
    "nan payload": (lambda row: "nan(1) " + row.split(" ", 1)[1], None,
                    "could not convert string to float: 'nan(1)'"),
    "long then short": (lambda row: row + " 1.5", lambda row: row.rsplit(" ", 1)[0],
                        f"expected {_DIM} values, got {_DIM + 1}"),
    "short then long": (lambda row: row.rsplit(" ", 1)[0], lambda row: row + " 1.5",
                        f"expected {_DIM} values, got {_DIM - 1}"),
    "short then vertical tab": (lambda row: " " + row.rsplit(" ", 1)[0],
                                lambda row: row.replace(" ", " 2.5\x0b", 1),
                                f"expected {_DIM} values, got {_DIM - 1}"),
    "short then inf": (lambda row: row.rsplit(" ", 1)[0], lambda row: "inf " + row,
                       f"expected {_DIM} values, got {_DIM - 1}"),
    "overflow": (lambda row: row.rsplit(" ", 1)[0] + " 1e400", None, "non-finite value"),
    "file separator": (_spaced("\x1c"), None, None),
    "vertical tab": (_spaced("\x0b"), None, None),
    "form feed": (_spaced("\x0c"), None, None),
    "leading space": (lambda row: " " + row, None, None),
    "trailing space": (lambda row: row + " ", None, None),
    "doubled space": (_spaced("  "), None, None),
    # a long double rounds this to 2**-1075, which rounds to 0.0 again; float() gives 5e-324
    "just over half of 5e-324": (lambda row: "2.470328229206232720882844211373929782449e-324 "
                                 + row.split(" ", 1)[1], None, None),
    "underscore": (lambda row: "1_0 " + row.split(" ", 1)[1], None, None),
    "extremes": (lambda row: " ".join(["1.7976931348623157e308", "-5e-324", "2.2250738585072014e-308",
                                       "-0", "0", "1e-400"] + row.split(" ")[6:]), None, None),
}


@pytest.mark.parametrize("kind", sorted(_ODD_BLOCKS))
def test_text_odd_blocks_read_as_the_per_row_rule(tmp_path, kind):
    # A block the one-call parse cannot vouch for is read a row at a time:
    # the same values, or the first bad line's error.
    first, later, message = _ODD_BLOCKS[kind]
    rows = _value_rows(30)
    rows[_AT] = first(rows[_AT])
    if later is not None:
        rows[_AT + 5] = later(rows[_AT + 5])
    path = tmp_path / "emb.txt"
    path.write_text(f"dim={_DIM} count={_COUNT}\n" + "".join(
        f"q{i}\tis {i} odd?\t{row}\n" for i, row in enumerate(rows)), encoding="utf-8")
    expected = _read_outcome(_reference_read_text, path)
    assert _read_outcome(fileformats.load_embeddings, path) == expected
    if message is None:
        assert isinstance(expected, list)
    else:
        assert expected == (ParseError, f"{path}: line {_AT + 2}: {message}")


_PIPE_TEXT = "dim=2 count=2\nq0\ta?\t1 2\nq1\tb?\t3 4\n"
_PIPE_RECORDS = [("q0", "a?", [1.0, 2.0]), ("q1", "b?", [3.0, 4.0])]


def _pipe_records(records):
    return [(rid, text, vec.tolist()) for rid, text, vec in records]


@needs_fifo
def test_text_reader_reads_a_pipe(tmp_path):
    loaded = read_through_pipe(tmp_path, _PIPE_TEXT.encode("utf-8"),
                               fileformats.load_embeddings)
    assert _pipe_records(loaded) == _PIPE_RECORDS


@needs_fifo
@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_load_embeddings_reads_a_pipe(tmp_path, fmt):
    # One open: sniffing the magic must not consume the pipe or reopen it.
    path = tmp_path / "emb"
    records = [(rid, text, np.array(vec)) for rid, text, vec in _PIPE_RECORDS]
    _WRITERS[fmt](path, records, 2)
    loaded = read_through_pipe(tmp_path, path.read_bytes(), fileformats.load_embeddings)
    assert _pipe_records(loaded) == _PIPE_RECORDS


@needs_fifo
def test_text_reader_names_invalid_utf8_on_a_pipe(tmp_path):
    # Offsets are counted as lines are read, so a pipe names its bad byte as a file does.
    data = _PIPE_TEXT.encode("utf-8").replace(b"b?", b"b\xff")
    with pytest.raises(ParseError) as info:
        read_through_pipe(tmp_path, data, fileformats.load_embeddings)
    assert str(info.value) == (f"{tmp_path / 'input.fifo'}: 'utf-8' codec can't decode "
                               "byte 0xff in position 28: invalid start byte")


_LONG_COUNT = "dim=2 count=" + "0" * 5000 + "1"  # int() reads at most 4,300 digits


@pytest.mark.parametrize("header, message", [
    (_LONG_COUNT, f"line 1: malformed header {_LONG_COUNT!r}"),
    ("dim=1000000000000 count=1", "line 2: expected 1000000000000 values, got 2"),
    ("dim=\u0662 count=\u0661", "line 1: malformed header 'dim=\u0662 count=\u0661'"),
], ids=["count past the int digit limit", "huge dim", "non-ASCII digits"])
def test_text_header_sizes_no_allocation(tmp_path, header, message, block_bytes):
    path = tmp_path / "emb.txt"
    path.write_text(header + "\nq0\ta?\t1 2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: {message}"
    assert all(size <= 1 << 20 for size in block_bytes)


@needs_fifo
def test_text_header_sizes_no_allocation_on_a_pipe(tmp_path, block_bytes):
    # Values go into a block only once parsed, so the count fails before
    # the header sizes anything, as on a regular file.
    data = b"dim=1000000 count=1000000000\nq0\ta?\t1 2\n"
    with pytest.raises(ParseError) as info:
        read_through_pipe(tmp_path, data, fileformats.load_embeddings)
    assert str(info.value) == (f"{tmp_path / 'input.fifo'}: header declares 1000000000 "
                               "records but file has 1 lines")
    assert block_bytes == []


def test_text_header_on_a_regular_file_sizes_no_allocation(tmp_path, block_bytes):
    # The file's size could hold 1000 lines of 1000 values, but it has one
    # line of 2 values: the count fails and no value block is asked for.
    path = tmp_path / "emb.txt"
    path.write_text(f"dim=1000 count=1000\nq0\t{'a' * 2_100_000}\t1 2\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: header declares 1000 records but file has 1 lines"
    assert block_bytes == []


@needs_fifo
def test_text_file_and_pipe_read_alike(tmp_path):
    # n >> dim, and a last block of one line.
    path = tmp_path / "emb.txt"
    records = _sample_records(dim=64, count=4097, seed=4097)
    write_text_embeddings(path, records, 64)
    from_file = fileformats.load_embeddings(path)
    from_pipe = read_through_pipe(tmp_path, path.read_bytes(), fileformats.load_embeddings)
    assert [(r.id, r.text) for r in from_pipe] == [(r.id, r.text) for r in from_file]
    vectors = np.array([vec for _, _, vec in records]).tobytes()
    assert np.array([r.vector for r in from_pipe]).tobytes() == vectors
    assert np.array([r.vector for r in from_file]).tobytes() == vectors


@needs_fifo
def test_jsonl_reads_a_pipe(tmp_path):
    loaded = read_through_pipe(tmp_path, b'{"a": 1}\r\n\n{"b": 2}',
                               lambda path: list(fileformats.read_jsonl(path)))
    assert loaded == [(1, {"a": 1}), (3, {"b": 2})]


def test_text_reader_peak_memory_is_below_file_size(tmp_path, block_bytes):
    # The peak is the value blocks plus one block of lines, not the file's text.
    # The value blocks are mappings tracemalloc cannot see, so their sizes are added.
    path = tmp_path / "emb.txt"
    write_text_embeddings(path, _sample_records(dim=64, count=2000, seed=2000), 64)
    tracemalloc.start()
    try:
        loaded = fileformats.load_embeddings(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == 2000
    assert sum(block_bytes) == 2000 * 64 * 8
    assert max(block_bytes) <= 256 * 64 * 8
    assert peak + sum(block_bytes) < path.stat().st_size


_WRITERS = {"text": write_text_embeddings, "binary": write_binary_embeddings}


@pytest.mark.parametrize("fmt", sorted(_WRITERS))
def test_dropped_records_unmap_their_vectors(tmp_path, fmt):
    # The vectors are rows of mappings, each unmapped with the last of them:
    # 600 text lines parse into three blocks of their own, a binary file's
    # values are one block, and a pipe's vectors live as a file's do.
    path = tmp_path / "emb"
    _WRITERS[fmt](path, _sample_records(count=600), 16)
    loads = {"file": lambda: fileformats.load_embeddings(path)}
    if hasattr(os, "mkfifo"):
        loads["pipe"] = lambda: read_through_pipe(tmp_path, path.read_bytes(),
                                                  fileformats.load_embeddings)
    for source, load in loads.items():
        loaded = load()
        mappings = {id(m): weakref.ref(m) for m in (mapping_of(rec.vector) for rec in loaded)}
        assert len(mappings) == {"text": 3, "binary": 1}[fmt], source
        del loaded
        assert all(ref() is None for ref in mappings.values()), source


_LIBRARY_WRITERS = {  # format: a writer of record "q0", then of ``second``, an id and a text
    "text": lambda path, second: fileformats.write_jsonl(path, [
        json.dumps({"id": i, "text": t}, ensure_ascii=False) for i, t in [("q0", "a?"), second]]),
    "binary": lambda path, second: fileformats.write_binary(
        path, ["q0", second[0]], ["a?", second[1]], np.eye(2)),
}


@pytest.mark.parametrize("fmt", sorted(_LIBRARY_WRITERS))
def test_writer_checks_every_record_before_opening(tmp_path, fmt):
    # The library's writers, of JSON lines and of the binary layout, encode
    # every record before they open the file, so a string UTF-8 cannot hold
    # in a later record's id or text leaves no file.
    path = tmp_path / "out"
    for second in (("q1\ud800", "b?"), ("q1", "b\ud800?")):
        with pytest.raises(InvalidInputError) as info:
            _LIBRARY_WRITERS[fmt](path, second)
        assert str(info.value).startswith(f"{path}: 'utf-8' codec can't encode character '\\ud800'")
        assert not path.exists()
    _LIBRARY_WRITERS[fmt](path, ("q1", "b?"))
    assert path.stat().st_size > 0


def test_binary_round_trip(tmp_path):
    path = tmp_path / "emb.bin"
    records = _sample_records()
    write_binary_embeddings(path, records, 16)
    loaded = fileformats.load_embeddings(path)
    assert [(r[0], r[1]) for r in loaded] == [(r[0], r[1]) for r in records]
    # the payload is float64, so the loaded values are the written bits
    for (_, _, wvec), (_, _, rvec) in zip(records, loaded):
        assert rvec.dtype == np.float64 and rvec.tobytes() == wvec.tobytes()


def test_text_and_binary_embeddings_load_the_same_bits(tmp_path):
    rng = np.random.default_rng(7)
    records = [(rid, text, vec * 10.0 ** rng.uniform(-300, 300, size=16))
               for rid, text, vec in _sample_records(count=40)]
    records[0][2][:3] = (5e-324, -0.0, 2.0 ** -1074 * 3)  # subnormals and a signed zero
    write_text_embeddings(tmp_path / "emb.txt", records, 16)
    write_binary_embeddings(tmp_path / "emb.bin", records, 16)
    text = fileformats.load_embeddings(tmp_path / "emb.txt")
    binary = fileformats.load_embeddings(tmp_path / "emb.bin")
    assert [(r.id, r.text) for r in binary] == [(r.id, r.text) for r in text]
    for t, b, (_, _, vec) in zip(text, binary, records):
        assert b.vector.tobytes() == t.vector.tobytes() == vec.tobytes()
        assert b.vector.flags["ALIGNED"] and b.vector.flags["WRITEABLE"]


def test_version_1_files_are_rejected(tmp_path):
    cache, embeddings = write_old_binary_files(tmp_path)
    with pytest.raises(ParseError) as info:
        load_dictionary_cache(cache)
    assert str(info.value) == f"{cache}: bad magic b'BQDI', expected b'QEMB'"
    for load in (load_dictionary_cache, fileformats.load_embeddings):
        with pytest.raises(ParseError) as info:
            load(embeddings)
        assert str(info.value) == f"{embeddings}: unsupported version 1, expected 2"


def test_binary_truncation_rejected(tmp_path):
    path = tmp_path / "trunc.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(ParseError):
        fileformats.load_embeddings(path)


def test_binary_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "trail.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        fileformats.load_embeddings(path)


def test_binary_invalid_utf8_id_names_field(tmp_path):
    path = tmp_path / "utf8.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[4 + 2 + 8 + 4] = 0xFF  # first byte of record 0's id
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="record 0: id: 'utf-8' codec"):
        fileformats.load_embeddings(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "magic.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="magic"):
        fileformats.load_embeddings(path)


def test_binary_version_check(tmp_path):
    path = tmp_path / "ver.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version"):
        fileformats.load_embeddings(path)


def test_binary_dim_zero_rejected(tmp_path):
    path = tmp_path / "dim0.bin"
    path.write_bytes(qemb_bytes(0, 0))
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: dim must be >= 1"


def _records_with_inf(ids):
    records = _sample_records(count=len(ids))
    records = [(rid, text, vec) for rid, (_, text, vec) in zip(ids, records)]
    records[1][2][3] = np.inf
    return records


def test_binary_non_finite_names_record(tmp_path):
    path = tmp_path / "inf.bin"
    write_binary_embeddings(path, _records_with_inf(["q0", "q1", "q2"]), 16)
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: record 1: non-finite value"


def test_binary_later_field_error_reported_before_bad_value(tmp_path):
    path = tmp_path / "two_faults.bin"
    write_binary_embeddings(path, _records_with_inf(["q0", "q1", "q0"]), 16)
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: record 2: duplicate id 'q0'"
    write_binary_embeddings(path, _records_with_inf(["q0", "q1", "q2"]), 16)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: truncated while reading record 2: values"


@pytest.mark.parametrize("ids, texts, message", [
    (["q0", "", "q0"], ["a?", "b?", "c?"], "record 1: empty id"),
    (["q0", "q1", "q0"], ["a?", " \t", "c?"], "record 1: empty text"),
    (["q0", "q1", "q2"], ["a?", "b?", "\n"], "record 2: empty text"),
], ids=["empty id", "empty text", "last text"])
def test_binary_first_field_fault_wins(tmp_path, ids, texts, message):
    path = tmp_path / "fields.bin"
    write_binary_embeddings(
        path, [(i, t, vec) for i, t, (_, _, vec) in zip(ids, texts, _sample_records())], 16)
    with pytest.raises(ParseError) as info:
        fileformats.load_embeddings(path)
    assert str(info.value) == f"{path}: {message}"


def test_binary_vectors_are_rows_of_one_array(tmp_path):
    path = tmp_path / "emb.bin"
    write_binary_embeddings(path, _sample_records(count=4), 16)
    vectors = [vec for _, _, vec in fileformats.load_embeddings(path)]
    assert vectors[0].base is not None
    assert all(vec.dtype == np.float64 and vec.base is vectors[0].base for vec in vectors)


_RECORD_0 = pack_string("a") + pack_string("a?")
_HOSTILE_BINARY = {  # kind: (header dim and count, bytes after the header, fault)
    "huge dim": ((2**32 - 1, 1), _RECORD_0 + b"\x00" * 5, "record 0: values"),
    "huge count": ((2, 2**32 - 1), _RECORD_0 + b"\x00" * 3, "record 1: id length"),
    "huge string length": ((2, 2), _RECORD_0 + b"\xff" * 4 + b"abc", "record 1: id"),
}


@pytest.mark.parametrize("source", ["file", pytest.param("pipe", marks=needs_fifo)])
@pytest.mark.parametrize("kind", list(_HOSTILE_BINARY))
def test_binary_header_sizes_no_allocation(tmp_path, kind, source, block_bytes):
    # A header or length prefix the bytes cannot back allocates nothing of its
    # size: every bound is checked against the bytes that are there, so a pipe
    # fails as a short regular file does.
    (dim, count), body, fault = _HOSTILE_BINARY[kind]
    data = qemb_bytes(dim, count, tail=body)
    if source == "file":
        path = tmp_path / "hostile.bin"
        path.write_bytes(data)
        read = lambda: fileformats.load_embeddings(path)
    else:
        path = tmp_path / "input.fifo"
        read = lambda: read_through_pipe(tmp_path, data, fileformats.load_embeddings)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: truncated while reading {fault}"
    assert peak < 1 << 20
    assert all(size <= 1 << 20 for size in block_bytes)


@pytest.mark.parametrize("source", ["file", pytest.param("pipe", marks=needs_fifo)])
def test_binary_long_tail_is_rejected_unread(tmp_path, source, block_bytes):
    # One record and a 20 MiB tail: the strings are read one at a time, so
    # the tail is measured, not read, before it is rejected.  A pipe is
    # copied to its end first, so only the file read is bounded.
    data = qemb_bytes(2, 1, ["a", "a?"], bytes(16 + (20 << 20)))
    if source == "file":
        path = tmp_path / "tail.bin"
        path.write_bytes(data)
        read = lambda: fileformats.load_embeddings(path)
    else:
        path = tmp_path / "input.fifo"
        read = lambda: read_through_pipe(tmp_path, data, fileformats.load_embeddings)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{path}: 20971520 trailing bytes after last record"
    if source == "file":
        assert peak + sum(block_bytes) < 1 << 20


def _reference_read_binary(path):
    """The binary reader written plainly: the whole file's bytes are read,
    then walked.

    An oracle for ``read_binary``: the same ids, texts and values, or the
    same exception type and message.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic, version = fileformats.EMBEDDING_MAGIC, fileformats.EMBEDDING_VERSION
    if len(data) < 4:
        raise ParseError(f"{path}: truncated while reading magic")
    if data[:4] != magic:
        raise ParseError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) < 6:
        raise ParseError(f"{path}: truncated while reading version")
    (got,) = struct.unpack_from("<H", data, 4)
    if got != version:
        raise ParseError(f"{path}: unsupported version {got}, expected {version}")
    if len(data) < 14:
        raise ParseError(f"{path}: truncated while reading header")
    dim, count = struct.unpack_from("<II", data, 6)
    if dim < 1:
        raise ParseError(f"{path}: dim must be >= 1")
    at, strings = 14, []
    for m in range(2 * count):
        field = f"record {m // 2}: {('id', 'text')[m % 2]}"
        if len(data) - at < 4:
            raise ParseError(f"{path}: truncated while reading {field} length")
        (n,) = struct.unpack_from("<I", data, at)
        at += 4
        if len(data) - at < n:
            raise ParseError(f"{path}: truncated while reading {field}")
        try:
            strings.append(data[at:at + n].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {field}: {exc}") from None
        at += n
    ids, texts = strings[::2], strings[1::2]
    seen = set()
    for i, (rec_id, text) in enumerate(zip(ids, texts)):
        if not rec_id:
            raise ParseError(f"{path}: record {i}: empty id")
        if rec_id in seen:
            raise ParseError(f"{path}: record {i}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        if not text.strip():
            raise ParseError(f"{path}: record {i}: empty text")
    left, nbytes = len(data) - at, 8 * count * dim
    if left < nbytes:
        raise ParseError(f"{path}: truncated while reading record {left // (8 * dim)}: values")
    if left > nbytes:
        raise ParseError(f"{path}: {left - nbytes} trailing bytes after last record")
    values = np.frombuffer(data, "<f8", count * dim, at).reshape(count, dim)
    for i, row in enumerate(values):
        if not np.isfinite(row).all():
            raise ParseError(f"{path}: record {i}: non-finite value")
    return ids, texts, values


def _reference_load_embeddings(path):
    with open(path, "rb") as fh:
        if fh.read(4) != fileformats.EMBEDDING_MAGIC:
            return _reference_read_text(path)
    return list(zip(*_reference_read_binary(path)))


def _reference_load_cache(path):
    ids, texts, values = _reference_read_binary(path)
    try:
        return Dictionary(matrix=values.T, ids=ids, texts=texts)
    except (InvalidInputError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_outcome(load, path):
    """What ``load()`` gives: None and the ids, texts and value bits, or the
    type and message of its fault, the message without its leading ``path``."""
    try:
        result = load()
    except BasiqError as exc:
        return type(exc), str(exc).removeprefix(f"{path}: ")
    if isinstance(result, Dictionary):
        return None, result.ids, result.texts, result.matrix.tobytes()
    return None, [(rec_id, text, vec.tobytes()) for rec_id, text, vec in result]


def _oracle_blobs(family):
    """Broken copies of a 3-record cache with multi-byte strings: ``family``
    is every truncation, 300 seeded single-byte flips, or appended tails."""
    rng = np.random.default_rng(29)
    strings = ["a", "caf\u00e9?", "\u00df", "b \u2603?", "\U0001f600", "c?"]
    blob = qemb_bytes(4, 3, strings, unit_columns(rng, 4, 3).T.tobytes())
    if family == "truncations":
        return [blob[:cut] for cut in range(len(blob) + 1)]
    if family == "flips":
        flips = []
        for at, byte in zip(rng.integers(len(blob), size=300), rng.integers(1, 256, size=300)):
            flipped = bytearray(blob)
            flipped[at] ^= int(byte)
            flips.append(bytes(flipped))
        return flips
    return [blob + tail for tail in (b"\x00", b"\xff" * 7, bytes(32), qemb_bytes(4, 1),
                                     bytes(70000))]


@pytest.mark.parametrize("source", ["file", pytest.param("pipe", marks=needs_fifo)])
@pytest.mark.parametrize("family", ["truncations", "flips", "tails"])
def test_binary_reader_matches_whole_file_reference(tmp_path, family, source):
    path, fifo = tmp_path / "emb.bin", tmp_path / "input.fifo"
    seen = set()  # fault messages, and None for a load
    for blob in _oracle_blobs(family):
        path.write_bytes(blob)
        for load, reference in ((fileformats.load_embeddings, _reference_load_embeddings),
                                (load_dictionary_cache, _reference_load_cache)):
            expected = _load_outcome(lambda: reference(path), path)
            if source == "file":
                got = _load_outcome(lambda: load(path), path)
            else:
                got = _load_outcome(lambda: read_through_pipe(tmp_path, blob, load), fifo)
                fifo.unlink()
            assert got == expected, blob
            seen.add(expected[0] and expected[1])
    # each family meets several faults; some truncations and flips still load
    assert len(seen - {None}) >= 5 and (None in seen) == (family != "tails")


@needs_fifo
def test_binary_pipe_names_cut_record_and_trailing_bytes(tmp_path):
    path = tmp_path / "emb.bin"
    write_binary_embeddings(path, _sample_records(), 16)
    raw = path.read_bytes()
    fifo = tmp_path / "input.fifo"
    with pytest.raises(ParseError) as info:
        read_through_pipe(tmp_path, raw[:-8 * 16 - 3], fileformats.load_embeddings)
    assert str(info.value) == f"{fifo}: truncated while reading record 1: values"
    fifo.unlink()
    with pytest.raises(ParseError) as info:
        read_through_pipe(tmp_path, raw + b"\x00" * 70000, fileformats.load_embeddings)
    assert str(info.value) == f"{fifo}: 70000 trailing bytes after last record"
    fifo.unlink()
    loaded = read_through_pipe(tmp_path, raw, fileformats.load_embeddings)
    vectors = np.array([rec.vector for rec in loaded])
    assert vectors.tobytes() == np.array([vec for _, _, vec in _sample_records()]).tobytes()
    assert loaded[0].vector.flags["ALIGNED"] and loaded[0].vector.flags["WRITEABLE"]


def test_binary_empty_body(tmp_path):
    path = tmp_path / "empty.bin"
    write_binary_embeddings(path, [], 16)
    assert fileformats.load_embeddings(path) == []


@pytest.mark.parametrize("write", [write_text_embeddings,
                                   write_binary_embeddings],
                         ids=["text", "binary"])
def test_load_embeddings_well_formed(tmp_path, write):
    path = tmp_path / "emb"
    records = _sample_records()
    write(path, records, 16)
    loaded = fileformats.load_embeddings(path)
    assert all(isinstance(rec, fileformats.QuestionRecord) for rec in loaded)
    assert [(rec.id, rec.text) for rec in loaded] == [(i, t) for i, t, _ in records]
    for rec, (_, _, vec) in zip(loaded, records):
        assert rec.vector.shape == (16,)
        assert np.allclose(rec.vector, vec, rtol=1e-6, atol=0)


def test_load_embeddings_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("dim=16 count=0\n", encoding="utf-8")
    assert fileformats.load_embeddings(path) == []


def test_load_embeddings_dim_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("dim=16 count=1\nq0\thello?\t" + " ".join(["1"] * 15) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError):
        fileformats.load_embeddings(path)


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "rows.jsonl"
    fileformats.write_jsonl(path, ['{"a": 1}', '{"b": 2}'])
    assert path.read_bytes().endswith(b"\n")
    assert [value for _, value in fileformats.read_jsonl(path)] == [{"a": 1}, {"b": 2}]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "lone CR"])
@pytest.mark.parametrize("final", [True, False], ids=["final newline", "no final newline"])
def test_jsonl_lines_end_at_universal_newlines(tmp_path, end, final):
    path = tmp_path / "rows.jsonl"
    path.write_bytes((end.join(['{"a": 1}', "", '{"b": 2}']) + end * final).encode("utf-8"))
    assert list(fileformats.read_jsonl(path)) == [(1, {"a": 1}), (3, {"b": 2})]


@pytest.mark.parametrize("case", list(CHUNK_CASES))
def test_jsonl_chunks_read_as_the_plain_reader(tmp_path, case):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(jsonl_over_chunks(lambda i: {"i": i, "q": f"row {i}?"}, case))
    expected = outcome(lambda: list(plain_jsonl(path)))
    assert outcome(lambda: list(fileformats.read_jsonl(path))) == expected


def test_jsonl_faults_name_their_place_across_chunks(tmp_path):
    # Line numbers and byte offsets count from the start of the file, not of the chunk.
    path = tmp_path / "rows.jsonl"
    for case, message in [
        ("JSON fault on a later chunk's first line",
         f"line {2 * PER_CHUNK + 1}: Expecting value: line 1 column {JSONL_WIDTH} "
         f"(char {JSONL_WIDTH - 1})"),
        ("invalid UTF-8 on a later chunk's first line",
         f"'utf-8' codec can't decode byte 0xff in position {(2 * PER_CHUNK + 1) * JSONL_WIDTH - 4}:"
         " invalid start byte"),
    ]:
        path.write_bytes(jsonl_over_chunks(lambda i: {"i": i}, case))
        with pytest.raises(ParseError) as info:
            list(fileformats.read_jsonl(path))
        assert str(info.value) == f"{path}: {message}"


def test_chunks_end_where_per_chunk_says(tmp_path):
    # Each chunk ``_lines`` reads holds ``PER_CHUNK`` whole lines of
    # ``JSONL_WIDTH`` bytes, so every ``CHUNK_CASES`` edit sits where it says.
    path = tmp_path / "rows.jsonl"
    path.write_bytes(jsonl_over_chunks(lambda i: {"i": i}, "JSON fault on a later chunk's first line"))
    assert chunk_ends(path) == [PER_CHUNK * JSONL_WIDTH, 2 * PER_CHUNK * JSONL_WIDTH,
                                path.stat().st_size]


def test_jsonl_peak_memory_does_not_grow_with_the_file(tmp_path):
    # A few chunks of lines and their text are held at once, never the file.
    line = json.dumps({"q": "what is it? " * 160, "n": [0.5, 0.25, 0.0]})
    peaks = []
    for mib in (5, 20):
        path = tmp_path / f"{mib}.jsonl"
        path.write_bytes(f"{line}\n".encode("ascii") * (mib * 2 ** 20 // (len(line) + 1)))
        tracemalloc.start()
        try:
            for _ in fileformats.read_jsonl(path):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 5 * fileformats._CHUNK
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


_TRUNCATED = {"truncated 2-byte": "é", "truncated 3-byte": "€", "truncated 4-byte": "\U0001f600"}
_UTF8_FAULTS = ["lone byte", *_TRUNCATED, "encoded surrogate", "stray continuation"]


def _utf8_fault(kind, rng):
    """One seeded invalid UTF-8 sequence of ``kind``, as bytes."""
    if kind == "lone byte":
        return bytes([int(rng.choice([0xC0, 0xC1, *range(0xF5, 0x100)]))])
    if kind == "stray continuation":
        return bytes([int(rng.integers(0x80, 0xC0))])
    if kind == "encoded surrogate":
        return chr(int(rng.integers(0xD800, 0xE000))).encode("utf-8", "surrogatepass")
    whole = _TRUNCATED[kind].encode("utf-8")
    return whole[:int(rng.integers(1, len(whole)))]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "lone CR"])
@pytest.mark.parametrize("kind", _UTF8_FAULTS)
def test_jsonl_invalid_utf8_matches_whole_file_decode(tmp_path, kind, end):
    # The reported byte offset must be the one a decode of the whole file
    # gives, for a splice anywhere past the first 8 KiB, after non-ASCII
    # text, and at the end of the file.
    path = tmp_path / "rows.jsonl"
    for seed in range(24):
        rng = np.random.default_rng(seed)
        prefix = "été 日本 " * int(rng.integers(0, 3))
        lines = [f'{{"q": "{prefix}row {i}", "n": {i}}}'
                 for i in range(int(rng.integers(300, 900)))]
        data = (end.join(lines) + end * int(rng.integers(0, 2))).encode("utf-8")
        at = len(data) if seed % 8 == 7 else int(rng.integers(8192, len(data)))
        while at < len(data) and (data[at - 1] >= 0x80 or data[at] >= 0x80):
            at += 1  # splice between two ASCII bytes, not inside a character
        data = data[:at] + _utf8_fault(kind, rng) + data[at:]
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as expected:
            data.decode("utf-8")
        with pytest.raises(ParseError) as info:
            list(fileformats.read_jsonl(path))
        assert str(info.value) == f"{path}: {expected.value}", (seed, at)


_ONE_OPEN_READERS = {  # case: (reader, name of its input)
    "load_embeddings text": (fileformats.load_embeddings, "emb.txt"),
    "load_embeddings binary": (fileformats.load_embeddings, "emb.bin"),
    "read_jsonl": (lambda path: list(fileformats.read_jsonl(path)), "rows.jsonl"),
    "load_dictionary_cache": (load_dictionary_cache, "dict.bin"),
}


def _write_each_format(tmp_path):
    records = question_records(np.eye(4)[:, :3])
    write_text_embeddings(tmp_path / "emb.txt", records, 4)
    write_binary_embeddings(tmp_path / "emb.bin", records, 4)
    fileformats.write_jsonl(tmp_path / "rows.jsonl", ['{"a": 1}', '{"b": 2}'])
    save_dictionary_cache(build_dictionary(records), tmp_path / "dict.bin")


@pytest.mark.parametrize("case", list(_ONE_OPEN_READERS))
def test_each_reader_opens_its_path_once(tmp_path, monkeypatch, case):
    read, name = _ONE_OPEN_READERS[case]
    path = tmp_path / name
    _write_each_format(tmp_path)
    opened, real_open = [], builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    read(path)
    monkeypatch.undo()
    assert opened == [path]
