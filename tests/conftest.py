"""Shared builders for solver, dictionary and file-reading tests."""

import contextlib
import json
import mmap
import os
import re
import struct
import threading

import numpy as np
import pytest

from basiq import fileformats
from basiq.dictionary import Dictionary, build_dictionary, save_dictionary_cache
from basiq.errors import BasiqError, InvalidInputError, ParseError, ShapeError
from basiq.fileformats import EMBEDDING_MAGIC, EMBEDDING_VERSION, QuestionRecord, write_binary

# verdict lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


PIPE_TIMEOUT = 10  # seconds a read from a named pipe may take
needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


def read_through_pipe(tmp_path, data, read):
    """``read(path)`` on the named pipe ``tmp_path / "input.fifo"``, which a
    writer thread fills with ``data``.

    The read runs in a worker thread joined with a timeout, so a reader that
    blocks (opening the pipe a second time waits for a writer that never
    comes) fails the test instead of hanging the suite.  Returns what the
    read returns, or raises what it raises.
    """
    path = tmp_path / "input.fifo"
    os.mkfifo(path)
    outcome = {}

    def worker():
        try:
            outcome["result"] = read(path)
        except BaseException as exc:  # handed to the test thread, re-raised there
            outcome["error"] = exc

    def write():
        with contextlib.suppress(BrokenPipeError):  # the reader may stop at a fault
            path.write_bytes(data)

    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=worker, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=PIPE_TIMEOUT)
    if reader.is_alive():
        try:  # release a reader blocked in open(): it then reads end of file
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        reader.join(timeout=PIPE_TIMEOUT)
        pytest.fail(f"reading a named pipe blocked for more than {PIPE_TIMEOUT} s")
    writer.join(timeout=PIPE_TIMEOUT)
    assert not writer.is_alive()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def outcome(read, *args):
    """What ``read(*args)`` returns, or the type and message of the ``BasiqError`` it raises."""
    try:
        return read(*args)
    except BasiqError as exc:
        return type(exc), str(exc)


def plain_jsonl(path, where="%s: line %d"):
    r"""``fileformats.read_jsonl`` written plainly, as an oracle: ``(line
    number, value)`` per non-empty line, from one decode of the whole file
    split at "\n", "\r\n" and lone "\r", each line read by ``json.loads``.

    A line that is not one JSON value raises ``ParseError`` naming ``where %
    (path, line number)``, with the message ``json.loads`` gives, or
    ``decode_json_line``'s for a value nested past the recursion limit.
    Invalid UTF-8 raises the whole-file decode's error once every line
    before the "\n"-ended line holding it is read.
    """
    data = path.read_bytes()
    try:
        text, fault = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, fault = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), exc
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        if not line:
            continue
        try:
            value = json.loads(line)
        except RecursionError:
            raise ParseError(f"{where % (path, lineno)}: Value nested too deeply: "
                             "line 1 column 1 (char 0)") from None
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where % (path, lineno)}: {exc}") from None
        yield lineno, value
    if fault is not None:
        raise ParseError(f"{path}: {fault}")


JSONL_WIDTH = 256  # bytes of each line of ``jsonl_over_chunks``, its "\n" included
# Such lines in one chunk of ``fileformats._lines``: its read of ``_CHUNK``
# bytes ends at a line's end, and the next whole line completes the chunk.
PER_CHUNK = fileformats._CHUNK // JSONL_WIDTH + 1


def _bad(text):
    """An edit that puts ``text``, padded with spaces, in place of a line."""
    return lambda good: text + b" " * (len(good) - len(text) - 1) + b"\n"


def _invalid_utf8(good):
    """The line with one of its padding spaces made the byte 0xff."""
    return good[:-4] + b"\xff" + good[-3:]


# case: {line index: edit of that line's bytes}.  Faults sit on the first
# or last line of a chunk, or next to a chunk boundary.
CHUNK_CASES = {
    "JSON fault on a later chunk's first line": {2 * PER_CHUNK: _bad(b'{"x": ')},
    "invalid UTF-8 on a later chunk's first line": {2 * PER_CHUNK: _invalid_utf8},
    "JSON fault, then invalid UTF-8 in the next chunk": {
        PER_CHUNK - 1: _bad(b"{'x': 1}"), PER_CHUNK: _invalid_utf8},
    "record fault, then invalid UTF-8 in the next chunk": {
        PER_CHUNK - 1: _bad(b'{"mq": 7}'), PER_CHUNK: _invalid_utf8},
    "invalid UTF-8, then a JSON fault in the next chunk": {
        PER_CHUNK - 1: _invalid_utf8, PER_CHUNK: _bad(b"[1, 2")},
    "line ends, blank lines and whitespace": {
        PER_CHUNK - 2: lambda good: good[:-1] + b"\r\n",
        PER_CHUNK - 1: lambda good: b"\n\r\n" + good[:-1] + b"\r",
        PER_CHUNK: lambda good: b" \t" + good[:-1] + b" \r\n\r",
        2 * PER_CHUNK - 1: lambda good: b"\r" + good[:-1] + b"\t\r\n\n",
        2 * PER_CHUNK: lambda good: good[:-1] + b"\r\r"},
    "BOM on a chunk's first line": {PER_CHUNK: lambda good: b"\xef\xbb\xbf" + good},
    "value over two lines of one chunk": {
        PER_CHUNK + 1: _bad(b'{"image_id":'), PER_CHUNK + 2: _bad(b'"x"}')},
    "value over two chunks": {PER_CHUNK - 1: _bad(b'{"image_id":'), PER_CHUNK: _bad(b'"x"}')},
    "nesting past the recursion limit": {PER_CHUNK: lambda good: b"[" * 5000 + b"]" * 5000 + b"\n"},
}


def jsonl_over_chunks(make, case):
    """The bytes of a JSON-lines file two and a half ``fileformats._lines``
    chunks long, with the edits of ``CHUNK_CASES[case]``.  Line ``i`` is ``make(i)``
    with a "pad" field that makes it ``JSONL_WIDTH`` bytes, so chunk ``c``
    starts at line ``c * PER_CHUNK`` until an edit changes a line's length."""
    lines = []
    for i in range(5 * PER_CHUNK // 2):
        pad = JSONL_WIDTH - 1 - len(json.dumps({**make(i), "pad": ""}))
        assert pad >= 3
        lines.append(json.dumps({**make(i), "pad": " " * pad}).encode("ascii") + b"\n")
    for i, edit in CHUNK_CASES[case].items():
        lines[i] = edit(lines[i])
    return b"".join(lines)


def chunk_ends(path):
    """The file offset at which each chunk ``fileformats._lines`` reads of ``path`` ends."""
    with open(path, "rb") as fh:
        return sorted({fh.tell() for _ in fileformats._lines(fh, path)})


def unit_columns(rng, dim, n):
    """Random dense matrix with unit-L2 columns, column-major."""
    a = rng.standard_normal((dim, n))
    a /= np.linalg.norm(a, axis=0)
    return np.asfortranarray(a)


def unit_columns_of_rank(rng, dim, n, rank):
    """Unit columns drawn from a random ``rank``-dimensional subspace of R^dim."""
    basis = np.linalg.qr(rng.standard_normal((dim, rank)))[0]
    a = basis @ rng.standard_normal((rank, n))
    a /= np.linalg.norm(a, axis=0)
    return a


def near_duplicate_pairs(seed):
    """An 8x16 unit-column design whose columns 2k and 2k+1 differ by about
    1e-8, and a Gaussian query.  At ``lambda_rel = 1e-3`` seed 116 reaches
    a singular active Gram matrix."""
    rng = np.random.default_rng(seed)
    a = unit_columns(rng, 8, 16)
    a[:, 1::2] = a[:, ::2] + 1e-8 * rng.standard_normal((8, 8)).T
    a /= np.linalg.norm(a, axis=0)
    return a, rng.standard_normal(8)


def question_records(vectors, prefix="q"):
    """Wrap columns as records with distinct ids and texts."""
    return [
        QuestionRecord(id=f"{prefix}{j:04d}", text=f"is item {j} visible in frame {prefix}?",
                       vector=np.asarray(col))
        for j, col in enumerate(np.asarray(vectors).T)
    ]


def write_text_embeddings(path, records, dim):
    """Write ``(id, text, vector)`` tuples as a text embedding file, each
    value as the ``repr`` of its float, which reads back to the same bits."""
    lines = [f"dim={dim} count={len(records)}\n"]
    lines += [f"{rec_id}\t{text}\t{' '.join(repr(float(v)) for v in vec)}\n"
              for rec_id, text, vec in records]
    path.write_bytes("".join(lines).encode("utf-8"))


def write_binary_embeddings(path, records, dim):
    """Write ``(id, text, vector)`` tuples as a binary embedding file."""
    values = np.array([vec for _, _, vec in records], dtype=np.float64).reshape(len(records), dim)
    write_binary(path, [rec[0] for rec in records], [rec[1] for rec in records], values)


def pack_string(s):
    """``s`` as the binary layout stores it: a uint32 length, then UTF-8 bytes."""
    b = s.encode("utf-8")
    return struct.pack("<I", len(b)) + b


def qemb_bytes(dim, count, strings=(), tail=b""):
    """The bytes of a ``QEMB`` file: its header declaring ``dim`` and
    ``count``, each of ``strings`` as a uint32 length and UTF-8 bytes, then
    ``tail`` (the value block, or anything else) as it is."""
    return (EMBEDDING_MAGIC + struct.pack("<HII", EMBEDDING_VERSION, dim, count)
            + b"".join(map(pack_string, strings)) + tail)


def corrupt_cache(path, kind):
    """Save a valid 2-column cache at ``path``, then break it as ``kind`` says."""
    d = Dictionary(matrix=np.eye(2), ids=("a", "b"), texts=("a?", "b?"))
    save_dictionary_cache(d, path)
    blob = path.read_bytes()
    if kind == "duplicate ids":
        blob = blob.replace(pack_string("b"), pack_string("a"))
    elif kind == "norm 2":
        matrix_at = len(blob) - 8 * 2 * 2
        blob = blob[:matrix_at] + struct.pack("<d", 2.0) + blob[matrix_at + 8:]
    elif kind == "no columns":
        blob = qemb_bytes(2, 0)
    elif kind == "length into values":  # the last text claims 4 bytes of the value block
        blob = blob.replace(pack_string("b?"), struct.pack("<I", 6) + b"b?")
    elif kind == "section ends early":  # the last text leaves 1 byte before the value block
        blob = blob.replace(pack_string("b?"), struct.pack("<I", 1) + b"b?")
    else:  # "version 9"
        blob = blob[:4] + struct.pack("<H", 9) + blob[6:]
    path.write_bytes(blob)


CACHE_FAULTS = {  # kind: (exception type, message after the path)
    "duplicate ids": (ParseError, "record 1: duplicate id 'a'"),
    "norm 2": (InvalidInputError, "column 0 has norm 2.0, expected 1 within 1e-09"),
    "no columns": (ShapeError, "matrix must have at least one row and one column"),
    "version 9": (ParseError, "unsupported version 9, expected 2"),
    "length into values": (ParseError, "truncated while reading record 1: values"),
    "section ends early": (ParseError, "1 trailing bytes after last record"),
}


def write_old_binary_files(tmp_path):
    """Write the two version-1 binary formats byte by byte, holding the same
    two records, and return their paths: ``old-dict.bin``, a ``BQDICT``
    cache (magic, uint16 version, uint32 dim and count, the id and text
    pairs, the original norms, then the column-major matrix), and
    ``old-emb.bin``, a ``QEMB`` file (the header, then per record an id,
    a text and ``dim`` float32 values)."""
    ids, texts, matrix = ("a", "b"), ("a?", "b?"), np.eye(2)
    strings = b"".join(pack_string(s) for pair in zip(ids, texts) for s in pair)
    cache = tmp_path / "old-dict.bin"
    cache.write_bytes(b"BQDICT" + struct.pack("<HII", 1, 2, 2) + strings
                      + np.ones(2).tobytes() + matrix.tobytes(order="F"))
    embeddings = tmp_path / "old-emb.bin"
    embeddings.write_bytes(b"QEMB" + struct.pack("<HII", 1, 2, 2) + b"".join(
        pack_string(i) + pack_string(t) + col.astype("<f4").tobytes()
        for i, t, col in zip(ids, texts, matrix.T)))
    return cache, embeddings


def orthogonal_dictionary(dim, n, seed=0):
    """Dictionary whose columns are mutually orthogonal (n <= dim)."""
    assert n <= dim
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return build_dictionary(question_records(q[:, :n]))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def block_bytes(monkeypatch):
    """The size in bytes of every value block the readers ask ``_block`` for.

    ``tracemalloc`` does not see an anonymous mapping, so memory tests add
    these sizes to its peak, and header tests check that none is large.
    """
    sizes, block = [], fileformats._block

    def recording(count, dim):
        sizes.append(8 * count * dim)
        return block(count, dim)

    monkeypatch.setattr(fileformats, "_block", recording)
    return sizes


def mapping_of(arr):
    """The anonymous mapping that holds ``arr``'s memory, found through its ``base`` chain."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    assert isinstance(arr, mmap.mmap)
    return arr
