"""Shared builders for solver, dictionary and file-reading tests."""

import contextlib
import mmap
import os
import struct
import threading

import numpy as np
import pytest

from basiq import fileformats
from basiq.dictionary import Dictionary, build_dictionary, save_dictionary_cache
from basiq.errors import InvalidInputError, ParseError, ShapeError
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


def unit_columns(rng, dim, n):
    """Random dense matrix with unit-L2 columns, column-major."""
    a = rng.standard_normal((dim, n))
    a /= np.linalg.norm(a, axis=0)
    return np.asfortranarray(a)


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
