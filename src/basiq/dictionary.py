"""The retrieval dictionary: a dense matrix of unit-normalized question columns.

Duplicate questions are collapsed before the matrix is built, each
surviving embedding is scaled to unit L2 norm, and the original norms
are kept for audit.  The matrix is stored column-major, the layout the
cache writes.  A built dictionary is a checked tuple of read-only arrays
and tuples, immutable and safe to share across concurrent solves.
"""

import struct

import numpy as np

from .errors import InvalidInputError, ParseError, ShapeError
from .fileformats import BinaryReader, encode_faults, pack_string
from .immutable import checked_tuple

CACHE_MAGIC = b"BQDICT"
CACHE_VERSION = 1

UNIT_NORM_TOL = 1e-9


def normalize_question_text(text):
    """Trim, collapse whitespace runs, casefold: the dedup key of question
    texts, and the answer normalization of ``vqa_metric``."""
    return " ".join(text.split()).casefold()


class Dictionary(checked_tuple("Dictionary", "matrix ids texts column_norms_original")):
    """Unit-column matrix plus parallel id/text/original-norm bookkeeping."""

    __slots__ = ()

    def __new__(cls, matrix, ids, texts, column_norms_original):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got shape {m.shape}")
        dim, n = m.shape
        if n < 1 or dim < 1:
            raise ShapeError("matrix must have at least one row and one column")
        m = np.asfortranarray(m)  # a no-op on a column-major matrix
        norms = np.sqrt(np.einsum("ij,ij->j", m, m))
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):  # NaN fails too
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise InvalidInputError(
                f"column {worst} has norm {float(norms[worst])!r}, expected 1 within {UNIT_NORM_TOL}"
            )
        ids = tuple(ids)
        texts = tuple(texts)
        if len(ids) != n or len(texts) != n:
            raise ShapeError("ids and texts must each have one entry per column")
        if len(set(ids)) != n:
            raise InvalidInputError("ids must be unique")
        orig = np.asarray(column_norms_original, dtype=np.float64)
        if orig.shape != (n,):
            raise ShapeError("column_norms_original must have one entry per column")
        m.setflags(write=False)
        orig = orig.copy()
        orig.setflags(write=False)
        return tuple.__new__(cls, (m, ids, texts, orig))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def n_columns(self):
        return self.matrix.shape[1]


def build_dictionary(records, dedup="normalized"):
    """Build a Dictionary from question records.

    Records whose text collapses to the same dedup key keep only the
    first occurrence, in input order.  ``dedup`` is ``"normalized"``
    (trim/collapse/case-insensitive) or ``"exact"`` (byte equality).
    Fields come before values: the first bad id, text or vector shape
    raises; then the first non-finite vector (dropped duplicates
    included), then the first zero-norm kept one.
    """
    if dedup not in ("normalized", "exact"):
        raise InvalidInputError(f"unknown dedup mode {dedup!r}")
    records = list(records)
    if not records:
        raise InvalidInputError("cannot build a dictionary from zero records")
    key_of = normalize_question_text if dedup == "normalized" else (lambda t: t)

    vecs, kept = [], []
    seen_keys, seen_ids = set(), set()
    dim = None
    for i, rec in enumerate(records):
        if not rec.id:
            raise InvalidInputError("record with empty id")
        if not rec.text.strip():
            raise InvalidInputError(f"record {rec.id!r} has empty text")
        vec = np.asarray(rec.vector, dtype=np.float64)
        if vec.ndim != 1:
            raise ShapeError(f"record {rec.id!r}: vector must be 1-D")
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ShapeError(
                f"record {rec.id!r}: vector length {vec.shape[0]} != {dim} of earlier records"
            )
        vecs.append(vec)
        key = key_of(rec.text)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        if rec.id in seen_ids:
            raise InvalidInputError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        kept.append(i)

    bad = np.flatnonzero(~np.isfinite(np.array(vecs)).all(axis=1))  # dropped ones too
    if bad.size:
        raise InvalidInputError(f"record {records[bad[0]].id!r}: non-finite vector")
    rows = np.array([vecs[i] for i in kept])  # one survivor per row; its transpose is column-major
    # Batched dot products: bit-identical to per-vector np.linalg.norm,
    # which einsum is not.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise InvalidInputError(f"record {records[kept[zero[0]]].id!r} has a zero-norm vector")
    rows /= norms[:, None]
    return Dictionary(
        matrix=rows.T,
        ids=tuple(records[i].id for i in kept),
        texts=tuple(records[i].text for i in kept),
        column_norms_original=norms,
    )


def save_dictionary_cache(d, path):
    """Serialize a dictionary to a binary cache file.

    Matrix and norms are stored as raw little-endian float64 so a reload
    reproduces them bit-identically.  Ids and texts are encoded before
    the file is opened; the matrix is written from its own buffer.
    """
    with encode_faults(path):
        strings = b"".join(pack_string(s) for pair in zip(d.ids, d.texts) for s in pair)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<HII", CACHE_VERSION, d.dim, d.n_columns))
        fh.write(strings)
        fh.write(np.asarray(d.column_norms_original, dtype="<f8"))
        # The column-major matrix, transposed, is a C-contiguous buffer in that order.
        fh.write(np.asarray(d.matrix, dtype="<f8").T)


def load_dictionary_cache(path):
    """Load a dictionary cache written by ``save_dictionary_cache``."""
    with open(path, "rb") as fh:
        r = BinaryReader(fh.read(), path)
    if r.take(len(CACHE_MAGIC), "magic") != CACHE_MAGIC:
        raise ParseError(f"{path}: bad magic, not a dictionary cache")
    version, dim, n = r.unpack("<HII", "header")
    if version != CACHE_VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    ids = []
    texts = []
    for i in range(n):
        ids.append(r.string("column %d: id", i))
        texts.append(r.string("column %d: text", i))
    norms = np.frombuffer(r.take(8 * n, "norms"), dtype="<f8").copy()
    matrix = (
        np.frombuffer(r.take(8 * dim * n, "matrix"), dtype="<f8")
        .reshape((dim, n), order="F")
        .copy(order="F")
    )
    r.finish()
    try:
        return Dictionary(matrix=matrix, ids=ids, texts=texts, column_norms_original=norms)
    except (InvalidInputError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
