"""The retrieval dictionary: a dense matrix of unit-normalized question columns.

Duplicate questions are collapsed before the matrix is built, each
surviving embedding is scaled to unit L2 norm, and the original norms
are kept for audit.  Columns are stored contiguously (column-major)
because the solver iterates over them.  A built dictionary is immutable
and safe to share across concurrent solves.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .encoder import QuestionRecord
from .errors import InvalidInputError, ParseError, ShapeError
from .fileformats import BinaryReader, pack_string

__all__ = [
    "QuestionRecord",
    "Dictionary",
    "build_dictionary",
    "normalize_question_text",
    "save_dictionary_cache",
    "load_dictionary_cache",
]

CACHE_MAGIC = b"BQDICT"
CACHE_VERSION = 1

UNIT_NORM_TOL = 1e-9


def normalize_question_text(text):
    """Dedup key: trim, collapse whitespace runs, compare case-insensitively."""
    return " ".join(text.split()).casefold()


@dataclass(frozen=True)
class Dictionary:
    """Unit-column matrix plus parallel id/text/original-norm bookkeeping."""

    matrix: np.ndarray
    ids: tuple
    texts: tuple
    column_norms_original: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got shape {m.shape}")
        dim, n = m.shape
        if n < 1 or dim < 1:
            raise ShapeError("matrix must have at least one row and one column")
        if not m.flags.f_contiguous:
            m = np.asfortranarray(m)
        norms = np.sqrt(np.einsum("ij,ij->j", m, m))
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):  # NaN fails too
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise InvalidInputError(
                f"column {worst} has norm {float(norms[worst])!r}, expected 1 within {UNIT_NORM_TOL}"
            )
        ids = tuple(self.ids)
        texts = tuple(self.texts)
        if len(ids) != n or len(texts) != n:
            raise ShapeError("ids and texts must each have one entry per column")
        if len(set(ids)) != n:
            raise InvalidInputError("ids must be unique")
        orig = np.asarray(self.column_norms_original, dtype=np.float64)
        if orig.shape != (n,):
            raise ShapeError("column_norms_original must have one entry per column")
        m.setflags(write=False)
        orig = orig.copy()
        orig.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "texts", texts)
        object.__setattr__(self, "column_norms_original", orig)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def n_columns(self):
        return self.matrix.shape[1]

    def lookup(self, column_index):
        """Return the (id, text, column vector) triple at a column index."""
        n = self.n_columns
        if not 0 <= column_index < n:
            raise IndexError(f"column index {column_index} out of range [0, {n})")
        return self.ids[column_index], self.texts[column_index], self.matrix[:, column_index]


def build_dictionary(records, dedup="normalized"):
    """Build a Dictionary from question records.

    Records whose text collapses to the same dedup key keep only the
    first occurrence, in input order.  ``dedup`` is ``"normalized"``
    (trim/collapse/case-insensitive) or ``"exact"`` (byte equality).
    """
    if dedup not in ("normalized", "exact"):
        raise InvalidInputError(f"unknown dedup mode {dedup!r}")
    records = list(records)
    if not records:
        raise InvalidInputError("cannot build a dictionary from zero records")
    key_of = normalize_question_text if dedup == "normalized" else (lambda t: t)

    ids, texts, vecs = [], [], []
    seen_keys, seen_ids = set(), set()
    dim = None
    try:
        for rec in records:
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
            key = key_of(rec.text)
            if key in seen_keys:
                _check_finite([rec.id], vec)
                continue
            seen_keys.add(key)
            if rec.id in seen_ids:
                raise InvalidInputError(f"duplicate record id {rec.id!r}")
            seen_ids.add(rec.id)
            ids.append(rec.id)
            texts.append(rec.text)
            vecs.append(vec)
    except (InvalidInputError, ShapeError):
        # A non-finite vector on an earlier record is reported first.
        if vecs:
            _check_finite(ids, np.array(vecs))
        raise

    rows = np.array(vecs)  # one survivor per row; its transpose is column-major
    _check_finite(ids, rows)
    # Batched dot products: bit-identical to per-vector np.linalg.norm,
    # which einsum is not.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise InvalidInputError(f"record {ids[zero[0]]!r} has a zero-norm vector")
    rows /= norms[:, None]
    return Dictionary(
        matrix=rows.T,
        ids=tuple(ids),
        texts=tuple(texts),
        column_norms_original=norms,
    )


def _check_finite(ids, rows):
    """Reject the first of ``rows`` (one vector per id) with a non-finite value."""
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=-1))
    if bad.size:
        raise InvalidInputError(f"record {ids[bad[0]]!r}: non-finite vector")


def save_dictionary_cache(d, path):
    """Serialize a dictionary to a binary cache file.

    Matrix and norms are stored as raw little-endian float64 so a reload
    reproduces them bit-identically.
    """
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<HII", CACHE_VERSION, d.dim, d.n_columns))
        for rec_id, text in zip(d.ids, d.texts):
            fh.write(pack_string(rec_id))
            fh.write(pack_string(text))
        fh.write(np.asarray(d.column_norms_original, dtype="<f8").tobytes())
        fh.write(np.asarray(d.matrix, dtype="<f8").tobytes(order="F"))


def load_dictionary_cache(path):
    """Load a dictionary cache written by ``save_dictionary_cache``."""
    r = BinaryReader(path)
    if r.take(len(CACHE_MAGIC), "magic") != CACHE_MAGIC:
        raise ParseError(f"{path}: bad magic, not a dictionary cache")
    version, dim, n = r.unpack("<HII", "header")
    if version != CACHE_VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    ids = []
    texts = []
    for i in range(n):
        ids.append(r.string(f"column {i}: id"))
        texts.append(r.string(f"column {i}: text"))
    norms = np.frombuffer(r.take(8 * n, "norms"), dtype="<f8").copy()
    matrix = (
        np.frombuffer(r.take(8 * dim * n, "matrix"), dtype="<f8")
        .reshape((dim, n), order="F")
        .copy(order="F")
    )
    r.finish()
    return Dictionary(
        matrix=matrix, ids=tuple(ids), texts=tuple(texts), column_norms_original=norms
    )
