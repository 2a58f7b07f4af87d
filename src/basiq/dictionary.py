"""The retrieval dictionary: a dense matrix of unit-normalized question columns.

Duplicate questions are collapsed before the matrix is built, and each
surviving embedding is scaled to unit L2 norm.  The matrix is stored
column-major, so its transpose is the C-contiguous ``count x dim`` value
block of the cache, a binary embedding file of the columns.  The matrix
of a built dictionary, or of one loaded from a cache file or pipe, lives
in an anonymous mapping of its own, which goes back to the operating
system as soon as the dictionary is dropped.  A built dictionary is a checked
tuple of read-only arrays and tuples, immutable and safe to share across
concurrent solves.  On its first solve it also builds ``search_matrix``,
a float32 copy of the matrix from which the solver places path events;
the coefficients and the gap are still computed from the float64
``matrix``.
"""

from functools import cached_property

import numpy as np

from .errors import InvalidInputError, ShapeError
from .fileformats import _block, read_binary, write_binary
from .immutable import checked_tuple

UNIT_NORM_TOL = 1e-9


def normalize_question_text(text):
    """Trim, collapse whitespace runs, casefold: the dedup key of question
    texts, and the answer normalization of ``vqa_metric``."""
    return " ".join(text.split()).casefold()


class Dictionary(checked_tuple("Dictionary", "matrix ids texts")):
    """Unit-column matrix plus parallel id/text bookkeeping.

    An aligned column-major ``matrix`` is kept as it is when it and the
    array owning its memory (itself or its ``base``) are read-only; any
    other is copied, so no writable array can change the columns.  No
    ``__slots__``: an instance keeps its ``search_matrix`` once built.
    """

    def __new__(cls, matrix, ids, texts):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got shape {m.shape}")
        dim, n = m.shape
        if n < 1 or dim < 1:
            raise ShapeError("matrix must have at least one row and one column")
        owner = m if m.base is None else m.base
        if (m.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable
                or not (m.flags.f_contiguous and m.flags.aligned)):
            m = np.array(m, order="F")
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
        m.setflags(write=False)
        return tuple.__new__(cls, (m, ids, texts))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def n_columns(self):
        return self.matrix.shape[1]

    @cached_property
    def search_matrix(self):
        """A read-only float32 copy of ``matrix``, from which the solver
        places path events.  It is built on first use, so a dictionary that
        is never solved against never holds it."""
        m = self.matrix.astype(np.float32)
        m.setflags(write=False)
        return m


def build_dictionary(records, dedup="normalized"):
    """Build a Dictionary from question records.

    Records whose text collapses to the same dedup key keep only the
    first occurrence, in input order.  ``dedup`` is ``"normalized"``
    (trim/collapse/case-insensitive) or ``"exact"`` (byte equality).
    Fields come before values: the first bad id, text or vector shape
    raises; then the first non-finite vector (dropped duplicates
    included), then the first zero-norm kept one.  Only the kept rows are
    copied, into a block of their own that the matrix views.
    """
    if dedup not in ("normalized", "exact"):
        raise InvalidInputError(f"unknown dedup mode {dedup!r}")
    records = list(records)
    if not records:
        raise InvalidInputError("cannot build a dictionary from zero records")
    key_of = normalize_question_text if dedup == "normalized" else (lambda t: t)

    vecs, kept, bad = [], [], []
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
        key = key_of(rec.text)
        if key in seen_keys:
            if not np.isfinite(vec).all():
                bad.append(i)
            continue
        seen_keys.add(key)
        if rec.id in seen_ids:
            raise InvalidInputError(f"duplicate record id {rec.id!r}")
        seen_ids.add(rec.id)
        vecs.append(vec)
        kept.append(i)

    # The survivors fill one block of their own, whose transpose is the
    # column-major matrix, and are checked there; a dropped duplicate's
    # vector was checked as it was met, and is never copied.
    rows = _block(len(kept), dim)
    np.concatenate(vecs, out=rows.reshape(-1))
    bad += [kept[r] for r in np.flatnonzero(~np.isfinite(rows).all(axis=1)).tolist()]
    if bad:
        raise InvalidInputError(f"record {records[min(bad)].id!r}: non-finite vector")
    # Batched dot products: bit-identical to per-vector np.linalg.norm,
    # which einsum is not.
    norms = np.sqrt((rows[:, None, :] @ rows[:, :, None]).reshape(-1))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise InvalidInputError(f"record {records[kept[zero[0]]].id!r} has a zero-norm vector")
    rows /= norms[:, None]
    rows.setflags(write=False)  # no one else holds it: Dictionary keeps it as it is
    return Dictionary(
        matrix=rows.T,
        ids=tuple(records[i].id for i in kept),
        texts=tuple(records[i].text for i in kept),
    )


def save_dictionary_cache(d, path):
    """Write a dictionary as a binary embedding file of its columns.

    The values are the matrix's raw float64 bytes, written from the
    column-major matrix's own buffer, so a reload is bit-identical.
    """
    write_binary(path, d.ids, d.texts, d.matrix.T)


def load_dictionary_cache(path):
    """Load a dictionary cache written by ``save_dictionary_cache``."""
    with open(path, "rb") as fh:
        ids, texts, values = read_binary(fh, path)
    values.setflags(write=False)  # and its base, the array owning the block: Dictionary keeps it
    values.base.setflags(write=False)
    try:
        return Dictionary(matrix=values.T, ids=ids, texts=texts)
    except (InvalidInputError, ShapeError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
