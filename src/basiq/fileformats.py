r"""Low-level readers and writers for the on-disk formats.

Three formats live here, plus the ``BinaryReader`` the dictionary cache
also uses:

* Embedding files hold ``(id, text, vector)`` records, which
  ``load_embeddings`` reads as a list of ``QuestionRecord``, sniffing the
  variant from the first bytes.  The text variant has a
  ``dim=<D> count=<N>`` header and one ``id<TAB>text<TAB>v1 ... vD`` line
  per record.  The binary variant is the 4-byte magic ``QEMB``, a uint16
  version, a uint32 dim and a uint32 count, then per record a
  uint32-length-prefixed UTF-8 id, a uint32-length-prefixed UTF-8 text and
  dim little-endian float32 values, widened to float64 on load.  Both
  reject dimension mismatches, duplicate ids, and non-finite values.

* JSON-lines files hold one pre-serialized JSON value per line.

Fields come before values: a reader checks the structure of the whole
file (headers, ids, texts, field counts, lengths), raising its first
fault, before any bad value, where the first one wins.  Text values go
through one ``np.loadtxt`` call per block of 256 lines of a text
embedding file; rows it rejects or reads as non-finite are parsed again
one at a time with ``float()``, which accepts every token ``loadtxt``
does (with the same bits) and a few more, such as ``1_0``.

Every reader opens its path once, so a named pipe works as a file does.
Text files stream as lines ending at "\n", "\r\n" or a lone "\r", each
decoded as UTF-8 with its end, so invalid UTF-8 is met in file order and
raises the error a whole-file decode gives.  The text embedding reader's
peak memory is the vectors, ids and texts plus one block of lines, not
the whole text, unless every line ends at a lone "\r".  Only a regular
file's size lets its header size an allocation.
"""

import contextlib
import json
import os
import re
import stat
import struct
import warnings
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ParseError

EMBEDDING_MAGIC = b"QEMB"
EMBEDDING_VERSION = 1

_HEADER_RE = re.compile(r"^dim=([0-9]+) count=([0-9]+)$")
_FIELD_BREAK_RE = re.compile(r"[\t\n\r]")
_BLOCK = 256  # text embedding lines converted per np.loadtxt call
_U32 = struct.Struct("<I")
_raw_decode = json.JSONDecoder().raw_decode


class BinaryReader:
    """Bounded reads over the bytes of one binary file.

    A read past the end names the field it was reading, ``what % args``,
    formatted only then; strings are uint32-length-prefixed UTF-8, as
    ``pack_string`` writes them.
    """

    def __init__(self, blob, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n, what, *args):
        end = self.pos + n
        if end > len(self.blob):
            raise ParseError(f"{self.path}: truncated while reading {what % args}")
        out = self.blob[self.pos : end]
        self.pos = end
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what, *args):
        blob, start = self.blob, self.pos + 4
        try:
            (n,) = _U32.unpack_from(blob, self.pos)
        except struct.error:
            raise ParseError(f"{self.path}: truncated while reading {what % args} length") from None
        end = start + n
        if end > len(blob):
            raise ParseError(f"{self.path}: truncated while reading {what % args}")
        self.pos = end
        try:
            return blob[start:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{self.path}: {what % args}: {exc}") from None

    def strings(self, count, what, fields):
        """``count`` rows of one string per name in ``fields``, read as
        ``string`` reads them but in one loop, returned as one list per
        field.  A fault names ``what % row`` and the field."""
        blob, size, unpack = self.blob, len(self.blob), _U32.unpack_from
        pos, out = self.pos, []
        for m in range(count * len(fields)):
            start = pos + 4
            if start > size:
                self._string_fault(m, what, fields, "truncated while reading ", " length")
            (n,) = unpack(blob, pos)
            pos = start + n
            if pos > size:
                self._string_fault(m, what, fields, "truncated while reading ", "")
            try:
                out.append(blob[start:pos].decode("utf-8"))
            except UnicodeDecodeError as exc:
                self._string_fault(m, what, fields, "", f": {exc}")
        self.pos = pos
        return [out[i::len(fields)] for i in range(len(fields))]

    def _string_fault(self, m, what, fields, before, after):
        row, field = divmod(m, len(fields))
        raise ParseError(f"{self.path}: {before}{what % row}: {fields[field]}{after}")

    def finish(self, suffix=""):
        """Reject bytes left over after the last field."""
        extra = len(self.blob) - self.pos
        if extra:
            raise ParseError(f"{self.path}: {extra} trailing bytes{suffix}")


@contextlib.contextmanager
def encode_faults(path):
    """Raise a string UTF-8 cannot hold (a lone surrogate), met while a
    writer encodes its output, as ``InvalidInputError`` naming ``path``."""
    try:
        yield
    except UnicodeEncodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def pack_string(s):
    """``s`` as ``BinaryReader.string`` reads it back."""
    b = s.encode("utf-8")
    return struct.pack("<I", len(b)) + b


def _parse_values(parts, dim, path, lineno):
    if len(parts) != dim:
        raise ParseError(
            f"{path}: line {lineno}: expected {dim} values, got {len(parts)}"
        )
    try:
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not np.all(np.isfinite(vec)):
        raise ParseError(f"{path}: line {lineno}: non-finite value")
    return vec


def _parse_rows(rows, dim, path, first_lineno):
    """The whitespace-separated values of ``rows`` as a ``(len(rows), dim)`` array.

    One ``np.loadtxt`` call does the work for a block of text embedding
    lines; if it fails, finds the wrong shape or reads a non-finite
    value, the rows are parsed again one at a time, which raises the
    error of the first bad line (line numbers start at ``first_lineno``)
    or returns the values of tokens only ``float()`` accepts.
    """
    try:
        with warnings.catch_warnings():
            # "input contained no data": blank rows are a value-count error.
            warnings.simplefilter("error", UserWarning)
            out = np.loadtxt(rows, dtype=np.float64, comments=None, ndmin=2)
        if out.shape == (len(rows), dim) and np.all(np.isfinite(out)):
            return out
    except (ValueError, UserWarning):
        pass
    # Stacked only once every row has parsed, so a header's dim sizes nothing.
    return np.array([_parse_values(row.split(), dim, path, first_lineno + i)
                     for i, row in enumerate(rows)])


def _check_record(rec_id, text, seen, where, *args):
    """The id and text rules of both embedding formats; errors name ``where % args``."""
    if not rec_id:
        raise ParseError(f"{where % args}: empty id")
    if rec_id in seen:
        raise ParseError(f"{where % args}: duplicate id {rec_id!r}")
    seen.add(rec_id)
    if not text.strip():
        raise ParseError(f"{where % args}: empty text")


def _record_fields(line, seen, path, lineno):
    """Split one text record and check everything but its values."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
        )
    _check_record(fields[0], fields[1], seen, "%s: line %d", path, lineno)
    return fields


def _lines(fh, path):
    r"""The lines of the open binary file ``fh`` as UTF-8 text, without their
    ends, split at "\n", "\r\n" or a lone "\r" only, not at the form feeds,
    ``\x85`` or ``\u2028`` that ``str.splitlines`` splits at.

    Each line is decoded with its end, so invalid UTF-8 raises when the
    line holding it is read, with the message a whole-file decode gives.
    """
    at = 0  # file offset of the line being decoded
    for raw in fh:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            start, n = at + exc.start, exc.end - exc.start
            where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if n == 1
                     else f"bytes in position {start}-{start + n - 1}")
            raise ParseError(f"{path}: 'utf-8' codec can't decode {where}: {exc.reason}") from None
        at += len(raw)
        if "\r" in line:  # "\r\n" can only end ``raw``; lone "\r"s split it
            yield from line.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
        else:
            yield line.removesuffix("\n")


def _text_embeddings(fh, path):
    """The records of text embedding file ``path``, open in binary as ``fh``.

    Faults come in the order a whole-file read gives them: invalid UTF-8,
    the header, the count, fields, then values; the lines are read to the
    end before any fault but an empty file is raised.
    """
    lines = _lines(fh, path)
    header = next(lines, None)
    if header is None:
        raise ParseError(f"{path}: empty file, expected 'dim=<D> count=<N>' header")
    m = _HEADER_RE.match(header)
    try:
        dim, count = int(m[1]), int(m[2])
    except (TypeError, ValueError):  # no match, or more digits than int() reads
        dim = count = None
    if dim is None or dim < 1:
        for _ in lines:  # invalid UTF-8 later in the file wins
            pass
        if dim is None:
            raise ParseError(f"{path}: line 1: malformed header {header!r}")
        raise ParseError(f"{path}: line 1: dim must be >= 1")
    # A record line takes at least 2 * dim + 3 bytes.  A regular file with room
    # for ``count`` of them is read into one preallocated array; otherwise (a
    # pipe, or a header the file's size cannot hold) the header sizes nothing
    # and each block's values are kept as they are converted.
    st = os.fstat(fh.fileno())
    room = stat.S_ISREG(st.st_mode) and st.st_size >= count * (2 * dim + 3)
    matrix = np.empty((count, dim), dtype=np.float64) if room else None
    ids, texts, rows, blocks, seen = [], [], [], [], set()
    fault = value_fault = None
    n = 0  # body lines read
    for n, line in enumerate(lines, start=1):
        if fault is not None or n > count:
            continue  # only the count can still change which fault wins
        try:
            rec_id, text, row = _record_fields(line, seen, path, n + 1)
        except ParseError as exc:
            fault = exc
            continue
        ids.append(rec_id)
        texts.append(text)
        if value_fault is not None:
            continue
        rows.append(row)
        if len(rows) == _BLOCK or n == count:
            first = n - len(rows)
            try:
                values = _parse_rows(rows, dim, path, first + 2)
            except ParseError as exc:
                value_fault = exc
            else:
                if matrix is None:
                    blocks.append(values)
                else:
                    matrix[first:n] = values
            rows = []
    if n != count:
        raise ParseError(f"{path}: header declares {count} records but file has {n} lines")
    if fault is not None or value_fault is not None:
        raise fault or value_fault
    vectors = (vec for block in blocks for vec in block) if matrix is None else matrix
    return list(map(QuestionRecord, ids, texts, vectors))


def write_embeddings_text(path, records, dim):
    """Write (id, text, vector) tuples as a text embedding file; every
    record is checked and encoded first, so a bad one leaves no file."""
    with encode_faults(path):
        lines = [f"dim={dim} count={len(records)}\n".encode("utf-8")]
        for rec_id, text, vec in records:
            if len(vec) != dim:
                raise ValueError(f"record {rec_id!r}: vector length {len(vec)} != dim {dim}")
            if _FIELD_BREAK_RE.search(rec_id) or _FIELD_BREAK_RE.search(text):
                raise ValueError(f"record {rec_id!r}: tab or line break in id or text")
            payload = " ".join(repr(float(v)) for v in vec)
            lines.append(f"{rec_id}\t{text}\t{payload}\n".encode("utf-8"))
    with open(path, "wb") as fh:
        fh.writelines(lines)


def _binary_embeddings(blob, path):
    """The records in ``blob``, the bytes of binary embedding file ``path``."""
    r = BinaryReader(blob, path)
    if r.take(4, "magic") != EMBEDDING_MAGIC:
        raise ParseError(f"{path}: bad magic, not a binary embedding file")
    (version,) = r.unpack("<H", "version")
    if version != EMBEDDING_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    dim, count = r.unpack("<II", "header")
    if dim < 1:
        raise ParseError(f"{path}: dim must be >= 1")
    ids, texts, payloads, seen = [], [], [], set()
    for i in range(count):
        ids.append(r.string("record %d: id", i))
        texts.append(r.string("record %d: text", i))
        payloads.append(r.take(4 * dim, "record %d: values", i))
        _check_record(ids[i], texts[i], seen, "%s: record %d", path, i)
    r.finish(" after last record")
    values = np.frombuffer(b"".join(payloads), dtype="<f4").reshape(count, dim)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: record {bad[0]}: non-finite value")
    return list(map(QuestionRecord, ids, texts, values.astype(np.float64)))


def write_embeddings_binary(path, records, dim):
    """Write (id, text, vector) tuples as a binary embedding file; every
    record is checked and encoded first, so a bad one leaves no file."""
    with encode_faults(path):
        chunks = [EMBEDDING_MAGIC, struct.pack("<HII", EMBEDDING_VERSION, dim, len(records))]
        for rec_id, text, vec in records:
            if len(vec) != dim:
                raise ValueError(f"record {rec_id!r}: vector length {len(vec)} != dim {dim}")
            chunks += (pack_string(rec_id), pack_string(text),
                       np.asarray(vec, dtype="<f4").tobytes())
    with open(path, "wb") as fh:
        fh.writelines(chunks)


class QuestionRecord(NamedTuple):
    """One embedded question: stable id, raw text, and its vector."""

    id: str
    text: str
    vector: np.ndarray


def load_embeddings(path):
    """Read an embedding file, text or binary, as a list of ``QuestionRecord``;
    a binary file on a pipe must deliver its magic in the first read."""
    with open(path, "rb") as fh:
        if fh.peek(4)[:4] == EMBEDDING_MAGIC:
            return _binary_embeddings(fh.read(), path)
        return _text_embeddings(fh, path)


def write_jsonl(path, lines):
    """Write pre-serialized JSON lines, one per record, trailing newline.

    The payload is encoded whole before the file is opened, so a string
    UTF-8 cannot hold (a lone surrogate) leaves no file behind.
    """
    with encode_faults(path):
        data = "".join([line + "\n" for line in lines]).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def read_jsonl(path):
    """Yield (line_number, raw_line) pairs for non-empty lines of a JSON-lines
    file as it is read; invalid UTF-8 raises when its line is reached."""
    with open(path, "rb") as fh:
        for i, line in enumerate(_lines(fh, path), start=1):
            if line:
                yield i, line


def decode_json_line(line):
    """``json.loads(line)``, in one C scan when that reads the whole line; any
    other line (a BOM, whitespace or data around the value) goes to ``json.loads``.
    A value nested past the recursion limit raises ``JSONDecodeError`` too."""
    try:
        value, end = _raw_decode(line)
        if end == len(line):
            return value
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(line)
    except RecursionError:
        raise json.JSONDecodeError("Value nested too deeply", line, 0) from None
