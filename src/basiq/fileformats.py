"""Low-level readers and writers for the on-disk formats.

Two formats live here:

* Embedding files hold ``(id, text, vector)`` records.  The text variant
  starts with a header line ``dim=<D> count=<N>`` followed by one
  tab-separated record per line: ``id<TAB>text<TAB>v1 v2 ... vD``.  The
  binary variant carries the same logical fields with little-endian
  32-bit float payloads (see ``EMBEDDING_MAGIC`` below for the exact
  layout).  Both reject dimension mismatches, duplicate ids, and
  non-finite values.

* Matrix-section files hold named real matrices under the same
  header-plus-payload convention: ``sections=<N>`` followed by blocks of
  ``name=<s> rows=<R> cols=<C>`` and R lines of C values.  They back the
  loadable-parameter paths of the encoder and the attention kernel.

Both text formats convert their values with one ``np.loadtxt`` call per
file or section.  Rows it rejects or reads as non-finite are parsed
again one line at a time with ``float()``, which accepts every token
``loadtxt`` does (with the same bits) and a few more, such as ``1_0``;
so the values, and the first bad line an error names, are those of a
line-by-line parse.
"""

import re
import struct
import warnings

import numpy as np

from .errors import ParseError

EMBEDDING_MAGIC = b"QEMB"
EMBEDDING_VERSION = 1

_HEADER_RE = re.compile(r"^dim=(\d+) count=(\d+)$")
_SECTIONS_RE = re.compile(r"^sections=(\d+)$")
_SECTION_HEADER_RE = re.compile(r"^name=(\S+) rows=(\d+) cols=(\d+)$")
_FIELD_BREAK_RE = re.compile(r"[\t\n\r]")


class BinaryReader:
    """Bounded reads over the bytes of one binary file.

    A read past the end names the field it was reading; strings are
    uint32-length-prefixed UTF-8, as ``pack_string`` writes them.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path = path
        self.pos = 0

    def take(self, n, what):
        end = self.pos + n
        if end > len(self.blob):
            raise ParseError(f"{self.path}: truncated while reading {what}")
        out = self.blob[self.pos : end]
        self.pos = end
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def string(self, what):
        (n,) = struct.unpack("<I", self.take(4, f"{what} length"))
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{self.path}: {what}: {exc}") from None

    def finish(self, suffix=""):
        """Reject bytes left over after the last field."""
        extra = len(self.blob) - self.pos
        if extra:
            raise ParseError(f"{self.path}: {extra} trailing bytes{suffix}")


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

    One ``np.loadtxt`` call does the work; if it fails, finds the wrong
    shape or reads a non-finite value, the rows are parsed again one at
    a time, which raises the error of the first bad line (line numbers
    start at ``first_lineno``) or returns the values of tokens only
    ``float()`` accepts.
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
    out = np.empty((len(rows), dim), dtype=np.float64)
    for i, row in enumerate(rows):
        out[i] = _parse_values(row.split(), dim, path, first_lineno + i)
    return out


def _check_record(rec_id, text, seen, where):
    """The id and text rules shared by both embedding formats."""
    if not rec_id:
        raise ParseError(f"{where}: empty id")
    if rec_id in seen:
        raise ParseError(f"{where}: duplicate id {rec_id!r}")
    seen.add(rec_id)
    if not text.strip():
        raise ParseError(f"{where}: empty text")


def _record_fields(line, seen, path, lineno):
    """Split one text record and check everything but its values."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
        )
    _check_record(fields[0], fields[1], seen, f"{path}: line {lineno}")
    return fields


def _read_lines(path):
    r"""The lines of a UTF-8 text file, split at "\n" only, not at the
    form feeds, ``\x85`` or ``\u2028`` that ``str.splitlines`` splits at."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def read_embeddings_text(path):
    """Parse a text embedding file into a list of (id, text, vector) tuples.

    The vectors are the rows of one ``(count, dim)`` float64 array.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file, expected 'dim=<D> count=<N>' header")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
    dim, count = int(m.group(1)), int(m.group(2))
    if dim < 1:
        raise ParseError(f"{path}: line 1: dim must be >= 1")
    if len(lines) - 1 != count:
        raise ParseError(
            f"{path}: header declares {count} records but file has {len(lines) - 1} lines"
        )
    ids, texts = [], []
    seen = set()
    for i in range(1, len(lines)):
        try:
            rec_id, text, lines[i] = _record_fields(lines[i], seen, path, i + 1)
        except ParseError:
            # A bad value on an earlier line is reported first.
            _parse_rows(lines[1:i], dim, path, 2)
            raise
        ids.append(rec_id)
        texts.append(text)
    values = _parse_rows(lines[1:], dim, path, 2)
    return list(zip(ids, texts, values))


def write_embeddings_text(path, records, dim):
    """Write (id, text, vector) tuples as a text embedding file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={dim} count={len(records)}\n")
        for rec_id, text, vec in records:
            if len(vec) != dim:
                raise ValueError(f"record {rec_id!r}: vector length {len(vec)} != dim {dim}")
            if _FIELD_BREAK_RE.search(rec_id) or _FIELD_BREAK_RE.search(text):
                raise ValueError(f"record {rec_id!r}: tab or line break in id or text")
            payload = " ".join(repr(float(v)) for v in vec)
            fh.write(f"{rec_id}\t{text}\t{payload}\n")


def read_embeddings_binary(path):
    """Parse a binary embedding file into a list of (id, text, vector) tuples.

    Layout: 4-byte magic ``QEMB``, uint16 version, uint32 dim, uint32
    count, then per record a uint32-length-prefixed UTF-8 id, a
    uint32-length-prefixed UTF-8 text, and dim little-endian float32
    values.  Vectors are widened to float64 on load.
    """
    r = BinaryReader(path)
    if r.take(4, "magic") != EMBEDDING_MAGIC:
        raise ParseError(f"{path}: bad magic, not a binary embedding file")
    (version,) = r.unpack("<H", "version")
    if version != EMBEDDING_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    dim, count = r.unpack("<II", "header")
    if dim < 1:
        raise ParseError(f"{path}: dim must be >= 1")
    records = []
    seen = set()
    for i in range(count):
        rec_id = r.string(f"record {i}: id")
        text = r.string(f"record {i}: text")
        payload = r.take(4 * dim, f"record {i}: values")
        vec = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        _check_record(rec_id, text, seen, f"{path}: record {i}")
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"{path}: record {i}: non-finite value")
        records.append((rec_id, text, vec))
    r.finish(" after last record")
    return records


def write_embeddings_binary(path, records, dim):
    """Write (id, text, vector) tuples as a binary embedding file."""
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<H", EMBEDDING_VERSION))
        fh.write(struct.pack("<II", dim, len(records)))
        for rec_id, text, vec in records:
            if len(vec) != dim:
                raise ValueError(f"record {rec_id!r}: vector length {len(vec)} != dim {dim}")
            fh.write(pack_string(rec_id))
            fh.write(pack_string(text))
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def read_embeddings(path):
    """Read an embedding file, sniffing text vs binary from the magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == EMBEDDING_MAGIC:
        return read_embeddings_binary(path)
    return read_embeddings_text(path)


def read_matrix_sections(path):
    """Parse a matrix-section file into an ordered dict of name -> 2-D array."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}: empty file, expected 'sections=<N>' header")
    m = _SECTIONS_RE.match(lines[0])
    if m is None:
        raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
    n_sections = int(m.group(1))
    sections = {}
    lineno = 1
    pos = 1
    for _ in range(n_sections):
        if pos >= len(lines):
            raise ParseError(f"{path}: expected {n_sections} sections, found {len(sections)}")
        header = lines[pos]
        lineno = pos + 1
        mh = _SECTION_HEADER_RE.match(header)
        if mh is None:
            raise ParseError(f"{path}: line {lineno}: malformed section header {header!r}")
        name, rows, cols = mh.group(1), int(mh.group(2)), int(mh.group(3))
        if name in sections:
            raise ParseError(f"{path}: line {lineno}: duplicate section {name!r}")
        if rows < 1 or cols < 1:
            raise ParseError(f"{path}: line {lineno}: rows and cols must be >= 1")
        pos += 1
        if pos + rows > len(lines):
            raise ParseError(f"{path}: section {name!r}: truncated payload")
        sections[name] = _parse_rows(lines[pos : pos + rows], cols, path, pos + 1)
        pos += rows
    if pos != len(lines):
        raise ParseError(f"{path}: {len(lines) - pos} extra lines after last section")
    return sections


def write_matrix_sections(path, sections):
    """Write a dict of name -> array (1-D or 2-D) as a matrix-section file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sections={len(sections)}\n")
        for name, arr in sections.items():
            a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(f"name={name} rows={a.shape[0]} cols={a.shape[1]}\n")
            for row in a:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_jsonl(path, lines):
    """Write pre-serialized JSON lines, one per record, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def read_jsonl(path):
    """Yield (line_number, raw_line) pairs for non-empty lines of a JSON-lines file."""
    for i, line in enumerate(_read_lines(path), start=1):
        if line:
            yield i, line
