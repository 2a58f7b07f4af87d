"""Low-level readers and writers for the on-disk formats.

Two formats live here:

* Embedding files hold ``(id, text, vector)`` records.  The text variant
  starts with a header line ``dim=<D> count=<N>`` followed by one
  tab-separated record per line: ``id<TAB>text<TAB>v1 v2 ... vD``.  The
  binary variant carries the same logical fields with little-endian
  32-bit float payloads (see ``EMBEDDING_MAGIC`` below for the exact
  layout).  Both reject dimension mismatches, duplicate ids, and
  non-finite values.  The text reader checks each line's fields as it
  goes and converts the values in blocks of ``_BLOCK_LINES`` lines,
  each with one ``float()``-per-token pass into the rows of one
  preallocated array; a block that fails is parsed again line by line,
  so the error names the same line, with the same message, as a
  per-line parse.

* Matrix-section files hold named real matrices under the same
  header-plus-payload convention: ``sections=<N>`` followed by blocks of
  ``name=<s> rows=<R> cols=<C>`` and R lines of C values.  They back the
  loadable-parameter paths of the encoder and the attention kernel.
"""

import itertools
import re
import struct

import numpy as np

from .errors import ParseError

EMBEDDING_MAGIC = b"QEMB"
EMBEDDING_VERSION = 1

# Lines of text-format values converted in one step: enough to amortize
# the per-call overhead, few enough that the token strings of the one
# block alive at a time stay small.
_BLOCK_LINES = 256

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


def _record_fields(line, seen, path, lineno):
    """Split one text record and check everything but its values."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ParseError(
            f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
        )
    rec_id, text, payload = fields
    if not rec_id:
        raise ParseError(f"{path}: line {lineno}: empty id")
    if rec_id in seen:
        raise ParseError(f"{path}: line {lineno}: duplicate id {rec_id!r}")
    seen.add(rec_id)
    if not text.strip():
        raise ParseError(f"{path}: line {lineno}: empty text")
    return rec_id, text, payload


def _parse_block(payloads, out, dim, path, first_lineno):
    """Parse value payloads into the rows of ``out`` in one conversion.

    A block that fails any check is parsed again line by line, so the
    error names the first bad line exactly as a per-line parse would.
    """
    rows = [p.split() for p in payloads]
    try:
        if all(len(r) == dim for r in rows):
            out[:] = np.fromiter(
                map(float, itertools.chain.from_iterable(rows)),
                dtype=np.float64,
                count=len(rows) * dim,
            ).reshape(len(rows), dim)
            if np.all(np.isfinite(out)):
                return
    except ValueError:
        pass
    for i, parts in enumerate(rows):
        out[i] = _parse_values(parts, dim, path, first_lineno + i)


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
    body = lines[1:]
    if len(body) != count:
        raise ParseError(
            f"{path}: header declares {count} records but file has {len(body)} lines"
        )
    values = np.empty((count, dim), dtype=np.float64)
    ids, texts = [], []
    seen = set()
    for start in range(0, count, _BLOCK_LINES):
        payloads = []
        for lineno, line in enumerate(body[start : start + _BLOCK_LINES], start + 2):
            try:
                rec_id, text, payload = _record_fields(line, seen, path, lineno)
            except ParseError:
                # A bad value on an earlier line of the block is reported first.
                _parse_block(payloads, values[start : start + len(payloads)], dim, path, start + 2)
                raise
            ids.append(rec_id)
            texts.append(text)
            payloads.append(payload)
        _parse_block(payloads, values[start : start + len(payloads)], dim, path, start + 2)
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
        if not rec_id:
            raise ParseError(f"{path}: record {i}: empty id")
        if rec_id in seen:
            raise ParseError(f"{path}: record {i}: duplicate id {rec_id!r}")
        seen.add(rec_id)
        if not text.strip():
            raise ParseError(f"{path}: record {i}: empty text")
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
        data = np.empty((rows, cols), dtype=np.float64)
        for r in range(rows):
            data[r] = _parse_values(lines[pos + r].split(), cols, path, pos + r + 1)
        pos += rows
        sections[name] = data
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
