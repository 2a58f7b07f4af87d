r"""Low-level readers and writers for the on-disk formats.

Two formats live here:

* Embedding files hold ``(id, text, vector)`` records, which
  ``load_embeddings`` reads as a list of ``QuestionRecord``, sniffing the
  variant from the first bytes.  The text variant has a
  ``dim=<D> count=<N>`` header and one ``id<TAB>text<TAB>v1 ... vD`` line
  per record.  The binary variant, which ``read_binary`` reads and
  ``write_binary`` writes, is the 4-byte magic ``QEMB``, a uint16 version
  (2), a uint32 dim and a uint32 count, then ``count`` pairs of a
  uint32-length-prefixed UTF-8 id and text, then one ``count x dim``
  block of little-endian float64 values.  The dictionary cache is a
  binary embedding file of the dictionary's unit columns.  Both variants
  reject dimension mismatches, duplicate ids, and non-finite values.

* JSON-lines files hold one pre-serialized JSON value per line.
  ``read_jsonl`` reads each line's value with ``json``'s C scanner; a
  line whose value does not end at the line's end, or that fails, is
  read again by ``json.loads``, which names its fault.

Fields come before values: a reader checks the structure of the whole
file (headers, ids, texts, field counts, lengths), raising its first
fault, before any bad value, where the first one wins.  Ids and texts
are checked as whole lists, and walked one by one only to name the
first fault of a list that fails.  Text values are read with the bits
``float()`` gives each token.  A block of 256 lines of a text embedding
file, if ASCII without hex, is parsed in one ``np.fromstring`` call to
long doubles, checked to hold ``dim`` finite values a line, and cast to
float64; the few values that two roundings can get wrong (a long double
exactly on a float64 midpoint) and values too small for that check are
parsed again with ``float()``.  Any other block is parsed a row at a
time with ``float()``, which names its first bad line and accepts tokens
such as ``1_0``.

Every reader opens its path once, so a named pipe works as a file does.
Both text formats stream through one line source, ``_lines``, which reads
about 64 KiB of whole lines at a time, decodes them as UTF-8 once and
splits them at "\n", "\r\n" or a lone "\r", so invalid UTF-8 is met in
file order and raises the error a whole-file decode gives.  Peak memory is
one chunk of lines for the JSON-lines reader, and the vectors, ids and
texts plus a chunk and a block of lines for the text embedding reader;
neither holds the whole text unless every line ends at a lone "\r".
Each block's values go, once parsed, into a value block of their own, so
no header sizes an allocation, from a file or a pipe.  The binary reader
reads a pipe to its end once, and its bytes stand in for the file, so
both take one path that checks every length and the header against the
bytes that are there before it reads what they size.  It reads the ids
and texts one at a time and the value block straight into its own array.
Each value block lives in an anonymous mapping of its own, which goes
back to the operating system as soon as the last array viewing it is
dropped.
"""

import contextlib
import io
import json
import mmap
import os
import re
import shutil
import stat
import struct
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ParseError

EMBEDDING_MAGIC = b"QEMB"
EMBEDDING_VERSION = 2

_HEADER_RE = re.compile(r"^dim=([0-9]+) count=([0-9]+)$")
_BLOCK = 256  # text embedding lines parsed per np.fromstring call
_TINY = 2.0 ** -960  # below this, a residual cast to float64 can lose bits
_U32 = struct.Struct("<I")
_CHUNK = 1 << 16  # bytes read at a time by ``_lines``, then on to the end of a line
_scan = json.JSONDecoder().scan_once
# Where the platform has it, MAP_POPULATE has the kernel fill a new block's
# pages in one call, not at one page fault each, which about halves the cost.
_MAP_ARGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | mmap.MAP_POPULATE}
             if hasattr(mmap, "MAP_POPULATE") else {})


@contextlib.contextmanager
def encode_faults(path):
    """Raise a string UTF-8 cannot hold (a lone surrogate), met while a
    writer encodes its output, as ``InvalidInputError`` naming ``path``."""
    try:
        yield
    except UnicodeEncodeError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def _block(count, dim):
    """A new zero-filled, writable ``(count, dim)`` float64 array in an
    anonymous mapping of its own (page-aligned, C-contiguous).

    Dropping the last array that views it unmaps it at once.  Its memory
    never passes through malloc, so a large block neither stays in the
    heap once freed nor raises malloc's threshold for later ones.
    """
    if count == 0:  # a mapping cannot be empty
        return np.empty((0, dim))
    return np.ndarray((count, dim), np.float64, mmap.mmap(-1, 8 * count * dim, **_MAP_ARGS))


def _block_values(rows, dim):
    """The values of ``rows`` as a ``(len(rows), dim)`` array with the bits
    ``float()`` gives each token, parsed in one ``np.fromstring`` call to
    long doubles, or None where that call cannot vouch for them.

    Only ASCII text without hex (``strtold`` reads it, ``float()`` does
    not) is parsed, with an ``inf`` after each row.  A token ``strtold``
    cannot read whole raises.  The last of each ``dim + 1`` values is set
    to 1, and all must then be finite in float64, so every ``inf`` stood
    there and each row held ``dim`` numbers.  Two roundings, to the long
    double and then to float64, can differ from ``float()``'s one only
    where the long double lies exactly on a float64 midpoint: half a
    spacing from the result, or a quarter below a power of two, where the
    spacing halves.  The residual, exact in float64 from ``_TINY`` up,
    finds those tokens.  Each of them, and each nonzero value below
    ``_TINY``, is parsed again with ``float()``.
    """
    text = " inf ".join([*rows, ""])
    if not text.isascii() or "x" in text or "X" in text:
        return None
    try:
        wide = np.fromstring(text, np.longdouble, sep=" ")
    except ValueError:
        return None
    del text  # the block's text is not held while the guard runs
    width = dim + 1
    if wide.size != len(rows) * width:
        return None
    wide = wide.reshape(len(rows), width)
    wide[:, dim] = 1  # where each "inf" belongs; one anywhere else fails the check below
    with np.errstate(over="ignore"):  # past float64's range is inf, as is DBL_MAX's spacing
        out = wide.astype(np.float64)
        if not np.isfinite(out).all():
            return None
        magnitude = np.abs(out)
        redo = (magnitude < _TINY) & (wide != 0)  # a long double 0 is float()'s 0 too
        wide -= out
        residual = wide.astype(np.float64)  # exact where |out| >= _TINY
        del wide
        spacing = np.spacing(magnitude, out=magnitude)
    np.abs(residual, out=residual)
    residual *= 2
    redo |= residual == spacing  # half a spacing off
    residual *= 2
    redo |= residual == spacing  # a quarter, below a power of two
    for r in np.flatnonzero(redo.any(axis=1)).tolist():
        flagged = redo[r]
        out[r, flagged] = [float(token) for token in compress(rows[r].split(), flagged.tolist())]
    return out[:, :dim]


def _parse_rows(rows, dim, path, first_lineno):
    """The whitespace-separated values of ``rows`` as a new ``(len(rows), dim)``
    value block, each with the bits ``float()`` gives its token.

    ``_block_values`` reads a block of text embedding lines in one call;
    a block it cannot vouch for is parsed again a row at a time, which
    raises the error of the first bad line (line numbers start at
    ``first_lineno``) or returns the values of tokens only ``float()``
    accepts, such as ``1_0``.  The block is allocated only once every row
    has parsed, so parsed text, never a header, sizes it.
    """
    values = _block_values(rows, dim)
    if values is None:
        values = []
        for lineno, row in enumerate(rows, start=first_lineno):
            parts = row.split()
            if len(parts) != dim:
                raise ParseError(f"{path}: line {lineno}: expected {dim} values, got {len(parts)}")
            try:
                values.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not np.isfinite(values[-1]).all():
                raise ParseError(f"{path}: line {lineno}: non-finite value")
    block = _block(len(rows), dim)
    block[...] = values
    return block


def _check_records(ids, texts, where, path, first):
    """The id and text rules of both embedding formats, checked as whole
    lists.  Only lists that fail are walked again, record by record, to
    raise the first fault, naming ``where % (path, first + i)``."""
    if len(set(ids)) < len(ids) or not all(ids) or not all(map(str.strip, texts)):
        seen = set()
        for i, (rec_id, text) in enumerate(zip(ids, texts), start=first):
            if not rec_id:
                raise ParseError(f"{where % (path, i)}: empty id")
            if rec_id in seen:
                raise ParseError(f"{where % (path, i)}: duplicate id {rec_id!r}")
            seen.add(rec_id)
            if not text.strip():
                raise ParseError(f"{where % (path, i)}: empty text")


def _utf8_fault(path, at, raw, exc):
    """The ``ParseError`` a whole-file decode gives for ``exc``, met while
    decoding ``raw``, the bytes from file offset ``at``."""
    start, n = at + exc.start, exc.end - exc.start
    where = (f"byte 0x{raw[exc.start]:02x} in position {start}" if n == 1
             else f"bytes in position {start}-{start + n - 1}")
    return ParseError(f"{path}: 'utf-8' codec can't decode {where}: {exc.reason}")


def _lines(fh, path):
    r"""The lines of the open binary file ``fh`` as UTF-8 text, without their
    ends, split at "\n", "\r\n" or a lone "\r" only, not at the form feeds,
    ``\x85`` or ``\u2028`` that ``str.splitlines`` splits at.

    About ``_CHUNK`` bytes of whole lines are read and decoded at a time.
    Invalid UTF-8 raises, with the message a whole-file decode gives, once
    the lines before the "\n"-ended line holding it are read.
    """
    at = 0  # file offset of the chunk
    while chunk := fh.read(_CHUNK) + fh.readline():
        try:
            text, fault = chunk.decode("utf-8"), None
        except UnicodeDecodeError as exc:  # the lines before its own come first
            fault = _utf8_fault(path, at, chunk, exc)
            text = chunk[:chunk.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
        at += len(chunk)
        if "\r" in text:  # a chunk ends at "\n" or the file's end, so no "\r\n" is split
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        del chunk, text  # neither is held while the lines are read
        if not lines[-1]:  # what follows the chunk's last "\n"
            lines.pop()
        yield from lines
        del lines  # nor are they while the next chunk is read
        if fault is not None:
            raise fault


def _text_embeddings(fh, path):
    """The records of text embedding file ``path``, open in binary as ``fh``.

    Faults come in the order a whole-file read gives them: invalid UTF-8,
    the header, the count, fields, then values; the lines are read to the
    end before any fault but an empty file is raised.  Each line is only
    split as it is read; ids and texts are checked as whole lists at the
    end, and walked again only if a check fails.
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
    # Each block of lines parses into a value block of its own, which the
    # records view, so no header sizes an allocation, from a file or a pipe.
    ids, texts, rows, blocks = [], [], [], []
    fault = value_fault = None
    n = 0  # body lines read
    for n, line in enumerate(lines, start=1):
        if fault is not None or n > count:
            continue  # only the count can still change which fault wins
        fields = line.split("\t")
        if len(fields) != 3:
            fault = ParseError(
                f"{path}: line {n + 1}: expected 3 tab-separated fields, got {len(fields)}")
            continue
        rec_id, text, row = fields
        ids.append(rec_id)
        texts.append(text)
        if value_fault is not None:
            continue
        rows.append(row)
        if len(rows) == _BLOCK or n == count:
            try:
                blocks.append(_parse_rows(rows, dim, path, n - len(rows) + 2))
            except ParseError as exc:
                value_fault = exc
            rows = []
    if n != count:
        raise ParseError(f"{path}: header declares {count} records but file has {n} lines")
    _check_records(ids, texts, "%s: line %d", path, 2)
    if fault is not None or value_fault is not None:
        raise fault or value_fault
    return list(map(QuestionRecord, ids, texts, (vec for block in blocks for vec in block)))


def _string_fault(path, m, before, after):
    """The fault of string ``m`` of the binary layout, which is the id
    (even ``m``) or the text (odd ``m``) of record ``m // 2``."""
    return ParseError(f"{path}: {before}record {m // 2}: {('id', 'text')[m % 2]}{after}")


def _read_strings(fh, path, count, end):
    """The ``2 * count`` ids and texts of the binary file ``path``, read from
    ``fh`` one at a time, leaving ``fh`` at the value block.  A length
    prefix running past ``end``, where ``fh`` ends, reads nothing, so a
    header or length the bytes cannot back sizes no read."""
    read, unpack = fh.read, _U32.unpack
    at = fh.tell()  # where the strings read so far end
    strings = []
    for m in range(2 * count):
        head = read(4)
        if len(head) < 4:
            raise _string_fault(path, m, "truncated while reading ", " length")
        (n,) = unpack(head)
        at += 4 + n
        raw = read(n) if at <= end else b""
        if len(raw) < n:  # past the end, or the file shrank
            raise _string_fault(path, m, "truncated while reading ", "")
        try:
            strings.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise _string_fault(path, m, "", f": {exc}") from None
    return strings


def read_binary(fh, path):
    """The ids, texts and ``(count, dim)`` float64 values of the binary file
    ``path``, read from its open handle ``fh``; the values are a new,
    aligned, writable array.

    A pipe is read to its end once, and its bytes stand in for the file,
    so a regular file and a pipe take one path, on which every length and
    the header are checked against the bytes that are there before they
    size a read or an allocation.  The ids and texts are read one at a
    time, and the value block straight into its array, a mapping of its
    own that goes back to the operating system when the last view of it
    is dropped.  So the peak memory is that array and the strings, and on
    a pipe the whole file's bytes too.

    Faults come in file order, and every id and text is checked before
    any value is: a truncated field and invalid UTF-8 name the record and
    the field they were met in.
    """
    head = fh.read(14)
    size = len(head)
    if size < 4:
        raise ParseError(f"{path}: truncated while reading magic")
    if head[:4] != EMBEDDING_MAGIC:
        raise ParseError(f"{path}: bad magic {head[:4]!r}, expected {EMBEDDING_MAGIC!r}")
    if size < 6:
        raise ParseError(f"{path}: truncated while reading version")
    (version,) = struct.unpack_from("<H", head, 4)
    if version != EMBEDDING_VERSION:
        raise ParseError(f"{path}: unsupported version {version}, expected {EMBEDDING_VERSION}")
    if size < 14:
        raise ParseError(f"{path}: truncated while reading header")
    dim, count = struct.unpack_from("<II", head, 6)
    if dim < 1:
        raise ParseError(f"{path}: dim must be >= 1")
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        end = st.st_size
    else:  # a pipe: its bytes, copied to the end once, stand in for the file
        fh, pipe = io.BytesIO(), fh
        shutil.copyfileobj(pipe, fh)
        end = fh.tell()
        fh.seek(0)
    strings = _read_strings(fh, path, count, end)
    ids, texts = strings[::2], strings[1::2]
    _check_records(ids, texts, "%s: record %d", path, 0)
    nbytes = 8 * count * dim
    left = end - fh.tell()
    if left < nbytes:
        raise ParseError(f"{path}: truncated while reading record {left // (8 * dim)}: values")
    if left > nbytes:
        raise ParseError(f"{path}: {left - nbytes} trailing bytes after last record")
    values = _block(count, dim).view("<f8")
    got = fh.readinto(values.reshape(-1).view(np.uint8))
    if got < nbytes:  # the file shrank while it was read
        raise ParseError(f"{path}: truncated while reading record {got // (8 * dim)}: values")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ParseError(f"{path}: record {bad[0]}: non-finite value")
    return ids, texts, values


def write_binary(path, ids, texts, values):
    """Write ids, texts and their ``(count, dim)`` values in the layout
    ``read_binary`` reads.  Ids and texts are encoded before the file is
    opened, so a string UTF-8 cannot hold leaves no file; a C-contiguous
    float64 ``values`` is written from its own buffer."""
    count, dim = values.shape
    with encode_faults(path):
        encoded = [s.encode("utf-8") for pair in zip(ids, texts) for s in pair]
    strings = b"".join([_U32.pack(len(b)) + b for b in encoded])
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC + struct.pack("<HII", EMBEDDING_VERSION, dim, count))
        fh.write(strings)
        fh.write(np.ascontiguousarray(values, dtype="<f8"))


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
            return list(map(QuestionRecord, *read_binary(fh, path)))
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


def read_jsonl(path, where="%s: line %d", malformed=None):
    """Yield ``(line_number, value)`` for each non-empty line of a JSON-lines
    file as it is read, ``value`` being ``decode_json_line`` of the line.  A
    line that is not one JSON value raises ``ParseError`` naming
    ``where % (path, line_number)``; one whose integer passes ``int``'s digit
    limit names ``malformed % (path, line_number)``, or ``where``'s if
    ``malformed`` is None.  Invalid UTF-8 raises once the lines before the
    one holding it are read.
    """
    malformed = malformed or where
    with open(path, "rb") as fh:
        for lineno, line in enumerate(_lines(fh, path), 1):
            if not line:
                continue
            try:
                value, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = None
            if end != len(line):
                try:
                    value = decode_json_line(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"{where % (path, lineno)}: {exc}") from None
                except ValueError as exc:
                    raise ParseError(f"{malformed % (path, lineno)}: {exc}") from None
            yield lineno, value


def decode_json_line(line):
    """``json.loads(line)``; a value nested past the recursion limit raises
    ``JSONDecodeError`` too."""
    try:
        return json.loads(line)
    except RecursionError:
        raise json.JSONDecodeError("Value nested too deeply", line, 0) from None
