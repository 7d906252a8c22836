"""Landmark CSV reading and writing, and the JSON writer of every output.

Input contract: UTF-8 CSV with header `scene,landmark,x,y`; scene ids are
strings, landmark labels positive integers, coordinates finite floats. Rows
may arrive in any order; scenes are returned in first-appearance order with
rows sorted by label. Every scene must carry exactly the labels 1..k.

parse_landmarks reads the file's bytes once; the study's sha256, when asked
for, is the hash of those bytes, so it describes what was parsed. A file that
csv.reader would split exactly at every comma (no quote or NUL character,
one line terminator throughout, no blank line, four fields per line, no
line over csv.field_size_limit()) is converted column by column, in blocks
of about _BLOCK_BYTES cut at line ends. Each block is checked by the pass
that splits it, with no separate scan of the file for line ends. Anything
else, quoted ids included, and any file that fails a conversion or check
on that pass, goes through the csv.reader row loop, which raises each
ParseError or SchemaError with its message and line number.

json_text writes the bytes json.dumps(indent=2, ensure_ascii=True) would,
for values that may hold numpy arrays and RowTables (rows of one layout,
such as the report's leave-one-out table and reduction steps), by one path:
one walk of the value gives its leaves and the spec of its template, one
compiler turns the spec into a %-template, and one % fills it. See its
docstring.
write_table writes a CSV from its columns by one % per table, each float
at 17 significant digits (%.17g), enough to read back as the same double.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import itertools
import math
import os
import re
import secrets
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParseError, SchemaError
from .geometry import LandmarkScene, LandmarkStudy

HEADER = ("scene", "landmark", "x", "y")

# bytes per block of the columnar pass; bounds its lists of fields
_BLOCK_BYTES = 1 << 16

Parsed = Tuple[Tuple[str, ...], np.ndarray]


def _rows(reader) -> Tuple[List[str], Dict[str, Dict[int, Tuple[float, float]]]]:
    """Scene ids in first-appearance order and their {label: (x, y)} rows."""
    order: List[str] = []
    table: Dict[str, Dict[int, Tuple[float, float]]] = {}
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file, expected header scene,landmark,x,y", line=1)
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(
            f"header must be scene,landmark,x,y (got {','.join(header)!r})", line=1
        )
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and row[0].strip() == ""):
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        scene_id = row[0].strip()
        if not scene_id:
            raise ParseError("scene id must be nonempty", line=lineno)
        try:
            label = int(row[1])
        except ValueError:
            raise ParseError(f"landmark label {row[1]!r} is not an integer", line=lineno)
        if label < 1:
            raise ParseError(f"landmark label must be positive, got {label}", line=lineno)
        try:
            x = float(row[2])
            y = float(row[3])
        except ValueError:
            raise ParseError(f"coordinates {row[2]!r},{row[3]!r} are not numbers", line=lineno)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError("coordinates must be finite", line=lineno)
        if scene_id not in table:
            table[scene_id] = {}
            order.append(scene_id)
        if label in table[scene_id]:
            raise ParseError(
                f"duplicate landmark {label} in scene {scene_id!r}", line=lineno
            )
        table[scene_id][label] = (x, y)
    return order, table


def _read_rows(text: str) -> Parsed:
    """Scene ids and their (n, k, 2) points, read row by row with csv.reader.

    The reference for _read_columns, and the path that raises: every
    ParseError carries the line number csv.reader gives it.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        order, table = _rows(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from exc

    if not order:
        raise ParseError("no data rows", line=1)
    label_set = set(table[order[0]])
    for sid in order:
        if set(table[sid]) != label_set:
            raise SchemaError(
                f"scene {sid!r} has labels {sorted(table[sid])}, "
                f"scene {order[0]!r} has {sorted(label_set)}"
            )
    k = len(label_set)
    if label_set != set(range(1, k + 1)):
        raise SchemaError(f"labels must be exactly 1..k, got {sorted(label_set)}")
    points = np.array([[table[sid][j] for j in range(1, k + 1)] for sid in order])
    return tuple(order), points


def _read_columns(payload: bytes) -> Optional[Parsed]:
    """What _read_rows returns for the decoded payload, column by column.

    Works on the bytes, so the file's text is never held beside them: the
    separators are ASCII, which UTF-8 never uses inside a multi-byte
    character, int and float accept bytes only where they spell the same
    number as the text, and each distinct scene id is decoded and each
    distinct label spelling converted once. None when the payload is not
    plain enough for bytes.split(b',') to split it as csv.reader would
    split its text, is not valid UTF-8, or fails a conversion or check; the
    caller then runs _read_rows, which gives the same result or raises.

    The line terminator is the first line's. An LF file may hold no \\r
    anywhere; a CRLF file's blocks may hold no \\r or \\n once their line
    ends are replaced. Each line end becomes a NUL field; a block holds
    len(fields) // 5 rows, each of which must end in one. A blank or short
    line leaves a NUL elsewhere, so its block's rows fall short of its line
    ends, and the rows of all blocks must add up to the file's line ends,
    which size the arrays.
    """
    if b'"' in payload or b"\0" in payload:
        return None
    cut = payload.find(b"\n")
    if cut < 1:
        return None
    crlf = payload[cut - 1] == ord("\r")
    term = b"\r\n" if crlf else b"\n"
    # a CRLF file's header here, its blocks once their line ends are replaced
    if b"\r" in (payload[: cut - 1] if crlf else payload):
        return None
    start = cut + 1
    header = payload[: start - len(term)].split(b",")
    if tuple(h.strip() for h in header) != tuple(map(str.encode, HEADER)):
        return None
    rows = payload.count(b"\n") - 1 + (not payload.endswith(b"\n"))
    if rows < 1:
        return None

    limit = csv.field_size_limit()
    codes: Dict[str, int] = {}  # scene id -> scene number, in first-appearance order
    raw_codes: Dict[bytes, int] = {}  # id field as read -> scene number
    raw_labels: Dict[bytes, int] = {}  # label field as read -> label
    scene = np.empty(rows, dtype=np.int64)
    label = np.empty(rows, dtype=np.int64)
    xy = np.empty((rows, 2))
    done = 0
    while start < len(payload):
        stop = payload.find(term, start + _BLOCK_BYTES)
        stop = len(payload) if stop < 0 else stop + len(term)
        block = payload[start:stop]
        start = stop
        if not block.isascii():
            try:
                block.decode("utf-8")
            except UnicodeDecodeError:
                return None
        if not block.endswith(term):
            block += term
        if len(block) > limit and max(map(len, block.split(term))) > limit:
            return None
        joined = block.replace(term, b",\0,")
        if crlf and (b"\r" in joined or b"\n" in joined):
            return None
        # a NUL field after every row; see the docstring for the row total
        fields = joined.split(b",")
        fields.pop()
        count = len(fields) // 5
        if fields[4::5].count(b"\0") != count:
            return None
        ids = fields[0::5]
        for raw in dict.fromkeys(ids):
            if raw not in raw_codes:
                sid = raw.decode("utf-8").strip()
                if not sid:
                    return None
                raw_codes[raw] = codes.setdefault(sid, len(codes))
        labels = fields[1::5]
        chunk = slice(done, done + count)
        done += count
        try:
            for raw in dict.fromkeys(labels):
                if raw not in raw_labels:
                    raw_labels[raw] = int(raw)
            scene[chunk] = np.fromiter(map(raw_codes.__getitem__, ids), np.int64, count)
            label[chunk] = np.fromiter(map(raw_labels.__getitem__, labels), np.int64, count)
            xy[chunk, 0] = np.fromiter(map(float, fields[2::5]), np.float64, count)
            xy[chunk, 1] = np.fromiter(map(float, fields[3::5]), np.float64, count)
        except (ValueError, OverflowError):
            return None
    if done != rows:  # a blank or short line
        return None

    n = len(codes)
    if label.min() < 1 or not np.isfinite(xy).all():
        return None
    k = int(label.max())
    if n * k != rows:
        return None
    flat = scene * k + (label - 1)
    seen = np.zeros(rows, dtype=bool)
    seen[flat] = True
    if not seen.all():  # a repeated (scene, label) pair
        return None
    points = np.empty((rows, 2))
    points[flat] = xy
    return tuple(codes), points.reshape(n, k, 2)


def _decode(payload: bytes) -> str:
    try:
        return payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = payload.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not valid UTF-8 (byte {exc.start})", line=line) from exc


def parse_landmarks(path, digest: bool = False) -> LandmarkStudy:
    """Read a landmark CSV into a study: scene ids and one (n, k, 2) stack.

    With digest, the study's sha256 is the hash of the bytes parsed, from
    the one read of the file; without it, sha256 is None. Only the runs
    that write provenance (pipeline.run_analysis, for analyze and reduce)
    ask for it; `opshape vw` does not hash its input.

    Raises:
        ParseError: unreadable file, invalid UTF-8, malformed header or
            row, or duplicate (scene, landmark); carries the 1-based line
            number when known.
        SchemaError: scenes disagree on the label set, or labels are not
            exactly 1..k.
    """
    path = Path(path)
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    ids, points = _read_columns(payload) or _read_rows(_decode(payload))
    return LandmarkStudy(ids, points, hashlib.sha256(payload).hexdigest() if digest else None)


@contextlib.contextmanager
def output_file(path):
    """The one writer of output files: a new UTF-8 text file (no newline
    translation) beside path, moved over path by os.replace when the block
    ends, so path keeps its old bytes, or no file, until the new ones are
    complete. On any exception the temporary file is removed. A symlink at
    path is replaced, not followed, and the file gets a new file's mode."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


# one landmark row, as csv.writer writes it with each float passed through
# format(x, ".17g"); the id goes through _csv_field
_LANDMARK_ROW = "%s,%d,%.17g,%.17g\r\n"
# rows formatted per write: about 60 kB of text, never the whole file
_WRITE_ROWS = 1000


def write_landmarks(path, scenes: Sequence[LandmarkScene]) -> None:
    """Write scenes in the input CSV format, floats at 17 significant digits.

    The bytes are those csv.writer writes for the rows (id, label,
    format(x, ".17g"), format(y, ".17g")); they are formatted by the
    _LANDMARK_ROW template about _WRITE_ROWS rows at a time.

    Raises:
        SchemaError: a scene id that parse_landmarks would not read back as
            it is: an empty id, or one with leading or trailing whitespace,
            which the parser strips; or a scene whose points are not (k, 2),
            which the format cannot hold. Raised before the file is opened.
    """
    for scene in scenes:
        if not scene.scene_id or scene.scene_id != scene.scene_id.strip():
            raise SchemaError(
                f"scene id {scene.scene_id!r} would not read back: ids must be "
                "nonempty, without leading or trailing whitespace"
            )
        if scene.points.shape[1] != 2:
            raise SchemaError(
                f"scene {scene.scene_id!r} has points of shape {scene.points.shape}: "
                "the landmark format holds (k, 2) planar points"
            )
    with output_file(path) as fh:
        fh.write(",".join(HEADER) + "\r\n")
        fields: List = []
        rows = 0
        for scene in scenes:
            sid = _csv_field(scene.scene_id)
            for label, (x, y) in enumerate(scene.points.tolist(), start=1):
                fields += (sid, label, x, y)
            rows += scene.k
            if rows >= _WRITE_ROWS:
                fh.write((_LANDMARK_ROW * rows) % tuple(fields))
                fields, rows = [], 0
        fh.write((_LANDMARK_ROW * rows) % tuple(fields))


# csv.writer (excel dialect) quotes a field that holds one of these
_QUOTED_CHARS = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one of several fields of a row.

    A text with a comma, a quote or a line break goes through csv.writer,
    which quotes it; any other is written as it is.
    """
    if _QUOTED_CHARS.search(text) is None:
        return text
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[: -len("\r\n")]


def write_table(path, header: Sequence[str], line: str, columns: Sequence[Sequence]) -> None:
    """Write a CSV of one row shape: the header, then one line per row.

    columns holds the table column by column, each with one value per row.
    line is the %-template of one row, its fields joined by commas and
    ended by \\r\\n: %s for a text, %.17g for a float (17 significant
    digits, enough to read back as the same double) and %d for an int. In
    a column that holds a text to quote, each distinct text is quoted
    once, as csv.writer quotes it. The rows are formatted by one % of line
    repeated once per row, so the bytes are those csv.writer writes for
    the same rows with each float passed through format(x, ".17g"); a row
    of one empty text alone, which csv.writer writes as "", is the one
    exception. The header names are written as they are, so none may need
    quoting.
    """
    columns = list(columns)
    for i, spec in enumerate(line[: -len("\r\n")].split(",")):
        if spec == "%s" and _QUOTED_CHARS.search("".join(columns[i])):
            quoted = {text: _csv_field(text) for text in set(columns[i])}
            columns[i] = list(map(quoted.__getitem__, columns[i]))
    rows = len(columns[0]) if columns else 0
    body = (line * rows) % tuple(itertools.chain.from_iterable(zip(*columns, strict=True)))
    with output_file(path) as fh:
        fh.write(",".join(header) + "\r\n" + body)


class RowTable:
    """Rows of one layout, which json_text writes as a JSON list of objects.

    keys names the fields of a row, in order; a (key, keys) pair names a
    field whose value is itself a tuple laid out by keys, written as a
    nested object. Each row is a tuple (a NamedTuple will do) of values in
    that order.
    """

    __slots__ = ("keys", "rows")

    def __init__(self, keys: Tuple, rows: Sequence[tuple]):
        self.keys = keys
        self.rows = rows


# the types json writes as scalars, subclasses included (bool is an int)
_SCALAR_TYPES = (str, int, float, type(None))


def _scalar_text(value) -> str:
    """The JSON text of a scalar: a float by float.__repr__, or null when
    it is not finite, and an int by int.__repr__, as json writes them."""
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    text = float.__repr__(value)
    return "null" if "n" in text else text  # only 'nan', 'inf' and '-inf' hold an n


def _spec(column: Sequence, keys, level: int, leaves: List[Tuple[list, int]]):
    """The template spec of column's values, one per row of a table of one
    layout (a document is a table of one row), written at level.

    keys is None, or the layout of tuples written as objects (see RowTable).
    Their leaves go to leaves as (values, width) pairs: width values per
    row, rows one after another, in template order. A spec is "%r" or "%s"
    for a scalar (_scalars), ("{", ((key text, spec), ...)) for an object
    and ("*", (spec, count)) for a list, numeric array or RowTable of count
    items of one spec. Values that share no layout (type, length, keys,
    shape or row count) are each a "%s" leaf of their own text.
    """
    kinds = set(map(type, column))
    first = column[0]
    if len(kinds) > 1 and not all(issubclass(kind, _SCALAR_TYPES) for kind in kinds):
        pass  # only scalars share a template across types
    elif keys is not None:
        if isinstance(first, (list, tuple)) and set(map(len, column)) == {len(keys)}:
            return _object(keys, column, level, leaves)
    elif isinstance(first, _SCALAR_TYPES):
        return _scalars(column, kinds, 1, leaves)
    elif isinstance(first, np.ndarray) and len({(a.shape, a.dtype) for a in column}) == 1:
        if first.dtype.kind not in "fiu":
            return _spec([a.tolist() for a in column], None, level, leaves)
        stack = np.array(column)  # one shape and dtype: their stack, as np.stack would give
        kinds = {float} if stack.dtype.kind == "f" else {int}  # what tolist gives
        spec = _scalars(stack.ravel().tolist(), kinds, first.size, leaves)
        for count in reversed(first.shape):
            spec = ("*", (spec, count))
        return spec
    elif isinstance(first, RowTable) and len({(t.keys, len(t.rows)) for t in column}) == 1:
        rows = [row for table in column for row in table.rows]
        return _repeat(rows, first.keys, len(first.rows), level, leaves)
    elif isinstance(first, dict) and len(set(map(tuple, column))) == 1:
        names = tuple((name, None) for name in first)  # a tuple key is no layout
        return _object(names, [tuple(d.values()) for d in column], level, leaves)
    elif isinstance(first, (list, tuple)) and len(set(map(len, column))) == 1:
        return _repeat(list(itertools.chain.from_iterable(column)), None, len(first), level, leaves)
    if len(column) == 1:
        raise TypeError(
            f"cannot write {type(first).__name__} as JSON"
            + ("" if keys is None else f" laid out by {len(keys)} keys")
        )
    leaves.append(([_text(value, keys, level) for value in column], 1))
    return "%s"


def _scalars(values: Sequence, kinds, width: int, leaves) -> str:
    """_spec of scalars of these types, width of them per row.

    The repr of an int or of a finite float is its JSON text, so those go
    in by %r; any other scalar goes in as the text _scalar_text gives it.
    """
    # a NaN or an infinity makes the sum non-finite; so does a sum past the
    # largest double, which only costs the texts
    if kinds == {int} or (kinds == {float} and math.isfinite(sum(values))):
        spec = "%r"
    else:
        spec = "%s"
        values = list(map(encode_basestring_ascii if kinds == {str} else _scalar_text, values))
    if values:
        leaves.append((values, width))
    return spec


def _object(keys, column: Sequence, level: int, leaves):
    """_spec of a column of tuples laid out by keys (see RowTable)."""
    fields = []
    for key, values in zip(keys, zip(*column)):
        name, inner = key if isinstance(key, tuple) else (key, None)
        # a key may hold a %, which the template must escape
        text = encode_basestring_ascii(name).replace("%", "%%")
        fields.append((text, _spec(values, inner, level + 1, leaves)))
    return ("{", tuple(fields))


def _repeat(items: Sequence, keys, count: int, level: int, leaves):
    """_spec of a column of lists of count items each; items holds the
    items of all of them in order, and keys their layout, if any.

    The items' leaves are interleaved into one leaf of count items per
    list: each item's values in template order, one item after another.
    """
    if not count:
        return "[]"
    mark = len(leaves)
    spec = _spec(items, keys, level + 1, leaves)
    parts = leaves[mark:]
    if len(parts) == 1:
        leaves[mark] = (parts[0][0], count * parts[0][1])
    elif parts:
        # each part cut into columns of one value per item, so that zip
        # gives each item's values in template order
        columns = [values[j::width] for values, width in parts for j in range(width)]
        values = list(itertools.chain.from_iterable(zip(*columns)))
        leaves[mark:] = [(values, count * len(columns))]
    return ("*", (spec, count))


def _template(spec, level: int) -> str:
    """%-template of a value of this spec (_spec), indented at level."""
    if isinstance(spec, str):
        return spec
    tag, items = spec
    if tag == "*":
        return _repeated(items, level)
    return _bracketed("{", [key + ": " + _template(item, level + 1) for key, item in items], level)


@functools.lru_cache(maxsize=256)
def _repeated(items: Tuple, level: int) -> str:
    """%-template of a list of count items of one spec, indented at level;
    cached, as arrays and tables repeat theirs from call to call."""
    item, count = items
    return _bracketed("[", [_template(item, level + 1)] * count, level)


def _bracketed(tag: str, parts: List[str], level: int) -> str:
    """The JSON list ("[") or object ("{") of these item texts, indented at level."""
    close = "]" if tag == "[" else "}"
    if not parts:
        return tag + close
    pad = "\n" + "  " * (level + 1)
    return tag + pad + ("," + pad).join(parts) + "\n" + "  " * level + close


def _text(value, keys, level: int) -> str:
    """The JSON text of value at level: one % of its template."""
    leaves: List[Tuple[list, int]] = []
    spec = _spec((value,), keys, level, leaves)
    return _template(spec, level) % tuple(itertools.chain.from_iterable(v for v, _ in leaves))


def json_text(value) -> str:
    """json.dumps(value, indent=2, ensure_ascii=True), with arrays and NaN.

    Besides dicts with str keys, lists, tuples, str, int, float, bool and
    None (subclasses included), value may hold numpy arrays, written as
    nested lists, and RowTables, written as the lists of objects their rows
    stand for. Floats are written by float.__repr__, the shortest string
    that reads back as the same double, as json writes them; a non-finite
    float, which JSON cannot hold, is written as null.

    _spec walks the value once, a RowTable column by column and an array
    by ravel().tolist(), and _template compiles its template, whose lists
    of one spec (arrays, tables) are cached by layout, length and level.
    """
    return _text(value, None, 0)


def write_json(path, value) -> None:
    """Write json_text(value) and a final newline to path as UTF-8."""
    with output_file(path) as fh:
        fh.write(json_text(value) + "\n")
