"""Landmark CSV reading and writing, and the JSON writer of every output.

Input contract: UTF-8 CSV with header `scene,landmark,x,y`; scene ids are
strings, landmark labels positive integers, coordinates finite floats. Rows
may arrive in any order; scenes are returned in first-appearance order with
rows sorted by label. Every scene must carry exactly the labels 1..k.

parse_landmarks reads the file's bytes once, and the study's sha256 is the
hash of those bytes, so it always describes what was parsed. A file that
csv.reader would split exactly at every comma (no quote or NUL character,
one line terminator throughout, no blank line, four fields per line, no
line over csv.field_size_limit()) is converted column by column, in blocks
of about _BLOCK_BYTES cut at line ends. Anything else, quoted ids
included, and any file that fails a conversion or check on that pass, goes
through the csv.reader row loop, which raises each ParseError or
SchemaError with its message and line number.

json_text writes the bytes json.dumps(indent=2, ensure_ascii=True) would,
for values that may hold numpy arrays and RowTable leaves: a table of rows
of one layout, such as the report's leave-one-out table and reduction
steps, written by one % of a cached template; see its docstring.
write_table writes a CSV from its columns by one % per table.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import math
import re
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


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


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
    number as the text, and each distinct scene id is decoded once. None
    when the payload is not plain enough for bytes.split(b',') to split it
    as csv.reader would split its text, is not valid UTF-8, or fails a
    conversion or check; the caller then runs _read_rows, which gives the
    same result or raises.
    """
    if b'"' in payload or b"\0" in payload:
        return None
    cut = payload.find(b"\n")
    if cut < 1:
        return None
    term = b"\r\n" if payload[cut - 1] == ord("\r") else b"\n"
    lines = payload.count(b"\n")
    crlf = lines if term == b"\r\n" else 0
    if payload.count(b"\r") != crlf or payload.count(b"\r\n") != crlf or term * 2 in payload:
        return None
    start = cut + 1
    header = payload[: start - len(term)].split(b",")
    if tuple(h.strip() for h in header) != tuple(map(str.encode, HEADER)):
        return None
    rows = lines - 1 + (not payload.endswith(b"\n"))
    if rows < 1:
        return None

    limit = csv.field_size_limit()
    codes: Dict[str, int] = {}  # scene id -> scene number, in first-appearance order
    raw_codes: Dict[bytes, int] = {}  # id field as read -> scene number
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
        count = block.count(term)
        # a NUL field after every line: misplaced unless each line has 4 fields
        fields = block.replace(term, b",\0,").split(b",")
        fields.pop()
        if len(fields) != 5 * count or fields[4::5].count(b"\0") != count:
            return None
        ids = fields[0::5]
        for raw in dict.fromkeys(ids):
            if raw not in raw_codes:
                sid = raw.decode("utf-8").strip()
                if not sid:
                    return None
                raw_codes[raw] = codes.setdefault(sid, len(codes))
        chunk = slice(done, done + count)
        done += count
        try:
            scene[chunk] = np.fromiter(map(raw_codes.__getitem__, ids), np.int64, count)
            label[chunk] = np.fromiter(map(int, fields[1::5]), np.int64, count)
            xy[chunk, 0] = np.fromiter(map(float, fields[2::5]), np.float64, count)
            xy[chunk, 1] = np.fromiter(map(float, fields[3::5]), np.float64, count)
        except (ValueError, OverflowError):
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


def parse_landmarks(path) -> LandmarkStudy:
    """Read a landmark CSV into a study: scene ids and one (n, k, 2) stack.

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
    return LandmarkStudy(ids, points, hashlib.sha256(payload).hexdigest())


# one landmark row, as csv.writer writes it with each float passed through
# format_float; the id goes through _csv_field
_LANDMARK_ROW = "%s,%d,%.17g,%.17g\r\n"
# rows formatted per write: about 60 kB of text, never the whole file
_WRITE_ROWS = 1000


def write_landmarks(path, scenes: Sequence[LandmarkScene]) -> None:
    """Write scenes in the input CSV format, floats at 17 significant digits.

    The bytes are those csv.writer writes for the rows (id, label,
    format_float(x), format_float(y)); they are formatted by the
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
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    ended by \\r\\n: %s for a text, %.17g for a float (format_float's text)
    and %d for an int. In a column that holds a text to quote, each
    distinct text is quoted once, as csv.writer quotes it. The rows are
    formatted by one % of line repeated once per row, so the bytes are
    those csv.writer writes for the same rows with each float passed
    through format_float; a row of one empty text alone, which csv.writer
    writes as "", is the one exception. The header names are written as
    they are, so none may need quoting.
    """
    columns = list(columns)
    for i, spec in enumerate(line[: -len("\r\n")].split(",")):
        if spec == "%s" and _QUOTED_CHARS.search("".join(columns[i])):
            quoted = {text: _csv_field(text) for text in set(columns[i])}
            columns[i] = list(map(quoted.__getitem__, columns[i]))
    rows = len(columns[0]) if columns else 0
    body = (line * rows) % tuple(itertools.chain.from_iterable(zip(*columns, strict=True)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + body)


@functools.lru_cache(maxsize=256)
def _array_template(shape: Tuple[int, ...], level: int) -> str:
    """%-template of an array of this shape, indented at level as json.dumps(indent=2) would."""
    if not shape:
        return "%r"
    return _bracketed("[", [_array_template(shape[1:], level + 1)] * shape[0], level)


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return "null" if "n" in text else text  # only 'nan', 'inf' and '-inf' hold an n


_JSON_BOOLS = {True: "true", False: "false"}
# the JSON text of a scalar of exactly this type
_SCALARS = {
    str: encode_basestring_ascii,
    float: _float_text,
    int: int.__repr__,
    bool: _JSON_BOOLS.__getitem__,
    type(None): lambda _: "null",
}


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


def _leaf_spec(column: Sequence, keys, leaves: List[Sequence]):
    """The template spec of one field of a table, or None.

    column holds the field's value in every row; keys is None for a value,
    or the layout of a nested tuple. The field's leaves are appended to
    leaves as columns, one value per row, in the order its template takes
    them. The spec is "%s" for a text the leaf already is (an id through
    encode_basestring_ascii, a bool as true or false), "%r" for an int or
    a finite float, ("array", shape) for a numeric array, ("[", specs) for
    a tuple or list and ("{", ((key, spec), ...)) for a nested tuple with
    keys. None when the column mixes types, shapes or lengths, or holds a
    non-finite float or a value of any other type: the table then takes
    the element walk.
    """
    kinds = set(map(type, column))
    if all(issubclass(kind, (tuple, list)) for kind in kinds):
        lengths = set(map(len, column))
        if len(lengths) != 1 or (keys is not None and lengths != {len(keys)}):
            return None
        specs = []
        for key, values in zip(keys or (None,) * lengths.pop(), zip(*column)):
            name, inner = key if isinstance(key, tuple) else (key, None)
            spec = _leaf_spec(values, inner, leaves)
            if spec is None:
                return None
            specs.append(spec if keys is None else (name, spec))
        return ("[" if keys is None else "{", tuple(specs))
    if keys is not None or len(kinds) != 1:
        return None
    (kind,) = kinds
    if kind is str:
        leaves.append(list(map(encode_basestring_ascii, column)))
        return "%s"
    if kind is bool:
        leaves.append(list(map(_JSON_BOOLS.__getitem__, column)))
        return "%s"
    if kind is int:
        leaves.append(column)
        return "%r"
    if kind is float:
        # a NaN or an infinity makes the sum non-finite; so does a sum past
        # the largest double, which only costs the element walk
        if not math.isfinite(sum(column)):
            return None
        leaves.append(column)
        return "%r"
    if kind is np.ndarray and len({(a.shape, a.dtype) for a in column}) == 1:
        stack = np.array(column)  # one shape and dtype: their stack, as np.stack would give
        if stack.dtype.kind in "iu" or (stack.dtype.kind == "f" and np.isfinite(stack).all()):
            leaves.extend(stack.reshape(len(column), -1).T.tolist())
            return ("array", stack.shape[1:])
    return None


@functools.lru_cache(maxsize=256)
def _spec_template(spec, level: int) -> str:
    """%-template of a value of this spec (_leaf_spec), indented at level."""
    if isinstance(spec, str):
        return spec
    tag, items = spec
    if tag == "array":
        return _array_template(items, level)
    if tag == "[":
        parts = [_spec_template(item, level + 1) for item in items]
    else:  # a key may hold a %, which the template must escape
        parts = [
            encode_basestring_ascii(key).replace("%", "%%") + ": " + _spec_template(item, level + 1)
            for key, item in items
        ]
    return _bracketed(tag, parts, level)


def _bracketed(tag: str, parts: List[str], level: int) -> str:
    """The JSON list ("[") or object ("{") of these item texts, indented at level."""
    close = "]" if tag == "[" else "}"
    if not parts:
        return tag + close
    pad = "\n" + "  " * (level + 1)
    return tag + pad + ("," + pad).join(parts) + "\n" + "  " * level + close


@functools.lru_cache(maxsize=64)
def _table_template(row_spec, level: int, rows: int) -> str:
    """%-template of a table of this many rows of row_spec, indented at level."""
    return _bracketed("[", [_spec_template(row_spec, level + 1)] * rows, level)


def _table_text(table: RowTable, level: int) -> Optional[str]:
    """The JSON text of table at level by one % of its cached template, or
    None when _leaf_spec finds a value the template cannot write."""
    if not table.rows:
        return "[]"
    leaves: List[Sequence] = []
    row_spec = _leaf_spec(table.rows, table.keys, leaves)
    if row_spec is None:
        return None
    values = tuple(itertools.chain.from_iterable(zip(*leaves)))
    return _table_template(row_spec, level, len(table.rows)) % values


def _row_dict(keys, row) -> Dict:
    """One row of a RowTable as the dict it stands for."""
    item = {}
    for key, value in zip(keys, row, strict=True):
        if isinstance(key, tuple):
            key, value = key[0], _row_dict(key[1], value)
        item[key] = value
    return item


def _json_parts(value, level: int, out: List[str]) -> None:
    """Append the JSON text of value to out, as json.dumps(indent=2) writes it."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
        return
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fiu":
            # the repr of a Python float or int is its JSON text, unless it
            # is 'nan', 'inf' or '-inf', the only ones with an n
            text = _array_template(value.shape, level) % tuple(value.ravel().tolist())
            if "n" not in text:
                out.append(text)
                return
        _json_parts(value.tolist(), level, out)
        return
    if isinstance(value, RowTable):
        text = _table_text(value, level)
        if text is None:
            _json_parts([_row_dict(value.keys, row) for row in value.rows], level, out)
        else:
            out.append(text)
        return
    if isinstance(value, dict):
        heads, items, close = _item_heads(tuple(value), level), value.values(), "}"
    elif isinstance(value, (list, tuple)):
        heads, items, close = _item_heads(len(value), level), value, "]"
    elif isinstance(value, int):  # subclasses, as json writes them
        out.append(int.__repr__(value))
        return
    elif isinstance(value, float):
        out.append(_float_text(value))
        return
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
        return
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")
    if not heads:
        out.append("{}" if close == "}" else "[]")
        return
    for head, item in zip(heads, items):
        scalar = _SCALARS.get(type(item))
        if scalar is None:
            out.append(head)
            _json_parts(item, level + 1, out)
        else:
            out.append(head + scalar(item))
    out.append("\n" + "  " * level + close)


@functools.lru_cache(maxsize=1024)
def _item_heads(keys, level: int) -> Tuple[str, ...]:
    """The text before each item of a container at level: the opening
    bracket or a comma, the line break and indent, and for a dict the key.

    keys is the dict's keys as a tuple, or the length of a list.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(keys, int):
        return tuple(("," if i else "[") + pad for i in range(keys))
    return tuple(
        ("," if i else "{") + pad + encode_basestring_ascii(key) + ": "
        for i, key in enumerate(keys)
    )


def json_text(value) -> str:
    """json.dumps(value, indent=2, ensure_ascii=True), with arrays and NaN.

    Besides dicts with str keys, lists, tuples, str, int, float, bool and
    None, value may hold numpy arrays, written as nested lists. Floats are
    written by float.__repr__, the shortest string that reads back as the
    same double, as json writes them; a non-finite float, which JSON
    cannot hold, is written as null. A float or integer array is formatted
    by one cached %r template per shape and indentation, without building
    nested lists or running json's pure-Python indenting encoder; one that
    holds a non-finite value is written element by element.

    A RowTable is written as the list of objects its rows stand for, by one
    % of one cached template per (layout, indentation, row count): each id
    goes in through encode_basestring_ascii, each bool as true or false,
    each float and int by %r and each array by ravel().tolist(), so its
    rows build no dicts and the walk visits none of their leaves. A table
    that holds a non-finite float, or any value the template cannot write,
    is written element by element as its list of dicts.
    """
    out: List[str] = []
    _json_parts(value, 0, out)
    return "".join(out)


def write_json(path, value) -> None:
    """Write json_text(value) and a final newline to path as UTF-8."""
    Path(path).write_text(json_text(value) + "\n", encoding="utf-8")
