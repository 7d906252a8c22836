"""Landmark CSV reading and writing.

Input contract: UTF-8 CSV with header `scene,landmark,x,y`; scene ids are
strings, landmark labels positive integers, coordinates finite floats. Rows
may arrive in any order; scenes are returned in first-appearance order with
rows sorted by label. Every scene must carry exactly the labels 1..k.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ParseError, SchemaError
from .geometry import LandmarkScene

HEADER = ("scene", "landmark", "x", "y")


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(float(x), ".17g")


def _read_rows(reader) -> Tuple[List[str], Dict[str, Dict[int, Tuple[float, float]]]]:
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


def _utf8_error(path: Path) -> ParseError:
    # the decoder reads ahead, so find the first bad byte in the raw file
    payload = path.read_bytes()
    try:
        payload.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = payload.count(b"\n", 0, exc.start) + 1
        return ParseError(f"not valid UTF-8 (byte {exc.start})", line=line)
    return ParseError("not valid UTF-8")


def parse_landmarks(path) -> List[LandmarkScene]:
    """Read a landmark CSV into scenes.

    Raises:
        ParseError: unreadable file, invalid UTF-8, malformed header or
            row, or duplicate (scene, landmark); carries the 1-based line
            number when known.
        SchemaError: scenes disagree on the label set, or labels are not
            exactly 1..k.
    """
    path = Path(path)
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            order, table = _read_rows(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise _utf8_error(path) from exc

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

    return [
        LandmarkScene(scene_id=sid, points=np.array([table[sid][j] for j in range(1, k + 1)]))
        for sid in order
    ]


def write_landmarks(path, scenes: Sequence[LandmarkScene]) -> None:
    """Write scenes in the input CSV format, floats at 17 significant digits."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for scene in scenes:
            for label in range(1, scene.k + 1):
                x, y = scene.points[label - 1]
                writer.writerow([scene.scene_id, label, format_float(x), format_float(y)])


def write_rows(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Small CSV writer; floats pass through format_float, the rest through str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format_float(v) if isinstance(v, float) else str(v) for v in row]
            )
