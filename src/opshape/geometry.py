"""Oriented projective frames and spherical registration of landmark scenes.

A scene of k planar landmarks is lifted to homogeneous representatives
x~ = (x, y, 1). An ordered choice of four landmarks in general position is
an oriented frame: the first three are the columns of the frame matrix U,
the fourth is the unit point p. It fixes the chart H = diag(1/lam) U^-1,
with frame scalars lam = U^-1 p, negated if need be so that det H > 0, and
H sends each remaining landmark to a unit vector in R^3: a scene registers
as q = k - 4 unit vectors on a product of spheres. Registration is planar
only, as the landmark CSV is.

register_points registers n scenes in one stacked pass: frame_charts forms
every chart in closed form and chart_coordinates maps the remaining points.
Degenerate scenes are masked, not raised: a scene fails on the first of
DET_RTOL (frame determinant), SCALAR_RTOL (frame scalars), finite frame
scalars and chart, POINT_RTOL (a point on the singular locus) or a finite
image norm, and UNIT_ATOL (a registered vector off unit norm) that it
breaks, and the caller skips the scene or raises its error.

Arithmetic. Every value that reaches an output of the package comes from
numpy element-wise operations and axis reductions, or np.einsum with its
default optimize=False, in one stated order, never from BLAS or LAPACK, so
the bytes do not depend on the host's BLAS kernel. A dot product over a
short last axis adds its products left to right (last_axis_dots), a norm
is the square root of such a sum of squares (last_axis_norms), and a mean
of outer products sums each entry's products pairwise along a contiguous
axis, as ndarray.sum does (mean_outer). No order depends on how many rows
a stacked pass holds, so each row is bit for bit that row computed alone.
"""

from __future__ import annotations

import operator
from collections import abc
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateFrame, DegeneratePoint, EmptySample, InvalidLandmark

# |det U| below DET_RTOL * prod(column norms) counts as affinely dependent
DET_RTOL = 1e-10
# |lambda_j| below SCALAR_RTOL * max|lambda| counts as a vanished frame scalar
SCALAR_RTOL = 1e-10
# ||H x~|| below POINT_RTOL * ||H||_F * ||x~|| counts as the singular locus
POINT_RTOL = 1e-12
# unit-norm slack accepted by DirectionSample
UNIT_ATOL = 1e-12

_VANISHED = "point maps to zero, or overflows, under the frame chart"
_OFF_UNIT = f"registered vector is not unit norm within {UNIT_ATOL}"
# chart_coordinates takes the norm of an image as it is when its largest
# component lies between these
_SCALE_LOW = 2.0 ** -400
_SCALE_HIGH = 2.0 ** 400


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LandmarkScene:
    """One scene: k labelled planar landmarks, row j-1 holds landmark j."""

    scene_id: str
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidLandmark("points must be a nonempty (k, m) array")
        if not np.isfinite(pts).all():
            raise InvalidLandmark(f"scene {self.scene_id!r} has non-finite coordinates")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "scene_id", str(self.scene_id))

    @property
    def k(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class LandmarkStudy(abc.Sequence):
    """n scenes of k landmarks each: ids and one read-only (n, k, m) stack.

    Indexing builds scene i on demand as LandmarkScene(ids[i], points[i]).
    sha256 is the digest of the bytes the study was parsed from, when the
    parse was asked for one (io.parse_landmarks with digest=True).
    """

    ids: Tuple[str, ...]
    points: np.ndarray
    sha256: Optional[str] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 3 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidLandmark("points must be a nonempty (n, k, m) array")
        if not np.isfinite(pts).all():
            raise InvalidLandmark("study has non-finite coordinates")
        ids = tuple(map(str, self.ids))
        if len(ids) != pts.shape[0]:
            raise ValueError("ids length must equal the number of scenes")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "points", _freeze(pts))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> LandmarkScene:
        index = operator.index(index)
        return LandmarkScene(self.ids[index], self.points[index])


@dataclass(frozen=True)
class FrameSpec:
    """Which four labels form the ordered frame and which register on spheres."""

    frame_labels: Tuple[int, ...] = (1, 2, 4, 3)
    remaining_labels: Tuple[int, ...] = (5,)

    def __post_init__(self):
        frame = tuple(int(x) for x in self.frame_labels)
        rest = tuple(int(x) for x in self.remaining_labels)
        if len(frame) != 4:
            raise InvalidLandmark(f"registration is planar: frames need 4 labels, not {len(frame)}")
        if len(rest) < 1:
            raise InvalidLandmark("at least one remaining label is required")
        labels = frame + rest
        if any(x < 1 for x in labels):
            raise InvalidLandmark("labels must be positive integers")
        for i, label in enumerate(labels):
            if label in labels[:i]:
                if i < len(frame):
                    repeat = f"frame label {label} is repeated"
                elif label in frame:
                    repeat = f"label {label} is both a frame and a remaining label"
                else:
                    repeat = f"remaining label {label} is repeated"
                raise InvalidLandmark(f"{repeat}; frame and remaining labels must be distinct")
        object.__setattr__(self, "frame_labels", frame)
        object.__setattr__(self, "remaining_labels", rest)

    @property
    def q(self) -> int:
        return len(self.remaining_labels)


def last_axis_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two broadcastable arrays, their
    products added left to right one coordinate column at a time: d long
    loops rather than one short loop per vector."""
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


def last_axis_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis: square roots of last_axis_dots(v, v).

    For fewer than 8 coordinates that is the order `np.linalg.norm(axis=-1)`
    takes, so the norms are its bits.
    """
    return np.sqrt(last_axis_dots(v, v))


def mean_outer(rows: np.ndarray) -> np.ndarray:
    """Mean of the outer products r r' of the rows of an (n, p) array: entry
    (a, b) sums its n products along one contiguous axis, pairwise as
    ndarray.sum does, then divides by n."""
    t = rows.T
    return np.multiply(t[:, None], t[None], order="C").sum(axis=-1) / rows.shape[0]


def _off_unit(units: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """|norm - 1| of each vector along the last axis, and where it exceeds UNIT_ATOL or is NaN."""
    off = np.abs(last_axis_norms(units) - 1.0)
    return off, ~(off <= UNIT_ATOL)


def check_unit_norm(units: np.ndarray) -> None:
    """ValueError unless every vector along the last axis has norm 1 within UNIT_ATOL."""
    off, bad = _off_unit(units)
    if bad.any():
        worst = float(np.max(off))
        raise ValueError(f"vectors must be unit norm within {UNIT_ATOL} (off by {worst:.3e})")


@dataclass(frozen=True)
class DirectionSample:
    """n scenes registered as unit vectors, one per sphere block.

    units has shape (n, q, d), or (n, d) for q = 1; scene_ids are the
    per-row labels, "0" .. "n-1" when None. Arrays are locked after
    construction so samples are safe to share across threads. A sample
    built from outside data has its unit norms checked; one built from
    rows checked already, registered (register_points) or taken from
    another sample, is built by _of_checked_rows and not checked again.
    """

    units: np.ndarray
    scene_ids: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        self._fill(self.units, self.scene_ids)
        check_unit_norm(self.units)

    @classmethod
    def _of_checked_rows(cls, units: np.ndarray, scene_ids: Sequence[str]) -> "DirectionSample":
        """A sample of (n, q, d) rows whose unit norms are checked already."""
        sample = object.__new__(cls)
        sample._fill(units, scene_ids)
        return sample

    def _fill(self, units, scene_ids) -> None:
        u = np.asarray(units, dtype=np.float64)
        if u.ndim == 2:
            u = u[:, None, :]
        if u.ndim != 3:
            raise ValueError("units must have shape (n, q, d)")
        if u.shape[0] == 0:
            raise EmptySample("sample contains no scenes")
        if u.shape[1] < 1 or u.shape[2] < 2:
            raise ValueError("each block must hold vectors in R^d, d >= 2")
        ids = tuple(map(str, range(u.shape[0]) if scene_ids is None else scene_ids))
        if len(ids) != u.shape[0]:
            raise ValueError("scene_ids length must equal the number of rows")
        if len(set(ids)) != len(ids):
            raise ValueError("scene_ids must be distinct")
        object.__setattr__(self, "units", _freeze(u))
        object.__setattr__(self, "scene_ids", ids)

    @property
    def n(self) -> int:
        return self.units.shape[0]

    @property
    def q(self) -> int:
        return self.units.shape[1]

    @property
    def dim(self) -> int:
        return self.units.shape[2]

    def without(self, index: int) -> "DirectionSample":
        """Copy of the sample with row `index` deleted."""
        if not 0 <= index < self.n:
            raise IndexError(f"row {index} outside 0..{self.n - 1}")
        keep = [i for i in range(self.n) if i != index]
        return self._of_checked_rows(self.units[keep], tuple(self.scene_ids[i] for i in keep))

    def subset(self, ids: Sequence[str]) -> "DirectionSample":
        """Rows whose scene id is in `ids`, preserving sample order."""
        wanted = set(str(s) for s in ids)
        keep = [i for i, s in enumerate(self.scene_ids) if s in wanted]
        if not keep:
            raise EmptySample("subset selects no scenes")
        return self._of_checked_rows(self.units[keep], tuple(self.scene_ids[i] for i in keep))


class FrameCharts(NamedTuple):
    """Oriented charts of n frames, row i for frame i (see frame_charts)."""

    matrix: np.ndarray  # (n, 3, 3) charts H, det > 0
    flipped: np.ndarray  # (n,) bool, H negated to make det > 0
    errors: Dict[int, DegenerateFrame]  # failing frames by row


def frame_charts(frames) -> FrameCharts:
    """Oriented charts of n planar frames in closed form.

    Args:
        frames: (n, 4, 3) homogeneous representatives per frame: the
            columns c0, c1, c2 of the frame matrix U, then the unit point p.

    The adjugate rows of U are a0 = c1 x c2, a1 = c2 x c0, a2 = c0 x c1,
    and det U = c0 . a0. With s_j = a_j . p, lam = s / det U, so row j of
    H = diag(1/lam) U^-1 is a_j / s_j, and det H = det(U)^2 / prod(s): H is
    negated, and flipped, where prod(s) < 0. A frame fails, in this order,
    on |det U| < DET_RTOL * prod(representative norms), on some
    |lam_j| < SCALAR_RTOL * max|lam| (the same ratio of the s_j), or on an
    s or an H that is not finite, as when huge coordinates overflow (a NaN
    fails every comparison before). A failing frame gets an entry in
    errors, its row of matrix is meaningless, and its s is taken as 1 so
    that dividing by it raises no warning.
    """
    reps = np.asarray(frames, dtype=np.float64)
    c0, c1, c2, unit = (reps[:, j] for j in range(4))
    adj = np.stack([np.cross(c1, c2), np.cross(c2, c0), np.cross(c0, c1)], axis=1)
    det = last_axis_dots(c0, adj[:, 0])
    singular = np.abs(det) < DET_RTOL * np.prod(last_axis_norms(reps[:, :3]), axis=1)
    s = last_axis_dots(adj, unit[:, None])
    abs_s = np.abs(s)
    scale = np.max(abs_s, axis=1)
    vanished = ~singular & ((scale == 0.0) | np.any(abs_s < SCALAR_RTOL * scale[:, None], axis=1))
    bad = singular | vanished
    overflow = ~bad & ~np.isfinite(s).all(axis=1)
    bad |= overflow
    s[bad] = 1.0
    h = adj / s[:, :, None]
    overflow |= ~bad & ~np.isfinite(h).all(axis=(1, 2))
    bad |= overflow
    flipped = ~bad & (np.prod(np.sign(s), axis=1) < 0.0)
    np.negative(h, out=h, where=flipped[:, None, None])

    errors: Dict[int, DegenerateFrame] = {}
    for i in np.flatnonzero(bad):
        if singular[i]:
            message = f"frame matrix is numerically singular (det={det[i]:.3e})"
        elif vanished[i]:
            message = "a frame scalar vanishes; unit point lies on a frame hyperplane"
        else:
            message = "frame scalars or chart overflow float64; coordinates too large"
        errors[int(i)] = DegenerateFrame(message)
    return FrameCharts(h, flipped, errors)


def chart_coordinates(matrix, points) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-sphere coordinates H x~ / ||H x~|| of q points per chart.

    Args:
        matrix: (n, d, d) charts.
        points: (n, q, d) homogeneous representatives, q per chart.

    Returns:
        (units, vanished): units is (n, q, d); vanished (n, q) marks images
        with ||H x~|| <= POINT_RTOL * ||H||_F * ||x~|| (the singular locus)
        or with a norm that is not finite (an image that overflows float64),
        whose rows of units are left unnormalised. Any other image whose
        largest component lies outside [2^-400, 2^400] is scaled by a
        power of two before it is normalised, so that its squares neither
        underflow nor overflow.

    """
    h = np.asarray(matrix, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    y = last_axis_dots(h[:, None], x[:, :, None])
    norm = last_axis_norms(y)
    floor = POINT_RTOL * last_axis_norms(h.reshape(h.shape[0], 1, -1)) * last_axis_norms(x)
    vanished = (norm <= floor) | ~np.isfinite(norm)
    # far from 1 in scale, an image's squares fall below the smallest normal
    # double, losing bits, or overflow; a power of two rescales it exactly
    largest = np.max(np.abs(y), axis=-1)
    rescale = ~vanished & ((largest < _SCALE_LOW) | (largest > _SCALE_HIGH))
    if rescale.any():
        _, exponent = np.frexp(largest[rescale])
        y[rescale] = np.ldexp(y[rescale], -exponent[:, None])
        norm[rescale] = last_axis_norms(y[rescale])
    return y / np.where(vanished, 1.0, norm)[..., None], vanished


def check_scene_labels(scene: LandmarkScene, spec: FrameSpec) -> None:
    """InvalidLandmark unless the scene is planar and has every label spec names."""
    if scene.points.shape[1] != 2:
        raise InvalidLandmark(f"registration is planar: scene has m={scene.points.shape[1]}, not 2")
    for label in spec.frame_labels + spec.remaining_labels:
        if label > scene.k:
            raise InvalidLandmark(f"scene {scene.scene_id!r} has no landmark {label}")


def register_points(
    points, spec: FrameSpec
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Exception]]:
    """Register n scenes at once through the frame charts spec selects.

    Args:
        points: (n, k, 2) landmark coordinates, row j-1 of a scene holding
            landmark j; the caller has checked them (check_scene_labels).

    Returns:
        (units, flipped, errors): units (n, q, 3) unit vectors; flipped
        (n,) marks charts negated to keep det > 0; errors maps the row of
        each degenerate scene to the error of its first failing check: a
        DegenerateFrame, else a DegeneratePoint (singular locus or image
        norm, then unit norm). Those scenes' other rows are meaningless.

    """
    pts = np.asarray(points, dtype=np.float64)

    def lifted(labels):
        chosen = pts[:, [j - 1 for j in labels]]
        return np.concatenate([chosen, np.ones(chosen.shape[:2] + (1,))], axis=2)

    # overflowing coordinates, and the garbage rows of failed frames, fail silently
    with np.errstate(over="ignore", invalid="ignore"):
        charts = frame_charts(lifted(spec.frame_labels))
        units, vanished = chart_coordinates(charts.matrix, lifted(spec.remaining_labels))
        off_unit = _off_unit(units)[1]
    errors: Dict[int, Exception] = dict(charts.errors)
    for reason, failed in ((_VANISHED, vanished), (_OFF_UNIT, off_unit)):
        for i in np.flatnonzero(np.any(failed, axis=1)):
            errors.setdefault(int(i), DegeneratePoint(reason))
    return units, charts.flipped, errors


def canonical_axis(vectors) -> np.ndarray:
    """Axial representatives along the last axis.

    Each vector's sign is flipped where needed so that its first entry
    larger in magnitude than 1e-12 times its largest is positive; zero
    vectors are returned as they are.
    """
    v = np.asarray(vectors, dtype=np.float64)
    magnitude = np.abs(v)
    leading = magnitude > 1e-12 * np.max(magnitude, axis=-1, keepdims=True)
    first = np.argmax(leading, axis=-1)[..., None]
    flip = np.take_along_axis(leading & (v < 0.0), first, axis=-1)
    return np.where(flip, -v, v)
