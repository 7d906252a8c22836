"""Oriented projective frames and spherical registration of landmark scenes.

A scene of k planar landmarks is lifted to homogeneous representatives
x~ = (x, 1). An ordered choice of m+2 landmarks in general position is an
oriented frame; the frame fixes a sign-adjusted linear chart H that sends
each remaining landmark to a unit vector in R^(m+1). A scene with k
landmarks therefore registers as q = k - m - 2 unit vectors, and samples of
scenes become samples on a product of spheres.

Registration is one stacked pass over n scenes: register_points lifts an
(n, k, m) array of landmarks, frame_charts calls det, solve and inv once
each on the (n, m+1, m+1) frame matrices, and chart_coordinates maps the
remaining points of all scenes at once. Degenerate scenes are masked, not
raised: a scene fails on the first of DET_RTOL (frame determinant),
SCALAR_RTOL (frame scalars), finite frame scalars and chart, POINT_RTOL (a
point on the singular locus) or a finite image norm, and UNIT_ATOL (a
registered vector off unit norm) that it breaks; a failed frame is replaced
by the identity so the stacked solve and inverse cannot raise, and the
caller skips the scene or raises its error. Each row matches, bit for bit,
what the same steps give on that scene alone, so one scene or one frame is
the n = 1 call of the same pass; there is no separate single-frame path.

Conventions: points and homogeneous representatives are plain float64
ndarrays; frame representatives enter matrices as columns.
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

    @property
    def m(self) -> int:
        return self.points.shape[1]


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
    """Which labels form the ordered frame and which register on spheres."""

    frame_labels: Tuple[int, ...] = (1, 2, 4, 3)
    remaining_labels: Tuple[int, ...] = (5,)

    def __post_init__(self):
        frame = tuple(int(x) for x in self.frame_labels)
        rest = tuple(int(x) for x in self.remaining_labels)
        if len(frame) < 3:
            raise InvalidLandmark("a frame needs at least m+2 = 3 labels")
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
    def m(self) -> int:
        return len(self.frame_labels) - 2

    @property
    def q(self) -> int:
        return len(self.remaining_labels)


def last_axis_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, which must hold at least one coordinate.

    The squares are summed left to right one coordinate column at a time:
    d long loops rather than one short loop per vector. For fewer than 8
    coordinates that is the order `np.linalg.norm(axis=-1)` takes, so the
    norms are its bits.
    """
    squares = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        squares += v[..., j] * v[..., j]
    return np.sqrt(squares)


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

    units has shape (n, q, d); scene_ids are the per-row labels. Arrays are
    locked after construction so samples are safe to share across threads.
    """

    units: np.ndarray
    scene_ids: Tuple[str, ...]

    def __post_init__(self):
        u = np.asarray(self.units, dtype=np.float64)
        if u.ndim == 2:
            u = u[:, None, :]
        if u.ndim != 3:
            raise ValueError("units must have shape (n, q, d)")
        if u.shape[0] == 0:
            raise EmptySample("sample contains no scenes")
        if u.shape[1] < 1 or u.shape[2] < 2:
            raise ValueError("each block must hold vectors in R^d, d >= 2")
        check_unit_norm(u)
        ids = tuple(map(str, self.scene_ids))
        if len(ids) != u.shape[0]:
            raise ValueError("scene_ids length must equal the number of rows")
        if len(set(ids)) != len(ids):
            raise ValueError("scene_ids must be distinct")
        object.__setattr__(self, "units", _freeze(u))
        object.__setattr__(self, "scene_ids", ids)

    @classmethod
    def from_vectors(cls, vectors, scene_ids=None) -> "DirectionSample":
        arr = np.asarray(vectors, dtype=np.float64)
        if scene_ids is None:
            n = arr.shape[0]
            scene_ids = tuple(str(i) for i in range(n))
        return cls(arr, tuple(scene_ids))

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
        return DirectionSample(self.units[keep], tuple(self.scene_ids[i] for i in keep))

    def subset(self, ids: Sequence[str]) -> "DirectionSample":
        """Rows whose scene id is in `ids`, preserving sample order."""
        wanted = set(str(s) for s in ids)
        keep = [i for i, s in enumerate(self.scene_ids) if s in wanted]
        if not keep:
            raise EmptySample("subset selects no scenes")
        return DirectionSample(self.units[keep], tuple(self.scene_ids[i] for i in keep))


class FrameCharts(NamedTuple):
    """Oriented charts of n frames, row i for frame i (see frame_charts)."""

    matrix: np.ndarray  # (n, m+1, m+1) charts H, det > 0
    frame_scalars: np.ndarray  # (n, m+1) positive frame scalars
    adjusted: np.ndarray  # (n, m+1, m+1) sign-adjusted frame matrices
    flipped: np.ndarray  # (n,) bool, H negated to make det > 0
    errors: Dict[int, DegenerateFrame]  # failing frames by row


def frame_charts(frames) -> FrameCharts:
    """Oriented charts of n frames in one pass of stacked linear algebra.

    Args:
        frames: (n, m+2, m+1) homogeneous representatives per frame; the
            first m+1 span the frame, the last is the unit point.

    For each frame, lam solves U lam = unit point, where the columns of U
    are the frame representatives; U' is U with column j times sign(lam_j);
    H = D^-1 (U')^-1 with D = diag(|lam|), negated when det H < 0. Since
    det H = 1 / (det D * det U') with det D > 0 and
    det U' = det U * prod sign(lam_j), the sign of det H is the sign of
    det U * prod sign(lam_j), which the det U already taken for the
    singularity test gives without a determinant of H. On a frame that
    passes, neither factor is zero, so this is the det H <= 0 rule. A frame
    fails, in this order, on a zero representative, on
    |det U| < DET_RTOL * prod(column norms), on some
    |lam_j| < SCALAR_RTOL * max|lam|, or on a lam or an H that is not
    finite, as when huge coordinates overflow float64 (a NaN fails no
    comparison, so the tests before cannot catch it). A failing frame gets
    an entry in errors, and the identity takes the place of its U and U'
    so that the stacked solve and inverse do not raise; its other rows are
    meaningless.

    Every row is bit for bit what the same steps give on that frame alone:
    det, solve and inv run the same LAPACK routine per matrix, and the
    D^-1 product is formed elementwise, plus 0.0 to turn -0.0 into 0.0 as
    the matrix product does.
    """
    reps = np.asarray(frames, dtype=np.float64)
    d = reps.shape[2]
    basis = np.swapaxes(reps[:, :d], 1, 2)  # columns are representatives
    col_norms = np.linalg.norm(basis, axis=1)
    det = np.linalg.det(basis)
    zero = np.any(col_norms == 0.0, axis=1)
    singular = ~zero & (np.abs(det) < DET_RTOL * np.prod(col_norms, axis=1))
    bad = zero | singular
    eye = np.eye(d)
    basis = np.where(bad[:, None, None], eye, basis)
    lam = np.linalg.solve(basis, reps[:, d, :, None])[..., 0]
    abs_lam = np.abs(lam)
    scale = np.max(abs_lam, axis=1)
    vanished = ~bad & (
        (scale == 0.0) | np.any(abs_lam < SCALAR_RTOL * scale[:, None], axis=1)
    )
    bad |= vanished
    overflow = ~bad & ~np.isfinite(lam).all(axis=1)
    bad |= overflow
    signs = np.sign(lam)
    adjusted = np.where(bad[:, None, None], eye, basis * signs[:, None, :])
    abs_lam = np.where(bad[:, None], 1.0, abs_lam)
    h = np.linalg.inv(adjusted)
    h *= (1.0 / abs_lam)[:, :, None]
    h += 0.0
    overflow |= ~bad & ~np.isfinite(h).all(axis=(1, 2))
    bad |= overflow
    flipped = np.sign(det) * np.prod(signs, axis=1) < 0.0
    np.negative(h, out=h, where=flipped[:, None, None])

    errors: Dict[int, DegenerateFrame] = {}
    for i in np.flatnonzero(bad):
        if zero[i]:
            message = "zero frame representative"
        elif singular[i]:
            message = f"frame matrix is numerically singular (det={det[i]:.3e})"
        elif vanished[i]:
            message = "a frame scalar vanishes; unit point lies on a frame hyperplane"
        else:
            message = "frame scalars or chart overflow float64; coordinates too large"
        errors[int(i)] = DegenerateFrame(message)
    return FrameCharts(h, abs_lam, adjusted, flipped & ~bad, errors)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, each `np.linalg.norm` of its vector bit for bit.

    The norm of a vector is the square root of its dot product with itself;
    a stacked (1, d) @ (d, 1) product makes the same dot call per vector,
    where a sum of squares may round otherwise.
    """
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0, 0]


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

    Each row is bit for bit what H @ x~ and np.linalg.norm give on that
    point alone: a stacked matmul of a matrix by a column runs the same
    matrix-vector kernel, and of a row by a column the same dot kernel
    (einsum, norm(axis=) and sum(-1) round differently).
    """
    h = np.asarray(matrix, dtype=np.float64)
    x = np.asarray(points, dtype=np.float64)
    y = np.matmul(h[:, None], x[..., None])[..., 0]
    norm = _norms(y)
    floor = POINT_RTOL * _norms(h.reshape(h.shape[0], 1, -1)) * _norms(x)
    vanished = (norm <= floor) | ~np.isfinite(norm)
    # far from 1 in scale, an image's squares fall below the smallest normal
    # double, losing bits, or overflow; a power of two rescales it exactly
    largest = np.max(np.abs(y), axis=-1)
    rescale = ~vanished & ((largest < _SCALE_LOW) | (largest > _SCALE_HIGH))
    if rescale.any():
        _, exponent = np.frexp(largest[rescale])
        y[rescale] = np.ldexp(y[rescale], -exponent[:, None])
        norm[rescale] = _norms(y[rescale])
    return y / np.where(vanished, 1.0, norm)[..., None], vanished


def check_scene_labels(scene: LandmarkScene, spec: FrameSpec) -> None:
    """InvalidLandmark unless the scene has spec's dimension and every label it names."""
    if spec.m != scene.m:
        raise InvalidLandmark(
            f"frame of {len(spec.frame_labels)} labels needs m={spec.m} coordinates, scene has m={scene.m}"
        )
    for label in spec.frame_labels + spec.remaining_labels:
        if label > scene.k:
            raise InvalidLandmark(f"scene {scene.scene_id!r} has no landmark {label}")


def register_points(
    points, spec: FrameSpec
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Exception]]:
    """Register n scenes at once through the frame charts spec selects.

    Args:
        points: (n, k, m) landmark coordinates, row j-1 of a scene holding
            landmark j; the caller has checked the labels.

    Returns:
        (units, flipped, errors): units (n, q, m+1) unit vectors; flipped
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
