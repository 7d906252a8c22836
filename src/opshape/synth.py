"""Synthetic planar scenes, pinhole views, and sphere samples for oracles.

Coplanar scenes photographed by cameras on one side of the scene plane
register identically in every view (the registration is invariant under the
induced plane-to-image maps), so generated view sets provide an exact
zero-dispersion oracle. Out-of-plane perturbations of the non-frame
landmarks produce controlled departures. All draws run through the
counter-based generator, so every artifact regenerates from its seed.

A study is generated as array operations over all cameras at once
(`_camera_stack`, `_project`); there is no one-camera path, and a camera
is one row of the stacks: a center, a rotation and a focal. Camera try t
reads words 7t..7t+6 of its stream, as a loop making one try at a time
would. Tries are drawn in batches, their
look-at rotations computed stacked, and those that put a landmark behind
the camera rejected in bulk; the first n accepted tries are kept in try
order, and a batch never reaches past the `_MAX_TRIES` * n budget. The
bits match the one-camera-at-a-time loop because each step makes the same
floating-point operations on the same operands: elementwise arithmetic
and `np.cross` round per element, a stacked (1, 3) @ (3, 1) product makes
the dot call `np.linalg.norm` makes for a vector, the stacked projection
makes one BLAS product per camera, and cosines and sines still come from
`math`, one value at a time. Each view's image noise is one
`normals(2k)` draw of one stream, all views drawn together by
`rng.successive_normals`.

Tangent-Gaussian sphere samples go through one Box-Muller draw and one
normalize step, which adds the mean direction and divides by the norms one
coordinate column at a time. `tangent_gaussian_mean` makes and sums its
draws one slice of 16,384 draws at a time, so a large oracle's memory does
not grow with its size, and its mean is bit-identical to that of the whole
sample. Given an executor, it submits the slices to its workers as
futures, a bounded window of them ahead of the running sum, and adds their
results in slice order on the calling thread. A slice costs about 45 numpy
calls, each a release and re-take of the interpreter lock, so large slices
keep two drawing threads from waiting on each other: 10^6 draws take about
2,800 calls.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BehindCamera, GenerationFailed, InvalidLandmark
from .geometry import LandmarkScene, _freeze, _norms, last_axis_norms
from .rng import SplitMix64, normal_pairs, normal_rows, successive_normals

# rejection margins for general position, in scene units
_MIN_TRIPLE_AREA = 0.05  # twice the triangle area
_MIN_PAIR_DIST = 0.1
_MAX_TRIES = 1000
_MIN_DEPTH = 1e-6


@dataclass(frozen=True)
class Scene3D:
    """k labelled 3D landmarks, possibly exactly coplanar."""

    points: np.ndarray
    coplanar: bool
    plane_normal: np.ndarray
    plane_offset: float
    out_of_plane_offsets: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        normal = np.asarray(self.plane_normal, dtype=np.float64)
        offs = np.asarray(self.out_of_plane_offsets, dtype=np.float64)
        if abs(float(np.linalg.norm(normal)) - 1.0) > 1e-12:
            raise ValueError("plane normal must be a unit vector")
        if self.coplanar:
            resid = np.abs(pts @ normal - self.plane_offset)
            if np.any(resid > 1e-12):
                raise ValueError("coplanar scene violates its plane equation")
            if np.any(offs != 0.0):
                raise ValueError("coplanar scene cannot carry nonzero offsets")
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "plane_normal", _freeze(normal))
        object.__setattr__(self, "out_of_plane_offsets", _freeze(offs))

    @property
    def k(self) -> int:
        return self.points.shape[0]


def _check_cameras(rotations: np.ndarray, focals: np.ndarray) -> None:
    """Check a stack of cameras, (N, 3, 3) rotations and (N,) focals.

    Raises:
        ValueError: the first failed check of the first camera that fails
            one, in the order a camera is checked: its rotation is 3x3 and
            orthogonal, preserves orientation, and its focal is positive.
    """
    orthogonal = "rotation must be a 3x3 orthogonal matrix"
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise ValueError(orthogonal)
    gram = rotations @ rotations.transpose(0, 2, 1)
    failed = (
        (~np.isclose(gram, np.eye(3), atol=1e-10).all(axis=(1, 2)), orthogonal),
        (np.linalg.det(rotations) < 0.0, "rotation must preserve orientation (det +1)"),
        (~(focals > 0.0), "focal length must be positive"),
    )
    bad = np.logical_or.reduce([fails for fails, _ in failed])
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(next(message for fails, message in failed if fails[first]))


def _camera_coords(centers: np.ndarray, rotations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(N, k, 3) camera coordinates of k points in each of N cameras.

    Slice i is (points - centers[i]) @ rotations[i].T, bit for bit: the
    stacked product makes the same BLAS call for each slice.
    """
    return (points[None] - centers[:, None, :]) @ rotations.transpose(0, 2, 1)


def _project(
    centers: np.ndarray, rotations: np.ndarray, focals: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """(N, k, 2) images of k points in each of N cameras.

    Raises:
        BehindCamera: some landmark has depth below 1e-6 in some camera;
            the message names the first such camera's shallowest landmark.
    """
    coords = _camera_coords(centers, rotations, points)
    depths = coords[..., 2]
    behind = (depths < _MIN_DEPTH).any(axis=1)
    if behind.any():
        cam = depths[int(np.argmax(behind))]
        bad = int(np.argmin(cam))
        raise BehindCamera(f"landmark {bad + 1} has depth {cam[bad]:.3e}")
    return focals[:, None, None] * coords[..., :2] / depths[..., None]


def _general_position_ok(pts: np.ndarray) -> bool:
    k = pts.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            d = pts[j] - pts[i]
            if math.hypot(d[0], d[1]) < _MIN_PAIR_DIST:
                return False
            for l in range(j + 1, k):
                e = pts[l] - pts[i]
                if abs(d[0] * e[1] - d[1] * e[0]) < _MIN_TRIPLE_AREA:
                    return False
    return True


def random_coplanar_scene(k: int, seed: int) -> Scene3D:
    """k landmarks drawn in the z = 0 plane, all triples in general position.

    Raises:
        GenerationFailed: rejection sampling exhausted its budget.
    """
    if k < 5:
        raise ValueError("need k >= 5 so at least one landmark remains after the frame")
    gen = SplitMix64(seed)
    for _ in range(_MAX_TRIES):
        flat = 2.0 * gen.uniforms(2 * k).reshape(k, 2) - 1.0
        if _general_position_ok(flat):
            pts = np.concatenate([flat, np.zeros((k, 1))], axis=1)
            return Scene3D(
                points=pts,
                coplanar=True,
                plane_normal=np.array([0.0, 0.0, 1.0]),
                plane_offset=0.0,
                out_of_plane_offsets=np.zeros(k),
            )
    raise GenerationFailed(f"no general-position scene after {_MAX_TRIES} tries")


def _look_at_rotations(centers: np.ndarray, targets: np.ndarray, rolls: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotations whose z axis points from each center to its target.

    x is up x z normalized (y-axis x z when z is nearly vertical), y = z x x,
    and the x and y axes are rolled by the angle in `rolls`.
    """
    z = targets - centers
    z = z / _norms(z)[:, None]
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    vertical = _norms(x) < 1e-8
    if vertical.any():
        x[vertical] = np.cross(np.array([0.0, 1.0, 0.0]), z[vertical])
    x = x / _norms(x)[:, None]
    y = np.cross(z, x)
    # math's cos and sin, which numpy's vector loops may not match
    c = np.array([math.cos(r) for r in rolls.tolist()])[:, None]
    s = np.array([math.sin(r) for r in rolls.tolist()])[:, None]
    return np.stack([c * x + s * y, -s * x + c * y, z], axis=1)


def _camera_tries(draws: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers, rotations and focals of the tries whose 7 uniforms are the rows of draws."""
    uz = 0.35 + 0.6 * draws[:, 0]
    phi = 2.0 * math.pi * draws[:, 1]
    radius = 3.5 + 1.5 * draws[:, 2]
    square = 1.0 - uz * uz
    rho = np.sqrt(np.where(0.0 > square, 0.0, square))  # max(square, 0.0)
    cos_phi = np.array([math.cos(p) for p in phi.tolist()])
    sin_phi = np.array([math.sin(p) for p in phi.tolist()])
    centers = radius[:, None] * np.stack([rho * cos_phi, rho * sin_phi, uz], axis=1)
    targets = np.stack(
        [0.3 * (draws[:, 3] - 0.5), 0.3 * (draws[:, 4] - 0.5), np.zeros(len(draws))], axis=1
    )
    rotations = _look_at_rotations(centers, targets, 2.0 * math.pi * draws[:, 5])
    return centers, rotations, 0.8 + 0.7 * draws[:, 6]


def _camera_stack(
    n: int, seed: int, scene: Optional[Scene3D] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers (n, 3), rotations (n, 3, 3) and focals (n,) of n cameras.

    Try t reads words 7t..7t+6 of the seed's stream. Tries are made in
    batches and checked in bulk; with a scene, a try that puts a landmark at
    depth below 1e-6 is rejected, and the first n accepted tries are kept in
    try order. Tries after the n-th accepted one are neither checked nor
    kept, so the result and every error are those of making the tries one
    at a time.

    Raises:
        ValueError: a try fails a camera check (`_check_cameras`).
        GenerationFailed: fewer than n tries were accepted in `_MAX_TRIES` * n.
    """
    if n < 1:
        raise ValueError("need at least one camera")
    gen = SplitMix64(seed)
    budget = _MAX_TRIES * n
    tries, kept = 0, []
    need = n
    while need:
        # the first batch is exactly n tries: without rejections it is the last
        batch = min(budget - tries, need if tries == 0 else max(4 * need, 1024))
        if batch <= 0:
            raise GenerationFailed("could not place cameras with positive depth")
        tries += batch
        centers, rotations, focals = _camera_tries(gen.uniforms(7 * batch).reshape(batch, 7))
        accepted = np.arange(batch)
        if scene is not None:
            depths = _camera_coords(centers, rotations, scene.points)[..., 2]
            accepted = np.flatnonzero(~(depths < _MIN_DEPTH).any(axis=1))
        accepted = accepted[:need]
        need -= accepted.size
        made = accepted[-1] + 1 if need == 0 else batch
        _check_cameras(rotations[:made], focals[:made])
        kept.append((centers[accepted], rotations[accepted], focals[accepted]))
    return tuple(np.concatenate(part) for part in zip(*kept))


def perturb_out_of_plane(
    scene: Scene3D,
    delta: float,
    seed: int,
    frame_labels: Sequence[int] = (1, 2, 4, 3),
) -> Scene3D:
    """Move each non-frame landmark off the plane by a signed distance delta.

    Frame landmarks stay exactly planar so the registration frame itself
    never degenerates; signs are drawn from the seed.
    """
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return scene
    frame = set(int(x) for x in frame_labels)
    gen = SplitMix64(seed)
    offsets = np.zeros(scene.k)
    for label in range(1, scene.k + 1):
        if label in frame:
            continue
        offsets[label - 1] = delta if gen.uniform() < 0.5 else -delta
    pts = np.array(scene.points) + offsets[:, None] * scene.plane_normal[None, :]
    return Scene3D(
        points=pts,
        coplanar=False,
        plane_normal=scene.plane_normal,
        plane_offset=scene.plane_offset,
        out_of_plane_offsets=offsets,
    )


def synthesize_views(
    k: int,
    cameras: int,
    seed: int,
    delta: float = 0.0,
    noise: float = 0.0,
    frame_labels: Sequence[int] = (1, 2, 4, 3),
) -> List[LandmarkScene]:
    """One shared 3D scene photographed by `cameras` views, ids "1".."n".

    delta moves non-frame landmarks off-plane before projection; noise adds
    image-plane Gaussian jitter after projection (default off). Seeds for
    the scene, cameras, signs, and noise derive from the master seed.

    Raises:
        InvalidLandmark: a frame label is not one of the k landmarks, or
            is repeated; or noise so large that a coordinate is not finite
            (the first such scene is named).
    """
    for label in frame_labels:
        if not 1 <= int(label) <= k:
            raise InvalidLandmark(f"frame label {label} is not a landmark of 1..{k}")
    labels = [int(label) for label in frame_labels]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise InvalidLandmark(f"frame label {label} is repeated")
    master = SplitMix64(seed)
    scene_seed = master.next_u64()
    cam_seed = master.next_u64()
    perturb_seed = master.next_u64()
    noise_seed = master.next_u64()

    scene = random_coplanar_scene(k, scene_seed)
    if delta > 0.0:
        scene = perturb_out_of_plane(scene, delta, perturb_seed, frame_labels)
    images = _project(*_camera_stack(cameras, cam_seed, scene=scene), scene.points)
    if noise > 0.0:
        # view v's jitter is the stream's v-th normals(2k) draw
        normals = successive_normals(noise_seed, 2 * k, cameras).reshape(cameras, k, 2)
        # a coordinate that overflows is refused below as not finite
        with np.errstate(over="ignore", invalid="ignore"):
            images = images + noise * normals
    return [LandmarkScene(str(i + 1), image) for i, image in enumerate(images)]


def _tangent_basis(direction: np.ndarray) -> np.ndarray:
    """(d-1, d) orthonormal rows spanning the tangent space at `direction`."""
    d = direction.size
    rows = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        v = v - (v @ direction) * direction
        for b in rows:
            v = v - (v @ b) * b
        norm = float(np.linalg.norm(v))
        if norm > 1e-8:
            rows.append(v / norm)
        if len(rows) == d - 1:
            break
    return np.stack(rows)


def _tangent_frame(direction, sigma: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The unit mean direction and its tangent basis, after checking the arguments."""
    mu = np.asarray(direction, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(mu))
    if norm <= 1e-12:
        raise ValueError("direction must be nonzero")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if n < 1:
        raise ValueError("need n >= 1 draws")
    mu = mu / norm
    return mu, _tangent_basis(mu)


def _unit_draws(
    mu: np.ndarray, basis: np.ndarray, normals: np.ndarray, sigma: float
) -> np.ndarray:
    """normalize(mu + (sigma * normals) @ basis) for (R, rows, d-1) standard normals.

    normals is scaled by sigma in place, so the caller must not use it again.

    The norms are `last_axis_norms`, the bits of `np.linalg.norm(axis=-1)`
    for d < 8. Adding mu and dividing by the norms go one coordinate column
    at a time, as the norms do: d long loops rather than one short loop per
    row.

    Raises:
        GenerationFailed: a raw draw's norm is not finite and positive.
    """
    # overflow is caught below as a norm that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        normals *= sigma
        # one (rows, d-1) @ (d-1, d) product per sample, as for a single draw
        raw = normals @ basis
        columns = [raw[..., j] for j in range(mu.size)]
        for column, shift in zip(columns, mu.tolist()):
            column += shift
        norms = last_axis_norms(raw)
    # a NaN norm makes min and max NaN, and fails both comparisons
    if norms.size and not (norms.min() > 0.0 and norms.max() < math.inf):
        raise GenerationFailed(
            f"sigma {sigma:g} is too large: a tangent draw's norm is not finite and positive"
        )
    for column in columns:
        column /= norms
    return raw


def tangent_gaussian_samples(direction, sigma: float, n: int, seeds) -> np.ndarray:
    """One sample of n tangent-Gaussian unit vectors per seed, shape (R, n, d).

    Sample r is normalize(direction + tangent noise), noise ~ N(0, sigma^2),
    drawn from the stream of seeds[r]; sigma = 0 repeats the direction
    exactly. All R samples come from one array pass, each bit-identical to
    drawing it alone.

    Raises:
        GenerationFailed: a raw draw's norm is not finite and positive,
            i.e. sigma is too large for the draws to stay finite.
    """
    mu, basis = _tangent_frame(direction, sigma, n)
    d = mu.size
    normals = normal_rows(seeds, n * (d - 1))
    return _unit_draws(mu, basis, normals.reshape(-1, n, d - 1), sigma)


# draws per slice of `tangent_gaussian_mean`: even, so every slice starts on
# a Box-Muller pair, and a multiple of 64, so the slices' products round
# as the rows of one large product do
_MEAN_SLICE = 16384
# slices of `tangent_gaussian_mean` submitted to its pool ahead of its
# running sum, at most, so at most that many drawn slices wait in memory; at
# 2, an `mc` call at n = 200, 1,000 replications and 10^6 draws took about
# 10% longer on a 2-vCPU Intel Xeon VM (the workers wait while the calling
# thread takes a result and submits the next slice)
_MEAN_AHEAD = 4


def _mean_slices(n: int) -> int:
    """Number of slices of an n-draw mean, `_MEAN_SLICE` rows each.

    A one-row last slice joins the slice before it: numpy computes a
    one-row product with a matrix-vector kernel, which may round otherwise.
    """
    count = -(-n // _MEAN_SLICE)
    return count - 1 if n > 1 and n % _MEAN_SLICE == 1 else count


def _mean_bound(n: int, k: int) -> Tuple[int, int]:
    """(lo, hi) rows of slice k of an n-draw mean; the last slice ends at n."""
    lo = k * _MEAN_SLICE
    return lo, n if k == _mean_slices(n) - 1 else lo + _MEAN_SLICE


def _mean_slice(
    mu: np.ndarray, basis: np.ndarray, sigma: float, seed: int, n: int, lo: int, hi: int
) -> np.ndarray:
    """Rows lo..hi of `tangent_gaussian_sample(mu, sigma, n, seed)`, bit for bit."""
    d = mu.size
    count = (hi - lo) * (d - 1)
    first = lo * (d - 1) // 2
    pairs = (n * (d - 1) + 1) // 2
    normals = normal_pairs([seed], pairs, first, first + (count + 1) // 2)[:, :count]
    return _unit_draws(mu, basis, normals.reshape(1, -1, d - 1), sigma)[0]


def tangent_gaussian_mean(
    direction, sigma: float, n: int, seed: int, pool: Optional[Executor] = None
) -> np.ndarray:
    """Mean of `tangent_gaussian_sample(direction, sigma, n, seed)`, bit for bit.

    The n draws are made and summed one slice of `_MEAN_SLICE` rows at a
    time (`_mean_bound`), so memory does not grow with n. The running sum
    starts at zero and adds the rows in order, as `ndarray.mean(axis=0)`
    does, and is divided by n at the end.

    With no pool the calling thread draws every slice. With a pool the
    slices are drawn by its workers: at most `_MEAN_AHEAD` slices are
    submitted beyond the running sum, so at most that many drawn slices
    wait in memory, and the calling thread alone adds them to the sum, in
    slice order, so the mean does not depend on which worker drew what.
    Whatever is left of that window is cancelled if the call raises,
    KeyboardInterrupt included.

    Raises:
        GenerationFailed: as `tangent_gaussian_samples`; the first failing
            slice's error, raised when the sum reaches that slice.
    """
    mu, basis = _tangent_frame(direction, sigma, n)
    slices = _mean_slices(n)

    def draw(k: int) -> np.ndarray:
        return _mean_slice(mu, basis, sigma, seed, n, *_mean_bound(n, k))

    window = deque()  # futures of the slices submitted beyond the sum
    # row 0 holds the running sum, which starts at zero as the reduction's
    # does, and the rows after it the slice being added
    buf = np.zeros((min(n, _MEAN_SLICE + 1) + 1, mu.size))
    try:
        for k in range(slices):
            if pool is None:
                units = draw(k)
            else:
                ahead = range(k + len(window), min(k + _MEAN_AHEAD, slices))
                window.extend(pool.submit(draw, j) for j in ahead)
                units = window.popleft().result()
            rows = len(units) + 1
            buf[1:rows] = units
            del units  # not kept alive while the next slice is awaited
            # einsum walks the C-ordered rows in memory order, the d axis
            # inner: each column adds the rows one after another, as
            # `ndarray.mean`'s reduction does, a whole row per step
            # (tests/test_monte_carlo.py checks that order)
            buf[0] = np.einsum("ij->j", buf[:rows])
    finally:
        for future in window:
            future.cancel()
    return buf[0] / n


def tangent_gaussian_sample(direction, sigma: float, n: int, seed: int) -> np.ndarray:
    """n unit vectors: normalize(direction + tangent noise), noise ~ N(0, sigma^2).

    Returns an (n, d) array, the one-seed case of `tangent_gaussian_samples`.
    sigma = 0 repeats the direction exactly.
    """
    return tangent_gaussian_samples(direction, sigma, n, [seed])[0]
