"""Synthetic planar scenes, pinhole views, and sphere samples for oracles.

Coplanar scenes, drawn in the z = 0 plane and photographed by cameras
above it, register identically in every view (the registration is invariant
under the induced plane-to-image maps), so generated view sets provide an
exact zero-dispersion oracle. A scene is a plain (k, 3) array of points;
moving the non-frame landmarks along z produces controlled departures, and
the z column is then each landmark's offset. All draws run through the
counter-based generator, so every artifact regenerates from its seed.

A study is generated as array operations over all cameras at once
(`_camera_stack`, `_project`); there is no one-camera path, and a camera
is one row of the stacks: a center, a rotation and a focal. The formulas
that make a camera give an orthonormal right-handed rotation and a focal
in [0.8, 1.5), so only its depths are checked, always against the scene
it photographs. Camera try t reads words 7t..7t+6 of its stream, as a
loop making one try at a time would. Tries are drawn in batches, their
look-at rotations computed stacked, and those that put a landmark behind
the camera rejected in bulk; the first n accepted tries are kept in try
order, and a batch never reaches past the `_MAX_TRIES` * n budget. The
bits match the one-camera-at-a-time loop: every step is elementwise
arithmetic in the geometry module's stated order, and cosines and sines
come from `math`, one value at a time. Each view's image noise is one
`normals(2k)` draw of one stream, all views drawn together by
`rng.successive_normals`.

Tangent-Gaussian sphere samples come from one routine, `TangentDraws.draw`,
for `tangent_gaussian_sample` (its one-seed call), the oracle's slices and
`mc`'s replications. It writes one Box-Muller pass (`rng.box_muller`) as a
block of cosines and a block of sines, adds the mean direction to each
coordinate in a contiguous array of its own, and divides by the norms, all
in arrays its caller owns and reuses. `tangent_gaussian_mean` makes and sums its
draws one slice of 16,384 draws at a time, so a large oracle's memory does
not grow with its size, and its mean is bit-identical to that of the whole
sample. Its slices form a chain of tasks: task k draws slice k into a
buffer set no running task holds, waits for task k - 1's running sum and
adds its rows to it, on the thread that drew them. Given an executor, the
calling thread only submits the tasks and waits for the last; with none,
it runs the same tasks one after another. At d = 3 a slice costs 51 numpy
calls (24 Box-Muller, 25 normalize, the running sum's row and the sum),
each a release and re-take of the interpreter lock, so large slices keep
two drawing threads from waiting on each other: 10^6 draws take about
3,160 calls. Only a few of them allocate, and then arrays of a few
elements, so a slice maps no fresh memory.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import Executor, Future
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BehindCamera, GenerationFailed, InvalidLandmark
from .geometry import LandmarkScene, last_axis_dots, last_axis_norms
from .rng import SplitMix64, box_muller, successive_normals, word_steps

# rejection margins for general position, in scene units
_MIN_TRIPLE_AREA = 0.05  # twice the triangle area
_MIN_PAIR_DIST = 0.1
_MAX_TRIES = 1000
_MIN_DEPTH = 1e-6


def _camera_coords(centers: np.ndarray, rotations: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(N, k, 3) camera coordinates of k points in each of N cameras.

    Coordinate j of a point in camera i is the dot of row j of rotations[i]
    with the point minus centers[i].
    """
    return last_axis_dots((points[None] - centers[:, None, :])[:, :, None], rotations[:, None])


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


def random_coplanar_scene(k: int, seed: int) -> np.ndarray:
    """The (k, 3) points of k landmarks drawn in the z = 0 plane, all
    triples in general position.

    Raises:
        GenerationFailed: rejection sampling exhausted its budget.
    """
    if k < 5:
        raise ValueError("need k >= 5 so at least one landmark remains after the frame")
    gen = SplitMix64(seed)
    for _ in range(_MAX_TRIES):
        flat = 2.0 * gen.uniforms(2 * k).reshape(k, 2) - 1.0
        if _general_position_ok(flat):
            return np.concatenate([flat, np.zeros((k, 1))], axis=1)
    raise GenerationFailed(f"no general-position scene after {_MAX_TRIES} tries")


def _look_at_rotations(centers: np.ndarray, targets: np.ndarray, rolls: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotations whose z axis points from each center to its target.

    x is up x z normalized, y = z x x, and the x and y axes are rolled by
    the angle in `rolls`. The z axis of a `_camera_tries` camera is never
    near vertical: its center lies at least 3.5 sqrt(1 - 0.95^2) > 1.09
    from the z axis and its target within 0.22 of it, so |up x z| > 0.16.
    """
    z = targets - centers
    z = z / last_axis_norms(z)[:, None]
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    x = x / last_axis_norms(x)[:, None]
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
    rho = np.sqrt(1.0 - uz * uz)  # uz < 0.95, so 1 - uz^2 > 0.0975
    cos_phi = np.array([math.cos(p) for p in phi.tolist()])
    sin_phi = np.array([math.sin(p) for p in phi.tolist()])
    centers = radius[:, None] * np.stack([rho * cos_phi, rho * sin_phi, uz], axis=1)
    targets = np.stack(
        [0.3 * (draws[:, 3] - 0.5), 0.3 * (draws[:, 4] - 0.5), np.zeros(len(draws))], axis=1
    )
    rotations = _look_at_rotations(centers, targets, 2.0 * math.pi * draws[:, 5])
    return centers, rotations, 0.8 + 0.7 * draws[:, 6]


def _camera_stack(
    n: int, seed: int, points: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centers (n, 3), rotations (n, 3, 3) and focals (n,) of n cameras
    that see all of the (k, 3) points in front of them.

    Try t reads words 7t..7t+6 of the seed's stream. Tries are made in
    batches; a try that puts a landmark at depth below 1e-6 is rejected,
    and the first n accepted tries are kept in try order, so the result
    and every error are those of making the tries one at a time.
    Each rotation's rows are a normalised right-handed frame, and each
    focal is 0.8 + 0.7 u for a uniform u in [0, 1).

    Raises:
        ValueError: n < 1.
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
        depths = _camera_coords(centers, rotations, points)[..., 2]
        accepted = np.flatnonzero(~(depths < _MIN_DEPTH).any(axis=1))[:need]
        need -= accepted.size
        kept.append((centers[accepted], rotations[accepted], focals[accepted]))
    return tuple(np.concatenate(part) for part in zip(*kept))


def perturb_out_of_plane(
    points: np.ndarray,
    delta: float,
    seed: int,
    frame_labels: Sequence[int] = (1, 2, 4, 3),
) -> np.ndarray:
    """A copy of the points with each non-frame landmark moved along z by a
    signed distance delta; delta = 0 returns the points themselves.

    The points are those `random_coplanar_scene` drew in the z = 0 plane, so
    the z column of the copy is each landmark's offset. Frame landmarks stay
    exactly planar so the registration frame itself never degenerates;
    signs are drawn from the seed.
    """
    if not delta >= 0.0:  # a NaN delta fails here too
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        return points
    frame = set(int(x) for x in frame_labels)
    gen = SplitMix64(seed)
    moved = np.array(points)
    for label in range(1, len(points) + 1):
        if label in frame:
            continue
        moved[label - 1, 2] += delta if gen.uniform() < 0.5 else -delta
    return moved


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
        ValueError: delta or noise is negative or NaN.
        InvalidLandmark: a frame label is not one of the k landmarks, or
            is repeated; or noise so large that a coordinate is not finite
            (the first such scene is named).
    """
    if not noise >= 0.0:  # a NaN noise fails here too; perturb_out_of_plane checks delta
        raise ValueError("noise must be nonnegative")
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

    points = random_coplanar_scene(k, scene_seed)
    points = perturb_out_of_plane(points, delta, perturb_seed, frame_labels)
    images = _project(*_camera_stack(cameras, cam_seed, points), points)
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
        v = v - last_axis_dots(v, direction) * direction
        for b in rows:
            v = v - last_axis_dots(v, b) * b
        norm = float(last_axis_norms(v))
        if norm > 1e-8:
            rows.append(v / norm)
        if len(rows) == d - 1:
            break
    return np.stack(rows)


def _tangent_frame(direction, sigma: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The unit mean direction and its tangent basis, after checking the arguments."""
    mu = np.asarray(direction, dtype=np.float64).ravel()
    norm = float(last_axis_norms(mu))
    if norm <= 1e-12:
        raise ValueError("direction must be nonzero")
    if not sigma >= 0.0:  # a NaN sigma fails here too
        raise ValueError("sigma must be nonnegative")
    if n < 1:
        raise ValueError("need n >= 1 draws")
    mu = mu / norm
    return mu, _tangent_basis(mu)


def _unit_draws(
    mu: np.ndarray,
    basis: np.ndarray,
    columns: Sequence[np.ndarray],
    sigma: float,
    out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """normalize(mu + (sigma * z) @ basis) into out, for each row z of the normals in columns.

    columns holds the d - 1 normals of the rows, each an (rows, R) array,
    and is scaled by sigma in place, so the caller must not use it again.
    out is an (rows, R, d) array, and work at least (d + 2) * rows * R
    doubles of scratch. Coordinate j of the raw draws goes to one
    contiguous (rows, R) array of work: the scaled normals times column j
    of basis added left to right, then mu[j]. The norms add the squared
    coordinates left to right, and each coordinate divided by them goes to
    out. Returns out.

    Raises:
        GenerationFailed: a raw draw's norm is not finite and positive.
    """
    rows, reps, d = out.shape
    size = rows * reps
    raw = work[: d * size].reshape(d, rows, reps)
    product, norms = work[d * size : (d + 2) * size].reshape(2, rows, reps)
    # overflow is caught below as a norm that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for column in columns:
            column *= sigma
        for coordinate, weights, shift in zip(raw, basis.T.tolist(), mu.tolist()):
            np.multiply(columns[0], weights[0], out=coordinate)
            for column, weight in zip(columns[1:], weights[1:]):
                coordinate += np.multiply(column, weight, out=product)
            coordinate += shift
        np.multiply(raw[0], raw[0], out=norms)
        for coordinate in raw[1:]:
            norms += np.multiply(coordinate, coordinate, out=product)
        np.sqrt(norms, out=norms)
    # a NaN norm makes min and max NaN, and fails both comparisons
    if size and not (norms.min() > 0.0 and norms.max() < math.inf):
        raise GenerationFailed(
            f"sigma {sigma:g} is too large: a tangent draw's norm is not finite and positive"
        )
    for j, coordinate in enumerate(raw):
        np.divide(coordinate, norms, out=out[..., j])
    return out


class TangentDraws:
    """Samples of n tangent-Gaussian unit vectors about one direction, drawn
    a range of rows at a time.

    Row t of a seed's sample is normalize(mu + sigma * z @ basis), with z
    the normals t(d-1) .. t(d-1)+d-2 of the seed's draw of ceil(n(d-1)/2)
    Box-Muller pairs and basis the tangent basis at the unit direction mu.
    `draw` writes any rows of several seeds' samples, bit-identical to the
    same rows of each whole sample, into arrays the caller owns and may
    reuse: out, and a scratch set from `scratch`. The object itself holds
    no array a draw writes, so threads may share it, each with its own
    scratch.

    Raises:
        ValueError: a zero direction, a negative or NaN sigma, or n < 1.
    """

    def __init__(self, direction, sigma: float, n: int):
        self.mu, self.basis = _tangent_frame(direction, sigma, n)
        self.sigma = sigma
        self.pairs = (n * (self.mu.size - 1) + 1) // 2  # of one seed's draw

    def scratch(self, rows: int, reps: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scratch for draws of at most `rows` rows of `reps` seeds.

        The word steps; the words, whose memory then holds the normals; and
        the floats, the splitmix64 shifts and then rho and the angle, then
        the raw coordinates, the products and the norms.
        """
        d = self.mu.size
        pairs = (rows * (d - 1) + 1) // 2
        return (
            word_steps(pairs),
            np.empty(2 * pairs * reps, dtype=np.uint64),
            np.empty(max(2 * pairs, (d + 2) * rows) * reps),
        )

    def draw(self, seeds, lo: int, out: np.ndarray, scratch) -> np.ndarray:
        """Rows lo .. lo + rows of each seed's sample into out, an (rows, R, d) array.

        Row lo must start on a Box-Muller pair, lo * (d - 1) even. For odd
        d the cosines and the sines land in two contiguous blocks, at d = 3
        the two normal columns; for even d the pairs are interleaved.
        Returns out.

        Raises:
            GenerationFailed: a raw draw's norm is not finite and positive,
                i.e. sigma is too large for the draws to stay finite.
        """
        rows, reps, d = out.shape
        pairs = (rows * (d - 1) + 1) // 2
        first = lo * (d - 1) // 2
        steps, words, floats = scratch
        size = 2 * pairs * reps
        words = words[:size].reshape(2, pairs, reps)
        normals = words.view(np.float64)
        if d % 2:
            # (d - 1) / 2 whole pairs a row: normal c of row t is pair
            # t (d - 1) / 2 + c // 2, its cosine for even c
            cos, sin = normals
            columns = [normals[c % 2, c // 2 :: (d - 1) // 2] for c in range(d - 1)]
        else:
            # rows straddle pairs: interleaved, the normals follow one
            # another as in the whole draw, and row t's start at t (d - 1)
            flat = normals.reshape(2 * pairs, reps)
            cos, sin = flat[0::2], flat[1::2]
            columns = [flat[c :: d - 1][:rows] for c in range(d - 1)]
        box_muller(
            seeds,
            (first, self.pairs + first),
            steps[:pairs],
            words,
            floats[:size].reshape(2, pairs, reps),
            cos,
            sin,
        )
        return _unit_draws(self.mu, self.basis, columns, self.sigma, out, floats)


# draws per slice of `tangent_gaussian_mean`: even, so every slice starts on
# a Box-Muller pair
_MEAN_SLICE = 16384
# slice tasks of `tangent_gaussian_mean` submitted to its pool and not yet
# known to be summed, at most, so the futures it holds do not grow with the
# draws; `mc`'s default 10^6 draws, 62 slices, are all submitted at once
_MEAN_PENDING = 64


def _mean_slices(n: int) -> int:
    """Number of slices of an n-draw mean, `_MEAN_SLICE` rows each but the last."""
    return -(-n // _MEAN_SLICE)


def _mean_bound(n: int, k: int) -> Tuple[int, int]:
    """(lo, hi) rows of slice k of an n-draw mean; the last slice ends at n."""
    lo = k * _MEAN_SLICE
    return lo, min(lo + _MEAN_SLICE, n)


def _mean_slice(draws: TangentDraws, seed: int, lo: int, hi: int, out, scratch) -> None:
    """Rows lo..hi of the sample `draws` makes of seed, bit for bit, into
    rows 1 .. hi - lo of out, an (at least hi - lo + 1, d) array whose row 0
    is left to the running sum; scratch is a set from `draws.scratch`."""
    draws.draw((seed,), lo, out[1 : hi - lo + 1, None], scratch)


class _Inline(Executor):
    """Runs each task on the calling thread as it is submitted; a task's
    error propagates from `submit`, as from a plain loop."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


_INLINE = _Inline()


def tangent_gaussian_mean(
    direction, sigma: float, n: int, seed: int, pool: Optional[Executor] = None
) -> np.ndarray:
    """Mean of `tangent_gaussian_sample(direction, sigma, n, seed)`, bit for bit.

    The n draws are made and summed one slice of `_MEAN_SLICE` rows at a
    time (`_mean_bound`), so memory does not grow with n. The running sum
    starts at zero and adds the rows in order, as `ndarray.mean(axis=0)`
    does, and is divided by n at the end.

    The slices are a chain of tasks. Task k takes a set of scratch and a
    sum buffer of largest-slice + 1 rows from the call's free list, or
    makes one if the list is empty, and puts it back when it ends; the call
    makes at most one set per worker, and they are freed when it returns.
    Task k draws slice k into rows 1.. of its sum buffer, waits for task
    k - 1's running sum, writes it into row 0 and returns the sum of row 0
    and the slice's rows: each slice is summed on the thread that drew it,
    in slice order, so the mean does not depend on which worker drew what. With a pool the calling thread only submits the
    tasks in slice order, at most `_MEAN_PENDING` of them not yet known to
    be summed, and waits for the last; with none it runs the same tasks one
    after another. A task waits only on its predecessor, so the pool must
    start tasks in the order they were submitted, as `ThreadPoolExecutor`
    does: the predecessor of a running task has then begun too, and the
    chain cannot deadlock. Each worker holds at most one drawn slice not
    yet summed. If the call raises, KeyboardInterrupt included, every task
    not yet begun is cancelled.

    Raises:
        GenerationFailed: as `TangentDraws.draw`; the error of the
            first failing slice in slice order, whichever failed first in
            time. A task whose draw fails waits on its predecessor and
            raises the predecessor's error if it has one, and a task that
            finds an earlier slice failed raises that error without drawing.
    """
    draws = TangentDraws(direction, sigma, n)
    rows = min(n, _MEAN_SLICE)
    failed = []  # slices whose draw raised
    free = []  # scratch and sum buffers of no running task

    def add_slice(k: int, before: Future) -> np.ndarray:
        lo, hi = _mean_bound(n, k)
        try:
            scratch, buf = free.pop()
        except IndexError:
            scratch, buf = draws.scratch(rows, 1), np.empty((rows + 1, draws.mu.size))
        try:
            error = None
            # a slice that fails after this check costs its worker one more
            # draw, never a wrong result: the chain orders the errors
            if not any(j < k for j in failed):
                try:
                    _mean_slice(draws, seed, lo, hi, out=buf, scratch=scratch)
                except Exception as exc:
                    failed.append(k)
                    error = exc
            # raises an earlier slice's error, which wins over this one's
            buf[0] = before.result()
            if error is not None:
                raise error
            # einsum walks the C-ordered rows in memory order, the d axis
            # inner: each column adds the rows one after another, as
            # `ndarray.mean`'s reduction does, a whole row per step
            # (tests/test_monte_carlo.py checks that order); rows past a
            # short last slice are another slice's, and not summed
            return np.einsum("ij->j", buf[: hi - lo + 1])
        finally:
            free.append((scratch, buf))

    submit = (_INLINE if pool is None else pool).submit
    running = Future()
    running.set_result(np.zeros(draws.mu.size))  # as the reduction's, the sum starts at zero
    pending = deque()  # tasks submitted and not yet known to be summed
    try:
        for k in range(_mean_slices(n)):
            if len(pending) == _MEAN_PENDING:
                pending.popleft().result()
            running = submit(add_slice, k, running)
            pending.append(running)
        return running.result() / n
    finally:
        for future in pending:
            future.cancel()


def tangent_gaussian_sample(direction, sigma: float, n: int, seed: int) -> np.ndarray:
    """n unit vectors: normalize(direction + tangent noise), noise ~ N(0, sigma^2).

    Returns an (n, d) array, the one-seed call of `TangentDraws.draw`.
    sigma = 0 repeats the direction exactly. Raises as `TangentDraws` and its draw.
    """
    draws = TangentDraws(direction, sigma, n)
    out = np.empty((n, 1, draws.mu.size))
    return draws.draw((seed,), 0, out, draws.scratch(n, 1))[:, 0]
