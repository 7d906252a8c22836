"""Slow reference implementations that the tests hold the package to.

Each concept is computed here once, the direct way: the splitmix64 stream
one word at a time, one scene or one sample at a time, every deletion by
row indexing and an exact test, every greedy candidate and every pair by
brute force. The fast paths must give their bits, except where another
algorithm is the point (numpy's eigh against the comparator's Jacobi
sweeps) and in test_reference_pipeline.py, which holds a whole analyze run
to golden.json's tolerance. A summary's scalar statistics (normal and
chi-square tails, quantile, interval) are the package's units_summary,
which test_directional holds to scipy and mpmath.
"""

import csv
import dataclasses
import io
import itertools
import math

import mpmath
import numpy as np

from opshape import synth
from opshape.diagnostics import LeaveOneOutRow, ReductionStep, ReductionTrace, _scene_order_key
from opshape.directional import FOCAL_TOL, ZERO_TOL, _dispersion_and_se, normal_quantile, units_summary
from opshape.errors import BehindCamera, DegenerateFrame, DegeneratePoint, EmptySample, FocalMean
from opshape.errors import GenerationFailed, InvalidLevel, OpshapeError
from opshape.geometry import DET_RTOL, POINT_RTOL, SCALAR_RTOL, UNIT_ATOL, DirectionSample, LandmarkScene
from opshape.rng import SplitMix64
from opshape.vw import EIGENGAP_TOL

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
# golden.json's tolerance for floats that another computation reproduces
RTOL, ATOL = 1e-9, 1e-12


# ---- comparing results --------------------------------------------------------------


def _nan_bits(values):
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), np.uint64(0x7FF8000000000000), values.view(np.uint64))


def assert_same_bits(got, want, where="value", any_nan=False):
    """got and want hold the same values bit for bit: arrays of one dtype,
    shape and bytes (so -0.0 is not 0.0), containers and dataclasses item by
    item, anything else of one type and repr. With any_nan both are read as
    float64 arrays, and a NaN matches another library's NaN of any payload."""
    if any_nan:
        got, want = _nan_bits(got), _nan_bits(want)
        assert got.shape == want.shape, where
        bad = np.flatnonzero(got != want)
        assert bad.size == 0, (where, [(i, got.flat[i], want.flat[i]) for i in bad[:5].tolist()])
        return
    assert type(got) is type(want), (where, type(got), type(want))
    if isinstance(want, (np.ndarray, np.generic)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), where
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_bits(g, w, f"{where}[{i}]")
    elif dataclasses.is_dataclass(want):
        for field in dataclasses.fields(want):
            name = field.name
            assert_same_bits(getattr(got, name), getattr(want, name), f"{where}.{name}")
    else:
        assert repr(got) == repr(want), where


def assert_close(got, want, where="value"):
    """JSON-like values equal: dict keys in one order, ids, flags, counts and
    strings exactly, finite floats within RTOL or ATOL, others by repr."""
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and isinstance(got, float):
        if math.isfinite(want):
            assert math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL), (where, got, want)
        else:
            assert repr(got) == repr(want), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def _comparable(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.str, value.shape, value.tobytes()
    if type(value) in (list, tuple):
        return type(value)(map(_comparable, value))
    return value


def outcome(call, *args, errors=(OpshapeError, ValueError)):
    """What call(*args) returns, arrays as (dtype, shape, bytes), or the
    type, message and line of the error of `errors` it raises."""
    try:
        return _comparable(call(*args))
    except errors as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def json_native(value):
    """The value as JSON holds it: arrays, tuples and dataclasses as lists and
    dicts, numpy scalars as Python ones, and non-finite floats as None."""
    if dataclasses.is_dataclass(value):
        return {f.name: json_native(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: json_native(item) for key, item in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        return json_native(value.tolist())
    if isinstance(value, (list, tuple)):
        return [json_native(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def csv_writer_bytes(header, rows):
    """The CSV bytes of a csv.writer row loop: each float through
    format(v, ".17g"), anything else through str."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().encode("utf-8")


def read_csv(path):
    """(header, rows) of a CSV file, by csv.reader."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


# ---- splitmix64 and Box-Muller ------------------------------------------------------


def splitmix64(seed, count, start=0):
    """Words start .. start+count-1 of seed's splitmix64 stream, by the scalar recurrence."""
    out = []
    state = (int(seed) + start * GOLDEN) & MASK
    for _ in range(count):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def unit_interval(words):
    """The top 53 bits of each word over 2^53: doubles in [0, 1)."""
    return np.array([(w >> 11) / float(1 << 53) for w in words], dtype=np.float64)


def normal_pairs(seeds, m, lo, hi, start=0):
    """Box-Muller pairs lo .. hi-1 of a draw of m pairs per seed, shape (R, 2*(hi-lo)):
    pair j is r (cos 2 pi u2, sin 2 pi u2), r = sqrt(-2 log(1 - u1)), with u1
    from word start+j and u2 from word start+m+j."""
    rows = []
    for seed in seeds:
        r = np.sqrt(-2.0 * np.log(1.0 - unit_interval(splitmix64(seed, hi - lo, start + lo))))
        angle = 2.0 * np.pi * unit_interval(splitmix64(seed, hi - lo, start + m + lo))
        rows.append(np.column_stack([r * np.cos(angle), r * np.sin(angle)]).ravel())
    return np.array(rows, dtype=np.float64).reshape(len(seeds), 2 * (hi - lo))


def normals(seed, count, start=0):
    """count normals of a generator at counter start: ceil(count / 2) pairs, cut to count."""
    m = (count + 1) // 2
    return normal_pairs([seed], m, 0, m, start)[0, :count]


def normal_cdf(z):
    """The standard normal CDF at z, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        return float(0.5 * mpmath.erfc(-z / mpmath.sqrt(2)))


# ---- draws on the sphere ----------------------------------------------------------


def unit_draws(mu, basis, draws, sigma):
    """normalize(mu + (sigma * draws) @ basis), broadcasting over the last axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (sigma * draws) @ basis
        raw += mu
        squares = raw[..., 0] * raw[..., 0]
        for j in range(1, mu.size):
            squares += raw[..., j] * raw[..., j]
        norms = np.sqrt(squares)
    if not np.all((norms > 0.0) & (norms < math.inf)):
        raise GenerationFailed(
            f"sigma {sigma:g} is too large: a tangent draw's norm is not finite and positive"
        )
    raw /= norms[..., None]
    return raw


def tangent_draws(direction, sigma, n, seed):
    """n tangent-Gaussian unit vectors about direction from one generator."""
    mu = np.asarray(direction, dtype=np.float64)
    mu = mu / float(np.linalg.norm(mu))
    d = mu.size
    return unit_draws(mu, synth._tangent_basis(mu), normals(seed, n * (d - 1)).reshape(n, d - 1), sigma)


def row_sum(x):
    """Sum of the rows of a 2-D array, added one row at a time in order to a zero start."""
    total = np.zeros(x.shape[1])
    for row in x:
        total = total + row
    return total


def mean_bounds(n, size):
    """(lo, hi) rows of each slice of an n-draw oracle mean, size rows each,
    by walking the rows: a one-row last slice joins the slice before it."""
    bounds, lo = [], 0
    while lo < n:
        hi = min(lo + size, n)
        if hi == n - 1:
            hi = n
        bounds.append((lo, hi))
        lo = hi
    return bounds


def check_unit_norm(units):
    """ValueError naming the worst distance when some row is not unit norm."""
    off = np.abs(np.linalg.norm(units, axis=-1) - 1.0)
    if not np.all(off <= UNIT_ATOL):
        worst = float(np.max(off))
        raise ValueError(f"vectors must be unit norm within {UNIT_ATOL} (off by {worst:.3e})")


# ---- registration, one scene at a time ----------------------------------------------


def solve_by_elimination(a, b):
    """Gaussian elimination with partial pivoting, in Python floats."""
    a = [list(map(float, row)) for row in a]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) < 1e-14:
            raise ZeroDivisionError("singular")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return x


def chart(reps):
    """(H, flipped) of one frame of homogeneous representatives, or DegenerateFrame."""
    d = reps.shape[1]
    basis = reps[:d].T
    unit = reps[d]
    col_norms = np.linalg.norm(basis, axis=0)
    if np.any(col_norms == 0.0):
        raise DegenerateFrame("zero frame representative")
    det = np.linalg.det(basis)
    if abs(det) < DET_RTOL * float(np.prod(col_norms)):
        raise DegenerateFrame(f"frame matrix is numerically singular (det={det:.3e})")
    lam = np.linalg.solve(basis, unit)
    scale = float(np.max(np.abs(lam)))
    if scale == 0.0 or np.any(np.abs(lam) < SCALAR_RTOL * scale):
        raise DegenerateFrame("a frame scalar vanishes; unit point lies on a frame hyperplane")
    overflow = DegenerateFrame("frame scalars or chart overflow float64; coordinates too large")
    if not np.isfinite(lam).all():
        raise overflow
    adjusted = basis * np.sign(lam)[None, :]
    h = np.diag(1.0 / np.abs(lam)) @ np.linalg.inv(adjusted)
    if not np.isfinite(h).all():
        raise overflow
    if np.linalg.det(h) <= 0.0:
        return -h, True
    return h, False


def coordinate(h, x):
    """The unit vector of one representative x under the chart h, or DegeneratePoint."""
    y = h @ x
    norm = float(np.linalg.norm(y))
    if norm <= POINT_RTOL * float(np.linalg.norm(h)) * float(np.linalg.norm(x)) or not np.isfinite(norm):
        raise DegeneratePoint("point maps to zero, or overflows, under the frame chart")
    return y / norm


def axis(vector):
    """vector with the sign that makes its first entry above 1e-12 of its largest positive."""
    v = np.asarray(vector, dtype=np.float64).ravel()
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return v.copy()
    for x in v:
        if abs(x) > 1e-12 * scale:
            return -v if x < 0.0 else v.copy()
    return v.copy()


def angle(u, m):
    """The angle between the directions of u and m, by mpmath at 50 digits."""
    with mpmath.workdps(50):
        u = [mpmath.mpf(float(x)) for x in u]
        m = [mpmath.mpf(float(x)) for x in m]
        dot = mpmath.fsum(a * b for a, b in zip(u, m))
        norms = mpmath.sqrt(mpmath.fsum(a * a for a in u) * mpmath.fsum(b * b for b in m))
        return float(mpmath.acos(max(-1, min(1, dot / norms))))


def lifted(scene, label):
    """Landmark `label` of a scene as the homogeneous representative (x, y, 1)."""
    return np.concatenate([scene.points[label - 1], [1.0]])


def register(scenes, spec, skip_degenerate=False):
    """(units (n, q, d), ids, skipped ids, flipped ids) by one chart per scene;
    the first degenerate scene's error, naming it, unless skip_degenerate."""
    units, ids, skipped, flipped = [], [], [], []
    for scene in scenes:
        try:
            h, flip = chart(np.stack([lifted(scene, j) for j in spec.frame_labels]))
            dirs = np.stack([coordinate(h, lifted(scene, j)) for j in spec.remaining_labels])
        except (DegenerateFrame, DegeneratePoint) as exc:
            if skip_degenerate:
                skipped.append(scene.scene_id)
                continue
            raise type(exc)(f"scene {scene.scene_id!r}: {exc}") from exc
        if flip:
            flipped.append(scene.scene_id)
        units.append(dirs)
        ids.append(scene.scene_id)
    return np.stack(units), ids, skipped, flipped


# ---- moments and summaries, one sample at a time -----------------------------------


def moments(units):
    """(mean, resultant, ts, se, focal) of one (n, q, d) sample: mean(axis=0),
    np.linalg.norm, one gemv and one dot."""
    n = units.shape[0]
    mean = units.mean(axis=0)
    r = np.linalg.norm(mean, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grad = (-2.0 * mean / r[:, None]).ravel()
        proj = (units.reshape(n, -1) - mean.ravel()) @ grad
        ts, se = _dispersion_and_se(r, np.sqrt(proj @ proj / n / n))
    return mean, r, ts, se, (r < FOCAL_TOL).any()


def summary(units, alpha=0.05, df=None):
    """The OpsSummary of one (n, q, d) sample from `moments` and its covariance."""
    n, q, d = units.shape
    if n < 2:
        raise EmptySample("need at least two scenes to test dispersion")
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    df = (d - 1) * q if df is None else df
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    mean, r, ts, se, focal = moments(units)
    if focal:
        raise FocalMean("focal block mean")
    dev = units.reshape(n, -1) - units.reshape(n, -1).mean(axis=0)
    return units_summary(n, alpha, df, mean, r, ts, se, dev.T @ dev / n)


def monte_carlo(sigma, n, reps, alpha, seed, oracle_draws, dim=3):
    """`opshape mc` as a loop: the oracle, then one sample and one test per replication."""
    mu = np.eye(dim)[-1]
    oracle_seed, *rep_seeds = splitmix64(seed, reps + 1)
    oracle = tangent_draws(mu, sigma, oracle_draws, oracle_seed)
    t_pop = 2.0 * (1.0 - float(np.linalg.norm(oracle.mean(axis=0))))
    tests = []
    for rep_seed in rep_seeds:
        units = tangent_draws(mu, sigma, n, rep_seed)
        check_unit_norm(units)
        tests.append(summary(units[:, None], alpha))
    hits = sum(s.ci[0] <= t_pop <= s.ci[1] for s in tests)
    return dict(
        sigma=sigma, n=n, reps=reps, alpha=alpha, seed=seed, dim=dim, oracle_draws=oracle_draws,
        oracle_total_variance=t_pop, hits=hits, coverage=hits / reps,
        mean_total_variance=float(np.mean([s.total_variance for s in tests])),
        mean_se=float(np.mean([s.se for s in tests])),
    )


# ---- deletions, by brute force ------------------------------------------------------


def drop_rows(units, rows):
    """units without the rows named, by row indexing."""
    keep = np.ones(len(units), dtype=bool)
    keep[list(rows)] = False
    return units[keep]


def leave_one_out(sample, alpha=0.05, df=None):
    """The single-deletion table, one exact test per row; NaN and flagged where focal."""
    rows = []
    for i, sid in enumerate(sample.scene_ids):
        try:
            s = summary(drop_rows(sample.units, [i]), alpha, df)
        except FocalMean:
            nan = math.nan
            rows.append(LeaveOneOutRow(sid, nan, nan, nan, nan, False, True))
            continue
        rows.append(LeaveOneOutRow(sid, s.total_variance, s.se, s.z, s.ci[0], s.degenerate, False))
    return rows


def lower(units, alpha=0.05):
    """The CI lower endpoint ts - z se of one sample, as its summary has it; NaN when focal."""
    _, _, ts, se, focal = moments(units)
    return math.nan if focal else float(ts) - normal_quantile(1.0 - alpha / 2.0) * float(se)


def best_deletion(sample, alpha=0.05, df=None):
    """(row, summary) of the deletion that leaves the highest lower endpoint,
    by an exact test of each; None when every deletion is focal. Ties go to
    the smallest id, and of bitwise-equal rows only the smallest id is a
    candidate, since deleting any of them leaves the same scenes."""
    ids = sample.scene_ids
    first = {}
    for i in sorted(range(sample.n), key=lambda i: _scene_order_key(ids[i])):
        first.setdefault(sample.units[i].tobytes(), i)
    scored = [(-lower(drop_rows(sample.units, [i]), alpha), _scene_order_key(ids[i]), i)
              for i in first.values()]
    scored = [s for s in scored if not math.isnan(s[0])]
    if not scored:
        return None
    i = min(scored)[2]
    return i, summary(drop_rows(sample.units, [i]), alpha, df)


def greedy_reduce(sample, alpha_ref=0.05, max_removals=None, df=None):
    """Greedy removal by an exhaustive exact search over every deletion at each step."""
    max_removals = sample.n // 4 if max_removals is None else max_removals
    current, steps = sample, []
    endpoint = summary(sample.units, alpha_ref, df).ci[0]
    while True:
        if endpoint <= ZERO_TOL:
            reason = "lower_endpoint_nonpositive"
        elif len(steps) >= max_removals:
            reason = "max_removals_reached"
        elif current.n <= 3:
            reason = "min_scenes_reached"
        else:
            best = best_deletion(current, alpha_ref, df)
            reason = "no_improvement" if best is None else None
        if reason:
            return ReductionTrace(tuple(steps), alpha_ref, sample.scene_ids, current.scene_ids, reason)
        i, step = best
        endpoint = step.ci[0]
        steps.append(ReductionStep(current.scene_ids[i], step, endpoint))
        ids = current.scene_ids[:i] + current.scene_ids[i + 1 :]
        current = DirectionSample(drop_rows(current.units, [i]), ids)


def best_pair(sample, alpha=0.05):
    """(sorted id pair, lower endpoint) of the pair deletion that leaves the
    highest endpoint, by an exact test of every pair; ties go to the
    smallest sorted id pair. None when every pair deletion is focal."""
    ids = sample.scene_ids
    scored = []
    for i, j in itertools.combinations(range(sample.n), 2):
        pair = tuple(sorted((ids[i], ids[j]), key=_scene_order_key))
        endpoint = lower(drop_rows(sample.units, [i, j]), alpha)
        scored.append((-endpoint, list(map(_scene_order_key, pair)), pair))
    scored = [s for s in scored if not math.isnan(s[0])]
    if not scored:
        return None
    endpoint, _, pair = min(scored)
    return pair, -endpoint


# ---- the axial comparator -----------------------------------------------------------


def char_poly_eigenvalues(a):
    """3x3 symmetric eigenvalues via the characteristic cubic's roots."""
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
        + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
        + a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    )
    det = np.linalg.det(a)
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)[::-1]


def comparator(axes):
    """The comparator fields of one (n, d) block of axes, by numpy's eigh:
    n, mean projector, top eigenvalue, its axis, the eigengap, the axial
    dispersion 2 (1 - lambda_1) and the focal flag (gap below EIGENGAP_TOL)."""
    unit = axes / np.linalg.norm(axes, axis=1)[:, None]
    mean = np.einsum("ni,nj->ij", unit, unit) / len(axes)
    values, vectors = np.linalg.eigh(mean)
    gap = float(values[-1] - values[-2])
    return {
        "n": len(axes),
        "mean_matrix": mean,
        "top_eigenvalue": float(values[-1]),
        "top_axis": axis(vectors[:, -1]),
        "eigengap": gap,
        "total_variance": max(2.0 * (1.0 - float(values[-1])), 0.0),
        "focal": gap < EIGENGAP_TOL,
    }


# ---- synthetic views, one camera at a time ------------------------------------------


def look_at_rotation(center, target, roll):
    """Rows x, y, z of a camera at center looking at target, rolled about z."""
    z = target - center
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    x = np.cross(up, z)
    if np.linalg.norm(x) < 1e-8:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    c, s = math.cos(roll), math.sin(roll)
    xr = c * x + s * y
    yr = -s * x + c * y
    return np.stack([xr, yr, z])


def random_cameras(n, seed, scene=None, gen=None):
    """n cameras as (center, rotation, focal), seven uniforms a try; a try
    that sees a landmark of scene behind it is drawn again."""
    gen = SplitMix64(seed) if gen is None else gen
    cams = []
    tries = 0
    while len(cams) < n:
        tries += 1
        if tries > synth._MAX_TRIES * n:  # read at each call: tests patch it
            raise GenerationFailed("could not place cameras with positive depth")
        draws = gen.uniforms(7)
        uz = 0.35 + 0.6 * draws[0]
        phi = 2.0 * math.pi * draws[1]
        radius = 3.5 + 1.5 * draws[2]
        rho = math.sqrt(max(1.0 - uz * uz, 0.0))
        center = radius * np.array([rho * math.cos(phi), rho * math.sin(phi), uz])
        target = np.array([0.3 * (draws[3] - 0.5), 0.3 * (draws[4] - 0.5), 0.0])
        roll = 2.0 * math.pi * draws[5]
        focal = 0.8 + 0.7 * draws[6]
        rotation = look_at_rotation(center, target, roll)
        if scene is not None:
            depths = ((scene.points - center) @ rotation.T)[:, 2]
            if np.any(depths < 1e-6):
                continue
        cams.append((center, rotation, focal))
    return cams


def project(camera, scene, scene_id="view"):
    """The image of scene in one camera, or BehindCamera."""
    center, rotation, focal = camera
    cam_coords = (scene.points - center) @ rotation.T
    depths = cam_coords[:, 2]
    if np.any(depths < 1e-6):
        bad = int(np.argmin(depths))
        raise BehindCamera(f"landmark {bad + 1} has depth {depths[bad]:.3e}")
    image = focal * cam_coords[:, :2] / depths[:, None]
    return LandmarkScene(scene_id=scene_id, points=image)


def synthesize_views(k, cameras, seed, delta=0.0, noise=0.0, frame_labels=(1, 2, 4, 3)):
    """synth.synthesize_views one camera, one projection and one noise draw at a time."""
    master = SplitMix64(seed)
    scene_seed, cam_seed, perturb_seed, noise_seed = (master.next_u64() for _ in range(4))
    scene = synth.random_coplanar_scene(k, scene_seed)
    if delta > 0.0:
        scene = synth.perturb_out_of_plane(scene, delta, perturb_seed, frame_labels)
    cams = random_cameras(cameras, cam_seed, scene=scene)
    views = [project(cam, scene, scene_id=str(i + 1)) for i, cam in enumerate(cams)]
    if noise > 0.0:
        ngen = SplitMix64(noise_seed)
        noisy = []
        for view in views:
            jitter = noise * ngen.normals(2 * k).reshape(k, 2)
            noisy.append(LandmarkScene(view.scene_id, view.points + jitter))
        views = noisy
    return views
