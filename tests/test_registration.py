"""The stacked registration pass against the per-scene loop it replaced.

`reference_register` is the per-scene registration as it stood before the
stacked pass: one frame solve, chart and set of sphere coordinates per
scene, with a Python loop over scenes. The stacked pass must reproduce it
bit for bit (units, axes, skipped and flipped ids) and raise the same
exception for the first degenerate scene.
"""

import warnings

import numpy as np
import pytest

from opshape.errors import (
    DegenerateFrame,
    DegeneratePoint,
    InvalidLandmark,
    MixedOrientationWarning,
)
from opshape.geometry import (
    DET_RTOL,
    POINT_RTOL,
    SCALAR_RTOL,
    FrameSpec,
    LandmarkScene,
    LandmarkStudy,
    canonical_axis,
    chart_coordinates,
    frame_charts,
)
from opshape.pipeline import register_scenes
from opshape.synth import synthesize_views


# ---- the per-scene reference ---------------------------------------------------


def ref_chart(reps):
    """(H, flipped) of one frame, or DegenerateFrame."""
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
    adjusted = basis * np.sign(lam)[None, :]
    h = np.diag(1.0 / np.abs(lam)) @ np.linalg.inv(adjusted)
    if np.linalg.det(h) <= 0.0:
        return -h, True
    return h, False


def ref_coordinate(h, x):
    y = h @ x
    norm = float(np.linalg.norm(y))
    if norm <= POINT_RTOL * float(np.linalg.norm(h)) * float(np.linalg.norm(x)):
        raise DegeneratePoint("point maps to zero under the frame chart")
    return y / norm


def ref_axis(vector):
    v = np.asarray(vector, dtype=np.float64).ravel()
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return v.copy()
    for x in v:
        if abs(x) > 1e-12 * scale:
            return -v if x < 0.0 else v.copy()
    return v.copy()


def lifted(scene, label):
    return np.concatenate([scene.point(label), [1.0]])


def reference_register(scenes, spec, skip_degenerate=False):
    units, ids, skipped, flipped = [], [], [], []
    for scene in scenes:
        try:
            h, flip = ref_chart(np.stack([lifted(scene, j) for j in spec.frame_labels]))
            dirs = np.stack([ref_coordinate(h, lifted(scene, j)) for j in spec.remaining_labels])
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


# ---- studies -------------------------------------------------------------------


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.array_equal(a, b)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def pixel_study(k, cameras, seed, defects=True):
    """Synthetic views at pixel scale (coordinates 1e2-1e4), some mirrored,
    with collinear-frame and unit-point-on-a-frame-line scenes mixed in
    unless not `defects`."""
    views = synthesize_views(k=k, cameras=cameras, seed=seed, delta=0.02, noise=0.002)
    rng = np.random.default_rng(seed)
    scenes = []
    for i, view in enumerate(views):
        pts = view.points * rng.uniform(1e3, 2e4) + rng.uniform(2e3, 4e3, size=2)
        if i % 5 == 2:
            pts[:, 0] = 1e4 - pts[:, 0]  # mirror: the chart flips its sign
        if defects and i % 7 == 3:
            # frame basis 1, 2, 4 on one line
            pts = on_line(pts, 4, 1, 2, rng.uniform(0.2, 0.8))
        if defects and i % 11 == 6:
            # unit point 3 on the line through 1 and 2: the scalar of 4 vanishes
            pts = on_line(pts, 3, 1, 2, rng.uniform(0.2, 0.8))
        scenes.append(LandmarkScene(view.scene_id, pts))
    return scenes


def lattice_study(cameras, seed):
    """k=5 scenes on a pixel lattice: axis-parallel frames whose charts and
    images hold exact zeros, so a sign of zero that differs shows."""
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(cameras):
        corner, side = rng.integers(1, 50) * 100.0, rng.integers(1, 50) * 100.0
        steps = rng.integers(-4, 5, size=(2, 2)) * side / 4
        pts = np.array([[0, 0], [side, 0], steps[0], [0, side], steps[1]]) + corner
        if i % 3 == 1:
            pts[:, 1] = 2e4 - pts[:, 1]  # mirrored
        scenes.append(LandmarkScene(str(i + 1), pts))
    return scenes


STUDIES = {
    "k5_q1": (lambda: pixel_study(5, 60, 11), (5,)),
    "k7_q3": (lambda: pixel_study(7, 90, 12), (5, 6, 7)),
    "lattice": (lambda: lattice_study(80, 13), (5,)),
}


def stacked_register(scenes, spec, skip_degenerate):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MixedOrientationWarning)
        return register_scenes(scenes, spec, skip_degenerate)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_stacked_registration_matches_per_scene_loop(name):
    study, remaining = STUDIES[name]
    scenes = study()
    spec = FrameSpec((1, 2, 4, 3), remaining)

    units, ids, skipped, flipped = reference_register(scenes, spec, skip_degenerate=True)
    sample, got_skipped, got_flipped = stacked_register(scenes, spec, True)
    assert len(skipped) >= 10 and len(flipped) >= 8  # the study exercises every mask
    assert list(sample.scene_ids) == ids
    assert got_skipped == skipped
    assert got_flipped == flipped
    assert_same_bits(sample.units, units)
    axes = np.stack([[ref_axis(block) for block in row] for row in units])
    assert_same_bits(canonical_axis(sample.units), axes)

    with pytest.raises((DegenerateFrame, DegeneratePoint)) as expected:
        reference_register(scenes, spec)
    with pytest.raises(expected.type) as got:
        stacked_register(scenes, spec, False)
    assert str(got.value) == str(expected.value)
    assert type(got.value.__cause__) is type(expected.value.__cause__)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_study_stack_registers_like_the_per_scene_loop(name):
    # a LandmarkStudy hands its stack to register_points without a scene list
    study, remaining = STUDIES[name]
    scenes = study()
    stacked = LandmarkStudy([s.scene_id for s in scenes], np.stack([s.points for s in scenes]))
    spec = FrameSpec((1, 2, 4, 3), remaining)

    units, ids, skipped, flipped = reference_register(scenes, spec, skip_degenerate=True)
    sample, got_skipped, got_flipped = stacked_register(stacked, spec, True)
    assert list(sample.scene_ids) == ids
    assert (got_skipped, got_flipped) == (skipped, flipped)
    assert_same_bits(sample.units, units)

    with pytest.raises((DegenerateFrame, DegeneratePoint)) as expected:
        reference_register(scenes, spec)
    with pytest.raises(expected.type) as got:
        stacked_register(stacked, spec, False)
    assert str(got.value) == str(expected.value)
    with pytest.raises(InvalidLandmark, match="has no landmark 9"):
        stacked_register(stacked, FrameSpec((1, 2, 4, 3), (9,)), False)


def on_line(pts, label, a, b, t):
    """Copy of pts with landmark `label` moved onto the line through a and b."""
    out = np.array(pts)
    out[label - 1] = out[a - 1] + t * (out[b - 1] - out[a - 1])
    return out


@pytest.mark.parametrize("first, later", [(4, 3), (3, 4)])
def test_first_offender_raises_reference_message(first, later):
    # label 4 on line 1-2 makes the frame singular, label 3 a vanishing scalar
    scenes = pixel_study(5, 12, 3, defects=False)
    scenes[4] = LandmarkScene("first-bad", on_line(scenes[4].points, first, 1, 2, 0.5))
    scenes[7] = LandmarkScene("later-bad", on_line(scenes[7].points, later, 1, 2, 0.5))
    spec = FrameSpec((1, 2, 4, 3), (5,))
    with pytest.raises(DegenerateFrame, match="first-bad") as expected:
        reference_register(scenes, spec)
    with pytest.raises(DegenerateFrame) as got:
        stacked_register(scenes, spec, False)
    assert str(got.value) == str(expected.value)
    _, skipped, _ = stacked_register(scenes, spec, True)
    assert skipped == ["first-bad", "later-bad"]


def test_mixed_scene_sizes_register_like_the_loop():
    short = synthesize_views(k=5, cameras=6, seed=21, delta=0.02, noise=0.002)
    long = synthesize_views(k=7, cameras=6, seed=22, delta=0.02, noise=0.002)
    scenes = [LandmarkScene(f"{s.scene_id}a", s.points) for s in short]
    scenes += [LandmarkScene(f"{s.scene_id}b", s.points) for s in long]
    scenes = scenes[::2] + scenes[1::2]  # k=5 and k=7 scenes interleaved
    spec = FrameSpec((1, 2, 4, 3), (5,))
    units, ids, _, _ = reference_register(scenes, spec)
    sample, _, _ = stacked_register(scenes, spec, False)
    assert list(sample.scene_ids) == ids
    assert_same_bits(sample.units, units)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_frame_charts_match_single_frame_solves(name):
    study, _ = STUDIES[name]
    frames = np.stack([[lifted(scene, j) for j in (1, 2, 4, 3)] for scene in study()])
    charts = frame_charts(frames)
    for i, reps in enumerate(frames):
        try:
            h, flip = ref_chart(reps)
        except DegenerateFrame as exc:
            assert str(charts.errors[i]) == str(exc)
            continue
        assert i not in charts.errors
        assert charts.flipped[i] == flip
        assert_same_bits(charts.matrix[i], h)


def test_chart_coordinates_match_single_point_calls():
    rng = np.random.default_rng(5)
    charts = []
    while len(charts) < 40:
        reps = np.hstack([rng.uniform(1e2, 1e4, size=(4, 2)), np.ones((4, 1))])
        try:
            h, _ = ref_chart(reps)
        except DegenerateFrame:
            continue
        charts.append(h)
    charts = np.stack(charts)
    points = np.concatenate([rng.uniform(1e2, 1e4, size=(40, 3, 2)), np.ones((40, 3, 1))], axis=2)
    points[::4, 1] = 0.0  # maps to zero under any chart
    units, vanished = chart_coordinates(charts, points)
    for i in range(40):
        for j in range(3):
            try:
                expect = ref_coordinate(charts[i], points[i, j])
            except DegeneratePoint:
                assert vanished[i, j]
                continue
            assert not vanished[i, j]
            assert_same_bits(units[i, j], expect)
    assert vanished.sum() == 10


def test_stacked_canonical_axis_matches_per_row_calls():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(64, 4)) * 10.0 ** rng.uniform(-3, 3, size=(64, 1))
    rows[rng.random(rows.shape) < 0.25] = 0.0
    rows[0] = 0.0
    rows[1] = [-0.0, 0.0, -0.0, 0.0]
    rows[2] = [-1e-13, 2e-13, 1.0, -0.5]  # leading entries below 1e-12 * scale
    rows[3] = [-1e-12, 0.5, -1.0, 0.25]  # exactly 1e-12 * scale: not significant
    rows[4] = [-1.0000001e-12, 0.5, -1.0, 0.25]  # just above: flips
    rows[5] = [0.0, -3.0, 1.0, 2.0]
    rows[6] = [1e-300, -1e-300, 0.0, 0.0]
    expect = np.stack([ref_axis(r) for r in rows])
    assert_same_bits(canonical_axis(rows), expect)
    blocks = rows.reshape(16, 4, 4)
    assert_same_bits(canonical_axis(blocks), expect.reshape(16, 4, 4))
    assert_same_bits(canonical_axis(rows[4]), expect[4])
