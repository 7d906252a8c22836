"""The stacked registration pass against the per-scene loop it replaced.

reference.register is the per-scene registration as it stood before the
stacked pass: one frame solve, chart and set of sphere coordinates per
scene, with a Python loop over scenes. The stacked pass must reproduce it
bit for bit (units, axes, skipped and flipped ids) and raise the same
exception for the first degenerate scene.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opshape.geometry
import reference as ref
from opshape.errors import (
    DegenerateFrame,
    DegeneratePoint,
    EmptySample,
    InvalidLandmark,
    MixedOrientationWarning,
)
from opshape.geometry import (
    DET_RTOL,
    UNIT_ATOL,
    FrameSpec,
    LandmarkScene,
    LandmarkStudy,
    canonical_axis,
    chart_coordinates,
    frame_charts,
    register_points,
)
from opshape.pipeline import register_scenes
from opshape.synth import synthesize_views


# ---- studies -------------------------------------------------------------------


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

    units, ids, skipped, flipped = ref.register(scenes, spec, skip_degenerate=True)
    sample, got_skipped, got_flipped = stacked_register(scenes, spec, True)
    assert len(skipped) >= 10 and len(flipped) >= 8  # the study exercises every mask
    assert list(sample.scene_ids) == ids
    assert got_skipped == skipped
    assert got_flipped == flipped
    ref.assert_same_bits(sample.units, units)
    axes = np.stack([[ref.axis(block) for block in row] for row in units])
    ref.assert_same_bits(canonical_axis(sample.units), axes)

    with pytest.raises((DegenerateFrame, DegeneratePoint)) as expected:
        ref.register(scenes, spec)
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

    units, ids, skipped, flipped = ref.register(scenes, spec, skip_degenerate=True)
    sample, got_skipped, got_flipped = stacked_register(stacked, spec, True)
    assert list(sample.scene_ids) == ids
    assert (got_skipped, got_flipped) == (skipped, flipped)
    ref.assert_same_bits(sample.units, units)

    with pytest.raises((DegenerateFrame, DegeneratePoint)) as expected:
        ref.register(scenes, spec)
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
        ref.register(scenes, spec)
    with pytest.raises(DegenerateFrame) as got:
        stacked_register(scenes, spec, False)
    assert str(got.value) == str(expected.value)
    _, skipped, _ = stacked_register(scenes, spec, True)
    assert skipped == ["first-bad", "later-bad"]


# labels 1-3 overflow the frame solve; label 5 of FAR overflows only its
# image's norm, under a finite chart of a small frame
HUGE = np.array([[1e308, 1e308], [-1e308, 1e308], [1e308, -1e308], [0.0, 0.0], [1.0, 1.0]])
FAR = np.array([[0.0, 0.0], [1e-3, 0.0], [3e-4, 4e-4], [0.0, 1e-3], [1e152, 0.0]])


def test_coordinates_that_overflow_fail_their_scene():
    scenes = pixel_study(5, 12, 3, defects=False)
    scenes[2] = LandmarkScene("huge", HUGE)
    scenes[5] = LandmarkScene("far", FAR)
    spec = FrameSpec((1, 2, 4, 3), (5,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow warns nothing
        with pytest.raises(DegenerateFrame, match="'huge': frame scalars or chart overflow"):
            stacked_register(scenes, spec, False)
        with pytest.raises(DegeneratePoint, match="'far': point maps to zero, or overflows"):
            stacked_register(scenes[3:], spec, False)
        sample, skipped, flipped = stacked_register(scenes, spec, True)
    assert skipped == ["huge", "far"]
    with np.errstate(over="ignore", invalid="ignore"):
        units, ids, ref_skipped, ref_flipped = ref.register(scenes, spec, skip_degenerate=True)
    assert (list(sample.scene_ids), skipped, flipped) == (ids, ref_skipped, ref_flipped)
    ref.assert_same_bits(sample.units, units)


def test_frame_charts_fail_frames_that_overflow():
    # HUGE's frame solves to NaN scalars; a subnormal unit point to finite
    # scalars whose chart overflows
    lifted_huge = np.hstack([HUGE[[0, 1, 3, 2]], np.ones((4, 1))])
    subnormal = np.vstack([np.eye(3), np.full((1, 3), 1e-310)])
    plain = np.hstack([FAR[[0, 1, 3, 2]], np.ones((4, 1))])
    frames = np.stack([lifted_huge, subnormal, plain])
    with np.errstate(over="ignore", invalid="ignore"):
        charts = frame_charts(frames)
        for i, reps in enumerate(frames):
            try:
                h, flip = ref.chart(reps)
            except DegenerateFrame as exc:
                assert str(charts.errors[i]) == str(exc)
                continue
            assert (i, charts.flipped[i]) == (2, flip)
            ref.assert_same_bits(charts.matrix[i], h)
    assert sorted(charts.errors) == [0, 1]
    assert "overflow" in str(charts.errors[1])


def test_mixed_scene_sizes_raise_invalid_landmark():
    short = synthesize_views(k=5, cameras=3, seed=21, delta=0.02, noise=0.002)
    long = synthesize_views(k=7, cameras=3, seed=22, delta=0.02, noise=0.002)
    scenes = [LandmarkScene(f"{s.scene_id}a", s.points) for s in short]
    scenes += [LandmarkScene(f"{s.scene_id}b", s.points) for s in long]
    with pytest.raises(InvalidLandmark, match=r"one \(k, m\) shape, got \[\(5, 2\), \(7, 2\)\]"):
        register_scenes(scenes, FrameSpec((1, 2, 4, 3), (5,)))
    # an empty list has nothing to stack: no scene was registered, so none failed
    with pytest.raises(EmptySample, match="^no scenes to register$"):
        register_scenes([], FrameSpec((1, 2, 4, 3), (5,)))


def test_register_points_fails_an_off_unit_row_after_its_frame_reason(monkeypatch):
    # rows 1 and 2 register off unit norm, and row 2's frame is collinear:
    # row 1 becomes a DegeneratePoint, row 2 keeps its DegenerateFrame
    def off_unit(matrix, points):
        units, vanished = chart_coordinates(matrix, points)
        units[[1, 2], 0] *= 1.0 + 1e-9
        return units, vanished

    points = np.stack([v.points for v in synthesize_views(k=5, cameras=4, seed=9, delta=0.01)])
    points[2] = on_line(points[2], 4, 1, 2, 0.5)
    want, _, no_errors = register_points(points[[0, 3]], FrameSpec())
    monkeypatch.setattr(opshape.geometry, "chart_coordinates", off_unit)
    units, _, errors = register_points(points, FrameSpec())
    assert (no_errors, sorted(errors)) == ({}, [1, 2])
    assert type(errors[1]) is DegeneratePoint
    assert str(errors[1]) == f"registered vector is not unit norm within {UNIT_ATOL}"
    assert type(errors[2]) is DegenerateFrame
    assert "singular" in str(errors[2])
    ref.assert_same_bits(units[[0, 3]], want)


def test_registration_checks_unit_norms_once(monkeypatch):
    # register_points' unit-norm pass is the only one: the sample it becomes,
    # and the samples taken from that, are not checked again
    passes = []
    real_off_unit, real_check = opshape.geometry._off_unit, opshape.geometry.check_unit_norm
    monkeypatch.setattr(opshape.geometry, "_off_unit", lambda u: passes.append("_off_unit") or real_off_unit(u))
    monkeypatch.setattr(opshape.geometry, "check_unit_norm", lambda u: passes.append("check") or real_check(u))
    views = synthesize_views(k=6, cameras=8, seed=4, delta=0.01)
    sample = register_scenes(views, FrameSpec((1, 2, 4, 3), (5, 6)))[0]
    assert sample.n == 8
    sample.subset(sample.scene_ids[2:]).without(0)
    assert passes == ["_off_unit"]
    # a sample built from outside data is checked, and an off-unit row raises
    units = sample.units.copy()
    units[3, 1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="unit norm"):
        opshape.geometry.DirectionSample(units)
    assert passes == ["_off_unit", "check", "_off_unit"]


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_frame_charts_match_single_frame_solves(name):
    study, _ = STUDIES[name]
    frames = np.stack([[ref.lifted(scene, j) for j in (1, 2, 4, 3)] for scene in study()])
    charts = frame_charts(frames)
    for i, reps in enumerate(frames):
        try:
            h, flip = ref.chart(reps)
        except DegenerateFrame as exc:
            assert str(charts.errors[i]) == str(exc)
            continue
        assert i not in charts.errors
        assert charts.flipped[i] == flip
        ref.assert_same_bits(charts.matrix[i], h)



def near_singular(rng, ratio):
    """Four points whose basis 1, 2, 3 has |det U| about `ratio` times the
    DET_RTOL bound: point 3 sits that far off the line through 1 and 2."""
    pts = rng.uniform(-1.0, 1.0, size=(4, 2)) * 10.0 ** rng.uniform(0, 4)
    edge = pts[1] - pts[0]
    length = float(np.hypot(*edge))
    pts[2] = pts[0] + rng.uniform(-1.0, 2.0) * edge
    norms = np.prod(np.hypot(np.hypot(pts[:3, 0], pts[:3, 1]), 1.0))
    # det U is the cross product of edge and pts[2] - pts[0]
    pts[2] += ratio * DET_RTOL * norms / length * np.array([-edge[1], edge[0]]) / length
    return pts


@st.composite
def frames(draw):
    """One frame, four lifted points (4, 3): random, on an integer lattice
    with exact zeros, at pixel scale (1e2-1e4) or with |det U| within 2x of
    the DET_RTOL bound, either side of it; mirrored or not."""
    kind = draw(st.sampled_from(["random", "lattice", "pixel", "near_singular"]))
    if kind == "lattice":
        pts = np.array(draw(st.lists(st.integers(-3, 3), min_size=8, max_size=8)), float)
        pts = pts.reshape(4, 2)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "random":
            pts = rng.normal(size=(4, 2))
        elif kind == "pixel":
            pts = rng.uniform(1e2, 1e4, size=(4, 2))
        else:
            ratio = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
            pts = near_singular(rng, ratio)
    if draw(st.booleans()):
        pts[:, 0] = -pts[:, 0]  # mirrored: the orientation flips
    return np.hstack([pts, np.ones((4, 1))])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(frames(), min_size=1, max_size=8))
def test_flip_rule_matches_the_chart_determinant(stack):
    """frame_charts flips by the sign of det U * prod sign(lam); on every
    frame that passes, that is reference.chart's det H <= 0 rule, and the
    chart it returns has det > 0."""
    charts = frame_charts(np.stack(stack))
    for i, reps in enumerate(stack):
        try:
            h, flip = ref.chart(reps)
        except DegenerateFrame as exc:
            assert str(charts.errors[i]) == str(exc)
            continue
        assert i not in charts.errors
        assert bool(charts.flipped[i]) == flip
        ref.assert_same_bits(charts.matrix[i], h)
        assert np.linalg.det(charts.matrix[i]) > 0.0


def test_flip_rule_holds_on_a_large_stack():
    """On 20,000 frames of every kind above, each good chart has det > 0.
    A chart is ±H bit for bit and det(-H) = -det(H) exactly for d = 3, so
    this is the det H <= 0 rule frame by frame, in one stacked call."""
    rng = np.random.default_rng(24)
    n = 5000
    pts = np.concatenate([
        rng.normal(size=(n, 4, 2)),
        rng.integers(-3, 4, size=(n, 4, 2)).astype(float),
        rng.uniform(1e2, 1e4, size=(n, 4, 2)),
        np.stack([near_singular(rng, r) for r in rng.uniform(0.5, 2.0, n) * rng.choice([-1, 1], n)]),
    ])
    mirrored = rng.random(len(pts)) < 0.5
    pts[mirrored, :, 0] *= -1.0
    charts = frame_charts(np.concatenate([pts, np.ones(pts.shape[:2] + (1,))], axis=2))
    good = np.ones(len(pts), dtype=bool)
    good[list(charts.errors)] = False
    assert good.sum() > 3 * n and charts.flipped[good].any() and not charts.flipped[good].all()
    assert (np.linalg.det(charts.matrix[good]) > 0.0).all()

def test_chart_coordinates_match_single_point_calls():
    rng = np.random.default_rng(5)
    charts = []
    while len(charts) < 40:
        reps = np.hstack([rng.uniform(1e2, 1e4, size=(4, 2)), np.ones((4, 1))])
        try:
            h, _ = ref.chart(reps)
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
                expect = ref.coordinate(charts[i], points[i, j])
            except DegeneratePoint:
                assert vanished[i, j]
                continue
            assert not vanished[i, j]
            ref.assert_same_bits(units[i, j], expect)
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
    expect = np.stack([ref.axis(r) for r in rows])
    ref.assert_same_bits(canonical_axis(rows), expect)
    blocks = rows.reshape(16, 4, 4)
    ref.assert_same_bits(canonical_axis(blocks), expect.reshape(16, 4, 4))
    ref.assert_same_bits(canonical_axis(rows[4]), expect[4])


@pytest.mark.parametrize("frame", [(1, 2, 4, 3), (1, 2, 3, 4, 5)])
def test_registration_is_planar_only(frame):
    """Scenes of (k, 3) points raise InvalidLandmark, whether or not the
    frame has the m + 2 labels their dimension would need."""
    rng = np.random.default_rng(3)
    scenes = [LandmarkScene(str(i), rng.normal(size=(6, 3))) for i in range(4)]
    with pytest.raises(InvalidLandmark, match="registration is planar"):
        register_scenes(scenes, FrameSpec(frame, (6,)))
