import math

import numpy as np
import pytest

import reference as ref
from conftest import register_reps
from opshape.errors import (
    DegenerateFrame,
    EmptySample,
    InvalidLandmark,
)
from opshape.geometry import (
    DirectionSample,
    FrameSpec,
    LandmarkScene,
    canonical_axis,
    chart_coordinates,
    frame_charts,
    register_points,
)
from opshape.pipeline import register_scenes
from opshape.rng import SplitMix64

SQ3 = math.sqrt(3.0)


def unit_square_frame():
    # frame reps (0,0,1),(1,0,1),(0,1,1) with unit point at the centroid
    return np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1 / 3, 1 / 3, 1.0]]
    )


def five_point_scene(last, scene_id="s"):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 1 / 3], list(last)])
    return LandmarkScene(scene_id=scene_id, points=pts)


# ---------- lift ----------------------------------------------------------------

def test_lift_examples():
    # register_points lifts each landmark to (x, 1): its directions are the
    # bits of the charts of the hand-lifted representatives
    scene = five_point_scene((-2.5, 4.0))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    units, flipped, errors = register_points(scene.points[None], spec)
    assert not errors
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1 / 3, 1 / 3, 1.0], [-2.5, 4.0, 1.0]]
    )
    assert units[0].tobytes() == register_reps(reps).tobytes()


# ---------- frame scalars -------------------------------------------------------

def assert_oriented_chart(reps, charts, i=0):
    """Chart i of charts has the defining property of the chart of the frame
    reps, with frame scalars lam from the elimination oracle: up to the
    chart's flip, H sends frame column j times sign(lam_j) to a positive
    multiple of e_j and the unit point to a positive multiple of (1, ..., 1);
    and det H > 0."""
    d = reps.shape[1]
    lam = ref.solve_by_elimination(reps[:d].T, reps[d])
    h = charts.matrix[i]
    sign = -1.0 if charts.flipped[i] else 1.0
    for j in range(d):
        image = sign * (h @ (math.copysign(1.0, lam[j]) * reps[j]))
        target = np.zeros(d)
        target[j] = image[j]
        assert image[j] > 0
        np.testing.assert_allclose(image, target, atol=1e-12 * np.linalg.norm(image))
    image = sign * (h @ reps[d])
    assert np.all(image > 0)
    np.testing.assert_allclose(image, np.full(d, image[0]), rtol=1e-10)
    assert np.linalg.det(h) > 0


def test_frame_scalars_centroid_unit_point():
    reps = unit_square_frame()
    assert ref.solve_by_elimination(reps[:3].T, reps[3]) == pytest.approx([1 / 3] * 3, abs=1e-15)
    charts = frame_charts(reps[None])
    assert_oriented_chart(reps, charts)
    # every scalar is positive: H = 3 U^-1, unflipped
    assert not charts.flipped[0]
    np.testing.assert_allclose(charts.matrix[0], 3.0 * np.linalg.inv(reps[:3].T), atol=1e-15)


def test_frame_scalars_standard_frame():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    charts = frame_charts(reps[None])
    assert_oriented_chart(reps, charts)
    np.testing.assert_array_equal(charts.matrix[0], np.eye(3))


def test_frame_scalars_sign_fix_against_elimination_oracle():
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [3.0, 3.0, 1.0]]
    )
    raw = ref.solve_by_elimination(reps[:3].T, reps[3])
    assert raw == pytest.approx([-5.0, 3.0, 3.0])
    charts = frame_charts(reps[None])
    # H sends the negated column 0, and columns 1 and 2 as they are, to the axes
    assert_oriented_chart(reps, charts)
    # det U = 1 and one negative scalar: diag(1/lam) U^-1 has det < 0, so it is flipped
    assert charts.flipped[0]
    np.testing.assert_allclose(
        charts.matrix[0], -np.diag(1.0 / np.array(raw)) @ np.linalg.inv(reps[:3].T), atol=1e-15
    )


def test_frame_scalars_random_frames_match_oracle():
    # one stacked call: every row is held to the oracle of its own frame
    gen = SplitMix64(801)
    frames = []
    for _ in range(50):
        pts = gen.uniforms(8).reshape(4, 2) * 4.0 - 2.0
        frames.append(np.hstack([pts, np.ones((4, 1))]))
    charts = frame_charts(np.stack(frames))
    assert len(charts.errors) < 5
    assert 0 < charts.flipped.sum() < 50
    for i, reps in enumerate(frames):
        if i not in charts.errors:
            assert_oriented_chart(reps, charts, i)


def test_frame_scalars_collinear_rejected():
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.5, 0.25, 1.0]]
    )
    assert isinstance(frame_charts(reps[None]).errors[0], DegenerateFrame)


def test_frame_scalars_unit_point_on_frame_hyperplane():
    # unit point is an affine combination that zeroes the first scalar
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.5, 0.5, 1.0]]
    )
    assert isinstance(frame_charts(reps[None]).errors[0], DegenerateFrame)


# ---------- normalizing homography ---------------------------------------------

def test_homography_standard_frame_is_identity():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    chart = frame_charts(reps[None])
    np.testing.assert_allclose(chart.matrix[0], np.eye(3), atol=1e-15)
    assert not chart.flipped[0]


def test_homography_multiply_back():
    h = frame_charts(unit_square_frame()[None]).matrix[0]
    image = h @ unit_square_frame()[3]
    ratios = image / image[0]
    np.testing.assert_allclose(ratios, [1.0, 1.0, 1.0], atol=1e-12)
    assert image[0] > 0
    assert np.linalg.det(h) > 0


def test_homography_maps_frame_columns_to_axes():
    gen = SplitMix64(802)
    checked = 0
    while checked < 30:
        pts = gen.uniforms(8).reshape(4, 2) * 4.0 - 2.0
        reps = np.hstack([pts, np.ones((4, 1))])
        charts = frame_charts(reps[None])
        if charts.errors:
            continue
        assert_oriented_chart(reps, charts)
        checked += 1


def test_homography_frame_order_matters_but_contract_holds():
    reps = unit_square_frame()
    swapped = reps[[1, 0, 2, 3]]
    a, b = frame_charts(np.stack([reps, swapped])).matrix
    assert not np.allclose(a, b)
    for h in (a, b):
        assert np.linalg.det(h) > 0


# ---------- spherical and axial coordinates ------------------------------------

def test_oriented_coordinate_identity_chart():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    chart = frame_charts(reps[None])
    units, vanished = chart_coordinates(chart.matrix, np.array([[[1.0, 1.0, 1.0]]]))
    assert not vanished[0, 0]
    np.testing.assert_allclose(units[0, 0], np.ones(3) / SQ3, atol=1e-15)


def test_oriented_coordinate_frame_self_consistency():
    chart = frame_charts(unit_square_frame()[None])
    assert not chart.flipped[0]
    units, vanished = chart_coordinates(chart.matrix, unit_square_frame()[None, 3:])
    assert not vanished[0, 0]
    np.testing.assert_allclose(units[0, 0], np.ones(3) / SQ3, atol=1e-12)


def test_oriented_coordinate_rejects_vanishing_image():
    chart = frame_charts(unit_square_frame()[None])
    _, vanished = chart_coordinates(chart.matrix, np.zeros((1, 1, 3)))
    assert vanished[0, 0]


def test_canonical_axis_examples():
    np.testing.assert_allclose(
        canonical_axis(np.array([-0.6, 0.8, 0.0])), [0.6, -0.8, 0.0], atol=0
    )
    np.testing.assert_array_equal(
        canonical_axis(np.array([0.0, 0.0, 1.0])), [0.0, 0.0, 1.0]
    )


# ---------- whole-scene registration --------------------------------------------

def test_scene_to_directions_unit_point_coincidence():
    scene = five_point_scene((1 / 3, 1 / 3))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    dirs = register_scenes([scene], spec)[0].units[0]
    assert dirs.shape == (1, 3)
    np.testing.assert_allclose(dirs[0], np.ones(3) / SQ3, atol=1e-12)


def test_scene_to_directions_hand_solved_point():
    # chart of the unit-square frame applied to landmark 5 at (1, 1)
    scene = five_point_scene((1.0, 1.0))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    reps = unit_square_frame()
    v = ref.solve_by_elimination(reps[:3].T, [1.0, 1.0, 1.0])
    lam = ref.solve_by_elimination(reps[:3].T, reps[3])
    y = np.array(v) / np.array(lam)
    expect = y / np.linalg.norm(y)
    np.testing.assert_allclose(expect, np.array([-1.0, 1.0, 1.0]) / SQ3, atol=1e-14)
    dirs = register_scenes([scene], spec)[0].units[0]
    np.testing.assert_allclose(dirs[0], expect, atol=1e-12)


def test_scene_to_directions_positive_scalar_invariance():
    # registration input is a lift, so rescaling the homogeneous reps of a
    # scene is exercised on the charts of manually scaled representatives
    scene = five_point_scene((0.7, -0.2))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    base = register_scenes([scene], spec)[0].units[0]

    reps = np.hstack([scene.points, np.ones((5, 1))])
    scaled = reps * np.array([[1.0], [7.5], [0.25], [1.0], [3.0]])
    np.testing.assert_allclose(register_reps(scaled), base, atol=1e-12)


def test_scene_to_directions_opgl_invariance():
    gen = SplitMix64(804)
    done = 0
    while done < 25:
        pts = gen.uniforms(10).reshape(5, 2) * 4.0 - 2.0
        mat = gen.uniforms(9).reshape(3, 3) * 2.0 - 1.0
        if np.linalg.det(mat) <= 0.05:
            continue
        reps = np.hstack([pts, np.ones((5, 1))])
        base = register_reps(reps)
        moved = register_reps(reps @ mat.T)
        if base is None or moved is None:
            continue
        np.testing.assert_allclose(moved, base, atol=1e-9)
        done += 1


def test_scene_errors_carry_scene_id():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.25], [1.0, 0.0]])
    scene = LandmarkScene(scene_id="bad-frame", points=pts)
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    with pytest.raises(DegenerateFrame, match="^scene 'bad-frame': frame matrix"):
        register_scenes([scene], spec)


# ---------- domain type validation ----------------------------------------------

def test_landmark_scene_validation():
    with pytest.raises(InvalidLandmark):
        LandmarkScene(scene_id="x", points=np.array([[0.0, np.nan]]))
    scene = five_point_scene((2.0, 2.0))
    assert (scene.k, scene.m) == (5, 2)
    np.testing.assert_array_equal(scene.points[0], [0.0, 0.0])
    np.testing.assert_array_equal(scene.points[4], [2.0, 2.0])


def test_frame_spec_validation():
    spec = FrameSpec(frame_labels=(1, 2, 4, 3), remaining_labels=(5,))
    assert spec.m == 2 and spec.q == 1
    # three frame labels are legal: they describe a line configuration (m=1)
    assert FrameSpec(frame_labels=(1, 2, 3), remaining_labels=(5,)).m == 1
    with pytest.raises(InvalidLandmark):
        FrameSpec(frame_labels=(1, 2), remaining_labels=(5,))
    with pytest.raises(InvalidLandmark):
        FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(4,))


@pytest.mark.parametrize(
    "frame, rest, repeat",
    [
        ((1, 2, 3, 3), (5,), "frame label 3 is repeated"),
        ((1, 2, 3, 4), (5, 5), "remaining label 5 is repeated"),
        ((1, 2, 3, 4), (6, 2), "label 2 is both a frame and a remaining label"),
    ],
)
def test_frame_spec_names_the_repeated_label(frame, rest, repeat):
    with pytest.raises(InvalidLandmark, match=repeat):
        FrameSpec(frame_labels=frame, remaining_labels=rest)


def test_direction_sample_validation_and_views():
    v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    sample = DirectionSample.from_vectors(v, scene_ids=("a", "b", "c"))
    assert sample.n == 3 and sample.q == 1 and sample.dim == 3
    assert sample.units.shape == (3, 1, 3)

    reduced = sample.subset(["a", "c"])
    assert reduced.scene_ids == ("a", "c")
    np.testing.assert_array_equal(reduced.units[:, 0, :], v[[0, 2]])

    pair = sample.subset(["c", "a"])
    assert pair.scene_ids == ("a", "c")

    with pytest.raises(ValueError):
        DirectionSample.from_vectors(v * 2.0)
    with pytest.raises(ValueError):
        DirectionSample.from_vectors(v, scene_ids=("a", "a", "c"))
    with pytest.raises(EmptySample):
        DirectionSample.from_vectors(np.empty((0, 3)))


def test_direction_sample_is_immutable():
    sample = DirectionSample.from_vectors(np.eye(3))
    with pytest.raises(ValueError):
        sample.units[0, 0, 0] = 5.0
