import math

import numpy as np
import pytest

from opshape.errors import (
    DegenerateFrame,
    DegeneratePoint,
    EmptySample,
    InvalidLandmark,
)
from opshape.geometry import (
    DirectionSample,
    FrameSpec,
    LandmarkScene,
    canonical_axis,
    chart_for_scene,
    frame_scalars,
    lift,
    oriented_coordinate,
    oriented_frame_homography,
    scene_to_directions,
)
from opshape.rng import SplitMix64

SQ3 = math.sqrt(3.0)


def solve_by_elimination(a, b):
    """Gaussian elimination with partial pivoting, independent of the library."""
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
    np.testing.assert_array_equal(lift((0.0, 0.0)), [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(lift((1 / 3, 1 / 3)), [1 / 3, 1 / 3, 1.0])
    np.testing.assert_array_equal(lift((-2.5, 4.0)), [-2.5, 4.0, 1.0])


def test_lift_rejects_non_finite():
    with pytest.raises(InvalidLandmark):
        lift((float("nan"), 0.0))
    with pytest.raises(InvalidLandmark):
        lift((0.0, float("inf")))


# ---------- frame scalars -------------------------------------------------------

def test_frame_scalars_centroid_unit_point():
    lam, adjusted = frame_scalars(unit_square_frame())
    np.testing.assert_allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    # no sign flips needed
    np.testing.assert_array_equal(adjusted, unit_square_frame()[:3].T)


def test_frame_scalars_standard_frame():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    lam, adjusted = frame_scalars(reps)
    np.testing.assert_allclose(lam, [1.0, 1.0, 1.0], atol=1e-15)
    np.testing.assert_array_equal(adjusted, np.eye(3))


def test_frame_scalars_sign_fix_against_elimination_oracle():
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [3.0, 3.0, 1.0]]
    )
    raw = solve_by_elimination(reps[:3].T, reps[3])
    assert raw == pytest.approx([-5.0, 3.0, 3.0])
    lam, adjusted = frame_scalars(reps)
    np.testing.assert_allclose(lam, np.abs(raw), rtol=1e-13)
    # column 0 flipped, others untouched
    np.testing.assert_allclose(adjusted[:, 0], -reps[0], atol=0)
    np.testing.assert_allclose(adjusted[:, 1], reps[1], atol=0)
    # adjusted columns scaled by lam reproduce the unit point
    np.testing.assert_allclose(adjusted @ lam, reps[3], atol=1e-12)


def test_frame_scalars_random_frames_match_oracle():
    gen = SplitMix64(801)
    for _ in range(50):
        pts = gen.uniforms(8).reshape(4, 2) * 4.0 - 2.0
        reps = np.hstack([pts, np.ones((4, 1))])
        try:
            lam, adjusted = frame_scalars(reps)
        except DegenerateFrame:
            continue
        oracle = solve_by_elimination(reps[:3].T, reps[3])
        np.testing.assert_allclose(lam, np.abs(oracle), rtol=1e-9)
        np.testing.assert_allclose(adjusted @ lam, reps[3], atol=1e-9)


def test_frame_scalars_collinear_rejected():
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 1.0], [0.5, 0.25, 1.0]]
    )
    with pytest.raises(DegenerateFrame):
        frame_scalars(reps)


def test_frame_scalars_unit_point_on_frame_hyperplane():
    # unit point is an affine combination that zeroes the first scalar
    reps = np.array(
        [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.5, 0.5, 1.0]]
    )
    with pytest.raises(DegenerateFrame):
        frame_scalars(reps)


# ---------- normalizing homography ---------------------------------------------

def test_homography_standard_frame_is_identity():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    chart = oriented_frame_homography(reps)
    np.testing.assert_allclose(chart.matrix, np.eye(3), atol=1e-15)
    assert not chart.det_sign_flipped


def test_homography_multiply_back():
    chart = oriented_frame_homography(unit_square_frame())
    image = chart.matrix @ unit_square_frame()[3]
    ratios = image / image[0]
    np.testing.assert_allclose(ratios, [1.0, 1.0, 1.0], atol=1e-12)
    assert image[0] > 0
    assert np.linalg.det(chart.matrix) > 0


def test_homography_maps_frame_columns_to_axes():
    gen = SplitMix64(802)
    checked = 0
    while checked < 30:
        pts = gen.uniforms(8).reshape(4, 2) * 4.0 - 2.0
        reps = np.hstack([pts, np.ones((4, 1))])
        try:
            lam, adjusted = frame_scalars(reps)
            chart = oriented_frame_homography(reps)
        except DegenerateFrame:
            continue
        sign = -1.0 if chart.det_sign_flipped else 1.0
        for j in range(3):
            image = sign * (chart.matrix @ adjusted[:, j])
            target = np.zeros(3)
            target[j] = image[j]
            assert image[j] > 0
            np.testing.assert_allclose(
                image, target, atol=1e-12 * np.linalg.norm(image)
            )
        checked += 1


def test_homography_frame_order_matters_but_contract_holds():
    reps = unit_square_frame()
    swapped = reps[[1, 0, 2, 3]]
    a = oriented_frame_homography(reps)
    b = oriented_frame_homography(swapped)
    assert not np.allclose(a.matrix, b.matrix)
    for chart in (a, b):
        assert np.linalg.det(chart.matrix) > 0


# ---------- spherical and axial coordinates ------------------------------------

def test_oriented_coordinate_identity_chart():
    reps = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    chart = oriented_frame_homography(reps)
    u = oriented_coordinate(chart, np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(u, np.ones(3) / SQ3, atol=1e-15)


def test_oriented_coordinate_frame_self_consistency():
    chart = oriented_frame_homography(unit_square_frame())
    assert not chart.det_sign_flipped
    u = oriented_coordinate(chart, unit_square_frame()[3])
    np.testing.assert_allclose(u, np.ones(3) / SQ3, atol=1e-12)


def test_oriented_coordinate_rejects_vanishing_image():
    chart = oriented_frame_homography(unit_square_frame())
    with pytest.raises(DegeneratePoint):
        oriented_coordinate(chart, np.zeros(3))


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
    dirs = scene_to_directions(scene, spec)
    assert dirs.shape == (1, 3)
    np.testing.assert_allclose(dirs[0], np.ones(3) / SQ3, atol=1e-12)


def test_scene_to_directions_hand_solved_point():
    # chart of the unit-square frame applied to landmark 5 at (1, 1)
    scene = five_point_scene((1.0, 1.0))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    reps = unit_square_frame()
    v = solve_by_elimination(reps[:3].T, [1.0, 1.0, 1.0])
    lam = solve_by_elimination(reps[:3].T, reps[3])
    y = np.array(v) / np.array(lam)
    expect = y / np.linalg.norm(y)
    np.testing.assert_allclose(expect, np.array([-1.0, 1.0, 1.0]) / SQ3, atol=1e-14)
    dirs = scene_to_directions(scene, spec)
    np.testing.assert_allclose(dirs[0], expect, atol=1e-12)


def test_scene_to_directions_positive_scalar_invariance():
    # registration input is a lift, so scale one landmark's plane coordinates
    # indirectly: rescaling all homogeneous reps of a scene is exercised via
    # chart_for_scene on manually scaled representatives
    scene = five_point_scene((0.7, -0.2))
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    base = scene_to_directions(scene, spec)

    from opshape.geometry import representatives_to_directions

    reps = np.array([lift(p) for p in scene.points])
    scaled = reps * np.array([[1.0], [7.5], [0.25], [1.0], [3.0]])
    out = representatives_to_directions(scaled, (0, 1, 2, 3), (4,))
    np.testing.assert_allclose(out, base, atol=1e-12)


def test_scene_to_directions_opgl_invariance():
    from opshape.geometry import representatives_to_directions

    gen = SplitMix64(804)
    done = 0
    while done < 25:
        pts = gen.uniforms(10).reshape(5, 2) * 4.0 - 2.0
        mat = gen.uniforms(9).reshape(3, 3) * 2.0 - 1.0
        if np.linalg.det(mat) <= 0.05:
            continue
        reps = np.hstack([pts, np.ones((5, 1))])
        try:
            base = representatives_to_directions(reps, (0, 1, 2, 3), (4,))
            moved = representatives_to_directions(reps @ mat.T, (0, 1, 2, 3), (4,))
        except (DegenerateFrame, DegeneratePoint):
            continue
        np.testing.assert_allclose(moved, base, atol=1e-9)
        done += 1


def test_scene_errors_carry_scene_id():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.25], [1.0, 0.0]])
    scene = LandmarkScene(scene_id="bad-frame", points=pts)
    spec = FrameSpec(frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    with pytest.raises(DegenerateFrame):
        chart_for_scene(scene, spec)


# ---------- domain type validation ----------------------------------------------

def test_landmark_scene_validation():
    with pytest.raises(InvalidLandmark):
        LandmarkScene(scene_id="x", points=np.array([[0.0, np.nan]]))
    scene = five_point_scene((2.0, 2.0))
    np.testing.assert_array_equal(scene.point(1), [0.0, 0.0])
    np.testing.assert_array_equal(scene.point(5), [2.0, 2.0])
    with pytest.raises(InvalidLandmark):
        scene.point(6)


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

    reduced = sample.without(1)
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
