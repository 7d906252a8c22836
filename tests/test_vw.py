import warnings

import numpy as np
import pytest

import reference as ref
from opshape.directional import coplanarity_test
from opshape.errors import DegeneratePoint, EmptySample, FocalWarning, MixedOrientationWarning
from opshape.geometry import DirectionSample, FrameSpec, canonical_axis
from opshape.pipeline import register_scenes
from opshape.rng import SplitMix64
from opshape.synth import synthesize_views, tangent_gaussian_sample
from opshape.vw import (
    VwSummary,
    jacobi_eigh,
    top_eigenpair,
    total_variance_ps,
    vw_mean,
)


def random_symmetric(gen, d, scale=1.0):
    raw = gen.normals(d * d).reshape(d, d) * scale
    return (raw + raw.T) / 2.0


# ---------- mean matrix -----------------------------------------------------------

def test_vw_mean_examples():
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(
        vw_mean(np.stack([e1, e1, e1])), np.diag([1.0, 0.0, 0.0])
    )
    axes = np.eye(3)
    np.testing.assert_allclose(vw_mean(axes), np.eye(3) / 3.0, atol=1e-16)
    with pytest.raises(DegeneratePoint):
        vw_mean(np.stack([e1, np.zeros(3)]))


def test_vw_mean_sign_blind_and_trace_one():
    gen = SplitMix64(62)
    z = gen.normals(15).reshape(5, 3)
    flipped = z * np.array([[1.0], [-1.0], [1.0], [-1.0], [-1.0]])
    np.testing.assert_array_equal(vw_mean(z), vw_mean(flipped))
    assert np.trace(vw_mean(z)) == pytest.approx(1.0, abs=1e-14)


def test_vw_mean_empty():
    with pytest.raises(EmptySample):
        vw_mean(np.empty((0, 3)))


# ---------- eigensolver -----------------------------------------------------------

def test_jacobi_diagonal_passthrough():
    vals, vecs = jacobi_eigh(np.diag([0.7, 0.2, 0.1]))
    np.testing.assert_allclose(vals, [0.7, 0.2, 0.1], atol=1e-15)
    np.testing.assert_allclose(np.abs(vecs), np.eye(3), atol=1e-15)


def test_jacobi_matches_characteristic_polynomial_roots():
    gen = SplitMix64(63)
    for _ in range(50):
        a = random_symmetric(gen, 3)
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(vals, ref.char_poly_eigenvalues(a), atol=1e-11)
        # residual per pair
        for j in range(3):
            res = a @ vecs[:, j] - vals[j] * vecs[:, j]
            assert np.linalg.norm(res) <= 1e-12 * max(1.0, np.linalg.norm(a))


def test_jacobi_larger_matrices_against_library_solver():
    gen = SplitMix64(64)
    for d in (4, 6):
        a = random_symmetric(gen, d)
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(vals, np.sort(np.linalg.eigvalsh(a))[::-1],
                                   atol=1e-11)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-12)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_top_eigenpair_examples():
    lam, axis, gap = top_eigenpair(np.diag([0.7, 0.2, 0.1]))
    assert lam == pytest.approx(0.7, abs=1e-15)
    np.testing.assert_allclose(axis, [1.0, 0.0, 0.0], atol=1e-15)
    assert gap == pytest.approx(0.5, abs=1e-15)


def test_top_eigenpair_degenerate_spectrum_warns():
    with pytest.warns(FocalWarning):
        lam, _, gap = top_eigenpair(np.eye(3) / 3.0)
    assert lam == pytest.approx(1 / 3, abs=1e-15)
    assert gap == pytest.approx(0.0, abs=1e-15)


# ---------- dispersion index ------------------------------------------------------

def test_total_variance_ps_constant_sample():
    z = np.tile(np.array([0.0, 1.0, 0.0]), (6, 1))
    summary = total_variance_ps(z)
    assert isinstance(summary, VwSummary)
    assert summary.total_variance == 0.0
    assert not summary.focal


def test_total_variance_ps_two_thirds_case():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    summary = total_variance_ps(np.stack([e1, e1, e2]))
    assert summary.top_eigenvalue == pytest.approx(2 / 3, abs=1e-14)
    assert summary.total_variance == pytest.approx(2 / 3, abs=1e-14)


def test_total_variance_ps_orthonormal_axes():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FocalWarning)
        summary = total_variance_ps(np.eye(3))
    assert summary.total_variance == pytest.approx(4 / 3, abs=1e-12)
    assert summary.focal


def test_total_variance_ps_sign_blind_exact():
    """Every VwSummary field, bit for bit, whatever the axes' signs: the
    projector of -x is the projector of x, since a sign flip rounds no
    product. opshape vw relies on it to hand the comparator its strided
    units[:, f] views rather than canonical axes."""
    gen = SplitMix64(65)
    z = gen.normals(24).reshape(8, 3)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    signs = np.where(gen.uniforms(8) < 0.5, -1.0, 1.0)[:, None]
    ref.assert_same_bits(total_variance_ps(z * signs), total_variance_ps(z))

    views = synthesize_views(k=7, cameras=2000, seed=24, delta=0.02, noise=0.002)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MixedOrientationWarning)
        sample, _, _ = register_scenes(views, FrameSpec((1, 2, 4, 3), (5, 6, 7)))
    units = sample.units
    axes = canonical_axis(units)
    assert (axes != units).any()  # some units leave with the other sign
    for f in range(3):
        assert not units[:, f].flags.c_contiguous
        ref.assert_same_bits(total_variance_ps(units[:, f]), total_variance_ps(axes[:, f]), f"block {f}")


def test_eigen_residual_on_sampled_mean_matrices():
    gen = SplitMix64(66)
    for _ in range(20):
        z = gen.normals(30).reshape(10, 3)
        summary = total_variance_ps(z)
        res = summary.mean_matrix @ summary.top_axis - (
            summary.top_eigenvalue * summary.top_axis
        )
        assert np.linalg.norm(res) <= 1e-10


def test_concentrated_ratio_approaches_two():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.01, 200, 5)
    max_angle = float(np.max(np.arccos(np.clip(units @ [0.0, 0.0, 1.0], -1, 1))))
    assert max_angle <= 0.05
    ts_ps = total_variance_ps(canonical_axis(units)).total_variance
    ts_ops = coplanarity_test(DirectionSample(units)).total_variance
    assert 1.8 <= ts_ps / ts_ops <= 2.2
