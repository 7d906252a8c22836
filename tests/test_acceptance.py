"""Acceptance gate: one check per shipped guarantee, one verdict line each.

The three stone-photo checks need the transcribed fixture (see
data/sope_creek/README.md) and skip with a visible line when it is absent.
Everything else is self-contained and must pass everywhere.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import SOPE_CREEK_HINT, register_reps, sope_creek_path
from opshape.directional import (
    angular_distances,
    chisq_upper_tail,
    coplanarity_test,
    normal_cdf,
    normal_quantile,
)
from opshape.errors import FocalWarning
from opshape.geometry import DirectionSample, FrameSpec, canonical_axis
from opshape.diagnostics import greedy_reduce
from opshape.io import parse_landmarks, write_landmarks
from opshape.pipeline import register_scenes, run_monte_carlo
from opshape.rng import SplitMix64
from opshape.synth import synthesize_views, tangent_gaussian_sample
from opshape.vw import jacobi_eigh, total_variance_ps, vw_mean

mp.mp.dps = 50

_DATASET: dict = {}


def _gate(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _require_dataset(num: int) -> None:
    if not sope_creek_path().is_file():
        line = f"acceptance {num:02d}: SKIP ({SOPE_CREEK_HINT})"
        print(line)
        pytest.skip(line)


def _dataset_summary():
    if "summary" not in _DATASET:
        t0 = time.perf_counter()
        scenes = parse_landmarks(sope_creek_path())
        sample, _, _ = register_scenes(scenes, FrameSpec((1, 2, 4, 3), (5,)))
        summary = coplanarity_test(sample, 0.05)
        _DATASET["elapsed"] = time.perf_counter() - t0
        _DATASET["sample"] = sample
        _DATASET["summary"] = summary
    return _DATASET["sample"], _DATASET["summary"], _DATASET["elapsed"]


def _sphere_sample(gen: SplitMix64, n: int, q: int = 1, d: int = 3) -> DirectionSample:
    vecs = gen.normals(n * q * d).reshape(n, q, d)
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    return DirectionSample(vecs, tuple(str(i) for i in range(n)))


def test_01_full_sample_location_and_spread():
    _require_dataset(1)
    sample, summary, elapsed = _dataset_summary()
    ubar = summary.mean_vector[0]
    r = float(summary.resultant[0])
    ts = summary.total_variance
    ok = (
        summary.n == 41
        and np.all(np.abs(ubar - np.array([0.0073, -0.6720, -0.6082])) <= 0.002)
        and abs(r - 0.9064) <= 0.001
        and abs(ts - 0.1871) <= 0.001
        and elapsed < 1.0
    )
    _gate(
        1,
        ok,
        f"n={summary.n} ubar=({ubar[0]:.4f}, {ubar[1]:.4f}, {ubar[2]:.4f}) "
        f"R={r:.4f} tS={ts:.4f} {elapsed:.3f}s",
    )


def test_02_full_sample_inference():
    _require_dataset(2)
    _, s, _ = _dataset_summary()
    closed_dev = abs(s.p_chisq - chisq_upper_tail(s.t_stat, 2))
    ok = (
        abs(s.t_stat - 7.67) <= 0.02
        and abs(s.p_chisq - 0.0216) <= 0.0005
        and closed_dev <= 1e-10
        and abs(s.se - 0.0812) <= 0.002
        and abs(s.ci[0] - 0.028) <= 0.002
        and abs(s.ci[1] - 0.346) <= 0.002
        and s.reject_ci
        and s.reject_chisq
    )
    _gate(
        2,
        ok,
        f"T={s.t_stat:.3f} p={s.p_chisq:.4f} closed-form dev={closed_dev:.1e} "
        f"se={s.se:.4f} ci=[{s.ci[0]:.3f}, {s.ci[1]:.3f}] "
        f"reject={s.reject_ci and s.reject_chisq}",
    )


def test_03_greedy_reduction():
    _require_dataset(3)
    sample, _, _ = _dataset_summary()
    trace = greedy_reduce(sample, 0.05)
    reduced = coplanarity_test(sample.subset(trace.final_scene_ids), 0.05)
    r = float(reduced.resultant[0])
    ok = (
        len(trace.steps) == 2
        and abs(r - 0.9352) <= 0.001
        and abs(reduced.total_variance - 0.1297) <= 0.001
        and abs(reduced.t_stat - 5.058) <= 0.02
        and abs(reduced.p_chisq - 0.0797) <= 0.001
        and abs(reduced.se - 0.0758) <= 0.002
        and abs(reduced.ci[0] - (-0.019)) <= 0.002
        and abs(reduced.ci[1] - 0.278) <= 0.002
        and not reduced.reject_ci
        and not reduced.reject_chisq
    )
    _gate(
        3,
        ok,
        f"removed={len(trace.steps)} R={r:.4f} tS={reduced.total_variance:.4f} "
        f"T={reduced.t_stat:.3f} p={reduced.p_chisq:.4f} se={reduced.se:.4f} "
        f"ci=[{reduced.ci[0]:.3f}, {reduced.ci[1]:.3f}]",
    )


def test_04_coplanar_scenes_never_reject():
    spec = FrameSpec((1, 2, 4, 3), (5,))
    t0 = time.perf_counter()
    worst = 0.0
    rejected = 0
    for seed in range(50):
        views = synthesize_views(k=5, cameras=10, seed=seed)
        sample, _, _ = register_scenes(views, spec)
        s = coplanarity_test(sample, 0.05)
        worst = max(worst, s.total_variance)
        rejected += int(s.reject_ci or s.reject_chisq)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and rejected == 0 and elapsed < 5.0
    _gate(4, ok, f"50 studies, worst tS={worst:.1e}, rejected={rejected}, {elapsed:.2f}s")


def test_05_direction_invariance_under_positive_maps():
    gen = SplitMix64(517)
    done = 0
    worst = 0.0
    while done < 200:
        pts = gen.uniforms(10).reshape(5, 2) * 4.0 - 2.0
        mat = gen.uniforms(9).reshape(3, 3) * 2.0 - 1.0
        if np.linalg.det(mat) <= 0.05:
            continue
        reps = np.hstack([pts, np.ones((5, 1))])
        base = register_reps(reps)
        moved = register_reps(reps @ mat.T)
        if base is None or moved is None:
            continue
        worst = max(worst, float(np.max(np.abs(moved - base))))
        done += 1
    ok = worst < 1e-9
    _gate(5, ok, f"200 transform pairs, worst deviation={worst:.1e}")


def test_06_internal_identities():
    gen = SplitMix64(60)
    worst_tr = 0.0
    for i in range(100):
        n = 4 + int(gen.uniforms(1)[0] * 40)
        summary = coplanarity_test(_sphere_sample(gen, n, q=1 + (i % 3)), 0.05)
        r = summary.resultant
        tr = float(np.trace(summary.covariance))
        worst_tr = max(worst_tr, abs(tr - (summary.q - float(np.sum(r**2)))))

    two_ok = True
    for seed in range(20):
        pair = _sphere_sample(SplitMix64(900 + seed), 2)
        summary = coplanarity_test(pair, 0.05)
        two_ok = two_ok and summary.se == 0.0 and summary.degenerate

    zq = normal_quantile(0.975)
    quantile_dev = abs(zq - float(mp.sqrt(2) * mp.erfinv(mp.mpf("0.95"))))
    worst_ci = 0.0
    for seed in range(20):
        s = coplanarity_test(_sphere_sample(SplitMix64(1500 + seed), 10), 0.05)
        worst_ci = max(
            worst_ci,
            abs(s.ci[0] - (s.total_variance - zq * s.se)),
            abs(s.ci[1] - (s.total_variance + zq * s.se)),
        )
    ok = worst_tr <= 1e-12 and two_ok and quantile_dev <= 1e-12 and worst_ci <= 1e-12
    _gate(
        6,
        ok,
        f"trace dev={worst_tr:.1e}, two-point exact={two_ok}, "
        f"quantile dev={quantile_dev:.1e}, ci dev={worst_ci:.1e}",
    )


def test_07_tail_engines_match_references():
    worst_phi = max(
        abs(normal_cdf(z) - float(0.5 * mp.erfc(-mp.mpf(z) / mp.sqrt(2))))
        for z in np.linspace(-8.0, 8.0, 20)
    )
    worst_rel = max(
        abs(chisq_upper_tail(t, 2) - math.exp(-t / 2)) / math.exp(-t / 2)
        for t in np.linspace(0.0, 100.0, 1001)
    )
    ok = worst_phi <= 1e-9 and worst_rel <= 1e-10
    _gate(7, ok, f"Phi dev={worst_phi:.1e} at 20 points, df=2 tail rel dev={worst_rel:.1e}")


def test_08_monte_carlo_coverage_and_bootstrap():
    t0 = time.perf_counter()
    mc = run_monte_carlo(sigma=0.1, n=200, reps=1000, seed=0, oracle_draws=1_000_000)

    mu = np.array([0.0, 0.0, 1.0])
    draws = tangent_gaussian_sample(mu, 0.1, 200, 12345)
    se = coplanarity_test(DirectionSample(draws), 0.05).se
    resampler = np.random.default_rng(99)
    boot = []
    for _ in range(2000):
        idx = resampler.integers(0, 200, size=200)
        boot.append(2.0 * (1.0 - float(np.linalg.norm(draws[idx].mean(axis=0)))))
    boot_se = float(np.std(boot, ddof=1))
    elapsed = time.perf_counter() - t0

    ok = (
        0.93 <= mc["coverage"] <= 0.97
        and abs(se - boot_se) <= 0.1 * boot_se
        and elapsed < 60.0
    )
    _gate(
        8,
        ok,
        f"coverage={mc['coverage']:.3f} of oracle tS={mc['oracle_total_variance']:.4f}, "
        f"delta se={se:.2e} vs bootstrap {boot_se:.2e}, {elapsed:.1f}s",
    )


def test_09_sign_blind_comparator():
    gen = SplitMix64(77)
    axes = gen.normals(90).reshape(30, 3)
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    signs = np.where(gen.uniforms(30) < 0.5, -1.0, 1.0)
    s1 = total_variance_ps(axes)
    s2 = total_variance_ps(axes * signs[:, None])
    sign_blind = s1.total_variance == s2.total_variance and np.array_equal(
        s1.mean_matrix, s2.mean_matrix
    )

    worst_res = 0.0
    for seed in range(20):
        g = SplitMix64(3000 + seed)
        a = g.normals(60).reshape(20, 3)
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        j = vw_mean(a)
        vals, vecs = jacobi_eigh(j)
        worst_res = max(worst_res, float(np.max(np.abs(j @ vecs - vecs * vals))))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FocalWarning)
        basis_dev = abs(total_variance_ps(np.eye(3)).total_variance - 4.0 / 3.0)

    draws = tangent_gaussian_sample(np.array([0.0, 0.0, 1.0]), 0.01, 200, 5)
    sample = DirectionSample(draws)
    summary = coplanarity_test(sample, 0.05)
    max_angle = float(np.max(angular_distances(sample.units, summary.extrinsic_mean)))
    ratio = total_variance_ps(canonical_axis(draws)).total_variance / summary.total_variance

    ok = (
        sign_blind
        and worst_res <= 1e-10
        and basis_dev <= 1e-12
        and max_angle <= 0.05
        and 1.8 <= ratio <= 2.2
    )
    _gate(
        9,
        ok,
        f"sign-blind={sign_blind}, eigen residual={worst_res:.1e}, "
        f"basis dev={basis_dev:.1e}, ratio={ratio:.3f} at max angle {max_angle:.3f}",
    )


def test_10_deterministic_outputs(tmp_path):
    code = "import sys; from opshape.cli import main; sys.exit(main(sys.argv[1:]))"

    def run(args, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    study = tmp_path / "input.csv"
    write_landmarks(study, synthesize_views(k=5, cameras=12, seed=4, delta=0.02, noise=0.003))
    run(["analyze", str(study), "--out", str(tmp_path / "a")], "1")
    run(["analyze", str(study), "--out", str(tmp_path / "b")], "2")
    report_same = (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()

    run(["synth", "--out", str(tmp_path / "s1.csv"), "--seed", "7"], "3")
    run(["synth", "--out", str(tmp_path / "s2.csv"), "--seed", "7"], "4")
    synth_same = (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()

    ok = report_same and synth_same
    _gate(10, ok, f"report bytes identical={report_same}, seed-7 synth identical={synth_same}")
