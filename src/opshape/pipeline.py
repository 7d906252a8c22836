"""End-to-end study pipeline: registration, inference, diagnostics, outputs.

Reports are deterministic: no timestamps, floats via shortest round-trip
repr, provenance keyed by the sha256 of the input bytes. Identical input
and configuration yield byte-identical report.json.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diagnostics import LeaveOneOutRow, ReductionTrace, greedy_reduce, leave_one_out
from .directional import OpsSummary, angular_distances, coplanarity_test
from .errors import EmptySample, MixedOrientationWarning
from .geometry import (
    DirectionSample,
    FrameSpec,
    LandmarkScene,
    canonical_axis,
    check_scene_labels,
    register_points,
)
from .io import format_float, parse_landmarks, write_rows
from .rng import SplitMix64
from .synth import tangent_gaussian_sample
from .vw import VwSummary, total_variance_ps


@dataclass(frozen=True)
class StudyConfig:
    """Analysis parameters; defaults match the five-landmark study design."""

    input_path: Path
    frame_labels: Tuple[int, ...] = (1, 2, 4, 3)
    remaining_labels: Tuple[int, ...] = (5,)
    alpha: float = 0.05
    alpha_ref: float = 0.05
    df: Optional[int] = None
    max_removals: Optional[int] = None
    skip_degenerate: bool = False

    def frame_spec(self) -> FrameSpec:
        return FrameSpec(self.frame_labels, self.remaining_labels)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one study produces, ready for serialization."""

    config: StudyConfig
    provenance: Dict
    sample: DirectionSample
    axes: np.ndarray
    full: OpsSummary
    vw_full: Tuple[VwSummary, ...]
    loo: Tuple[LeaveOneOutRow, ...]
    trace: Optional[ReductionTrace]
    reduced: Optional[OpsSummary]
    vw_reduced: Optional[Tuple[VwSummary, ...]]


def register_scenes(
    scenes: Sequence[LandmarkScene], spec: FrameSpec, skip_degenerate: bool = False
) -> Tuple[DirectionSample, List[str], List[str]]:
    """Register scenes on the sphere product in one stacked pass.

    The label checks run first, over the whole study, and raise
    InvalidLandmark. geometry.register_points then registers all scenes at
    once and masks the degenerate ones; a scene keeps the reason its first
    failing check gives (frame determinant, frame scalars, then points).

    Returns:
        (sample, skipped_ids, flipped_ids). Geometric degeneracies abort
        with the first offending scene's id, in input order, unless
        skip_degenerate, in which case every degenerate scene is dropped
        and listed. Warns when charts mix determinant sign flips.
    """
    checked = set()
    for scene in scenes:  # scenes of one shape pass or fail the label checks alike
        if scene.points.shape not in checked:
            check_scene_labels(scene, spec)
            checked.add(scene.points.shape)
    if not scenes:
        raise EmptySample("no scenes survived registration")
    points = [s.points for s in scenes]
    if len(checked) > 1:  # mixed sizes: keep the labels up to the largest spec names
        need = max(spec.frame_labels + spec.remaining_labels)
        points = [p[:need] for p in points]
    units, flipped, errors = register_points(np.stack(points), spec)
    if errors and not skip_degenerate:
        first = min(errors)
        exc = errors[first]
        raise type(exc)(f"scene {scenes[first].scene_id!r}: {exc}") from exc
    keep = np.ones(len(scenes), dtype=bool)
    keep[list(errors)] = False
    if not keep.any():
        raise EmptySample("no scenes survived registration")
    ids = [s.scene_id for s, kept in zip(scenes, keep) if kept]
    skipped = [scenes[i].scene_id for i in sorted(errors)]
    flipped_ids = [s.scene_id for s, f in zip(scenes, flipped & keep) if f]
    if flipped_ids and len(flipped_ids) < len(ids):
        warnings.warn(
            f"{len(flipped_ids)} of {len(ids)} scenes registered with a flipped chart "
            f"orientation: {flipped_ids}",
            MixedOrientationWarning,
            stacklevel=2,
        )
    return DirectionSample(units[keep], tuple(ids)), skipped, flipped_ids


def run_analysis(config: StudyConfig) -> AnalysisReport:
    """Parse, register, test, diagnose, and reduce one landmark study."""
    path = Path(config.input_path)
    scenes = parse_landmarks(path)
    payload = path.read_bytes()
    spec = config.frame_spec()
    sample, skipped, flipped = register_scenes(scenes, spec, config.skip_degenerate)

    full = coplanarity_test(sample, config.alpha, config.df)
    axes = canonical_axis(sample.units)
    vw_full = tuple(total_variance_ps(axes[:, f, :]) for f in range(sample.q))

    loo: Tuple[LeaveOneOutRow, ...] = ()
    trace = None
    reduced = None
    vw_reduced = None
    if sample.n >= 3:
        loo = tuple(leave_one_out(sample, config.alpha, config.df))
        trace = greedy_reduce(sample, config.alpha_ref, config.max_removals, config.df)
        reduced_sample = sample.subset(trace.final_scene_ids)
        reduced = coplanarity_test(reduced_sample, config.alpha, config.df)
        keep = [i for i, s in enumerate(sample.scene_ids) if s in set(trace.final_scene_ids)]
        vw_reduced = tuple(total_variance_ps(axes[keep, f, :]) for f in range(sample.q))

    provenance = {
        "software": "opshape",
        "version": __version__,
        "input_sha256": hashlib.sha256(payload).hexdigest(),
        "n_input_scenes": len(scenes),
        "skipped_scenes": skipped,
        "det_sign_flipped_scenes": flipped,
        "mixed_orientation": bool(flipped) and len(flipped) < sample.n,
    }
    return AnalysisReport(
        config=config,
        provenance=provenance,
        sample=sample,
        axes=axes,
        full=full,
        vw_full=vw_full,
        loo=loo,
        trace=trace,
        reduced=reduced,
        vw_reduced=vw_reduced,
    )


def _jf(x) -> Optional[float]:
    # JSON has no inf/nan; they appear only on flagged degenerate paths
    x = float(x)
    return x if math.isfinite(x) else None


def _summary_dict(s: OpsSummary) -> Dict:
    return {
        "n": s.n,
        "q": s.q,
        "dim": s.dim,
        "alpha": s.alpha,
        "df": s.df,
        "mean_vector": [[_jf(v) for v in row] for row in s.mean_vector],
        "resultant": [_jf(v) for v in s.resultant],
        "extrinsic_mean": [[_jf(v) for v in row] for row in s.extrinsic_mean],
        "total_variance": _jf(s.total_variance),
        "covariance": [[_jf(v) for v in row] for row in s.covariance],
        "se": _jf(s.se),
        "z": _jf(s.z),
        "t_stat": _jf(s.t_stat),
        "p_normal": _jf(s.p_normal),
        "p_chisq": _jf(s.p_chisq),
        "ci": [_jf(s.ci[0]), _jf(s.ci[1])],
        "degenerate": s.degenerate,
        "reject_ci": s.reject_ci,
        "reject_chisq": s.reject_chisq,
    }


def _vw_dict(v: VwSummary) -> Dict:
    return {
        "n": v.n,
        "mean_matrix": [[_jf(x) for x in row] for row in v.mean_matrix],
        "top_eigenvalue": _jf(v.top_eigenvalue),
        "top_axis": [_jf(x) for x in v.top_axis],
        "eigengap": _jf(v.eigengap),
        "total_variance": _jf(v.total_variance),
        "focal": v.focal,
    }


def report_to_dict(report: AnalysisReport) -> Dict:
    """JSON-native view of the report; floats stay exact on round-trip."""
    cfg = report.config
    trace = report.trace
    return {
        "format": "opshape-report",
        "provenance": report.provenance,
        "config": {
            "frame_labels": list(cfg.frame_labels),
            "remaining_labels": list(cfg.remaining_labels),
            "alpha": cfg.alpha,
            "alpha_ref": cfg.alpha_ref,
            "df": cfg.df,
            "max_removals": cfg.max_removals,
            "skip_degenerate": cfg.skip_degenerate,
        },
        "scene_ids": list(report.sample.scene_ids),
        "directions": [
            [[_jf(x) for x in block] for block in row] for row in report.sample.units
        ],
        "axes": [[[_jf(x) for x in block] for block in row] for row in report.axes],
        "full": _summary_dict(report.full),
        "vw_full": [_vw_dict(v) for v in report.vw_full],
        "leave_one_out": [
            {
                "scene_id": r.scene_id,
                "total_variance": _jf(r.total_variance),
                "se": _jf(r.se),
                "z": _jf(r.z),
                "ci_lower": _jf(r.ci_lower),
                "degenerate": r.degenerate,
                "focal": r.focal,
            }
            for r in report.loo
        ],
        "reduction": None
        if trace is None
        else {
            "alpha_ref": trace.alpha_ref,
            "stopped_reason": trace.stopped_reason,
            "initial_scene_ids": list(trace.initial_scene_ids),
            "final_scene_ids": list(trace.final_scene_ids),
            "steps": [
                {
                    "removed_scene_id": step.removed_scene_id,
                    "ci_lower": _jf(step.ci_lower),
                    "summary": _summary_dict(step.summary),
                }
                for step in trace.steps
            ],
        },
        "reduced": None if report.reduced is None else _summary_dict(report.reduced),
        "vw_reduced": None
        if report.vw_reduced is None
        else [_vw_dict(v) for v in report.vw_reduced],
    }


def write_report(report: AnalysisReport, path) -> None:
    payload = json.dumps(report_to_dict(report), indent=2, ensure_ascii=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def _coordinate_header(dim: int) -> List[str]:
    if dim == 3:
        return ["x", "y", "z"]
    return [f"c{i + 1}" for i in range(dim)]


def emit_outputs(report: AnalysisReport, outdir) -> Dict[str, Path]:
    """Write report.json and the CSV views; returns the written paths.

    For q > 1 the per-scene CSVs emit one row per (scene, block) with the
    same columns.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}

    paths["report"] = outdir / "report.json"
    write_report(report, paths["report"])

    sample = report.sample
    coords = _coordinate_header(sample.dim)
    removed = set(report.trace.removed_scene_ids) if report.trace else set()

    rows = []
    for i, sid in enumerate(sample.scene_ids):
        for f in range(sample.q):
            rows.append(
                [sid]
                + [float(v) for v in sample.units[i, f]]
                + [1 if sid in removed else 0]
            )
    paths["sphere_points"] = outdir / "sphere_points.csv"
    write_rows(paths["sphere_points"], ["scene"] + coords + ["removed"], rows)

    paths["mean_direction"] = outdir / "mean_direction.csv"
    write_rows(
        paths["mean_direction"],
        coords,
        [[float(v) for v in report.full.extrinsic_mean[f]] for f in range(sample.q)],
    )

    angles = angular_distances(sample)
    rows = [
        [sid, float(angles[i, f])]
        for i, sid in enumerate(sample.scene_ids)
        for f in range(sample.q)
    ]
    paths["angles_full"] = outdir / "angles_full.csv"
    write_rows(paths["angles_full"], ["scene", "theta_radians"], rows)

    if report.trace is not None:
        survivors = sample.subset(report.trace.final_scene_ids)
        angles_r = angular_distances(survivors)
        rows = [
            [sid, float(angles_r[i, f])]
            for i, sid in enumerate(survivors.scene_ids)
            for f in range(survivors.q)
        ]
    else:
        rows = []
    paths["angles_reduced"] = outdir / "angles_reduced.csv"
    write_rows(paths["angles_reduced"], ["scene", "theta_radians"], rows)

    rows = [
        [r.scene_id, r.total_variance, r.se, r.z, r.ci_lower, int(r.degenerate), int(r.focal)]
        for r in report.loo
    ]
    paths["loo_table"] = outdir / "loo_table.csv"
    write_rows(
        paths["loo_table"],
        ["scene", "tS", "se", "z", "ci_lower", "degenerate", "focal"],
        rows,
    )
    return paths


def run_monte_carlo(
    sigma: float = 0.1,
    n: int = 200,
    reps: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
    oracle_draws: int = 1_000_000,
    dim: int = 3,
) -> Dict:
    """Coverage calibration of the dispersion CI under tangent-Gaussian noise.

    Draws `reps` samples of size n around a fixed direction, checks whether
    each two-sided CI covers the population dispersion measured by one large
    oracle run, and reports the hit rate. Replication seeds derive from the
    master seed, so results do not depend on evaluation order.
    """
    mu = np.zeros(dim)
    mu[-1] = 1.0
    master = SplitMix64(seed)
    oracle_seed = master.next_u64()
    rep_seeds = [master.next_u64() for _ in range(reps)]

    oracle = tangent_gaussian_sample(mu, sigma, oracle_draws, oracle_seed)
    t_pop = 2.0 * (1.0 - float(np.linalg.norm(oracle.mean(axis=0))))

    hits = 0
    ts_values = []
    se_values = []
    for rep_seed in rep_seeds:
        draws = tangent_gaussian_sample(mu, sigma, n, rep_seed)
        summary = coplanarity_test(DirectionSample.from_vectors(draws), alpha)
        ts_values.append(summary.total_variance)
        se_values.append(summary.se)
        if summary.ci[0] <= t_pop <= summary.ci[1]:
            hits += 1

    return {
        "sigma": sigma,
        "n": n,
        "reps": reps,
        "alpha": alpha,
        "seed": seed,
        "dim": dim,
        "oracle_draws": oracle_draws,
        "oracle_total_variance": t_pop,
        "hits": hits,
        "coverage": hits / reps,
        "mean_total_variance": float(np.mean(ts_values)),
        "mean_se": float(np.mean(se_values)),
    }
