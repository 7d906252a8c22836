"""End-to-end study pipeline: registration, inference, diagnostics, outputs.

Reports are deterministic: no timestamps, provenance keyed by the sha256 of
the input bytes. Every JSON output (report.json, reduction.json, the vw and
mc files) goes through io.json_text, which writes the text
json.dumps(indent=2) would, by one % of one template: each float by
float.__repr__, the shortest string that reads back as the same double, a
non-finite one as null, each float64 array of the report straight from the
array, and the leave-one-out table and the reduction steps as io.RowTable
rows, column by column. Identical input and configuration yield
byte-identical report.json.
"""

from __future__ import annotations

import operator
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from itertools import compress
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .diagnostics import LeaveOneOutRow, ReductionTrace, greedy_reduce, leave_one_out
from .directional import (
    OpsSummary,
    angular_distances,
    confidence_interval,
    coplanarity_test,
    sample_moments,
    two_sided_quantile,
    units_summary,
)
from .errors import EmptySample, InvalidLandmark, MixedOrientationWarning
from .geometry import (
    DirectionSample,
    FrameSpec,
    LandmarkScene,
    LandmarkStudy,
    canonical_axis,
    check_scene_labels,
    last_axis_norms,
    register_points,
)
from .io import RowTable, parse_landmarks, write_json, write_table
from .rng import SplitMix64
# tangent_gaussian_sample has no caller here; perfbench's tracer patches the name
from .synth import TangentDraws, tangent_gaussian_mean, tangent_gaussian_sample
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
    reduced_sample: Optional[DirectionSample]  # the trace's final scenes; not in report.json
    reduced: Optional[OpsSummary]
    vw_reduced: Optional[Tuple[VwSummary, ...]]


def _stack(scenes: Sequence[LandmarkScene], spec: FrameSpec) -> LandmarkStudy:
    """The scenes as one LandmarkStudy, its labels checked once, on its first scene.

    A LandmarkStudy is taken as it is. A list of scenes is stacked into one,
    so they must all have one (k, m) shape; InvalidLandmark otherwise.
    """
    if not isinstance(scenes, LandmarkStudy):
        if not scenes:
            raise EmptySample("no scenes to register")
        shapes = sorted({s.points.shape for s in scenes})
        if len(shapes) > 1:
            raise InvalidLandmark(f"scenes of one study must have one (k, m) shape, got {shapes}")
        ids = tuple(s.scene_id for s in scenes)
        scenes = LandmarkStudy(ids, np.stack([s.points for s in scenes]))
    check_scene_labels(scenes[0], spec)
    return scenes


# flipped scene ids the mixed-orientation warning names, at most
_WARN_IDS = 5


def register_scenes(
    scenes: Sequence[LandmarkScene], spec: FrameSpec, skip_degenerate: bool = False
) -> Tuple[DirectionSample, List[str], List[str]]:
    """Register scenes on the sphere product in one stacked pass.

    scenes is a LandmarkStudy, or a sequence of LandmarkScene of one size
    that _stack makes one. Its labels are checked first (InvalidLandmark);
    geometry.register_points then registers every scene at once and gives
    each degenerate one the reason of its first failing check.

    Returns:
        (sample, skipped_ids, flipped_ids). Geometric degeneracies abort
        with the first offending scene's id, in input order, unless
        skip_degenerate, in which case every degenerate scene is dropped
        and listed; EmptySample when none is left. Warns when charts mix
        determinant sign flips, giving the count of flipped scenes and the
        first `_WARN_IDS` of their ids.
    """
    study = _stack(scenes, spec)
    ids = study.ids
    units, flipped, errors = register_points(study.points, spec)
    if errors and not skip_degenerate:
        first = min(errors)
        exc = errors[first]
        raise type(exc)(f"scene {ids[first]!r}: {exc}") from exc
    skipped = [ids[i] for i in sorted(errors)]
    if len(skipped) == len(ids):
        raise EmptySample("no scenes survived registration")
    if errors:  # else the sample takes units and ids as they are, with no copy
        keep = np.ones(len(ids), dtype=bool)
        keep[list(errors)] = False
        units, flipped, ids = units[keep], flipped & keep, tuple(compress(ids, keep))
    # register_points has checked every kept row's unit norm
    sample = DirectionSample._of_checked_rows(units, ids)
    flipped_ids = [study.ids[i] for i in np.flatnonzero(flipped).tolist()]
    if flipped_ids and len(flipped_ids) < sample.n:
        shown = ", ".join(repr(i) for i in flipped_ids[:_WARN_IDS])
        more = ", ..." if len(flipped_ids) > _WARN_IDS else ""
        warnings.warn(
            f"{len(flipped_ids)} of {sample.n} scenes registered with a flipped chart "
            f"orientation: [{shown}{more}]",
            MixedOrientationWarning,
            stacklevel=2,
        )
    return sample, skipped, flipped_ids


def run_analysis(config: StudyConfig) -> AnalysisReport:
    """Parse, register, test, diagnose, and reduce one landmark study."""
    study = parse_landmarks(config.input_path, digest=True)
    spec = config.frame_spec()
    sample, skipped, flipped = register_scenes(study, spec, config.skip_degenerate)

    full = coplanarity_test(sample, config.alpha, config.df)
    axes = canonical_axis(sample.units)
    # the comparator is sign-blind: the units give their axes' bits
    vw_full = tuple(total_variance_ps(sample.units[:, f]) for f in range(sample.q))

    loo: Tuple[LeaveOneOutRow, ...] = ()
    trace = None
    reduced_sample = None
    reduced = None
    vw_reduced = None
    if sample.n >= 3:
        loo = tuple(leave_one_out(sample, config.alpha))
        trace = greedy_reduce(sample, config.alpha_ref, config.max_removals, config.df)
        reduced_sample = sample.subset(trace.final_scene_ids)
        reduced = full
        if trace.steps:  # the last step's row, the reduced sample's, at the report's level
            last = trace.steps[-1].summary
            (reduced,) = units_summary(
                [last.n], config.alpha, last.df, [last.mean_vector], [last.resultant],
                [last.total_variance], [last.se], [last.covariance],
            )
        vw_reduced = tuple(total_variance_ps(reduced_sample.units[:, f]) for f in range(sample.q))

    provenance = {
        "software": "opshape",
        "version": __version__,
        "input_sha256": study.sha256,
        "n_input_scenes": len(study),
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
        reduced_sample=reduced_sample,
        reduced=reduced,
        vw_reduced=vw_reduced,
    )


# report.json's summary fields, in order: the fields of OpsSummary
_SUMMARY_KEYS = tuple(field.name for field in fields(OpsSummary))
_summary_row = operator.attrgetter(*_SUMMARY_KEYS)
# the layout of one reduction step of report.json
_STEP_KEYS = ("removed_scene_id", "ci_lower", ("summary", _SUMMARY_KEYS))


def _summary_dict(s: OpsSummary) -> Dict:
    return dict(zip(_SUMMARY_KEYS, _summary_row(s)))


# report.json's comparator fields, in order: the fields of VwSummary
_VW_KEYS = tuple(field.name for field in fields(VwSummary))
# the fields of one block of `opshape vw`'s JSON, in order, after its "block" index
VW_BLOCK_KEYS = ("n", "top_eigenvalue", "eigengap", "total_variance", "top_axis", "focal")


def vw_fields(v: VwSummary, keys: Tuple[str, ...] = _VW_KEYS) -> Dict:
    """The VwSummary attributes named by keys, in that order."""
    return {key: getattr(v, key) for key in keys}


def report_fields(report: AnalysisReport) -> Dict:
    """The layout of report.json: its fields in order, arrays left as arrays.

    io.json_text writes this dict as report.json, a float64 array as
    nested lists and a non-finite float as null, so the layout is
    described here only; json.loads(json_text(report_fields(report)))
    is the report as JSON values. The
    leave-one-out table (the LeaveOneOutRow tuples themselves) and the
    reduction steps (removed id, endpoint and the summary's fields, arrays
    included, as one tuple per step) are handed over as io.RowTable, rows
    of one layout that json_text writes column by column, as the lists of
    objects they stand for.
    """
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
        "directions": report.sample.units,
        "axes": report.axes,
        "full": _summary_dict(report.full),
        "vw_full": [vw_fields(v) for v in report.vw_full],
        "leave_one_out": RowTable(LeaveOneOutRow._fields, report.loo),
        "reduction": None
        if trace is None
        else {
            "alpha_ref": trace.alpha_ref,
            "stopped_reason": trace.stopped_reason,
            "initial_scene_ids": list(trace.initial_scene_ids),
            "final_scene_ids": list(trace.final_scene_ids),
            "steps": RowTable(
                _STEP_KEYS,
                [
                    (step.removed_scene_id, step.ci_lower, _summary_row(step.summary))
                    for step in trace.steps
                ],
            ),
        },
        "reduced": None if report.reduced is None else _summary_dict(report.reduced),
        "vw_reduced": None
        if report.vw_reduced is None
        else [vw_fields(v) for v in report.vw_reduced],
    }


def write_report(report: AnalysisReport, path) -> None:
    write_json(path, report_fields(report))


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
    coords, floats = ["x", "y", "z"], ",%.17g" * 3  # registration gives d = 3
    removed = set(report.trace.removed_scene_ids) if report.trace else set()
    ids = _row_ids(sample)

    paths["sphere_points"] = outdir / "sphere_points.csv"
    write_table(
        paths["sphere_points"],
        ["scene"] + coords + ["removed"],
        "%s" + floats + ",%d\r\n",
        [ids, *sample.units.reshape(-1, 3).T.tolist(), [sid in removed for sid in ids]],
    )

    paths["mean_direction"] = outdir / "mean_direction.csv"
    write_table(
        paths["mean_direction"],
        coords,
        floats[1:] + "\r\n",
        report.full.extrinsic_mean.T.tolist(),
    )

    paths["angles_full"] = outdir / "angles_full.csv"
    _write_angles(sample, report.full, paths["angles_full"])

    paths["angles_reduced"] = outdir / "angles_reduced.csv"
    if report.trace is not None:
        _write_angles(report.reduced_sample, report.reduced, paths["angles_reduced"])
    else:
        write_table(paths["angles_reduced"], ["scene", "theta_radians"], "%s,%.17g\r\n", [(), ()])

    paths["loo_table"] = outdir / "loo_table.csv"
    write_loo_table(report.loo, paths["loo_table"])
    return paths


def _row_ids(sample: DirectionSample) -> Sequence[str]:
    """The scene id of each line of a per-scene CSV: one line per (scene, block)."""
    if sample.q == 1:
        return sample.scene_ids
    return [sid for sid in sample.scene_ids for _ in range(sample.q)]


def _write_angles(sample: DirectionSample, summary: OpsSummary, path) -> None:
    """Write each unit's angle to its block's extrinsic mean, one line per (scene, block).

    summary is the sample's own coplanarity_test summary, whose extrinsic
    mean is taken as it is.
    """
    angles = angular_distances(sample.units, summary.extrinsic_mean)
    write_table(
        path,
        ["scene", "theta_radians"],
        "%s,%.17g\r\n",
        [_row_ids(sample), angles.ravel().tolist()],
    )


def write_loo_table(loo: Sequence[LeaveOneOutRow], path) -> None:
    """Write the single-deletion table as loo_table.csv, one line per row."""
    write_table(
        path,
        ["scene", "tS", "se", "z", "ci_lower", "degenerate", "focal"],
        "%s,%.17g,%.17g,%.17g,%.17g,%d,%d\r\n",
        list(zip(*loo)) or [()] * len(LeaveOneOutRow._fields),
    )


# doubles in one (n, replications, d) array of the stacked Monte Carlo pass,
# whose buffers `_replications` sizes for one slice and reuses: half-MB
# arrays stay in cache, so 1,000 replications at n = 200, d = 3 (ten slices)
# draw and test in about 17.6 ms, against 18.3 ms in 2^17-double slices and
# 26.3 ms in one 2^20-double slice (one thread of a 2-vCPU Intel Xeon VM);
# the smaller slice also holds less memory beside the oracle's slices
_MC_SLICE_DOUBLES = 1 << 16


def _slices(reps: int, n: int, dim: int) -> List[Tuple[int, int]]:
    """(start, end) of each slice of replications: at most about
    _MC_SLICE_DOUBLES doubles in one (n, replications, dim) array."""
    step = max(1, _MC_SLICE_DOUBLES // (n * dim))
    return [(start, min(start + step, reps)) for start in range(0, reps, step)]


def _replications(
    mu: np.ndarray,
    sigma: float,
    n: int,
    seeds: np.ndarray,
    ts_values: np.ndarray,
    se_values: np.ndarray,
    stop: threading.Event,
) -> None:
    """Fill ts_values and se_values with the replications' tS and SE.

    Draws and tests the samples of seeds slice by slice (`_slices`), and
    returns early, leaving the rest unfilled, once stop is set; that is
    checked before each slice. Every slice is drawn into one set of
    scratch and one units array, sized for the first, largest slice and
    freed on return.
    """
    slices = _slices(len(seeds), n, mu.size)
    reps = slices[0][1]  # the first slice is the largest
    draws = TangentDraws(mu, sigma, n)
    scratch = draws.scratch(n, reps)
    units = np.empty(n * reps * mu.size)
    for start, end in slices:
        if stop.is_set():
            return
        # scenes-major and C-contiguous, as sample_moments reads it
        out = units[: n * (end - start) * mu.size].reshape(n, end - start, mu.size)
        draws.draw(seeds[start:end], 0, out, scratch)
        _, _, ts, se = sample_moments(out[:, :, None, :])
        ts_values[start:end] = ts
        se_values[start:end] = se


def run_monte_carlo(
    sigma: float = 0.1,
    n: int = 200,
    reps: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
    oracle_draws: int = 1_000_000,
) -> Dict:
    """Coverage calibration of the dispersion CI under tangent-Gaussian noise.

    Draws `reps` samples of size n around the direction e_3, checks whether
    each two-sided CI covers the population dispersion measured by one large
    oracle run, and reports the hit rate. Replication seeds derive from the
    master seed, so results do not depend on evaluation order.

    The oracle's `oracle_draws` draws are drawn and summed in slices
    (`tangent_gaussian_mean`), so its memory does not grow with their
    number; its mean is bit-identical to that of the whole array.

    The call owns a pool of two worker threads. The replication pass goes
    to it first, as one task that draws and tests the replications as
    array operations over a replication axis (scenes-major stacks), in
    slices of at most about 2^16 doubles drawn into buffers the task
    reuses, and stores each one's tS and SE, 24 bytes per
    replication with its seed; the calling thread then forms every CI and
    counts the hits in one elementwise pass over all replications.
    The oracle's slices go to the same pool as a chain of tasks, each of
    which draws its slice and adds it to the running sum the task before
    it passed on (`tangent_gaussian_mean`): one worker runs them beside the
    replication pass, both once it ends, while the calling thread only
    submits them and waits for the last. numpy releases the interpreter
    lock inside its loops, so the two overlap, and the output is
    bit-identical to drawing and testing each replication on its own, in
    series after the oracle. If the calling thread raises
    (KeyboardInterrupt included), the replication task stops before its
    next slice, no queued oracle slice starts, and the call returns only
    after both workers have exited.

    Raises:
        EmptySample, ValueError: n below 2 or reps below 1.
        InvalidLevel: alpha outside (0, 1), or so small that 1 - alpha/2
            rounds to 1, before anything is drawn.
        GenerationFailed: sigma too large for the draws to stay finite; the
            oracle's error wins over a replication's.
        FocalMean: a replication's mean is focal.
    """
    if n < 2:
        raise EmptySample("need at least two draws per replication")
    if reps < 1:
        raise ValueError("need at least one replication")
    two_sided_quantile(alpha)  # InvalidLevel before any draw
    mu = np.array([0.0, 0.0, 1.0])
    master = SplitMix64(seed)
    oracle_seed = master.next_u64()
    rep_seeds = master.u64_block(reps)

    ts_values = np.empty(reps)
    se_values = np.empty(reps)
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=2) as pool:
        try:
            replications = pool.submit(
                _replications, mu, sigma, n, rep_seeds, ts_values, se_values, stop
            )
            oracle_mean = tangent_gaussian_mean(mu, sigma, oracle_draws, oracle_seed, pool)
            replications.result()
        except BaseException:
            stop.set()
            pool.shutdown(cancel_futures=True)
            raise
    t_pop = 2.0 * (1.0 - float(last_axis_norms(oracle_mean)))

    lower, upper = confidence_interval(ts_values, se_values, alpha)
    hits = int(np.count_nonzero((lower <= t_pop) & (t_pop <= upper)))

    return {
        "sigma": sigma,
        "n": n,
        "reps": reps,
        "alpha": alpha,
        "seed": seed,
        "dim": 3,
        "oracle_draws": oracle_draws,
        "oracle_total_variance": t_pop,
        "hits": hits,
        "coverage": hits / reps,
        "mean_total_variance": float(np.mean(ts_values)),
        "mean_se": float(np.mean(se_values)),
    }
