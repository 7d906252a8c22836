"""A whole `opshape analyze` run, value by value, against reference.py.

Each example writes a small synthetic study (q of 1 to 3 registered
landmarks, 5 to 40 views, flat or bent; some views mirrored, some copied
under new ids, sometimes a degenerate view skipped), runs `analyze`
through cli.main and checks every number of report.json and of the CSV
views against the reference computations:

- registration by reference.register on the scenes written, against
  sphere_points.csv and the report's ids, skipped and flipped ids;
- everything after it from sphere_points.csv's units, whose 17 digits
  read back as the same doubles: the full and reduced summaries, the
  leave-one-out rows, the greedy steps, the comparator blocks, the mean
  directions and the angles.

Ids, flags, counts, the removal order and the stop reason must match
exactly, floats within golden.json's tolerance (reference.assert_close).
The angles are held to reference.angle, by mpmath, small ones included.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import opshape
import reference as ref
from opshape.cli import main
from opshape.geometry import DirectionSample, FrameSpec, LandmarkScene
from opshape.io import write_landmarks
from opshape.synth import synthesize_views

FRAME = (1, 2, 4, 3)


@st.composite
def studies(draw):
    """(scenes, remaining labels, config) of a study and its analyze options."""
    q = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(5, 40))
    scenes = synthesize_views(
        k=4 + q,
        cameras=n,
        seed=draw(st.integers(0, 2**32 - 1)),
        delta=draw(st.sampled_from([0.0, 0.005, 0.02])),
        noise=draw(st.sampled_from([0.0, 0.002])),
    )
    # a mirrored view registers through a chart of flipped orientation
    mirrored = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    scenes = [
        LandmarkScene(s.scene_id, s.points * [-1.0, 1.0]) if i in mirrored else s
        for i, s in enumerate(scenes)
    ]
    if draw(st.booleans()):
        copied = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        scenes += [LandmarkScene(f"d{c}", scenes[i].points) for c, i in enumerate(copied)]
    config = {
        "alpha": draw(st.sampled_from([0.05, 0.01, 0.2])),
        "alpha_ref": draw(st.sampled_from([0.05, 0.2])),
        "df": draw(st.sampled_from([None, 1, 4])),
        "max_removals": draw(st.sampled_from([None, 2, 40])),
        "skip_degenerate": draw(st.booleans()),
    }
    if config["skip_degenerate"]:
        # frame points 1, 2 and 4 on one line
        points = scenes[0].points.copy()
        points[3] = (points[0] + points[1]) / 2.0
        scenes.insert(draw(st.integers(0, len(scenes))), LandmarkScene("bad", points))
    return scenes, (5, 6, 7)[:q], config


def analyze(path, out, remaining, config):
    argv = ["analyze", str(path), "--out", str(out), "--remaining", ",".join(map(str, remaining))]
    for name, value in config.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value not in (None, False):
            argv += [flag, str(value)]
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")  # orientation and focal-axis warnings
        assert main(argv) == 0


def comparators(units):
    """reference.comparator of each block's canonical axes, as JSON values."""
    axes = np.array([[ref.axis(block) for block in row] for row in units])
    return [ref.json_native(ref.comparator(axes[:, f])) for f in range(units.shape[1])]


def assert_angles(path, sample, mean_direction):
    header, rows = ref.read_csv(path)
    assert header == ["scene", "theta_radians"]
    assert [r[0] for r in rows] == [sid for sid in sample.scene_ids for _ in range(sample.q)]
    want = [ref.angle(u, m) for row in sample.units for u, m in zip(row, mean_direction)]
    ref.assert_close([float(r[1]) for r in rows], want, path.name)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(studies())
def test_analyze_matches_the_reference_value_for_value(study):
    scenes, remaining, config = study
    alpha, df = config["alpha"], config["df"]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "study.csv", Path(tmp) / "out"
        write_landmarks(path, scenes)
        analyze(path, out, remaining, config)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        spec = FrameSpec(FRAME, remaining)
        units, ids, skipped, flipped = ref.register(scenes, spec, config["skip_degenerate"])
        n, q, d = units.shape
        assert report["format"] == "opshape-report"
        assert report["provenance"] == {
            "software": "opshape",
            "version": opshape.__version__,
            "input_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "n_input_scenes": len(scenes),
            "skipped_scenes": skipped,
            "det_sign_flipped_scenes": flipped,
            "mixed_orientation": bool(flipped) and len(flipped) < n,
        }
        assert report["config"] == dict(
            config, frame_labels=list(FRAME), remaining_labels=list(remaining)
        )
        assert report["scene_ids"] == ids

        # registration, then everything else from the CSV's units
        header, points = ref.read_csv(out / "sphere_points.csv")
        assert header == ["scene", "x", "y", "z", "removed"]
        assert [r[0] for r in points] == [sid for sid in ids for _ in range(q)]
        csv_units = np.array([[float(x) for x in r[1:4]] for r in points]).reshape(n, q, d)
        ref.assert_close(csv_units.tolist(), units.tolist(), "sphere_points")
        assert report["directions"] == csv_units.tolist()
        sample = DirectionSample(csv_units, tuple(ids))
        axes = [[ref.axis(block).tolist() for block in row] for row in csv_units]
        ref.assert_close(report["axes"], axes, "axes")

        full = ref.summary(csv_units, alpha, df)
        ref.assert_close(report["full"], ref.json_native(full), "full")
        ref.assert_close(report["vw_full"], comparators(csv_units), "vw_full")
        header, rows = ref.read_csv(out / "mean_direction.csv")
        assert header == ["x", "y", "z"]
        means = [[float(x) for x in r] for r in rows]
        ref.assert_close(means, full.extrinsic_mean.tolist(), "mean_direction")
        assert_angles(out / "angles_full.csv", sample, full.extrinsic_mean)

        loo = ref.leave_one_out(sample, alpha, df)
        want = [ref.json_native(row._asdict()) for row in loo]
        ref.assert_close(report["leave_one_out"], want, "leave_one_out")
        header, rows = ref.read_csv(out / "loo_table.csv")
        assert header == ["scene", "tS", "se", "z", "ci_lower", "degenerate", "focal"]
        table = [[r[0], *map(float, r[1:5]), *(bool(int(f)) for f in r[5:])] for r in rows]
        ref.assert_close(table, [list(row) for row in loo], "loo_table")

        trace = ref.greedy_reduce(sample, config["alpha_ref"], config["max_removals"], df)
        ref.assert_close(report["reduction"], {
            "alpha_ref": trace.alpha_ref,
            "stopped_reason": trace.stopped_reason,
            "initial_scene_ids": list(ids),
            "final_scene_ids": list(trace.final_scene_ids),
            "steps": [
                {
                    "removed_scene_id": s.removed_scene_id,
                    "ci_lower": s.ci_lower,
                    "summary": ref.json_native(s.summary),
                }
                for s in trace.steps
            ],
        }, "reduction")
        removed = set(trace.removed_scene_ids)
        assert [r[4] for r in points] == [str(int(sid in removed)) for sid in ids for _ in range(q)]
        kept = [sid not in removed for sid in ids]
        reduced_sample = DirectionSample(csv_units[kept], trace.final_scene_ids)
        reduced = ref.summary(reduced_sample.units, alpha, df)
        ref.assert_close(report["reduced"], ref.json_native(reduced), "reduced")
        ref.assert_close(report["vw_reduced"], comparators(reduced_sample.units), "vw_reduced")
        assert_angles(out / "angles_reduced.csv", reduced_sample, reduced.extrinsic_mean)
