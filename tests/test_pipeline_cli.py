"""End-to-end pipeline orchestration and command line behavior."""

from __future__ import annotations

import ast
import builtins
import hashlib
import io as stdio
import json
import os
import re
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import opshape
import reference as ref
from conftest import REPO_ROOT
from opshape.cli import build_parser, main
from opshape.directional import OpsSummary, coplanarity_test
from opshape.errors import DegenerateFrame, FocalMean, MixedOrientationWarning
from opshape.geometry import FrameSpec, LandmarkScene
from opshape.io import json_text, parse_landmarks, write_landmarks
from opshape.pipeline import (
    StudyConfig,
    emit_outputs,
    register_scenes,
    report_fields,
    run_analysis,
    write_report,
)
from opshape.synth import synthesize_views


def collinear_frame_scene(scene_id="bad"):
    # labels 1, 2, 4 are the default basis; putting them on one line
    # kills the frame while landmarks 3 and 5 stay unremarkable
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.25], [2.0, 0.0], [0.3, 0.8]])
    return LandmarkScene(scene_id=scene_id, points=pts)


@pytest.fixture(scope="module")
def study_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("study") / "views.csv"
    views = synthesize_views(k=5, cameras=24, seed=3, delta=0.02, noise=0.005)
    write_landmarks(path, views)
    return path


@pytest.fixture(scope="module")
def study_report(study_csv):
    return run_analysis(StudyConfig(input_path=study_csv))


def test_provenance_hashes_input_bytes(study_csv, study_report):
    prov = study_report.provenance
    assert prov["software"] == "opshape"
    assert prov["version"] == opshape.__version__
    assert prov["input_sha256"] == hashlib.sha256(study_csv.read_bytes()).hexdigest()
    assert prov["n_input_scenes"] == 24
    assert prov["skipped_scenes"] == []
    assert prov["mixed_orientation"] is False


def test_analyze_reads_its_input_once(study_csv, tmp_path, monkeypatch):
    # the report's hash must describe the very bytes that were parsed, so
    # the input is opened once, however the package opens files; reduce
    # writes the same provenance, and vw, which writes none, opens its
    # input once too and hashes nothing
    expected = hashlib.sha256(study_csv.read_bytes()).hexdigest()
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == study_csv.resolve():
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(stdio, "open", counting_open)
    for command, name in (("analyze", "report.json"), ("reduce", "reduction.json")):
        opened.clear()
        out = tmp_path / command
        assert main([command, str(study_csv), "--out", str(out)]) == 0
        assert opened == ["rb"], command
        written = json.loads((out / name).read_text(encoding="utf-8"))
        assert written["provenance"]["input_sha256"] == expected, command

    def no_digest(*args, **kwargs):
        raise AssertionError("vw hashed its input")

    monkeypatch.setattr(hashlib, "sha256", no_digest)
    opened.clear()
    assert main(["vw", str(study_csv), "--out", str(tmp_path / "vw.json")]) == 0
    assert opened == ["rb"]


def test_reduction_bookkeeping_is_consistent(study_report):
    rep = study_report
    assert rep.full.n == 24
    assert not rep.full.degenerate
    assert len(rep.loo) == 24
    assert rep.trace is not None
    assert rep.reduced.n == rep.full.n - len(rep.trace.steps)
    assert set(rep.trace.final_scene_ids) <= set(rep.sample.scene_ids)
    assert len(rep.vw_full) == rep.sample.q
    assert len(rep.vw_reduced) == rep.sample.q


@pytest.mark.parametrize("bent", [True, False])
@pytest.mark.parametrize("alpha", [0.05, 0.01, 0.2])
def test_reduced_summary_is_the_test_of_the_reduced_sample(tmp_path, bent, alpha):
    # alpha == alpha_ref (0.05) or not, with greedy removals (bent) or
    # none (flat), the reduced summary is the test of the reduced sample
    path = tmp_path / "views.csv"
    delta, noise = (0.02, 0.005) if bent else (0.0, 0.0)
    write_landmarks(path, synthesize_views(k=5, cameras=24, seed=3, delta=delta, noise=noise))
    rep = run_analysis(StudyConfig(input_path=path, alpha=alpha, alpha_ref=0.05))
    assert (len(rep.trace.steps) > 0) == bent
    reduced_sample = rep.sample.subset(rep.trace.final_scene_ids)
    ref.assert_same_bits(rep.reduced, coplanarity_test(reduced_sample, alpha, None))


def test_report_dict_matches_shipped_schema(study_report):
    schema_path = Path(opshape.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    Draft7Validator.check_schema(schema)
    Draft7Validator(schema).validate(json.loads(json_text(report_fields(study_report))))


def test_report_json_round_trips_exactly(study_report, tmp_path):
    path = tmp_path / "report.json"
    write_report(study_report, path)
    expected = json.loads(json_text(report_fields(study_report)))
    assert json.loads(path.read_text(encoding="utf-8")) == expected


def test_report_bytes_deterministic_across_runs(study_csv, tmp_path):
    paths = []
    for tag in ("one", "two"):
        rep = run_analysis(StudyConfig(input_path=study_csv))
        p = tmp_path / f"report_{tag}.json"
        write_report(rep, p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_emit_outputs_writes_all_views(study_report, tmp_path):
    paths = emit_outputs(study_report, tmp_path / "out")
    assert set(paths) == {
        "report",
        "sphere_points",
        "mean_direction",
        "angles_full",
        "angles_reduced",
        "loo_table",
    }
    for p in paths.values():
        assert p.exists()

    n = study_report.sample.n
    removed = set(study_report.trace.removed_scene_ids)

    header, rows = ref.read_csv(paths["sphere_points"])
    assert header == ["scene", "x", "y", "z", "removed"]
    assert len(rows) == n
    assert {r[0] for r in rows if r[4] == "1"} == removed

    header, rows = ref.read_csv(paths["mean_direction"])
    assert header == ["x", "y", "z"]
    assert len(rows) == 1
    np.testing.assert_array_equal(
        [float(v) for v in rows[0]], study_report.full.extrinsic_mean[0]
    )

    header, rows = ref.read_csv(paths["angles_full"])
    assert header == ["scene", "theta_radians"]
    assert len(rows) == n

    _, rows = ref.read_csv(paths["angles_reduced"])
    assert len(rows) == n - len(removed)

    header, rows = ref.read_csv(paths["loo_table"])
    assert header == ["scene", "tS", "se", "z", "ci_lower", "degenerate", "focal"]
    assert len(rows) == n


def test_two_scene_study_flags_degenerate(tmp_path):
    path = tmp_path / "two.csv"
    write_landmarks(path, synthesize_views(k=5, cameras=2, seed=0))
    rep = run_analysis(StudyConfig(input_path=path))
    assert rep.full.n == 2
    assert rep.full.degenerate
    assert rep.full.se == 0.0
    assert rep.loo == ()
    assert rep.trace is None and rep.reduced is None
    d = json.loads(json_text(report_fields(rep)))
    assert d["reduction"] is None and d["reduced"] is None and d["vw_reduced"] is None
    schema_path = Path(opshape.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    Draft7Validator(schema).validate(d)


def test_coplanar_study_accepts_and_angles_vanish(tmp_path):
    path = tmp_path / "flat.csv"
    write_landmarks(path, synthesize_views(k=5, cameras=10, seed=1))
    rep = run_analysis(StudyConfig(input_path=path))
    assert rep.full.total_variance < 1e-9
    assert not rep.full.reject_ci and not rep.full.reject_chisq
    assert rep.trace.steps == ()
    paths = emit_outputs(rep, tmp_path / "out")
    _, rows = ref.read_csv(paths["angles_full"])
    assert max(float(r[1]) for r in rows) < 1e-4


def test_mirrored_scene_reports_mixed_orientation(tmp_path):
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 1 / 3], [0.2, 0.3]])
    mirror = base * np.array([-1.0, 1.0])
    # a fully mirrored pair registers antipodally and the mean would vanish
    mirror[4] = [-0.5, 0.1]
    scenes = [
        LandmarkScene(scene_id="a", points=base),
        LandmarkScene(scene_id="b", points=mirror),
    ]
    spec = FrameSpec((1, 2, 3, 4), (5,))
    with pytest.warns(MixedOrientationWarning):
        sample, skipped, flipped = register_scenes(scenes, spec)
    assert flipped == ["b"] and skipped == []
    assert sample.n == 2

    path = tmp_path / "mix.csv"
    write_landmarks(path, scenes)
    cfg = StudyConfig(input_path=path, frame_labels=(1, 2, 3, 4), remaining_labels=(5,))
    with pytest.warns(MixedOrientationWarning):
        rep = run_analysis(cfg)
    assert rep.provenance["det_sign_flipped_scenes"] == ["b"]
    assert rep.provenance["mixed_orientation"] is True


def test_mixed_orientation_warning_names_at_most_five_ids():
    # the 2,000-scene study of `synth --k 7 --cameras 2000 --delta 0.02 --noise 0.002`
    views = synthesize_views(k=7, cameras=2000, seed=0, delta=0.02, noise=0.002)
    with pytest.warns(MixedOrientationWarning) as record:
        _, _, flipped = register_scenes(views, FrameSpec((1, 2, 4, 3), (5, 6, 7)))
    assert len(flipped) > 5
    message = str(record[0].message)
    head = f"{len(flipped)} of 2000 scenes registered with a flipped chart orientation: "
    assert message == head + "[" + ", ".join(map(repr, flipped[:5])) + ", ...]"
    assert len(message) < 120


def test_skip_degenerate_drops_and_lists_scene(tmp_path):
    good = synthesize_views(k=5, cameras=3, seed=9, delta=0.01, noise=0.002)
    path = tmp_path / "mixed.csv"
    write_landmarks(path, list(good) + [collinear_frame_scene()])

    with pytest.raises(DegenerateFrame, match="bad"):
        run_analysis(StudyConfig(input_path=path))

    rep = run_analysis(StudyConfig(input_path=path, skip_degenerate=True))
    assert rep.provenance["skipped_scenes"] == ["bad"]
    assert rep.full.n == 3
    assert "bad" not in rep.sample.scene_ids


def far_unit_point_study(x):
    """synthesize_views(k=5, cameras=6, seed=0) with the x of scene "1"'s
    landmark 3, the unit point of the default frame, set to x: the scene's
    image under its chart scales as 1/|x|."""
    scenes = list(synthesize_views(k=5, cameras=6, seed=0))
    points = scenes[0].points.copy()
    points[2, 0] = x
    scenes[0] = LandmarkScene(scenes[0].scene_id, points)
    return scenes


@pytest.mark.parametrize("x", [-1e155, -1e158, -1e160])
def test_image_underflow_registers_and_runs(tmp_path, x):
    # images near 1e-160, whose squares fall below the smallest normal
    # double, are scaled by a power of two before they are normalised
    scenes = far_unit_point_study(x)
    spec = FrameSpec((1, 2, 4, 3), (5,))
    sample, skipped, _ = register_scenes(scenes, spec)
    assert skipped == [] and sample.scene_ids[0] == "1"
    assert np.max(np.abs(np.linalg.norm(sample.units, axis=-1) - 1.0)) < 1e-15
    # the other scenes keep every bit
    assert np.array_equal(sample.units[1:], register_scenes(scenes[1:], spec)[0].units)

    path = tmp_path / "far.csv"
    write_landmarks(path, scenes)
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == 0
    assert main(["vw", str(path), "--out", str(tmp_path / "vw.json")]) == 0


@pytest.mark.parametrize("command", ["analyze", "vw"])
def test_image_that_vanishes_exits_3(tmp_path, capsys, command):
    path = tmp_path / "far.csv"
    write_landmarks(path, far_unit_point_study(-1e162))
    out = tmp_path / ("vw.json" if command == "vw" else "out")
    assert main([command, str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: scene '1': point maps to zero, or overflows, under the frame chart\n"
    )


# ---- input row order ----


def permuted_reports(scenes, order, remaining):
    """report.json, as JSON values, of the scenes and of the scenes in `order`."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # orientation and focal-axis warnings
        for rows in (scenes, [scenes[i] for i in order]):
            path = Path(tmp) / "study.csv"
            write_landmarks(path, rows)
            report = run_analysis(StudyConfig(input_path=path, remaining_labels=remaining))
            reports.append(json.loads(json_text(report_fields(report))))
    return reports


def by_scene(report):
    """The report with each per-scene list keyed by scene id, without the
    input's sha256 (the permuted file has other bytes)."""
    ids = report["scene_ids"]
    out = dict(report, scene_ids=sorted(ids))
    out["provenance"] = {k: v for k, v in report["provenance"].items() if k != "input_sha256"}
    for key in ("skipped_scenes", "det_sign_flipped_scenes"):
        out["provenance"][key] = sorted(out["provenance"][key])
    out["directions"] = dict(sorted(zip(ids, report["directions"])))
    out["axes"] = dict(sorted(zip(ids, report["axes"])))
    out["leave_one_out"] = dict(sorted((row["scene_id"], row) for row in report["leave_one_out"]))
    if report["reduction"] is not None:
        reduction = out["reduction"] = dict(report["reduction"])
        for key in ("initial_scene_ids", "final_scene_ids"):
            reduction[key] = sorted(reduction[key])
    return out


@st.composite
def permuted_bent_studies(draw):
    """Bent studies, half of them holding three scenes again under the ids
    d0, d1 and d2, and a permutation of their rows."""
    q = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(5, 40))
    delta = draw(st.sampled_from([0.0, 0.005, 0.02]))
    scenes = synthesize_views(
        k=4 + q, cameras=n, seed=draw(st.integers(0, 2**32 - 1)),
        delta=delta, noise=0.002,
    )
    if draw(st.booleans()):
        copied = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        scenes += [LandmarkScene(f"d{c}", scenes[i].points) for c, i in enumerate(copied)]
    return scenes, draw(st.permutations(range(len(scenes)))), (5, 6, 7)[:q]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(permuted_bent_studies())
def test_permuting_scene_rows_only_reorders_the_per_scene_rows(study):
    scenes, order, remaining = study
    want, got = permuted_reports(scenes, order, remaining)
    assert got["scene_ids"] == [scenes[i].scene_id for i in order]
    # the removal order and the stop reason exactly, copies or not
    removed = [[step["removed_scene_id"] for step in r["reduction"]["steps"]] for r in (got, want)]
    assert removed[0] == removed[1]
    # floats at golden.json's tolerance: the sums over scenes round in
    # input order, so their last bits move with it; every id, flag and
    # count exactly
    ref.assert_close(by_scene(got), by_scene(want), "report")


# ---- command line ----


@pytest.mark.parametrize("command", ["analyze", "reduce", "vw"])
def test_cli_coordinates_that_overflow_exit_3_or_are_skipped(tmp_path, capsys, command):
    # finite coordinates whose frame solve (huge) or image norm (far)
    # overflows float64
    huge = [[1e308, 1e308], [-1e308, 1e308], [1e308, -1e308], [0.0, 0.0], [1.0, 1.0]]
    far = [[0.0, 0.0], [1e-3, 0.0], [3e-4, 4e-4], [0.0, 1e-3], [1e152, 0.0]]
    good = synthesize_views(k=5, cameras=4, seed=9, delta=0.01, noise=0.002)
    path = tmp_path / "overflow.csv"
    write_landmarks(path, [LandmarkScene("huge", np.array(huge))] + list(good)
                    + [LandmarkScene("far", np.array(far))])
    out = tmp_path / ("vw.json" if command == "vw" else "out")
    assert main([command, str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: scene 'huge': frame scalars or chart overflow float64; coordinates too large\n"
    assert not out.exists()

    assert main([command, str(path), "--out", str(out), "--skip-degenerate"]) == 0
    assert capsys.readouterr().err == ""
    if command == "vw":
        written = json.loads(out.read_text(encoding="utf-8"))
        skipped, kept = written["skipped_scenes"], written["blocks"][0]["n"]
    else:
        name = "report.json" if command == "analyze" else "reduction.json"
        written = json.loads((out / name).read_text(encoding="utf-8"))
        skipped, kept = written["provenance"]["skipped_scenes"], len(written["leave_one_out"])
    assert (skipped, kept) == (["huge", "far"], 4)


@pytest.mark.parametrize("command", ["analyze", "reduce", "vw"])
def test_registered_vector_off_unit_norm_exits_3_or_is_skipped(
    tmp_path, capsys, monkeypatch, command
):
    # a registered vector whose norm is off by 1e-9, beyond UNIT_ATOL, makes
    # its scene a DegeneratePoint rather than a ValueError from DirectionSample
    chart_coordinates = opshape.geometry.chart_coordinates

    def off_unit(matrix, points):
        units, vanished = chart_coordinates(matrix, points)
        units[2, 0] *= 1.0 + 1e-9
        return units, vanished

    monkeypatch.setattr(opshape.geometry, "chart_coordinates", off_unit)
    scenes = synthesize_views(k=5, cameras=5, seed=9, delta=0.01, noise=0.002)
    path = tmp_path / "off.csv"
    write_landmarks(path, scenes)
    bad = scenes[2].scene_id
    out = tmp_path / ("vw.json" if command == "vw" else "out")
    assert main([command, str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: scene {bad!r}: registered vector is not unit norm within 1e-12\n"
    assert not out.exists()

    assert main([command, str(path), "--out", str(out), "--skip-degenerate"]) == 0
    assert capsys.readouterr().err == ""
    if command == "vw":
        written = json.loads(out.read_text(encoding="utf-8"))
        skipped, kept = written["skipped_scenes"], written["blocks"][0]["n"]
    else:
        name = "report.json" if command == "analyze" else "reduction.json"
        written = json.loads((out / name).read_text(encoding="utf-8"))
        skipped, kept = written["provenance"]["skipped_scenes"], len(written["leave_one_out"])
    assert (skipped, kept) == ([bad], 4)


@pytest.mark.parametrize("command", ["analyze", "reduce", "vw"])
def test_off_unit_scene_before_a_degenerate_frame_is_the_one_named(
    tmp_path, capsys, monkeypatch, command
):
    # scene 2 registers off unit norm, scene 3 has a collinear frame: the
    # first offender in input order is scene 2, whatever check catches it
    chart_coordinates = opshape.geometry.chart_coordinates

    def off_unit(matrix, points):
        units, vanished = chart_coordinates(matrix, points)
        units[2, 0] *= 1.0 + 1e-9
        return units, vanished

    monkeypatch.setattr(opshape.geometry, "chart_coordinates", off_unit)
    scenes = list(synthesize_views(k=5, cameras=5, seed=9, delta=0.01, noise=0.002))
    scenes[3] = collinear_frame_scene(scenes[3].scene_id)
    message = f"scene {scenes[2].scene_id!r}: registered vector is not unit norm within 1e-12"
    with pytest.raises(opshape.errors.DegeneratePoint) as caught:
        register_scenes(scenes, FrameSpec())
    assert str(caught.value) == message
    path = tmp_path / "order.csv"
    write_landmarks(path, scenes)
    out = tmp_path / ("vw.json" if command == "vw" else "out")
    assert main([command, str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_analyze_succeeds(study_csv, tmp_path, capsys):
    rc = main(["analyze", str(study_csv), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "report.json").exists()
    out = capsys.readouterr().out
    assert "full:" in out and "reduction:" in out and "reduced:" in out


def test_cli_floor_with_removals_left_is_not_the_cap(tmp_path, capsys):
    # a five-scene bent study keeps rejecting down to three scenes; with a
    # cap of 10 it is the floor that stops the reduction, with the default
    # cap (5 // 4 = 1) still the cap
    path = tmp_path / "five.csv"
    write_landmarks(path, synthesize_views(k=5, cameras=5, seed=0, delta=0.02))
    rc = main(["analyze", str(path), "--max-removals", "10", "--out", str(tmp_path / "a")])
    assert rc == 0
    out = capsys.readouterr().out
    report = json.loads((tmp_path / "a" / "report.json").read_text(encoding="utf-8"))
    reduction = report["reduction"]
    assert [s["removed_scene_id"] for s in reduction["steps"]] == ["5", "3"]
    assert reduction["final_scene_ids"] == ["1", "2", "4"]
    assert reduction["stopped_reason"] == "min_scenes_reached"
    assert "reduction: removed [5, 3] (min_scenes_reached)" in out
    schema_path = Path(opshape.__file__).parent / "schemas" / "report.schema.json"
    Draft7Validator(json.loads(schema_path.read_text(encoding="utf-8"))).validate(report)
    assert main(["analyze", str(path), "--out", str(tmp_path / "b")]) == 0
    assert "(max_removals_reached)" in capsys.readouterr().out


def test_cli_missing_input_exits_2(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_malformed_header_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("scene,x,y,landmark\na,0,0,1\n", encoding="utf-8")
    rc = main(["analyze", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_collinear_frame_exits_3(tmp_path, capsys):
    path = tmp_path / "flatframe.csv"
    write_landmarks(path, [collinear_frame_scene()])
    rc = main(["analyze", str(path), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "bad" in capsys.readouterr().err


def test_cli_strict_flags_degenerate_as_4(tmp_path, capsys):
    views = synthesize_views(k=5, cameras=3, seed=0, delta=0.05)
    studies = {
        # two views: the full test is degenerate
        "two": synthesize_views(k=5, cameras=2, seed=0),
        # two repeated pairs and one more view: greedy removes "c", and only
        # the reduced test, of the two pairs, is degenerate
        "pairs": [
            LandmarkScene(sid, views[view].points)
            for sid, view in (("a0", 0), ("a1", 0), ("b0", 1), ("b1", 1), ("c", 2))
        ],
    }
    for name, scenes in studies.items():
        path = tmp_path / f"{name}.csv"
        write_landmarks(path, scenes)
        for command in ("analyze", "reduce"):
            out = tmp_path / name / command
            assert main([command, str(path), "--out", str(out / "plain")]) == 0
            capsys.readouterr()
            rc = main([command, str(path), "--out", str(out / "strict"), "--strict"])
            printed = capsys.readouterr()
            assert rc == 4, (name, command)
            assert "degenerate" in printed.err
            if name == "pairs":
                assert "removed [c]" in printed.out
                assert "reduced: n=4 " in printed.out and "[degenerate]" in printed.out
                assert not run_analysis(StudyConfig(input_path=path)).full.degenerate


def test_cli_focal_mean_exits_4(monkeypatch, tmp_path, capsys):
    def boom(config):
        raise FocalMean("resultant length below tolerance")

    monkeypatch.setattr("opshape.cli.run_analysis", boom)
    rc = main(["analyze", str(tmp_path / "any.csv"), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert "resultant" in capsys.readouterr().err


def test_cli_reduce_writes_reduction(study_csv, tmp_path, capsys):
    out = tmp_path / "red"
    rc = main(["reduce", str(study_csv), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "reduction.json").read_text(encoding="utf-8"))
    assert set(payload) == {"provenance", "config", "leave_one_out", "reduction", "reduced"}
    assert len(payload["leave_one_out"]) == 24
    _, rows = ref.read_csv(out / "loo_table.csv")
    assert len(rows) == 24
    assert "reduction: removed" in capsys.readouterr().out


def test_cli_vw_writes_block_summaries(study_csv, tmp_path, capsys):
    out = tmp_path / "vw.json"
    rc = main(["vw", str(study_csv), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["skipped_scenes"] == []
    assert len(payload["blocks"]) == 1
    block = payload["blocks"][0]
    assert block["n"] == 24
    assert 1 / 3 < block["top_eigenvalue"] <= 1.0
    assert block["total_variance"] >= 0.0
    assert "tS_axial" in capsys.readouterr().out


def test_cli_synth_is_seed_reproducible(tmp_path, capsys):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert main(["synth", "--out", str(a), "--seed", "11", "--cameras", "6"]) == 0
    assert main(["synth", "--out", str(b), "--seed", "11", "--cameras", "6"]) == 0
    assert main(["synth", "--out", str(c), "--seed", "12", "--cameras", "6"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    scenes = parse_landmarks(a)
    assert len(scenes) == 6
    assert all(s.k == 5 for s in scenes)


def test_cli_mc_writes_coverage(tmp_path, capsys):
    out = tmp_path / "mc.json"
    rc = main(
        [
            "mc",
            "--out",
            str(out),
            "--n",
            "20",
            "--reps",
            "10",
            "--seed",
            "5",
            "--oracle-draws",
            "2000",
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["reps"] == 10
    assert 0.0 <= payload["coverage"] <= 1.0
    assert payload["oracle_total_variance"] > 0.0
    assert "coverage" in capsys.readouterr().out


def test_cli_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()



@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("analyze", "--alpha", "1.5"),
        ("analyze", "--alpha-ref", "1.5"),
        ("analyze", "--df", "0"),
        ("analyze", "--max-removals", "-1"),
        ("reduce", "--max-removals", "-1"),
        pytest.param("analyze", "--df", "9" * 400, id="analyze---df-400-digits"),
        pytest.param("reduce", "--max-removals", "9" * 400, id="reduce---max-removals-400-digits"),
    ],
)
def test_cli_bad_statistical_argument_exits_2(study_csv, tmp_path, capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, str(study_csv), "--out", str(tmp_path / "o"), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()

def test_smallest_level_is_the_double_after_two_to_the_minus_53():
    parse = build_parser().parse_args
    smallest = float(np.nextafter(2.0**-53, 1.0))
    assert parse(["mc", "--out", "m", "--alpha", repr(smallest)]).alpha == smallest
    with pytest.raises(SystemExit):
        parse(["mc", "--out", "m", "--alpha", repr(2.0**-53)])


def test_integer_options_stop_at_two_to_the_53():
    # --oracle-draws stops at its own, lower cap: the oracle streams its
    # draws, so memory never stops a large count, only time
    parse = build_parser().parse_args
    for flag, most in (("--n", 2**53), ("--reps", 2**53), ("--oracle-draws", 10**9)):
        assert getattr(parse(["mc", "--out", "m", flag, str(most)]), flag[2:].replace("-", "_")) == most
        with pytest.raises(SystemExit):
            parse(["mc", "--out", "m", flag, str(most + 1)])


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("mc --out {out} --reps 0", 2, "argument --reps: must be >= 1"),
        ("mc --out {out} --n 1", 2, "argument --n: must be >= 2"),
        ("mc --out {out} --n 0", 2, "argument --n: must be >= 2"),
        ("mc --out {out} --oracle-draws 0", 2, "argument --oracle-draws: must be >= 1"),
        ("mc --out {out} --sigma -1", 2, "argument --sigma: must be >= 0"),
        ("mc --out {out} --sigma inf", 2, "argument --sigma: must be >= 0 and finite, got inf"),
        ("synth --out {out} --cameras 0", 2, "argument --cameras: must be >= 1"),
        ("synth --out {out} --k 3", 2, "argument --k: must be >= 5"),
        # integers past 2**53: too large for numpy's sizes and C longs
        pytest.param(
            "synth --out {out} --cameras " + "9" * 400, 2, "argument --cameras: must be at most 2**53",
            id="synth --cameras 400 digits",
        ),
        ("synth --out {out} --k 1" + "0" * 30, 2, "argument --k: must be at most 2**53"),
        ("mc --out {out} --reps 1" + "0" * 30, 2, "argument --reps: must be at most 2**53"),
        ("mc --out {out} --n 1" + "0" * 30, 2, "argument --n: must be at most 2**53"),
        ("mc --out {out} --oracle-draws 1" + "0" * 30, 2, "argument --oracle-draws: must be at most"),
        # 2**53 is below the integer cap, but the oracle streams its draws,
        # so nothing but time would stop it
        ("mc --out {out} --oracle-draws " + str(2**53), 2, "argument --oracle-draws: must be at most 10**9"),
        ("mc --out {out} --oracle-draws 1000000001", 2, "argument --oracle-draws: must be at most 10**9"),
        pytest.param(
            "analyze {study} --out {out} --df " + "9" * 400, 2, "argument --df: must be at most 2**53",
            id="analyze --df 400 digits",
        ),
        # 1 - alpha/2 rounds to 1 at alpha <= 2**-53: the interval is infinite
        ("analyze {study} --out {out} --alpha 1e-300", 2, "argument --alpha: must be in (2**-53, 1), got 1e-300"),
        ("analyze {study} --out {out} --alpha-ref 1e-300", 2, "argument --alpha-ref: must be in (2**-53, 1)"),
        ("reduce {study} --out {out} --alpha-ref 1e-300", 2, "argument --alpha-ref: must be in (2**-53, 1)"),
        ("mc --out {out} --n 5 --reps 3 --alpha 1e-300", 2, "argument --alpha: must be in (2**-53, 1)"),
        ("analyze {study} --out {out} --alpha " + repr(2.0**-53), 2, "argument --alpha: must be in (2**-53, 1)"),
        ("synth --out {out} --delta -1", 2, "argument --delta: must be >= 0"),
        ("synth --out {out} --delta nan", 2, "argument --delta: must be >= 0"),
        ("synth --out {out} --noise -0.5", 2, "argument --noise: must be >= 0"),
        ("synth --out {out} --k 6 --frame 1,2,3,9", 2, "frame label 9 is not a landmark"),
        ("synth --out {out} --k 6 --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("analyze {study} --out {out} --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("vw {study} --out {out} --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("mc --out {out} --sigma 1e200 --n 5 --reps 3", 3, "sigma 1e+200 is too large"),
        ("mc --out {out} --sigma 1e308 --n 5 --reps 3", 3, "sigma 1e+308 is too large"),
        ("analyze {study} --out {out} --frame 1,2,3", 2, "frames need 4 labels"),
        ("vw {study} --out {out} --frame 1,2,3", 2, "frames need 4 labels"),
        ("analyze {study} --out {out} --remaining 9", 2, "has no landmark 9"),
        ("vw {study} --out {out} --remaining 9", 2, "has no landmark 9"),
        ("analyze {latin1} --out {out}", 2, "line 3: not valid UTF-8"),
        ("vw {latin1} --out {out}", 2, "line 3: not valid UTF-8"),
        ("analyze {folder} --out {out}", 2, "cannot read"),
        ("vw {folder} --out {out}", 2, "cannot read"),
        ("analyze {degenerate} --out {out} --skip-degenerate", 3, "no scenes survived"),
        ("vw {degenerate} --out {out} --skip-degenerate", 3, "no scenes survived"),
        ("analyze {huge_quoted} --out {out}", 2, "line 2: field larger than field limit"),
        ("vw {huge_quoted} --out {out}", 2, "line 2: field larger than field limit"),
        ("analyze {huge_plain} --out {out}", 2, "line 3: field larger than field limit"),
        ("vw {huge_plain} --out {out}", 2, "line 3: field larger than field limit"),
    ],
)
def test_cli_bad_input_exits_with_documented_code(study_csv, tmp_path, capsys, argv, code, message):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("scene,landmark,x,y\na,1,0,0\nb\xe9,1,0,0\n".encode("latin-1"))
    degenerate = tmp_path / "degenerate.csv"
    write_landmarks(degenerate, [collinear_frame_scene("bad1"), collinear_frame_scene("bad2")])
    # a scene id longer than csv.field_size_limit(), quoted and not
    huge = "s" * 200_000
    huge_quoted = tmp_path / "huge_quoted.csv"
    huge_quoted.write_text(f'scene,landmark,x,y\n"{huge}",1,0,0\n', encoding="utf-8")
    huge_plain = tmp_path / "huge_plain.csv"
    huge_plain.write_text(f"scene,landmark,x,y\na,1,0,0\n{huge},1,0,0\n", encoding="utf-8")
    out = tmp_path / "out"
    paths = dict(
        study=study_csv,
        latin1=latin1,
        folder=tmp_path,
        degenerate=degenerate,
        huge_quoted=huge_quoted,
        huge_plain=huge_plain,
        out=out,
    )
    try:
        rc = main(argv.format(**paths).split())
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    assert rc == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # one message line; argparse prints its usage lines before it
    lines = err.splitlines()
    assert [line for line in lines if "error:" in line] == [lines[-1]]
    assert message in lines[-1]
    assert not out.exists()


@pytest.mark.parametrize(
    "detail",
    ["Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type uint64", ""],
)
def test_cli_out_of_memory_exits_2(monkeypatch, tmp_path, capsys, detail):
    # stands in for the allocation `mc --reps 10000000000` asks of the generator
    def no_memory(seeds, start, n):
        raise MemoryError(detail)

    monkeypatch.setattr("opshape.rng._words", no_memory)
    out = tmp_path / "mc.json"
    rc = main(["mc", "--out", str(out), "--reps", "10000000000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"error: not enough memory for the requested sizes ({detail or 'no details'})"
    ]
    assert not out.exists()


def test_cli_parser_is_built_once():
    assert build_parser() is build_parser()


@pytest.mark.skipif(shutil.which("opshape") is None, reason="console script not on PATH")
def test_console_script_usage_error_exit_2():
    proc = subprocess.run(["opshape"], capture_output=True, text=True)
    assert proc.returncode == 2
    proc = subprocess.run(["opshape", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


# ---- the import surface: the submodules are the API ------------------------------


def _module_names(tree):
    """(name, statement) of each name a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree):
    """Names a module reads, as a Name, an Attribute or an import, each outside
    the top-level statement that defines that name."""
    found = set()
    for statement in tree.body:
        own = {name for name, _ in _module_names(ast.Module([statement], []))}
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def _class_members(tree):
    """(class name, method name) of each method and property a module's classes define."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, member.name


def test_no_orphan_public_names():
    """Every public module-level name of the package, and every public
    method and property of its classes, is used by the package, a demo or
    the benchmark; tests do not count, nor does __init__.py, which
    re-exports nothing. A method is used when some attribute bears its
    name, or some string of the benchmark, whose tracer patches methods by
    name."""
    package = sorted(p for p in (REPO_ROOT / "src" / "opshape").glob("*.py") if p.name != "__init__.py")
    bench = sorted((REPO_ROOT / "perfbench").glob("*.py"))
    users = package + sorted((REPO_ROOT / "demos").glob("*.py")) + bench
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    used = set().union(*(_references(tree) for tree in trees.values()))
    attributes = {
        node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    } | {
        node.value
        for path in bench
        for node in ast.walk(trees[path])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    orphans = [
        f"{path.stem}.{name}"
        for path in package
        for name, _ in _module_names(trees[path])
        if not name.startswith("_") and name not in used
    ]
    orphans += [
        f"{path.stem}.{cls}.{name}"
        for path in package
        for cls, name in _class_members(trees[path])
        if not name.startswith("_") and name not in attributes
    ]
    assert orphans == []


# imports no package code reads, kept because perfbench/tracer.py patches the
# name in that module; ROADMAP item 1(b) deletes both with the tracer's patches
_PATCHED_IMPORTS = {
    ("cli", "canonical_axis"): "the tracer counts canonical_axis calls through cli",
    ("pipeline", "tangent_gaussian_sample"): "the tracer times synth draws through pipeline",
}


def test_no_unused_module_imports():
    """Every name a module of the package imports at its top level is read
    somewhere in that module, except the tracer's patch points above."""
    unused = []
    for path in sorted((REPO_ROOT / "src" / "opshape").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((path.stem, name))
    assert sorted(unused) == sorted(_PATCHED_IMPORTS)


# numpy names that hand their arithmetic to BLAS or LAPACK
_BLAS_NAMES = {"matmul", "dot", "inner", "vdot", "tensordot", "linalg"}
# modules allowed to use any of them: none
_BLAS_ALLOWED = set()


def test_no_module_calls_blas_or_lapack():
    """No module of the package multiplies matrices with @, calls np.matmul,
    np.dot, a .dot method, np.inner, np.vdot or np.tensordot, or names
    anything of np.linalg: every output value comes from numpy's element-wise
    loops and reductions in a stated order, not from the host's BLAS kernel."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "opshape").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.stem, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
                found.append((path.stem, node.lineno, node.attr))
            elif isinstance(node, ast.alias) and _BLAS_NAMES & set(node.name.split(".")):
                found.append((path.stem, getattr(node, "lineno", 0), node.name))
    assert [f for f in found if f[0] not in _BLAS_ALLOWED] == []


def test_readme_python_example_runs(tmp_path, monkeypatch, capsys):
    """README's Python quickstart, run as written on a synthetic study."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    write_landmarks(
        tmp_path / "study.csv", synthesize_views(k=5, cameras=20, seed=42, delta=0.02, noise=0.002)
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    summary = namespace["summary"]
    assert isinstance(summary, OpsSummary) and summary.n == 20
    printed = capsys.readouterr().out
    assert printed == f"{summary.total_variance} {summary.ci} {summary.reject_ci}\n"
