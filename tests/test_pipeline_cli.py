"""End-to-end pipeline orchestration and command line behavior."""

from __future__ import annotations

import builtins
import csv
import dataclasses
import hashlib
import io as stdio
import json
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator

import opshape
from opshape.cli import build_parser, main
from opshape.directional import OpsSummary, coplanarity_test
from opshape.errors import DegenerateFrame, FocalMean, MixedOrientationWarning
from opshape.geometry import FrameSpec, LandmarkScene
from opshape.io import parse_landmarks, write_landmarks
from opshape.pipeline import (
    StudyConfig,
    emit_outputs,
    register_scenes,
    report_to_dict,
    run_analysis,
    write_report,
)
from opshape.synth import synthesize_views


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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
    # the input is opened once, however the package opens files
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == study_csv.resolve():
            opened.append(args[0] if args else kwargs.get("mode", "r"))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(stdio, "open", counting_open)
    out = tmp_path / "out"
    assert main(["analyze", str(study_csv), "--out", str(out)]) == 0
    assert opened == ["rb"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    expected = hashlib.sha256(study_csv.read_bytes()).hexdigest()
    assert report["provenance"]["input_sha256"] == expected


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


def assert_same_summary(got, expected):
    for field in dataclasses.fields(OpsSummary):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            # repr tells -0.0 from 0.0 and numpy scalars from Python ones
            assert repr(a) == repr(b), field.name


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
    assert_same_summary(rep.reduced, coplanarity_test(reduced_sample, alpha, None))


def test_report_dict_matches_shipped_schema(study_report):
    schema_path = Path(opshape.__file__).parent / "schemas" / "report.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    Draft7Validator.check_schema(schema)
    Draft7Validator(schema).validate(report_to_dict(study_report))


def test_report_json_round_trips_exactly(study_report, tmp_path):
    path = tmp_path / "report.json"
    write_report(study_report, path)
    assert json.loads(path.read_text(encoding="utf-8")) == report_to_dict(study_report)


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

    header, rows = read_csv(paths["sphere_points"])
    assert header == ["scene", "x", "y", "z", "removed"]
    assert len(rows) == n
    assert {r[0] for r in rows if r[4] == "1"} == removed

    header, rows = read_csv(paths["mean_direction"])
    assert header == ["x", "y", "z"]
    assert len(rows) == 1
    np.testing.assert_array_equal(
        [float(v) for v in rows[0]], study_report.full.extrinsic_mean[0]
    )

    header, rows = read_csv(paths["angles_full"])
    assert header == ["scene", "theta_radians"]
    assert len(rows) == n

    _, rows = read_csv(paths["angles_reduced"])
    assert len(rows) == n - len(removed)

    header, rows = read_csv(paths["loo_table"])
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
    d = report_to_dict(rep)
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
    _, rows = read_csv(paths["angles_full"])
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


# ---- command line ----


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
    _, rows = read_csv(out / "loo_table.csv")
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

@pytest.mark.parametrize(
    "argv, code, message",
    [
        ("mc --out {out} --reps 0", 2, "argument --reps: must be >= 1"),
        ("mc --out {out} --n 1", 2, "argument --n: must be >= 2"),
        ("mc --out {out} --n 0", 2, "argument --n: must be >= 2"),
        ("mc --out {out} --oracle-draws 0", 2, "argument --oracle-draws: must be >= 1"),
        ("mc --out {out} --sigma -1", 2, "argument --sigma: must be >= 0"),
        ("synth --out {out} --cameras 0", 2, "argument --cameras: must be >= 1"),
        ("synth --out {out} --k 3", 2, "argument --k: must be >= 5"),
        ("synth --out {out} --delta -1", 2, "argument --delta: must be >= 0"),
        ("synth --out {out} --delta nan", 2, "argument --delta: must be >= 0"),
        ("synth --out {out} --noise -0.5", 2, "argument --noise: must be >= 0"),
        ("synth --out {out} --k 6 --frame 1,2,3,9", 2, "frame label 9 is not a landmark"),
        ("synth --out {out} --k 6 --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("analyze {study} --out {out} --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("vw {study} --out {out} --frame 1,2,3,3", 2, "frame label 3 is repeated"),
        ("mc --out {out} --sigma 1e200 --n 5 --reps 3", 3, "sigma 1e+200 is too large"),
        ("mc --out {out} --sigma 1e308 --n 5 --reps 3", 3, "sigma 1e+308 is too large"),
        ("analyze {study} --out {out} --frame 1,2,3", 2, "needs m=1 coordinates"),
        ("vw {study} --out {out} --frame 1,2,3", 2, "needs m=1 coordinates"),
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
