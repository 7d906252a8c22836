"""Golden output hashes: the bytes of report.json for three fixed studies,
of the `reduce` outputs and of loo_table.csv, of the `opshape mc` JSON, of
the `opshape vw` JSON, of report.json for input with LF line ends and
with quoted scene ids, and of the other CSV views of `opshape analyze`.

A change that moves any reported digit (a faster kernel that rounds
differently, a reordered sum) changes these hashes. Update a hash only
for an intended numeric change, and say why in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import opshape
from opshape.cli import main
from opshape.errors import SchemaError
from opshape.geometry import LandmarkScene
from opshape.io import HEADER, format_float, write_landmarks
from opshape.synth import synthesize_views

GOLDEN = {
    # greedy runs to its n // 4 cap (15 removals)
    "bent": (
        dict(k=5, cameras=60, seed=42, delta=0.02, noise=0.002),
        (),
        "0f17b8d7b6a96f2c9cfd4065d41d24fcf29f891c3724e449e9c685d21c2bf6fc",
    ),
    # exactly planar: greedy stops at its first check, no removals
    "flat": (
        dict(k=5, cameras=41, seed=7, delta=0.0, noise=0.0),
        (),
        "8d6be29d63f765e3a878c9e3f1ca72ecaab7fb88986ffa338480abd395391275",
    ),
    # three sphere blocks (q = 3), greedy to its cap (10 removals)
    "q3": (
        dict(k=7, cameras=40, seed=5, delta=0.02, noise=0.002),
        ("--remaining", "5,6,7"),
        "44815b502c46fef491376c8f990abd6e3bdb4b3d041724bfee3a8fa26ed1eeca",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_golden_hash(tmp_path, name):
    views, extra, expected = GOLDEN[name]
    study = tmp_path / "study.csv"
    write_landmarks(study, synthesize_views(**views))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", str(study), "--out", str(tmp_path / "out"), *extra])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == expected


# bytes of `opshape reduce`'s reduction.json and loo_table.csv, and of
# `opshape analyze`'s loo_table.csv (the same table), recorded from the
# per-row leave-one-out loop and the two CSV writers it had
REDUCE_GOLDEN = {
    "bent": (
        "49dd1221081341da062440f4879f5553fbd8883a1c493650a2953825199b95b1",
        "c4366c807cc0738c2bbbf3e167fabd6081ca9f3def882a97560cca3055fff255",
    ),
    "flat": (
        "8d725046db253aae6ac114b25db64a61471aacef5a45fc6604ccf0238f3f003e",
        "5805a0c2804928414534a0be6297123da77f9ae66b50bc7235dab8c196c52ef5",
    ),
    "q3": (
        "39831b383fc7377383012246631c730e7d82a26dc13ac9b1790ecce861f13117",
        "8d8d68c9053e722b726a54370376c2d40f61d2a667925bc69f2c291e2c5ed0be",
    ),
}


@pytest.mark.parametrize("name", sorted(REDUCE_GOLDEN))
def test_reduce_and_loo_table_bytes_match_golden_hash(tmp_path, name):
    views, extra, _ = GOLDEN[name]
    reduction_hash, loo_hash = REDUCE_GOLDEN[name]
    study = tmp_path / "study.csv"
    write_landmarks(study, synthesize_views(**views))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reduce", str(study), "--out", str(tmp_path / "r"), *extra]) == 0
        assert main(["analyze", str(study), "--out", str(tmp_path / "a"), *extra]) == 0

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(tmp_path / "r" / "reduction.json") == reduction_hash
    assert digest(tmp_path / "r" / "loo_table.csv") == loo_hash
    assert digest(tmp_path / "a" / "loo_table.csv") == loo_hash


# bytes of the `opshape mc` JSON, recorded from the per-replication loop
MC_GOLDEN = {
    # the acceptance size: n=200, 1,000 replications, 10^6 oracle draws
    "acceptance": (
        ("--seed", "0"),
        "d10c1e5f2d4c44368ed9552bd697f0a1da150d1aea469b3a60866347c2e0f91d",
    ),
    # odd sizes: three draws per replication, seven replications, five
    # oracle draws, and the largest seed
    "small_odd": (
        ("--n", "3", "--reps", "7", "--oracle-draws", "5", "--seed", "18446744073709551615"),
        "69661ef0d2d284091fdd957ee1ca4bde2bcf0eadc372c3f6f6612d88716411cc",
    ),
}


@pytest.mark.parametrize("name", sorted(MC_GOLDEN))
def test_mc_bytes_match_golden_hash(tmp_path, name):
    argv, expected = MC_GOLDEN[name]
    out = tmp_path / "mc.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["mc", "--out", str(out), *argv])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# bytes of `opshape vw --remaining 5,6,7` for the q3 study, recorded from
# the csv.reader row loop and the per-scene LandmarkScene list it built
VW_Q3_GOLDEN = "8646ca86544c266b5aefefece5453dd18cf26de8310095a0ba727045bf5f47a2"


def test_vw_bytes_match_golden_hash(tmp_path):
    views, extra, _ = GOLDEN["q3"]
    study = tmp_path / "study.csv"
    write_landmarks(study, synthesize_views(**views))
    _run(["vw", str(study), "--out", str(tmp_path / "vw.json"), *extra])
    assert _sha256(tmp_path / "vw.json") == VW_Q3_GOLDEN


# report.json of the bent study read from CRLF bytes (what write_landmarks
# emits) and from the same rows with LF line ends; the reports differ only
# in provenance.input_sha256, the hash of the bytes that were parsed
LINE_END_GOLDEN = {
    b"\r\n": GOLDEN["bent"][2],
    b"\n": "30299ec1409d28a397a20ed9ec5d646ec61c76c31971be82d8d07430f202f4fe",
}


def test_report_bytes_for_crlf_and_lf_input(tmp_path):
    views, _, _ = GOLDEN["bent"]
    write_landmarks(tmp_path / "written.csv", synthesize_views(**views))
    crlf = (tmp_path / "written.csv").read_bytes()
    assert crlf.count(b"\r\n") == crlf.count(b"\n")
    reports = {}
    for ending, expected in LINE_END_GOLDEN.items():
        study = tmp_path / f"study{len(ending)}.csv"
        study.write_bytes(crlf.replace(b"\r\n", ending))
        out = tmp_path / f"out{len(ending)}"
        _run(["analyze", str(study), "--out", str(out)])
        assert _sha256(out / "report.json") == expected
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["provenance"].pop("input_sha256") == _sha256(study)
        reports[ending] = report
    assert reports[b"\r\n"] == reports[b"\n"]


# report.json of a study whose scene ids hold commas, quotes and spaces, so
# the csv module quotes them and the parser must honour the quoting
QUOTED_GOLDEN = "f7005d05d97d12bf1a53d5bf02d94efa4c2e9607a8c0d0d084682ca7e4211164"


def write_quoted_study(path):
    """The study of 30 bent views whose ids csv.writer must quote or pad."""
    views = synthesize_views(k=5, cameras=30, seed=11, delta=0.02, noise=0.002)
    awkward = ('cam,{}', 'say "{}"', ' pad {} ', 'é{},"x"')
    scenes = [
        LandmarkScene(awkward[i % len(awkward)].format(v.scene_id), v.points)
        for i, v in enumerate(views)
    ]
    # write_landmarks refuses the padded ids, which the parser strips, so
    # the rows are written here as it wrote them before it refused them
    with pytest.raises(SchemaError):
        write_landmarks(path.with_name("refused.csv"), scenes)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        for scene in scenes:
            for label, (x, y) in enumerate(scene.points, start=1):
                writer.writerow([scene.scene_id, label, format_float(x), format_float(y)])
    assert b'"' in path.read_bytes()


def test_report_bytes_for_quoted_scene_ids(tmp_path):
    study = tmp_path / "study.csv"
    write_quoted_study(study)
    _run(["analyze", str(study), "--out", str(tmp_path / "out")])
    assert _sha256(tmp_path / "out" / "report.json") == QUOTED_GOLDEN


# bytes of `opshape analyze`'s other CSV views (sphere_points,
# mean_direction, angles_full, angles_reduced), recorded from the
# csv.writer row loop that passed each float through format_float
CSV_GOLDEN = {
    "bent": (
        "e1280f09098644878d579446cb004ed1cd54d25e2f9d9205094f58ffef2f2c43",
        "20371047e189a12dd94b8ab00c0e44097e1d1a0f77752dc7ad2b7491931550e5",
        "bf6d5ebb0de3c2651bd2aab1f01e2b0902ad130a605b001e3a48784eff06d5de",
        "cb2e3a940d2742066c1d7972e405f571321c8747f08199eab3c96c47f15fd646",
    ),
    # no removals: angles_reduced repeats angles_full
    "flat": (
        "815e8c7405975ad414385e638f2b5d7aaed5925405581ec0e784358f0f5ab973",
        "23f5cee3eb149f5354fa3613daa506d96def89f4e2be1f4e99b8d47e4aa59126",
        "65f50b66c39ec9a3522ba68d0725c2c1298e75bc43b747acc72b3f2f94b31cd5",
        "65f50b66c39ec9a3522ba68d0725c2c1298e75bc43b747acc72b3f2f94b31cd5",
    ),
    # three lines per scene, one per sphere block
    "q3": (
        "e886538ef08c168d7753eb1425b9641886202132415234afcbb73a907c7cbd92",
        "116cbe50da6c59ed533c6a5580a5f1abfd96ff118d430b2bb240f763d4d8104a",
        "2b47a6e4ef9d4b25ca9923e904ac66ed636d1ce02acbe8433ad4f94c9cdfc3c5",
        "602fa086c4fe05dd998e575c8d76e8748ff86b1d6a4b4d5288374cf83c1c29fb",
    ),
    # ids with commas and quotes, written quoted
    "quoted": (
        "43e031447ea9f1a0c9011622d3071807ca6baa209b022f71758a3b78fe8d6bc8",
        "3f31371404494207b95ad6adceb4dd6645c4e3833aebdae8a2e42703bef81830",
        "c99dc4656638ff55119c6881d5b674081f4f25f4dafd8523a89d735a94967ceb",
        "7639e535ba6ebfefa1b7460c92944108505510c681c4b806444f1ce1271f4770",
    ),
}
CSV_VIEWS = ("sphere_points", "mean_direction", "angles_full", "angles_reduced")


@pytest.mark.parametrize("name", sorted(CSV_GOLDEN))
def test_csv_view_bytes_match_golden_hash(tmp_path, name):
    study = tmp_path / "study.csv"
    if name == "quoted":
        write_quoted_study(study)
        extra = ()
    else:
        views, extra, _ = GOLDEN[name]
        write_landmarks(study, synthesize_views(**views))
    _run(["analyze", str(study), "--out", str(tmp_path / "out"), *extra])
    digests = tuple(_sha256(tmp_path / "out" / f"{view}.csv") for view in CSV_VIEWS)
    assert digests == CSV_GOLDEN[name]


# bytes of `opshape synth` output, recorded from the per-camera generator and
# the csv.writer row loop that wrote it
SYNTH_GOLDEN = {
    "--k 7 --cameras 2000 --delta 0.02 --noise 0.002": (
        "d6ad6dbd12fdfdfef489a807ec6fb56608a2d98be1aa68902f4ccd389265d401"
    ),
    "--k 5 --cameras 200 --delta 0.02 --noise 0.002": (
        "9177be83c2e6f03b70ed1868448c79fe906c085fdfbc92ef8a015def1f7076f1"
    ),
}


@pytest.mark.parametrize("args", sorted(SYNTH_GOLDEN))
def test_synth_bytes_match_golden_hash(tmp_path, args):
    out = tmp_path / "study.csv"
    _run(["synth", *args.split(), "--out", str(out)])
    assert _sha256(out) == SYNTH_GOLDEN[args]


# A fresh interpreter runs synth, analyze, reduce, vw and mc in process and
# must not load scipy.special, whose import is most of the package's start-up:
# the normal CDF and quantile are cephes ports, and q = 1 studies test their
# chi-square statistic with df = 2 in closed form. A q = 3 analyze (df = 6) is
# the first call that needs scipy's incomplete gamma; it loads scipy.special
# there and writes the golden bytes.
_SCIPY_PROBE = """
import contextlib, io, sys
from opshape.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv
    return "scipy.special" in sys.modules

work = sys.argv[1]
assert not run("synth", "--k", "7", "--cameras", "30", "--out", work + "/synth.csv")
assert not run("analyze", work + "/bent.csv", "--out", work + "/bent")
assert not run("reduce", work + "/bent.csv", "--out", work + "/reduce")
assert not run("vw", work + "/q3.csv", "--out", work + "/vw.json", "--remaining", "5,6,7")
assert not run("mc", "--out", work + "/mc.json", *sys.argv[2:])
assert run("analyze", work + "/q3.csv", "--out", work + "/q3", "--remaining", "5,6,7")
"""


def test_scipy_special_loads_only_for_chisq_tails_beyond_df_2(tmp_path):
    for name in ("bent", "q3"):
        write_landmarks(tmp_path / f"{name}.csv", synthesize_views(**GOLDEN[name][0]))
    mc_argv, mc_digest = MC_GOLDEN["small_odd"]
    env = dict(os.environ, PYTHONPATH=str(Path(opshape.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), *mc_argv], env=env, check=True
    )
    assert _sha256(tmp_path / "bent" / "report.json") == GOLDEN["bent"][2]
    assert _sha256(tmp_path / "q3" / "report.json") == GOLDEN["q3"][2]
    assert _sha256(tmp_path / "vw.json") == VW_Q3_GOLDEN
    assert _sha256(tmp_path / "mc.json") == mc_digest
