"""Exit-code fuzz of the command line: no input escapes as a traceback.

Small synthetic studies are mutated (extreme field tokens, dropped,
duplicated and cut lines, byte flips, one coordinate or a whole scene
scaled by 10^e) and run in-process through cli.main; so are small synth
and mc arguments, each valid, extreme or invalid. Every
run must end in a documented exit code, and a report written on exit 0
must validate against the shipped schema.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

import opshape
from opshape.cli import main
from opshape.geometry import LandmarkScene
from opshape.io import write_landmarks
from opshape.synth import synthesize_views

EXITS = {0, 2, 3, 4}
SCHEMA = Draft7Validator(
    json.loads((Path(opshape.__file__).parent / "schemas" / "report.schema.json").read_text("utf-8"))
)
# (k, cameras, seed) of the base studies
BASES = [(5, 4, 0), (5, 6, 1), (6, 5, 2), (7, 9, 3)]
TOKENS = [
    "", " ", "nan", "inf", "-inf", "1e309", "-1e309", "1e-330", "-0", "5e-324", "1e308",
    "-1e308", "abc", "0x10", "1_0", "١", '"', '"a,b"', "9" * 400, "-1", "0", "1.5",
    " 3 ", "2147483648", "é", "\0", "-1e158", "-1e160",
]
OPTIONS = [
    [], ["--skip-degenerate"], ["--strict"], ["--frame", "1,2,3,4", "--remaining", "5"],
    ["--remaining", "5,6"], ["--alpha", "0.5", "--alpha-ref", "0.9"], ["--max-removals", "0"],
    ["--df", "1"], ["--skip-degenerate", "--strict", "--max-removals", "1"],
    ["--df", "9" * 400], ["--max-removals", "9" * 400],
]
# the options vw takes: the frame and --skip-degenerate
VW_OPTIONS = [[], ["--skip-degenerate"], ["--frame", "1,2,3,4", "--remaining", "5"], ["--remaining", "5,6"]]


def base_text(k: int, cameras: int, seed: int, scale_scene=None) -> bytes:
    scenes = synthesize_views(k=k, cameras=cameras, seed=seed, delta=0.05, noise=0.001)
    if scale_scene is not None:
        index, exponent = scale_scene
        scene = scenes[index % len(scenes)]
        scenes[index % len(scenes)] = LandmarkScene(scene.scene_id, scene.points * 10.0**exponent)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "base.csv"
        write_landmarks(path, scenes)
        return path.read_bytes()


def mutate(payload: bytes, mutation) -> bytes:
    kind, where, extra = mutation
    lines = payload.split(b"\n")
    i = where % len(lines)
    if kind == "token":
        fields = lines[i].split(b",")
        fields[extra[0] % len(fields)] = extra[1].encode("utf-8")
        lines[i] = b",".join(fields)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "cut":
        lines[i] = lines[i][: extra[0] % (len(lines[i]) + 1)]
    elif kind == "scale":  # one coordinate times 10^e, e in -330..308
        fields = lines[i].split(b",")
        try:
            fields[-1] = repr(float(fields[-1]) * 10.0 ** (extra[0] % 639 - 330)).encode()
        except (ValueError, OverflowError):
            pass
        lines[i] = b",".join(fields)
    else:  # a byte flip
        body = b"\n".join(lines)
        at = where % max(len(body), 1)
        return body[:at] + bytes([extra[0] % 256]) + body[at + 1 :]
    return b"\n".join(lines)


MUTATIONS = st.tuples(
    st.sampled_from(["token", "drop", "duplicate", "cut", "flip", "scale"]),
    st.integers(0, 10_000),
    st.tuples(st.integers(0, 1000), st.sampled_from(TOKENS)),
)


def run(argv) -> int:
    """main's exit code, with SystemExit (argparse's usage errors) as its
    code; its output and warnings are dropped."""
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(stdio.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(  # landmark 3 of scene "1", the unit point, at -1e158: its image underflows
    (5, 6, 1), None, [("token", 3, (2, "-1e158"))], ("analyze", [])
)
@given(
    st.sampled_from(BASES),
    st.none() | st.tuples(st.integers(0, 8), st.integers(-330, 308)),
    st.lists(MUTATIONS, max_size=3),
    st.sampled_from([("analyze", OPTIONS), ("reduce", OPTIONS), ("vw", VW_OPTIONS)]).flatmap(
        lambda pair: st.tuples(st.just(pair[0]), st.sampled_from(pair[1]))
    ),
)
def test_mutated_studies_exit_with_a_documented_code(base, scale, mutations, call):
    command, options = call
    payload = base_text(*base, scale_scene=scale)
    for mutation in mutations:
        payload = mutate(payload, mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.csv"
        path.write_bytes(payload)
        out = Path(tmp) / ("vw.json" if command == "vw" else "out")
        code = run([command, str(path), "--out", str(out), *options])
        assert code in EXITS
        if code == 0 and command == "analyze":
            SCHEMA.validate(json.loads((out / "report.json").read_text(encoding="utf-8")))


# valid values of each synth and mc argument, extremes included; one drawn
# argument at a time takes an invalid token instead
VALID = {
    "--k": ["5", "6", "8"], "--cameras": ["1", "2", "6"], "--delta": ["0", "0.05", "1e300", "1e-320"],
    "--noise": ["0", "0.001", "1e300"], "--frame": ["1,2,4,3", "1,2,3,4", "5,4,3,2"],
    "--n": ["2", "3", "7"], "--reps": ["1", "2", "5"], "--sigma": ["0", "0.1", "3", "1e300", "1e-320"],
    "--alpha": ["0.01", "0.5", "0.999"], "--oracle-draws": ["1", "2", "50"],
    "--seed": ["0", "-3", str(2**64 + 3)],
}
INVALID = [
    "", "x", "-1", "0", "nan", "inf", "1e3", "0.5", "1,1,2,3", "9,2,3,4", "9" * 400, "1" + "0" * 30,
]
SYNTH_ARGS = ["--k", "--cameras", "--delta", "--noise", "--frame", "--seed"]
MC_ARGS = ["--n", "--reps", "--sigma", "--alpha", "--oracle-draws", "--seed"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([("synth", SYNTH_ARGS), ("mc", MC_ARGS)]),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.integers(-1, 5),
    st.sampled_from(INVALID),
)
def test_synth_and_mc_arguments_exit_with_a_documented_code(call, picks, bad, token):
    command, names = call
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, "--out", str(Path(tmp) / ("views.csv" if command == "synth" else "mc.json"))]
        for i, (name, pick) in enumerate(zip(names, picks)):
            argv += [name, token if i == bad else VALID[name][pick]]
        assert run(argv) in EXITS


def test_fuzz_mutations_reach_every_exit():
    """The study fuzz's inputs cover exits 0, 2 and 3, so it tests each path."""
    payload = base_text(5, 6, 1)
    cases = [
        (payload, 0),
        (mutate(payload, ("token", 3, (2, "abc"))), 2),
        (base_text(5, 6, 1, scale_scene=(0, -330)), 3),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "study.csv"
        for body, expected in cases:
            path.write_bytes(body)
            assert run(["analyze", str(path), "--out", str(Path(tmp) / "out")]) == expected
