import csv
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import opshape.io as oio
import reference as ref
from opshape import pipeline
from opshape.diagnostics import LeaveOneOutRow, ReductionStep
from opshape.directional import OpsSummary, angular_distances
from opshape.errors import InvalidLandmark, MixedOrientationWarning, ParseError, SchemaError
from opshape.geometry import LandmarkScene, LandmarkStudy
from opshape.io import json_text, parse_landmarks, write_json, write_landmarks
from opshape.pipeline import write_loo_table
from opshape.synth import synthesize_views

GOOD = """scene,landmark,x,y
a,1,0.0,0.0
a,2,1.0,0.0
a,3,0.0,1.0
a,4,0.3333333333333333,0.3333333333333333
a,5,1.0,1.0
b,5,2.0,2.0
b,4,0.25,0.25
b,3,0.0,1.5
b,2,1.5,0.0
b,1,0.1,-0.1
"""


def write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_well_formed(tmp_path):
    scenes = parse_landmarks(write(tmp_path, GOOD))
    assert [s.scene_id for s in scenes] == ["a", "b"]
    assert all(s.k == 5 for s in scenes)
    np.testing.assert_array_equal(scenes[0].points[4], [1.0, 1.0])
    # rows arrive in any order; landmarks are keyed by label
    np.testing.assert_array_equal(scenes[1].points[0], [0.1, -0.1])
    np.testing.assert_array_equal(scenes[1].points[4], [2.0, 2.0])


def test_parse_rejects_bad_header(tmp_path):
    path = write(tmp_path, "scene,point,x,y\na,1,0,0\n")
    with pytest.raises(ParseError) as err:
        parse_landmarks(path)
    assert err.value.line == 1


def test_parse_rejects_duplicate_pair(tmp_path):
    text = GOOD + "b,2,9.9,9.9\n"
    with pytest.raises(ParseError) as err:
        parse_landmarks(write(tmp_path, text))
    assert err.value.line == 12
    assert "line 12" in str(err.value)


def test_parse_rejects_wrong_field_count(tmp_path):
    text = "scene,landmark,x,y\na,1,0.0\n"
    with pytest.raises(ParseError) as err:
        parse_landmarks(write(tmp_path, text))
    assert err.value.line == 2


def test_parse_rejects_bad_label(tmp_path):
    for label in ("0", "-3", "1.5", "one"):
        text = f"scene,landmark,x,y\na,{label},0.0,0.0\n"
        with pytest.raises(ParseError):
            parse_landmarks(write(tmp_path, text))


def test_parse_rejects_non_finite_coordinates(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        text = f"scene,landmark,x,y\na,1,{bad},0.0\n"
        with pytest.raises(ParseError) as err:
            parse_landmarks(write(tmp_path, text))
        assert err.value.line == 2


def test_parse_rejects_unparseable_float(tmp_path):
    text = "scene,landmark,x,y\na,1,zero,0.0\n"
    with pytest.raises(ParseError) as err:
        parse_landmarks(write(tmp_path, text))
    assert err.value.line == 2


def test_parse_rejects_empty_scene_id(tmp_path):
    text = "scene,landmark,x,y\n,1,0.0,0.0\n"
    with pytest.raises(ParseError):
        parse_landmarks(write(tmp_path, text))


def test_parse_rejects_inconsistent_label_sets(tmp_path):
    text = (
        "scene,landmark,x,y\n"
        "a,1,0,0\na,2,1,0\na,3,0,1\na,4,1,1\na,5,2,2\n"
        "b,1,0,0\nb,2,1,0\nb,3,0,1\nb,4,1,1\n"
    )
    with pytest.raises(SchemaError):
        parse_landmarks(write(tmp_path, text))


def test_parse_rejects_labels_with_gaps(tmp_path):
    text = (
        "scene,landmark,x,y\n"
        "a,1,0,0\na,2,1,0\na,3,0,1\na,4,1,1\na,6,2,2\n"
    )
    with pytest.raises(SchemaError):
        parse_landmarks(write(tmp_path, text))


def test_parse_missing_file():
    with pytest.raises(ParseError):
        parse_landmarks("/nonexistent/landmarks.csv")


def test_written_floats_17_digits_round_trip(tmp_path):
    # 17 significant digits recover any double bit-for-bit
    values = [0.1, 1 / 3, 1e-17, -2.5, np.pi, 2.0 ** -1074]
    path = tmp_path / "floats.csv"
    write_landmarks(path, [LandmarkScene("s", np.array(values).reshape(3, 2))])
    assert parse_landmarks(path).points.ravel().tolist() == values
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert rows[1][3] == "-2.5"
    assert len(rows[0][3].replace("0.", "")) == 17


def test_round_trip_preserves_values_exactly(tmp_path):
    gen = np.random.default_rng(12)
    scenes = []
    for sid in ("first", "second", "3"):
        pts = gen.standard_normal((5, 2)) * np.pi
        scenes.append(LandmarkScene(scene_id=sid, points=pts))
    path = tmp_path / "round.csv"
    write_landmarks(path, scenes)
    back = parse_landmarks(path)
    assert [s.scene_id for s in back] == ["first", "second", "3"]
    for a, b in zip(scenes, back):
        np.testing.assert_array_equal(a.points, b.points)


def test_round_trip_awkward_scene_ids(tmp_path):
    pts = np.arange(10, dtype=float).reshape(5, 2)
    scenes = [
        LandmarkScene(scene_id="with space", points=pts),
        LandmarkScene(scene_id="comma,inside", points=pts + 1),
    ]
    path = tmp_path / "quoted.csv"
    write_landmarks(path, scenes)
    back = parse_landmarks(path)
    assert [s.scene_id for s in back] == ["with space", "comma,inside"]
    np.testing.assert_array_equal(back[1].points, pts + 1)


# ---- the columnar pass against the csv.reader row loop ----------------------------

HEAD = "scene,landmark,x,y"


def csv_bytes(rows, term="\n", final=True, head=HEAD):
    lines = [head] + [",".join(str(f) for f in row) for row in rows]
    return (term.join(lines) + (term if final else "")).encode("utf-8")


def grid(ids=("a", "b"), k=3, label="{}", x="0.5", y="-0.25"):
    return [[sid, label.format(j), x, f"{y}{j}"] for sid in ids for j in range(1, k + 1)]


def row_loop(payload):
    return oio._read_rows(oio._decode(payload))


def columns(payload, block_bytes=None, limit=None):
    """_read_columns with its block size and the csv field limit set."""
    old = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        with mock.patch.object(oio, "_BLOCK_BYTES", block_bytes or oio._BLOCK_BYTES):
            fast = oio._read_columns(payload)
            # the row loop runs under the same field limit
            return fast, ref.outcome(row_loop, payload, errors=(ParseError, SchemaError))
    finally:
        csv.field_size_limit(old)


def assert_paths_agree(payload, block_bytes=None, limit=None):
    fast, expected = columns(payload, block_bytes, limit)
    if fast is not None:
        assert ref.outcome(lambda: fast) == expected
    return fast


def block_cut_on_line_end():
    """Over one default block of rows, one of whose line ends sits exactly
    where the first block would be cut."""
    head = (HEAD + "\n").encode()
    lines = [f"s{i // 4},{i % 4 + 1},0.5,{i}\n".encode() for i in range(6000)]
    target = len(head) + oio._BLOCK_BYTES
    ends, pos = [], len(head)
    for line in lines:
        pos += len(line)
        ends.append(pos - 1)
    before = max(e for e in ends if e <= target)
    pad = target - before  # leading zeros on the first x move every end by pad
    lines[0] = lines[0].replace(b",0.5,", b"," + b"0" * pad + b"0.5,", 1)
    payload = head + b"".join(lines)
    assert payload[target : target + 1] == b"\n"
    return payload


BLOCK_CUT = block_cut_on_line_end()
CRLF = csv_bytes(grid(), term="\r\n")
IDS = ["a", "b", "scene one", " padded ", "comma,id", 'say "hi"', "\u00e9t\u00e9", "\u65e5\u672c", "x\x1c"]
LABELS = ["{}", "{}", "{}", "+{}", " {}", "0{}", "{} "]
ODD_LABELS = ["{}_0", "0", "-1", "1.5", "x", "", str(2**63), str(2**64 + 1), "\u0663"]
FLOATS = ["1_0.5", " 1e3 ", "-0", "1E-3", "+.5", "\u0661.5"]
ODD_FLOATS = ["inf", "-inf", "nan", "Infinity", "1e400", "abc", "", "0x1p3"]
EDITS = ["blank", "space_line", "bare_cr", "bom", "duplicate", "drop", "nul", "empty", "extra"]


@st.composite
def csv_shaped(draw):
    """Landmark files built from awkward parts: a grid of (scene, label)
    rows, shuffled and spelled in odd ways; half of them are then damaged,
    the other half stay valid."""
    damaged = draw(st.booleans())
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    if damaged:
        ids = draw(st.lists(st.sampled_from(IDS) | st.text(max_size=3), min_size=n, max_size=n))
    else:
        ids = draw(st.lists(st.sampled_from(IDS), min_size=n, max_size=n, unique=True))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    coord = finite.map("{:.17g}".format) | finite.map(repr) | st.sampled_from(FLOATS)
    if damaged:
        coord = coord | st.floats().map(repr) | st.sampled_from(ODD_FLOATS)
    rows = []
    for sid in ids:
        if any(c in sid for c in ',"\r\n') and (not damaged or draw(st.booleans())):
            sid = '"' + sid.replace('"', '""') + '"'  # quoted as csv.writer would
        for j in range(1, k + 1):
            spelled = draw(st.sampled_from(LABELS)).format(j)
            if damaged and draw(st.integers(0, 9)) == 0:
                spelled = draw(st.sampled_from(ODD_LABELS)).format(j)
            x, y = (draw(coord) if draw(st.integers(0, 3)) == 0 else format(j / 3, ".17g") for _ in "xy")
            rows.append(f"{sid},{spelled},{x},{y}")
    rows = draw(st.permutations(rows))
    edits = draw(st.lists(st.sampled_from(EDITS), min_size=1, max_size=2)) if damaged else []
    at = draw(st.integers(0, len(rows)))
    if "duplicate" in edits and rows:
        rows.insert(at, rows[at % len(rows)])
    if "drop" in edits and rows:
        del rows[at % len(rows)]
    if "extra" in edits and rows:
        rows[at % len(rows)] += ",1"
    if "blank" in edits:
        rows.insert(at, "")
    if "space_line" in edits:
        rows.insert(at, "  ")
    if "empty" in edits:
        rows = []
    mode = draw(st.sampled_from(["\n", "\r\n", "mixed"] if damaged else ["\n", "\r\n"]))
    lines = [HEAD] + rows
    terms = [draw(st.sampled_from(["\n", "\r\n"])) if mode == "mixed" else mode for _ in lines]
    if "bare_cr" in edits:
        terms[at % len(terms)] = "\r"
    if draw(st.booleans()):  # no final line end
        terms[-1] = ""
    text = "".join(line + term for line, term in zip(lines, terms))
    if "bom" in edits:
        text = "\ufeff" + text
    if "nul" in edits:
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "\0" + text[cut:]
    return text.encode("utf-8")


payloads = st.one_of(
    csv_shaped(),
    csv_shaped(),
    st.binary(max_size=64),
    st.binary(max_size=48).map(lambda b: (HEAD + "\n").encode() + b),
)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(payloads, st.sampled_from([None, 3, 7, 16, 64]), st.sampled_from([None, None, 24]))
@example(csv_bytes(grid(ids=("scene one", " padded "))), None, None)
@example(csv_bytes(grid()).replace(b"a,", b'"comma,id",'), None, None)
@example(csv_bytes(grid()).replace(b"a,", b'"say ""hi""",'), None, None)
@example(csv_bytes(grid(ids=("\u00e9t\u00e9", "\u65e5\u672c"))), None, None)
@example(csv_bytes(grid(label="+{}")), None, None)
@example(csv_bytes(grid(label=" {}")), None, None)
@example(csv_bytes(grid(label="0{}")), None, None)
@example(csv_bytes(grid(label="{}_0")), None, None)
@example(csv_bytes(grid(x="1_0.5")), None, None)
@example(csv_bytes(grid(x=" 1e3 ")), None, None)
@example(csv_bytes(grid(x="inf")), None, None)
@example(csv_bytes(grid(x="nan")), None, None)
@example(csv_bytes(grid(x="Infinity")), None, None)
@example(csv_bytes(grid(), term="\r\n"), None, None)
@example(csv_bytes(grid(), term="\r\n").replace(b"\r\n", b"\n", 2), None, None)
@example(csv_bytes(grid()).replace(b"\n", b"\r", 2), None, None)
@example(csv_bytes(grid()).replace(b"\nb", b"\n\nb", 1), None, None)
@example(csv_bytes(grid()) + b"\n\n", None, None)
@example("\ufeff".encode() + csv_bytes(grid()), None, None)
@example(csv_bytes(grid(), final=False), None, None)
@example(csv_bytes(grid(), term="\r\n", final=False), None, None)
@example(csv_bytes(grid() + [["a", "2", "9", "9"]]), None, None)
@example(csv_bytes([r for r in grid() if r[1] != "2"]), None, None)
@example(csv_bytes([["a", str(2**63), "0", "0"]]), None, None)
@example(csv_bytes([["a", "1", "0", "0"], ["a", str(2**63 + 1), "0", "0"]]), None, None)
@example(csv_bytes([]), None, None)
@example(csv_bytes([], final=False), None, None)
@example(b"", None, None)
@example(csv_bytes(grid()).replace(b"0.5", b"0\x005", 1), None, None)
@example(csv_bytes([["s" * 200_000, "1", "0", "0"]]), None, None)
@example(csv_bytes(grid(ids=("abcdefg", "b"))), None, 6)
@example(csv_bytes([[f"s{i}", "1", "0", "0"] for i in range(9)]), 7, None)
@example(csv_bytes([[f"s{i}", "1", "0", "0"] for i in range(9)], term="\r\n"), 7, None)
@example(BLOCK_CUT, None, None)
@example(csv_bytes(grid(), head=" scene ,landmark\t, x,y"), None, None)
@example(csv_bytes(grid(), head="scene,landmark,x,y\u3000"), None, None)
def test_columnar_pass_equals_row_loop(payload, block_bytes, limit):
    assert_paths_agree(payload, block_bytes, limit)


@pytest.mark.parametrize(
    "payload",
    [
        csv_bytes(grid(ids=("scene one", " padded "))),
        csv_bytes(grid(ids=("\u00e9t\u00e9", "\u65e5\u672c"))),
        csv_bytes(grid(label="+{}")),
        csv_bytes(grid(label=" {}")),
        csv_bytes(grid(label="0{}")),
        csv_bytes(grid(x="1_0.5")),
        csv_bytes(grid(x=" 1e3 ")),
        csv_bytes(grid(), term="\r\n"),
        csv_bytes(grid(), final=False),
        csv_bytes(grid(), term="\r\n", final=False),
        csv_bytes(grid(), head=" scene ,landmark\t, x,y"),
        BLOCK_CUT,
    ],
)
def test_plain_files_take_the_columnar_pass(payload):
    for block_bytes in (None, 7):
        assert assert_paths_agree(payload, block_bytes) is not None


@pytest.mark.parametrize(
    "payload",
    [
        csv_bytes(grid()).replace(b"a,", b'"a",'),
        csv_bytes(grid()).replace(b"\n", b"\r\n", 1),
        csv_bytes(grid()).replace(b"\nb", b"\n\nb", 1),
        csv_bytes(grid()).replace(b"\nb", b"\n  \nb", 1),
        csv_bytes(grid()).replace(b"a,", b"a\x00,", 1),
        csv_bytes(grid() + [["a", "1", "0", "0"]]),
        csv_bytes(grid(x="nan")),
        csv_bytes(grid(label="{}_0")),
        csv_bytes([["s" * 200_000, "1", "0", "0"]]),
        # line ends the columnar pass checks block by block
        CRLF.replace(b"\r\na,2,", b"\na,2,", 1),  # one bare \n line end
        CRLF.replace(b"\r\na,2,", b"\r\r\na,2,", 1),
        csv_bytes(grid(x="0.5\r")),  # a \r in an x field of an LF file, which float() strips
        CRLF + b"\r\n",  # ends in \r\n\r\n
        CRLF.replace(b"scene,", b"scene\r,", 1),  # a \r the header's strip would hide
    ],
)
def test_irregular_files_fall_back_to_the_row_loop(payload):
    for block_bytes in (None, 7):
        assert assert_paths_agree(payload, block_bytes) is None


def test_multi_block_study_takes_the_columnar_pass(tmp_path):
    # the shape the wide benchmark parses: k = 7 rows written by
    # write_landmarks, over more than one default block
    views = synthesize_views(k=7, cameras=300, seed=4, delta=0.02, noise=0.002)
    write_landmarks(tmp_path / "wide.csv", views)
    crlf = (tmp_path / "wide.csv").read_bytes()
    assert len(crlf) > oio._BLOCK_BYTES and crlf.count(b"\r\n") == 1 + 7 * 300
    for payload in (crlf, crlf.replace(b"\r\n", b"\n")):
        fast = assert_paths_agree(payload)
        assert fast is not None and len(fast[0]) == 300


# ---- write_landmarks then parse_landmarks ------------------------------------------

scene_ids = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"), min_size=1, max_size=6
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(scene_ids, min_size=1, max_size=4, unique=True)
    | st.lists(st.from_regex(r"[a-z0-9_.-]{1,6}", fullmatch=True), min_size=1, max_size=4, unique=True),
    st.integers(1, 5),
    st.data(),
)
@example(["plain", "ids"], 3, None)
@example(["comma,id", 'say "hi"', "line\nbreak", "\u00e9"], 2, None)
@example([" a ", "a"], 2, None)
@example(["a", "\u3000"], 1, None)
def test_write_then_parse_round_trips_exactly(tmp_path_factory, ids, k, data):
    # a study either round-trips bit-exactly or is refused, naming an id the
    # parser would strip, before anything is written
    shape = (len(ids), k, 2)
    if data is None:
        points = np.random.default_rng(len(ids)).standard_normal(shape) * 1e3
    else:
        finite = st.floats(allow_nan=False, allow_infinity=False)
        points = data.draw(hnp.arrays(np.float64, shape, elements=finite))
    path = tmp_path_factory.mktemp("round_trip") / "study.csv"
    try:
        write_landmarks(path, [LandmarkScene(sid, p) for sid, p in zip(ids, points)])
    except SchemaError as exc:
        assert not path.exists()
        assert any(repr(sid) in str(exc) for sid in ids if sid != sid.strip())
        return
    back = parse_landmarks(path)
    assert back.ids == tuple(ids)
    assert back.points.tobytes() == np.ascontiguousarray(points).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            scene_ids.filter(lambda sid: sid == sid.strip()),
            st.integers(1, 7),
            st.integers(0, 2**32 - 1),
        ),
        max_size=12,
    ),
    st.sampled_from([1, 5, 1000]),
)
@example([("comma,id", 3, 1), ('say "hi"', 1, 2), ("line\nbreak", 5, 3), ("\u00e9", 2, 4)], 1)
@example([("a", 5, 0)] * 300, 1000)
def test_write_landmarks_writes_the_bytes_of_csv_writer(tmp_path_factory, specs, block):
    # scenes of mixed sizes, ids csv.writer must quote, and blocks that end
    # inside, at and after a scene
    scenes = [
        LandmarkScene(sid, np.random.default_rng(seed).standard_normal((k, 2)) * 10.0 ** (seed % 9 - 4))
        for sid, k, seed in specs
    ]
    path = tmp_path_factory.mktemp("written") / "study.csv"
    with mock.patch.object(oio, "_WRITE_ROWS", block):
        write_landmarks(path, scenes)
    rows = [
        (scene.scene_id, label, x, y)
        for scene in scenes
        for label, (x, y) in enumerate(scene.points.tolist(), start=1)
    ]
    assert path.read_bytes() == ref.csv_writer_bytes(oio.HEADER, rows)


@pytest.mark.parametrize("bad", ["", " ", " a", "a\t", "\u00a0a"])
def test_write_landmarks_refuses_ids_the_parser_would_change(tmp_path, bad):
    pts = np.arange(10, dtype=float).reshape(5, 2)
    path = tmp_path / "study.csv"
    with pytest.raises(SchemaError, match=re.escape(repr(bad))):
        write_landmarks(path, [LandmarkScene("ok", pts), LandmarkScene(bad, pts)])
    assert not path.exists()


@pytest.mark.parametrize("m", [1, 3])
def test_write_landmarks_refuses_points_that_are_not_planar(tmp_path, m):
    path = tmp_path / "study.csv"
    good = LandmarkScene("ok", np.zeros((5, 2)))
    bad = LandmarkScene("bent", np.arange(5.0 * m).reshape(5, m))
    with pytest.raises(SchemaError, match=re.escape(f"'bent' has points of shape (5, {m})")):
        write_landmarks(path, [good, bad])
    assert not path.exists()


# ---- LandmarkStudy ----------------------------------------------------------------


def test_study_points_are_read_only_and_scenes_built_on_demand():
    points = np.arange(24, dtype=float).reshape(2, 6, 2)
    study = LandmarkStudy(("a", "b"), points, "digest")
    assert len(study) == 2 and study.sha256 == "digest"
    assert not study.points.flags.writeable
    with pytest.raises(ValueError):
        study.points[0, 0, 0] = 1.0
    points[0, 0, 0] = -1.0  # the study keeps its own copy
    assert study.points[0, 0, 0] == 0.0
    for i, scene in enumerate(study):
        expected = LandmarkScene(study.ids[i], study.points[i])
        assert scene.scene_id == expected.scene_id
        np.testing.assert_array_equal(scene.points, expected.points)
    assert study[-1].scene_id == "b"
    with pytest.raises(IndexError):
        study[2]


def test_study_rejects_bad_stacks():
    with pytest.raises(InvalidLandmark):
        LandmarkStudy(("a",), np.array([[[0.0, np.nan]]]))
    with pytest.raises(InvalidLandmark):
        LandmarkStudy(("a",), np.array([[[0.0, np.inf]]]))
    with pytest.raises(InvalidLandmark):
        LandmarkStudy(("a",), np.zeros((1, 2)))
    with pytest.raises(InvalidLandmark):
        LandmarkStudy((), np.zeros((0, 5, 2)))
    with pytest.raises(ValueError):
        LandmarkStudy(("a", "b"), np.zeros((1, 5, 2)))


# ---- the JSON writer against json.dumps(indent=2) ----------------------------------

AWKWARD_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",))
    | st.sampled_from(['"', ",", "[", "]", "{", "}", ":", "\\", "\0", "\x1f", "\x7f", "\u00e9",
                       "\u65e5", "\u2028", "\U0001f600"]),
    max_size=8,
)
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
     0.1, 1e16, 1e-7, math.nan, math.inf, -math.inf]
)
JSON_FLOATS = st.floats() | EDGE_FLOATS
JSON_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=None,
) | hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4), elements=JSON_FLOATS
)
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_FLOATS.map(np.float64)
    | AWKWARD_TEXT | JSON_ARRAYS
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(AWKWARD_TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example({"ids": ['a"b', "c,d", "[e]", "f\\g", "\x01\n", "\u00e9\u65e5"], "empty": [[], {}, ()]})
@example([True, 1, 1.0, False, 0, 0.0, None])
@example({"x": np.array([[-0.0, 5e-324], [1e308, np.nan]]), "y": np.array(math.inf), "z": -math.inf})
@example({"stack": np.zeros((2, 0, 3)), "scalar": np.array(0.5), "ints": np.arange(4).reshape(2, 2)})
def test_json_text_equals_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(ref.json_native(value), indent=2, ensure_ascii=True)


def test_json_text_refuses_what_json_cannot_hold():
    for bad in (object(), {1: 2}, np.array([1j]), {"a": [np.int64(3)]}):
        with pytest.raises(TypeError):
            json_text(bad)


def test_write_json_ends_with_a_newline(tmp_path):
    write_json(tmp_path / "out.json", {"a": np.array([1.5, np.nan])})
    assert (tmp_path / "out.json").read_bytes() == b'{\n  "a": [\n    1.5,\n    null\n  ]\n}\n'


# ---- report tables: one %-template per table against json.dumps --------------------

# the layout of a summary in report.json, written out independently of the pipeline
SUMMARY_KEYS = (
    "n", "q", "dim", "alpha", "df", "mean_vector", "resultant", "extrinsic_mean",
    "total_variance", "covariance", "se", "z", "t_stat", "p_normal", "p_chisq", "ci",
    "degenerate", "reject_ci", "reject_chisq",
)

# ids with quotes, backslashes, commas, % and control and non-ASCII characters
TABLE_IDS = st.text(
    st.sampled_from(['"', "\\", ",", "%", "s", "r", "\0", "\x1f", "\n", "\x7f", "\u00e9",
                     "\u65e5", "\u2028", "\U0001f600"])
    | st.characters(blacklist_categories=("Cs",)),
    max_size=6,
)
# finite floats whose sums over a table stay finite
FINITE_TABLE_FLOATS = st.floats(-1e300, 1e300) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1e16]
)
# the floats of one table: all finite, some not, or np.float64, a float
# subclass whose repr is not its JSON text
TABLE_FLOATS = st.sampled_from([
    FINITE_TABLE_FLOATS,
    FINITE_TABLE_FLOATS | JSON_FLOATS,
    (FINITE_TABLE_FLOATS | JSON_FLOATS).map(np.float64),
])


def loo_table(rows):
    """(the leave-one-out table as report_fields hands it over, its rows as dicts)."""
    rows = [LeaveOneOutRow(*row) for row in rows]
    native = [
        {"scene_id": r.scene_id, "total_variance": r.total_variance, "se": r.se, "z": r.z,
         "ci_lower": r.ci_lower, "degenerate": r.degenerate, "focal": r.focal}
        for r in rows
    ]
    return oio.RowTable(LeaveOneOutRow._fields, rows), native


def steps_table(steps):
    """(the reduction steps as report_fields hands them over, as dicts)."""
    rows = [(s.removed_scene_id, s.ci_lower, pipeline._summary_row(s.summary)) for s in steps]
    native = [
        {"removed_scene_id": s.removed_scene_id, "ci_lower": s.ci_lower,
         "summary": {key: getattr(s.summary, key) for key in SUMMARY_KEYS}}
        for s in steps
    ]
    return oio.RowTable(pipeline._STEP_KEYS, rows), native


def nan_summary():
    """A q = 1 summary whose only non-finite values sit in its arrays."""
    return OpsSummary(
        n=5, q=1, dim=3, alpha=0.05, df=2, mean_vector=np.array([[math.nan, 0.0, 1.0]]),
        resultant=np.array([1.0]), extrinsic_mean=np.array([[0.0, -0.0, 1.0]]),
        total_variance=0.5, covariance=np.diag([math.inf, 1.0, 5e-324]), se=0.25, z=2.0,
        t_stat=2.5, p_normal=0.01, p_chisq=0.02, ci=(0.1, 0.9), degenerate=False,
        reject_ci=True, reject_chisq=True,
    )


@st.composite
def loo_tables(draw):
    floats = draw(TABLE_FLOATS)
    row = st.tuples(TABLE_IDS, floats, floats, floats, floats, st.booleans(), st.booleans())
    return loo_table(draw(st.lists(row, max_size=60)))


@st.composite
def reduction_tables(draw):
    floats = draw(TABLE_FLOATS)
    # the arrays' elements, drawn apart: a NaN or an infinity inside an
    # array field of a table whose other floats are finite
    elements = draw(st.sampled_from([FINITE_TABLE_FLOATS, FINITE_TABLE_FLOATS | JSON_FLOATS]))
    q, d = draw(st.sampled_from([1, 3])), 3

    def array(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    steps = []
    for _ in range(draw(st.integers(0, 5))):
        summary = OpsSummary(
            n=draw(st.integers(3, 400)), q=q, dim=d, alpha=draw(floats),
            df=draw(st.integers(1, 12)), mean_vector=array(q, d), resultant=array(q),
            extrinsic_mean=array(q, d), total_variance=draw(floats),
            covariance=array(q * d, q * d), se=draw(floats), z=draw(floats),
            t_stat=draw(floats), p_normal=draw(floats), p_chisq=draw(floats),
            ci=(draw(floats), draw(floats)), degenerate=draw(st.booleans()),
            reject_ci=draw(st.booleans()), reject_chisq=draw(st.booleans()),
        )
        steps.append(ReductionStep(draw(TABLE_IDS), summary, draw(floats)))
    return steps_table(steps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loo_tables() | reduction_tables(), st.lists(st.sampled_from(["list", "dict"]), max_size=3))
@example(
    loo_table([('a"%s', math.nan, -0.0, math.inf, 5e-324, False, True),
               ("\\,\x01\u00e9%", 0.5, -math.inf, 1.0, -0.0, True, False)]),
    ["dict"],
)
@example(loo_table([("%d%%", 0.25, 5e-324, -0.0, 1e300, True, False)] * 3), ["list"])
@example(loo_table([]), ["dict", "list"])
@example(loo_table([("f", np.float64(0.5), np.float64(math.nan), 1.0, -0.0, True, False)] * 2), [])
@example(steps_table([ReductionStep("s%s", nan_summary(), 0.5)]), ["dict"])
@example(  # columns whose values differ in type, length or shape, each written on its own
    (oio.RowTable(("a", "b"), [(None, [1]), (1.5, [1, 2.5]), ("x", np.zeros(2)), (2, np.eye(2))]),
     [{"a": None, "b": [1]}, {"a": 1.5, "b": [1, 2.5]}, {"a": "x", "b": np.zeros(2)},
      {"a": 2, "b": np.eye(2)}]),
    ["dict"],
)
@example(  # keys that hold a %, and lists of arrays and tuples inside a row
    (oio.RowTable(("%s", ("x%d", ("%",))), [("a", ((np.eye(2), (3, 4.5)),))] * 2),
     [{"%s": "a", "x%d": {"%": [np.eye(2), [3, 4.5]]}}] * 2),
    ["list", "dict"],
)
def test_row_tables_equal_json_dumps_of_their_rows(drawn, wrappers):
    table, native = drawn
    value = table
    for wrapper in wrappers:
        value, native = ([value], [native]) if wrapper == "list" else ({"t%s": value}, {"t%s": native})
    assert json_text(value) == json.dumps(ref.json_native(native), indent=2, ensure_ascii=True)


def report_objects(report):
    """report.json as the dicts and lists it stands for, written out
    independently of report_fields."""

    def summary(s):
        return {key: getattr(s, key) for key in SUMMARY_KEYS}

    def vw(v):
        return {"n": v.n, "mean_matrix": v.mean_matrix, "top_eigenvalue": v.top_eigenvalue,
                "top_axis": v.top_axis, "eigengap": v.eigengap,
                "total_variance": v.total_variance, "focal": v.focal}

    cfg, trace = report.config, report.trace
    return {
        "format": "opshape-report",
        "provenance": report.provenance,
        "config": {"frame_labels": cfg.frame_labels, "remaining_labels": cfg.remaining_labels,
                   "alpha": cfg.alpha, "alpha_ref": cfg.alpha_ref, "df": cfg.df,
                   "max_removals": cfg.max_removals, "skip_degenerate": cfg.skip_degenerate},
        "scene_ids": report.sample.scene_ids,
        "directions": report.sample.units,
        "axes": report.axes,
        "full": summary(report.full),
        "vw_full": [vw(v) for v in report.vw_full],
        "leave_one_out": loo_table(report.loo)[1],
        "reduction": None if trace is None else {
            "alpha_ref": trace.alpha_ref, "stopped_reason": trace.stopped_reason,
            "initial_scene_ids": trace.initial_scene_ids,
            "final_scene_ids": trace.final_scene_ids,
            "steps": [
                {"removed_scene_id": s.removed_scene_id, "ci_lower": s.ci_lower,
                 "summary": summary(s.summary)}
                for s in trace.steps
            ],
        },
        "reduced": None if report.reduced is None else summary(report.reduced),
        "vw_reduced": None if report.vw_reduced is None else [vw(v) for v in report.vw_reduced],
    }


def test_report_with_a_focal_row_equals_json_dumps_of_its_objects(tmp_path):
    """A study whose leave-one-out table holds a focal row with NaN statistics.

    A mirrored scene registers to the negated direction, so deleting c
    leaves two antipodal pairs, whose mean is focal.
    """
    base = synthesize_views(k=5, cameras=3, seed=0, delta=0.3)
    mirror = np.array([-1.0, 1.0])
    scenes = [
        LandmarkScene("a", base[0].points), LandmarkScene("a'", base[0].points * mirror),
        LandmarkScene("b", base[1].points), LandmarkScene("b'", base[1].points * mirror),
        LandmarkScene("c", base[2].points),
    ]
    write_landmarks(tmp_path / "study.csv", scenes)
    with pytest.warns(MixedOrientationWarning):
        report = pipeline.run_analysis(pipeline.StudyConfig(tmp_path / "study.csv"))
    pipeline.emit_outputs(report, tmp_path / "out")
    assert [row.focal for row in report.loo] == [False] * 4 + [True]
    assert math.isnan(report.loo[4].total_variance)

    expected = report_objects(report)
    text = json.dumps(ref.json_native(expected), indent=2, ensure_ascii=True) + "\n"
    assert (tmp_path / "out" / "report.json").read_text(encoding="utf-8") == text
    assert '"focal": true' in text and '"total_variance": null' in text


def test_report_with_float64_levels_equals_json_dumps_of_its_objects(tmp_path):
    """Levels given through the Python API as np.float64, a float subclass
    whose repr is not its JSON text, are written as json writes them."""
    path = tmp_path / "study.csv"
    write_landmarks(path, synthesize_views(k=5, cameras=16, seed=4, delta=0.02, noise=0.002))
    config = pipeline.StudyConfig(path, alpha=np.float64(0.05), alpha_ref=np.float64(0.1))
    report = pipeline.run_analysis(config)
    assert type(report.config.alpha) is np.float64 and report.trace is not None
    expected = json.dumps(ref.json_native(report_objects(report)), indent=2, ensure_ascii=True)
    assert json_text(pipeline.report_fields(report)) == expected
    assert '"alpha": 0.05' in expected and '"alpha_ref": 0.1' in expected


# ---- the CSV views: %-templates against the csv.writer row loop ----------------------

# scene ids with every character csv.writer quotes for, and some it does not; no
# NUL, which csv.writer refuses before Python 3.11 (as scene_ids above)
CSV_IDS = st.text(
    st.sampled_from(',"\r\n \ta1é日')
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
    max_size=6,
)
CSV_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.nan, 1 / 3]
)


@st.composite
def csv_tables(draw):
    """(header, line, rows) of one row shape: up to two ids, at least one
    float and up to two ints, in any order (the views put their one id
    first). A row never holds an id alone, which csv.writer would quote
    when empty."""
    n_ids = draw(st.integers(0, 2))
    n_floats = draw(st.integers(1, 6))
    n_ints = draw(st.integers(0, 2))
    columns = draw(st.permutations(
        [("%s", CSV_IDS)] * n_ids
        + [("%.17g", CSV_FLOATS)] * n_floats
        + [("%d", st.integers(0, 1))] * n_ints
    ))
    fields = [spec for spec, _ in columns]
    rows = draw(st.lists(st.tuples(*[values for _, values in columns]), max_size=5))
    return [f"c{i}" for i in range(len(fields))], ",".join(fields) + "\r\n", rows


def table_columns(header, rows):
    """The table of these rows column by column, as write_table takes it."""
    return [list(column) for column in zip(*rows)] or [[] for _ in header]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(csv_tables())
@example((["scene", "x"], "%s,%.17g\r\n", [("a,b", -0.0), ('"q"', math.nan), ("", 5e-324)]))
@example((["scene", "x"], "%s,%.17g\r\n", [("a,b", 1.0), ("a,b", 2.0), ("a", 3.0)]))
@example((["scene", "x", "removed"], "%s,%.17g,%d\r\n", []))
def test_write_table_matches_the_csv_writer_loop(tmp_path_factory, table):
    header, line, rows = table
    path = tmp_path_factory.mktemp("csv") / "view.csv"
    oio.write_table(path, header, line, table_columns(header, rows))
    assert path.read_bytes() == ref.csv_writer_bytes(header, rows)


def test_q3_views_match_the_csv_writer_loop(tmp_path):
    """q = 3: one line per (scene, block), removed flags, ids that need quoting."""
    views = synthesize_views(k=7, cameras=24, seed=5, delta=0.02, noise=0.002)
    names = ['a,b', '"q"', "line\nbreak", "plain", "%s", "cr\r"]
    scenes = [LandmarkScene(f"{names[i % 6]}{i}", v.points) for i, v in enumerate(views)]
    write_landmarks(tmp_path / "study.csv", scenes)
    config = pipeline.StudyConfig(tmp_path / "study.csv", remaining_labels=(5, 6, 7))
    report = pipeline.run_analysis(config)
    paths = pipeline.emit_outputs(report, tmp_path / "out")
    sample, trace = report.sample, report.trace
    assert sample.q == 3 and trace.removed_scene_ids

    points = [
        (sid, *block, int(sid in trace.removed_scene_ids))
        for sid, blocks in zip(sample.scene_ids, sample.units.tolist())
        for block in blocks
    ]
    header = ["scene", "x", "y", "z", "removed"]
    assert paths["sphere_points"].read_bytes() == ref.csv_writer_bytes(header, points)
    reduced = sample.subset(trace.final_scene_ids)
    for name, part in (("angles_full", sample), ("angles_reduced", reduced)):
        # each block's mean direction from the per-sample formula
        thetas = angular_distances(part.units, ref.summary(part.units).extrinsic_mean)
        angles = [
            (sid, theta)
            for sid, row in zip(part.scene_ids, thetas.tolist())
            for theta in row
        ]
        assert len(angles) == 3 * part.n
        assert paths[name].read_bytes() == ref.csv_writer_bytes(["scene", "theta_radians"], angles)
    means = [tuple(mean) for mean in report.full.extrinsic_mean.tolist()]
    assert paths["mean_direction"].read_bytes() == ref.csv_writer_bytes(["x", "y", "z"], means)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(CSV_IDS, *[CSV_FLOATS] * 4, st.booleans(), st.booleans()), max_size=6))
@example([("a,b", -0.0, math.nan, 5e-324, 1.0, True, False), ('"q"', 0.5, 0.25, -1.0, 2.0, False, True)])
@example([])
def test_loo_table_matches_the_csv_writer_loop(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("loo") / "loo_table.csv"
    write_loo_table([LeaveOneOutRow(*row) for row in rows], path)
    header = ["scene", "tS", "se", "z", "ci_lower", "degenerate", "focal"]
    expected = [row[:5] + (int(row[5]), int(row[6])) for row in rows]
    assert path.read_bytes() == ref.csv_writer_bytes(header, expected)


# every writer of an output file, each given the path to write
WRITERS = {
    "write_json": lambda path: write_json(path, {"x": [1.5] * 2000}),
    "write_table": lambda path: oio.write_table(path, ["a"], "%.17g\r\n", [[0.5] * 2000]),
    "write_landmarks": lambda path: write_landmarks(
        path, synthesize_views(k=5, cameras=300, seed=1)
    ),
}


@pytest.mark.parametrize("old", [b"old bytes\n", None])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_write_that_fails_halfway_leaves_the_old_file(tmp_path, monkeypatch, writer, old):
    """A write that raises after part of its text leaves the final name with
    its old bytes, or with no file, and no temporary file beside it; the
    same write without the fault replaces the old bytes."""
    path = tmp_path / "out.file"
    if old is not None:
        path.write_bytes(old)
    real_open = open
    written = []

    class Failing:
        def __init__(self, *args, **kwargs):
            self.fh = real_open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            written.append(self.fh.write(text[: len(text) // 2]))
            raise OSError("disk full")

    monkeypatch.setattr(oio, "open", Failing, raising=False)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path)
    assert written[0] > 0  # half of the first text reached the temporary file
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["out.file"])
    if old is not None:
        assert path.read_bytes() == old
    monkeypatch.undo()
    WRITERS[writer](path)
    assert [p.name for p in tmp_path.iterdir()] == ["out.file"]
    assert path.read_bytes() != old


def test_cli_write_failure_exits_2_and_keeps_the_old_report(tmp_path, monkeypatch, capsys):
    study = tmp_path / "study.csv"
    write_landmarks(study, synthesize_views(k=5, cameras=12, seed=2, delta=0.02, noise=0.002))
    out = tmp_path / "vw.json"
    out.write_bytes(b"old\n")

    def failing_replace(src, dst):
        raise OSError("cannot replace")

    monkeypatch.setattr(oio.os, "replace", failing_replace)
    from opshape.cli import main

    assert main(["vw", str(study), "--out", str(out)]) == 2
    assert "cannot replace" in capsys.readouterr().err
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.csv", "vw.json"]
