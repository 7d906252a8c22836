"""Correctness check of one op's output.

Two parts. Key results are compared with golden.json when it has an entry
for the op's study: for analyze the scene, skipped, flipped and removed ids
and the stop reason exactly, and tS, se and the CI of the full and reduced
samples within RTOL/ATOL; for vw the top eigenvalue of each block within
RTOL/ATOL; for mc the hit count exactly. Invariants hold for every seed: an
analyze report validates against the package's report schema, every CI
brackets its tS, and the final ids are the initial ids minus the removed
ids; vw and mc outputs must be internally consistent.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

RTOL = 1e-9
ATOL = 1e-12
# mc coverage must lie within this many binomial standard deviations of 1 - alpha
COVERAGE_SDS = 8.0


@dataclass(frozen=True)
class Verdict:
    problems: List[str]
    identical: Optional[bool]  # output bytes equal the golden's; None without a golden
    bytes_written: int


def _summary_keys(s) -> Optional[List[float]]:
    if s is None:
        return None
    return [s["total_variance"], s["se"], s["ci"][0], s["ci"][1]]


def key_results(command: str, payload: Dict) -> Dict:
    """The results the golden pins, extracted from a parsed output."""
    if command == "analyze":
        prov = payload["provenance"]
        red = payload["reduction"]
        return {
            "scene_ids": ",".join(payload["scene_ids"]),
            "skipped": prov["skipped_scenes"],
            "flipped": ",".join(prov["det_sign_flipped_scenes"]),
            "removed": [s["removed_scene_id"] for s in red["steps"]] if red else [],
            "stopped_reason": red["stopped_reason"] if red else None,
            "full": _summary_keys(payload["full"]),
            "reduced": _summary_keys(payload["reduced"]),
        }
    if command == "vw":
        return {"lambda1": [b["top_eigenvalue"] for b in payload["blocks"]]}
    return {"hits": payload["hits"]}


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def compare_keys(expected: Dict, actual: Dict) -> List[str]:
    return [
        f"{name}: expected {expected[name]!r}, got {actual.get(name)!r}"
        for name in expected
        if not _close(expected[name], actual.get(name))
    ]


def _brackets(s, label: str) -> List[str]:
    lo, ts, hi = s["ci"][0], s["total_variance"], s["ci"][1]
    if None in (lo, ts, hi):
        return [f"{label}: non-finite tS or CI"]
    if not lo <= ts <= hi:
        return [f"{label}: CI [{lo}, {hi}] does not bracket tS {ts}"]
    return []


def _analyze_invariants(report: Dict, expect: Dict, validator) -> List[str]:
    problems = [
        f"schema: {'/'.join(map(str, e.absolute_path))}: {e.message}"
        for e in validator.iter_errors(report)
    ]
    if problems:
        return problems
    prov = report["provenance"]
    if prov["n_input_scenes"] != expect["scenes"]:
        problems.append(f"read {prov['n_input_scenes']} scenes, wrote {expect['scenes']}")
    if len(report["scene_ids"]) + len(prov["skipped_scenes"]) != prov["n_input_scenes"]:
        problems.append("registered plus skipped scenes differ from the input scenes")
    problems += _brackets(report["full"], "full")
    red = report["reduction"]
    if red is not None:
        if red["initial_scene_ids"] != report["scene_ids"]:
            problems.append("reduction starts from other scene ids than the sample")
        removed = {s["removed_scene_id"] for s in red["steps"]}
        if red["final_scene_ids"] != [s for s in red["initial_scene_ids"] if s not in removed]:
            problems.append("final ids are not the initial ids minus the removed ids")
        problems += _brackets(report["reduced"], "reduced")
    return problems


def _vw_invariants(out: Dict, expect: Dict) -> List[str]:
    problems = []
    if out["skipped_scenes"]:
        problems.append(f"skipped scenes {out['skipped_scenes']}")
    if len(out["blocks"]) != expect["blocks"]:
        problems.append(f"{len(out['blocks'])} blocks, expected {expect['blocks']}")
    for b in out["blocks"]:
        lam = b["top_eigenvalue"]
        if b["n"] != expect["scenes"]:
            problems.append(f"block {b['block']}: n={b['n']}, expected {expect['scenes']}")
        if not 1.0 / expect["dim"] - RTOL <= lam <= 1.0 + RTOL:
            problems.append(f"block {b['block']}: lambda1 {lam} outside [1/d, 1]")
        if not _close(b["total_variance"], max(2.0 * (1.0 - lam), 0.0)):
            problems.append(f"block {b['block']}: tS_axial is not 2 (1 - lambda1)")
        if not math.isclose(math.hypot(*b["top_axis"]), 1.0, rel_tol=1e-9):
            problems.append(f"block {b['block']}: top axis is not a unit vector")
    return problems


def _mc_invariants(out: Dict, expect: Dict) -> List[str]:
    problems = []
    reps, hits = out["reps"], out["hits"]
    if (reps, out["n"]) != (expect["reps"], expect["n"]):
        problems.append(f"ran n={out['n']} reps={reps}, asked n={expect['n']} reps={expect['reps']}")
    if not 0 <= hits <= reps or out["coverage"] != hits / reps:
        problems.append(f"hits {hits} and coverage {out['coverage']} disagree with reps {reps}")
    if not out["oracle_total_variance"] > 0.0:
        problems.append("oracle dispersion is not positive")
    level = 1.0 - expect["alpha"]
    band = COVERAGE_SDS * math.sqrt(level * (1.0 - level) / reps)
    if abs(out["coverage"] - level) > band:
        problems.append(f"coverage {out['coverage']} outside {level} +- {band:.4f}")
    return problems


def read_output(command: str, out: Path):
    """(bytes of the checked file, total bytes the op wrote)."""
    if command == "analyze":
        files = [p for p in out.iterdir() if p.is_file()]
        return (out / "report.json").read_bytes(), sum(p.stat().st_size for p in files)
    data = out.read_bytes()
    return data, len(data)


def check_bytes(command: str, data: bytes, expect: Dict, golden: Optional[Dict], validator) -> List[str]:
    try:
        payload = json.loads(data)
        if command == "analyze":
            problems = _analyze_invariants(payload, expect, validator)
        elif command == "vw":
            problems = _vw_invariants(payload, expect)
        else:
            problems = _mc_invariants(payload, expect)
        if golden is not None and not problems:
            problems = compare_keys(golden["keys"], key_results(command, payload))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return problems


def check(command: str, out: Path, expect: Dict, golden: Optional[Dict], validator, seen: Dict) -> Verdict:
    """Check one op's output. `seen` maps output digests already checked
    for the same study to their problems: the check is a pure function of
    the bytes, and schema validation is slower than a small op."""
    try:
        data, written = read_output(command, out)
    except OSError as exc:
        return Verdict([f"missing output: {exc}"], None, 0)
    digest = hashlib.sha256(data).hexdigest()
    if digest not in seen:
        seen[digest] = check_bytes(command, data, expect, golden, validator)
    identical = None if golden is None else digest == golden["sha256"]
    return Verdict(seen[digest], identical, written)


def report_validator():
    import jsonschema
    import opshape

    schema_path = Path(opshape.__file__).parent / "schemas" / "report.schema.json"
    return jsonschema.Draft7Validator(json.loads(schema_path.read_text(encoding="utf-8")))


def _corruptions(command: str, payload: Dict):
    """(golden of the good output, [(label, corrupted copy, golden it is checked against)])."""
    golden = {"keys": key_results(command, payload)}

    def case(label, edit, pinned):
        bad = copy.deepcopy(payload)
        edit(bad)
        return label, bad, golden if pinned else None

    if command == "analyze":
        full = payload["full"]
        return golden, [
            case("tS off by 1e-6", lambda p: p["full"].update(
                total_variance=full["total_variance"] * (1 + 1e-6)), True),
            case("CI misses tS", lambda p: p["full"].update(
                ci=[full["total_variance"] + 1.0, full["total_variance"] + 2.0]), False),
            case("final ids lose a kept scene", lambda p: p["reduction"].update(
                final_scene_ids=p["reduction"]["final_scene_ids"][1:]), False),
            case("schema: no full summary", lambda p: p.pop("full"), False),
        ]
    if command == "vw":
        lam = payload["blocks"][0]["top_eigenvalue"]
        return golden, [
            case("lambda1 off by 1e-6", lambda p: p["blocks"][0].update(
                top_eigenvalue=lam * (1 - 1e-6)), True),
            case("lambda1 above 1", lambda p: p["blocks"][0].update(top_eigenvalue=1.5), False),
        ]
    return golden, [
        case("hits off by one", lambda p: p.update(hits=p["hits"] - 1), True),
        case("coverage is not hits/reps", lambda p: p.update(coverage=p["coverage"] / 2), False),
    ]


def self_test(command: str, out: Path, expect: Dict, validator) -> List[str]:
    """Problems with the checker on one good output: the output rejected
    against its own key results, or a corrupted copy of it passed."""
    data, _ = read_output(command, out)
    golden, cases = _corruptions(command, json.loads(data))
    problems = [f"good output rejected: {p}"
                for p in check_bytes(command, data, expect, golden, validator)]
    for label, bad, pinned in cases:
        if not check_bytes(command, json.dumps(bad).encode(), expect, pinned, validator):
            problems.append(f"corrupted output passed: {label}")
    return problems
