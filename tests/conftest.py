import os
from pathlib import Path

import numpy as np
import pytest

from opshape.geometry import FrameSpec, chart_coordinates, frame_charts
from opshape.io import parse_landmarks
from opshape.pipeline import register_scenes
from opshape.synth import TangentDraws

REPO_ROOT = Path(__file__).resolve().parents[1]
SOPE_CREEK_DEFAULT = REPO_ROOT / "data" / "sope_creek" / "sope_creek.csv"
SOPE_CREEK_HINT = (
    "stone-photo landmark fixture not present; transcribe it per "
    "data/sope_creek/README.md or point OPSHAPE_SOPE_CREEK at the csv"
)


def sope_creek_path() -> Path:
    env = os.environ.get("OPSHAPE_SOPE_CREEK")
    if env:
        return Path(env)
    return SOPE_CREEK_DEFAULT


@pytest.fixture(scope="session")
def sope_creek_scenes():
    path = sope_creek_path()
    if not path.is_file():
        pytest.skip(SOPE_CREEK_HINT)
    return parse_landmarks(path)


@pytest.fixture(scope="session")
def sope_creek_sample(sope_creek_scenes):
    spec = FrameSpec(frame_labels=(1, 2, 4, 3), remaining_labels=(5,))
    sample, _, _ = register_scenes(sope_creek_scenes, spec)
    return sample


def register_reps(reps, frame=(0, 1, 2, 3), rest=(4,)):
    """Unit vectors (q, m+1) of the rows `rest` of one scene's homogeneous
    representatives, in the chart of the rows `frame`; None when the frame
    or a point is degenerate. One scene through frame_charts and
    chart_coordinates, so it acts on raw representatives, not on landmarks."""
    reps = np.asarray(reps, dtype=np.float64)
    charts = frame_charts(reps[None, list(frame)])
    units, vanished = chart_coordinates(charts.matrix, reps[None, list(rest)])
    if charts.errors or vanished.any():
        return None
    return units[0]


def tangent_stack(direction, sigma, n, seeds):
    """One sample of n tangent-Gaussian draws per seed, a C-ordered (R, n, d)
    copy of the scenes-major (n, R, d) array one `TangentDraws.draw` fills."""
    draws = TangentDraws(direction, sigma, n)
    out = np.empty((n, len(seeds), draws.mu.size))
    draws.draw(seeds, 0, out, draws.scratch(n, len(seeds)))
    return np.ascontiguousarray(out.swapaxes(0, 1))
