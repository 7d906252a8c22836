"""The benchmark workloads: seeded input pools and the CLI call of one op.

Each workload cycles through a pool of distinct studies drawn from the
workload seed with opshape.synth and opshape.rng, so a result cache keyed
on the input would show up as repeated-input hits rather than as speed.
Every run also warms up on one probe study drawn from PROBE_SEED, the same
for every --seed, whose key results are committed in golden.json: whatever
the seed, each run checks at least that op against the golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from opshape.geometry import LandmarkScene
from opshape.io import write_landmarks
from opshape.rng import SplitMix64
from opshape.synth import synthesize_views

DEFAULT_SEED = 1
PROBE_SEED = 251114815
SMOKE_POOL_SIZE = 2


@dataclass(frozen=True)
class Study:
    """One op's input: its golden key, the CLI arguments without --out, and
    what the output must describe (used by the invariant checks)."""

    key: str
    argv: Tuple[str, ...]
    expect: Dict


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # opshape subcommand; also selects the output check
    pool_size: int
    # (seeds, smoke) -> one list of scenes per seed, or None per seed for mc
    generate: Callable[[List[int], bool], List[Optional[List[LandmarkScene]]]]
    # (seed, csv path or None, smoke) -> (argv without --out, what the output must describe)
    call: Callable[[int, Optional[Path], bool], Tuple[Tuple[str, ...], Dict]]


def _jitter(views, amplitudes, gen: SplitMix64) -> List[LandmarkScene]:
    """Image-plane Gaussian noise with one amplitude per scene."""
    k = views[0].k
    noise = gen.normals(len(views) * k * 2).reshape(len(views), k, 2)
    return [
        LandmarkScene(v.scene_id, v.points + a * e)
        for v, a, e in zip(views, amplitudes, noise)
    ]


# analyze_bent: the ROADMAP baseline shape; greedy runs to the n // 4 cap.
def _bent_generate(seeds, smoke):
    cameras = 24 if smoke else 200
    return [
        synthesize_views(k=5, cameras=cameras, seed=s, delta=0.02, noise=0.002) for s in seeds
    ]


# analyze_small: Sope Creek-sized flat studies with log-normal per-scene
# noise, so most stop greedy at its first check and some reach the cap.
# Whether a study reaches the cap depends on its camera set as much as on
# its noise, so every study draws its own: with camera sets shared across
# the pool, the share of studies at the cap, and with it p50, would move
# from seed to seed.
def _small_generate(seeds, smoke):
    cameras = 12 if smoke else 41
    studies = []
    for s in seeds:
        gen = SplitMix64(s)
        base = synthesize_views(k=5, cameras=cameras, seed=gen.next_u64())
        amplitudes = 1e-3 * np.exp(1.5 * gen.normals(cameras))
        studies.append(_jitter(base, amplitudes, gen))
    return studies


# vw_wide: one wide camera set with k=7 per pool, fresh noise per study, so
# parse and registration dominate and the diagnostics never run.
def _vw_generate(seeds, smoke):
    cameras = 40 if smoke else 2000
    bank = synthesize_views(k=7, cameras=cameras, seed=SplitMix64(seeds[0]).next_u64(), delta=0.02)
    return [_jitter(bank, np.full(cameras, 0.002), SplitMix64(s)) for s in seeds]


def _mc_generate(seeds, smoke):
    return [None for _ in seeds]


def _analyze_call(seed, csv, smoke):
    return ("analyze", str(csv)), {}


def _vw_call(seed, csv, smoke):
    return ("vw", str(csv), "--remaining", "5,6,7"), {"blocks": 3, "dim": 3}


def _mc_call(seed, csv, smoke):
    n, reps, draws = (30, 20, 2000) if smoke else (200, 1000, 1_000_000)
    argv = (
        "mc", "--seed", str(seed), "--n", str(n), "--reps", str(reps),
        "--oracle-draws", str(draws), "--sigma", "0.1", "--alpha", "0.05",
    )
    return argv, {"n": n, "reps": reps, "alpha": 0.05}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("analyze_bent", "analyze", 8, _bent_generate, _analyze_call),
        Workload("analyze_small", "analyze", 128, _small_generate, _analyze_call),
        Workload("vw_wide", "vw", 6, _vw_generate, _vw_call),
        Workload("mc_coverage", "mc", 32, _mc_generate, _mc_call),
    )
}


def pool_seeds(seed: int, size: int) -> List[int]:
    return [int(x) for x in SplitMix64(seed).u64_block(size)]


def generate(workload: Workload, seed: int, smoke: bool):
    """Draw the probe and the pool in memory: [(key, seed, scenes or None)]."""
    size = SMOKE_POOL_SIZE if smoke else workload.pool_size
    seeds = pool_seeds(seed, size)
    probe = workload.generate([PROBE_SEED], smoke)[0]
    pool = workload.generate(seeds, smoke)
    return [("probe", PROBE_SEED, probe)] + [
        (f"pool{j}", s, scenes) for j, (s, scenes) in enumerate(zip(seeds, pool))
    ]


def write(workload: Workload, drawn, directory: Path, smoke: bool) -> List[Study]:
    """Write each drawn study's CSV under `directory`; return the studies."""
    directory.mkdir(parents=True, exist_ok=True)
    studies = []
    for key, seed, scenes in drawn:
        csv, expect = None, {}
        if scenes is not None:
            csv = directory / f"{key}.csv"
            write_landmarks(csv, scenes)
            expect["scenes"] = len(scenes)
        argv, more = workload.call(seed, csv, smoke)
        studies.append(Study(key, argv, {**expect, **more}))
    return studies
