"""Influence diagnostics: single-deletion table and greedy scene removal.

The greedy loop repeatedly deletes the scene whose removal leaves the
highest lower confidence endpoint for the dispersion index, recording one
step per removal, and stops as soon as the current endpoint is no longer
strictly positive (the dispersion test would no longer reject), at the
removal cap, or at three scenes. Ties are broken by scene id, numerically
when ids are digit strings. A tie is one of computed endpoints. Deleting
either of two identical scenes (bitwise-equal unit rows) leaves the same
scenes in another order, whose sums may round apart; so of such copies
only the one with the smallest id is a candidate, and copies do not make
the removal order depend on the input row order.

Each step is one pass over the current sample, a closed-form kernel. It
computes the sample's own exact row (mean, resultant, tS, SE), bit for bit
the row stacked_moments gives, and its covariance C; from the same centred
rows it scores all n deletions at once: deleting one row changes the mean
and the scatter matrix by a rank-one update, so the post-deletion endpoints
cost one O(n (qd)^2) numpy pass instead of n full tests, its constant
factors folded into scalars. The kernel only ranks. The deletions whose
endpoint could, within the kernel's error bound, still be the largest form
the step's window. Where the window holds one deletion with a finite bound,
as in most steps, that deletion is the exhaustive argmax and is removed at
once. Otherwise the window's reduced samples are stacked scenes-major,
(n - 1, rows, q, d), and scored exactly by one stacked_moments pass, and the
argmax and tie-break are taken over those exact endpoints. So the reported
steps are those of an exhaustive search, and each step's statistics are the
row and C of the next pass, over the sample the removal leaves. The steps'
summaries are built after the loop, in one units_summary call (the builder
coplanarity_test calls with one row) over those rows and covariances.

The single-deletion table is reported, so it is not ranked by the kernel:
its rows are computed exactly by the same stacked pass, in slices of at
most about 2^14 doubles. Every row, like every greedy endpoint and summary,
is bit-identical to a full coplanarity_test on the sample with that row
deleted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .directional import (
    FOCAL_TOL,
    SE_CLAMP_RTOL,
    ZERO_TOL,
    OpsSummary,
    _dispersion_and_se,
    confidence_interval,
    coplanarity_test,
    se_clamp,
    stacked_moments,
    two_sided_quantile,
    units_summary,
    z_values,
)
from .errors import EmptySample, InvalidLevel
from .geometry import DirectionSample, last_axis_dots, mean_outer

STOP_NONPOSITIVE = "lower_endpoint_nonpositive"
STOP_MAX_REMOVALS = "max_removals_reached"
STOP_NO_IMPROVEMENT = "no_improvement"
# three scenes remain while max_removals would allow more removals
STOP_MIN_SCENES = "min_scenes_reached"

# Error model of the deletion kernel. Its endpoint for deleting row i is
# tS_i - z se_i with tS_i = 2q - 2 sum_f ||m_-i,f||, not clamped at 0, and z se_i
# the raw SE times z, zeroed at or below z * se_clamp(tS_i), which is
# z * SE_CLAMP_RTOL * (1 + tS_i): coplanarity_test's SE clamp scaled by z. It and
# coplanarity_test's endpoint for the same deletion differ by at most
#   err_i = 2q (1 + z SE_CLAMP_RTOL) rho_i + z dse_i + z SE_CLAMP_RTOL (1 + tS_i),
# where rho_i = (KERNEL_RTOL + n * eps) / min_f ||m_-i,f|| bounds the relative
# error of the block means, their directions and the quadratic form (n * eps is
# the worst-case summation error, the 1/r term the normalisation of a short
# mean). Each tS is within q rho_i of the true value, which is at least 0 up to
# the unit-norm tolerance, far below rho_i; so 2q rho_i also covers the direct
# tS's clamp at 0, and the kernel need not apply it.
# e_i = rho_i * 4q * (n tr C + n ||D_i||^2 / (n-1)) / (n-1)^2 bounds the error of
# se^2 (the bracket bounds the magnitudes the quadratic form is summed from),
# and dse_i = 2 e_i / (se_i + sqrt(e_i)) >= |se_i - se_i'| whenever
# |se_i^2 - se_i'^2| <= e_i; the kernel forms z^2 e_i as one product, with
# n tr C = sum_j ||D_j||^2. Where one side clamps its SE and the other does not,
# the clamped side's raw SE is at most SE_CLAMP_RTOL (1 + tS), its tS at most
# tS_i + 2q rho_i: the last term and the SE_CLAMP_RTOL part of the first. The
# kernel does apply the SE clamp: without it the distance reaches
# z * SE_CLAMP_RTOL, up to 1.3% of err_i at alpha = 0.01. Over 9,000 random
# samples (q = 1 and 3, n = 4..40) the kernel-vs-direct distance was at most
# 1.6e-3 of err_i, reached where a deletion leaves zero projected variance, and
# at most 4e-6 of it on samples without repeated rows (the property test
# asserts 1/100), so the exact argmax always lies inside the window that
# greedy_reduce re-evaluates. The kernel's (qd, n) column layout rounds no
# worse: over another 9,000 such samples it reached 1.1e-3 and 4.3e-6 of
# err_i, where the row layout reached 1.2e-3 and 4.3e-6.
KERNEL_RTOL = 1e-10
# a block mean this close to FOCAL_TOL may fall on either side of it in the
# direct recomputation; such deletions are always re-evaluated
FOCAL_MARGIN = 1e-12
_EPS = float(np.finfo(np.float64).eps)


def _scene_order_key(scene_id: str):
    # digit-string ids sort numerically so ordering is permutation-invariant
    if scene_id.isdigit():
        return (0, int(scene_id), scene_id)
    return (1, 0, scene_id)


class LeaveOneOutRow(NamedTuple):
    """Recomputed summary statistics with one scene deleted."""

    scene_id: str
    total_variance: float
    se: float
    z: float
    ci_lower: float
    degenerate: bool
    focal: bool


# doubles in one (n - 1, rows, q, d) deletion stack of leave_one_out
_LOO_SLICE_DOUBLES = 1 << 14


def _deletion_moments(units: np.ndarray, rows: np.ndarray):
    """The samples units (n, q, d) without each of rows, and their moments.

    Returns (stack, mean, resultant, ts, se, focal): stack is the
    scenes-major (n - 1, len(rows), q, d) stack that stacked_moments takes,
    one C-contiguous array whose column stack[:, r] holds
    units[j + (j >= rows[r])] for j < n - 1, and the rest is
    stacked_moments(stack), each entry bit-identical to the same sample
    computed alone. Each column is two slice copies, the rows before and
    after the deleted one: numpy makes those faster than an index gather.
    """
    n = units.shape[0]
    flat = units.reshape(n, -1)
    stack = np.empty((n - 1, len(rows), flat.shape[1]))
    for r, i in enumerate(rows.tolist()):
        stack[:i, r] = flat[:i]
        stack[i:, r] = flat[i + 1 :]
    stack = stack.reshape((n - 1, len(rows)) + units.shape[1:])
    return (stack,) + stacked_moments(stack)


def leave_one_out(sample: DirectionSample, alpha: float = 0.05) -> List[LeaveOneOutRow]:
    """Single-deletion dispersion table, one row per scene in sample order.

    One stacked exact pass: for a slice of deleted rows i at a time, the
    reduced samples are stacked by _deletion_moments into one scenes-major
    (n - 1, rows, q, d) array of at most about 2^14 doubles, and their tS and
    SE come from stacked_moments, ci_lower from confidence_interval, and z
    and the degenerate flag from z_values, all in array steps. Each row is
    bit-identical to coplanarity_test on sample.without(i). A deletion that
    leaves a focal mean is flagged on its row (statistics NaN) rather than
    raised: the table is a diagnostic, not an analysis.
    """
    units = sample.units
    n, q, d = units.shape
    if n < 3:
        raise EmptySample("need at least three scenes for single-deletion diagnostics")
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    ts = np.empty(n)
    se = np.empty(n)
    focal = np.empty(n, dtype=bool)
    step = max(1, _LOO_SLICE_DOUBLES // ((n - 1) * q * d))
    for start in range(0, n, step):
        stop = min(start + step, n)
        moments = _deletion_moments(units, np.arange(start, stop))
        ts[start:stop], se[start:stop], focal[start:stop] = moments[3:]
    # NaN statistics on focal rows: their z is NaN and their degenerate flag false
    ts[focal] = np.nan
    se[focal] = np.nan
    lower = confidence_interval(ts, se, alpha)[0]
    z, degenerate = z_values(ts, se)
    columns = (ts, se, z, lower, degenerate, focal)
    return list(map(LeaveOneOutRow._make, zip(sample.scene_ids, *(c.tolist() for c in columns))))


def _deletion_endpoints(units: np.ndarray, z: float):
    """The sample's own exact row and C, and the CI lower endpoints after each
    single deletion with their error bounds: greedy_reduce's one pass per sample.

    One numpy pass over the (n, q, d) units, laid out as (qd, n) columns.
    Its first part is the sample's row of stacked_moments, bit for bit row 0
    of stacked_moments(units[:, None]) by the same operations: the mean
    m = flat.sum(axis=0) / n, the block resultants, the centred rows
    D = U - m, the projections D_j . g with g = -2 m_f / ||m_f|| added left to
    right, tS and SE through _dispersion_and_se, and the focal flag. C = D'D / n
    is formed from the same D. With them, deleting row i leaves the mean
    m_-i = m - D_i / (n-1) and the quadratic form
    g_i' S_-i g_i = [n g_i'C g_i - n/(n-1) (D_i . g_i)^2] / (n-1), a rank-one
    downdate (Chan, Golub & LeVeque 1983). With g_i = -2 u_i, u_i the unit
    block directions of m_-i, the endpoint tS_-i - z se_-i is
    2q - 2 sum_f ||m_-i,f|| - (2 z sqrt(n) / (n-1)) sqrt(u_i'C u_i - (D_i . u_i)^2 / (n-1)),
    the constant factors folded into scalars. coplanarity_test's SE clamp is
    applied; its clamp of tS at 0 is not, since the error bound covers it.
    Each intermediate is written into an array the pass already owns. A
    focal deletion divides 0 by 0, so the caller runs the pass under
    np.errstate(divide="ignore", invalid="ignore", over="ignore"):
    greedy_reduce enters one for its whole loop, as entering one costs about
    2 us (numpy 2.4, one Xeon core), about 1.7% of a 124 us step at n = 200,
    q = 1.

    Returns:
        (row, cov, lower, err). row is (mean (q, d), resultant (q,), ts, se,
        focal), the entries of stacked_moments' row of the sample, and cov is
        C, shape (qd, qd), bit-identical to _covariance(units). lower and err
        have shape (n,): lower is NaN where the deletion leaves a focal mean;
        err is the bound of the module's error model, infinite where a block
        mean lies within FOCAL_MARGIN of FOCAL_TOL.
    """
    n, q, d = units.shape
    flat = units.reshape(n, q * d)
    mean = flat.sum(axis=0) / n
    block_mean = mean.reshape(q, d)
    resultant = np.sqrt((block_mean * block_mean).sum(axis=-1))
    # D', m_-i' and u_i' as (qd, n) columns: each elementwise pass runs one
    # long loop per coordinate, not n loops of qd
    mean = mean[:, None]
    dev = np.subtract(flat.T, mean, order="C")
    proj = last_axis_dots(dev.T, (-2.0 * block_mean / resultant[:, None]).ravel())
    ts, se = _dispersion_and_se(resultant, np.sqrt((proj * proj).sum() / n / n))
    row = (block_mean, resultant, ts, se, (resultant < FOCAL_TOL).any())
    cov = mean_outer(dev.T)
    # m_-i, then in place its unit block directions u_i
    u = np.divide(dev, n - 1)
    np.subtract(mean, u, out=u)
    blocks = u.reshape(q, d, n)
    r = np.einsum("qdi,qdi->qi", blocks, blocks)
    np.sqrt(r, out=r)
    rmin = r.min(axis=0)
    np.divide(blocks, r[:, None], out=blocks)
    sq = np.einsum("ji,ji->i", dev, dev)  # ||D_i||^2, whose sum is n tr C
    proj = np.einsum("ji,ji->i", dev, u)
    zse = np.einsum("ji,ji->i", np.einsum("jk,ki->ji", cov, u), u)  # u_i'C u_i
    proj *= proj
    proj /= n - 1
    zse -= proj
    np.maximum(zse, 0.0, out=zse)
    np.sqrt(zse, out=zse)
    zse *= 2.0 * z * n**0.5 / (n - 1)
    ts = r.sum(axis=0)  # 2q - 2 sum_f r_f, as -2 sum_f r_f + 2q
    ts *= -2.0
    ts += 2.0 * q
    clamp = se_clamp(ts)
    clamp *= z
    lower = zse * (zse > clamp)
    np.subtract(ts, lower, out=lower)
    # z^2 e_i, and z dse_i = 2 z^2 e_i / (z se_i + sqrt(z^2 e_i)); a
    # constant sample has e_i = se_i = 0, and 0/0 there
    rho = np.divide(KERNEL_RTOL + n * _EPS, rmin)
    ze = sq
    ze += (n - 1) / n * sq.sum()
    ze *= rho
    ze *= 4.0 * q * n * z * z / (n - 1) ** 3
    zdse = np.sqrt(ze)
    zdse += zse
    positive = ze > 0.0
    ze *= 2.0
    np.divide(ze, zdse, out=zdse)
    zdse[~positive] = 0.0
    err = rho
    err *= 2.0 * q * (1.0 + z * SE_CLAMP_RTOL)
    err += zdse
    err += clamp
    if rmin.min() <= FOCAL_TOL + FOCAL_MARGIN:  # some deletion is focal or nearly so
        lower[rmin < FOCAL_TOL - FOCAL_MARGIN] = np.nan
        # near-focal deletions: finite, so they pass the focal mask, and with
        # an infinite bound, so greedy_reduce always re-evaluates them
        near = np.abs(rmin - FOCAL_TOL) <= FOCAL_MARGIN
        lower[near] = 0.0
        err[near] = np.inf
    return row, cov, lower, err


@dataclass(frozen=True)
class ReductionStep:
    """One greedy removal: who was removed and the summary afterwards."""

    removed_scene_id: str
    summary: OpsSummary
    ci_lower: float


@dataclass(frozen=True)
class ReductionTrace:
    """Outcome of the greedy removal loop."""

    steps: Tuple[ReductionStep, ...]
    alpha_ref: float
    initial_scene_ids: Tuple[str, ...]
    final_scene_ids: Tuple[str, ...]
    stopped_reason: str

    @property
    def removed_scene_ids(self) -> Tuple[str, ...]:
        return tuple(step.removed_scene_id for step in self.steps)


def greedy_reduce(
    sample: DirectionSample,
    alpha_ref: float = 0.05,
    max_removals: Optional[int] = None,
    df: Optional[int] = None,
) -> ReductionTrace:
    """Remove scenes one at a time, keeping the lower endpoint maximal.

    Each iteration makes one kernel pass over the current (n, q, d) units.
    It records the pass's exact row and covariance as the summary of the
    sample the last removal left (the first pass's row is the full test's),
    checks the stop rules on the row's endpoint ts - z * se at level
    alpha_ref, and scores every single deletion. A window of one deletion
    with a finite bound is removed at once; any other window, with duplicate
    rows, a tie within the bound or a deletion near FOCAL_TOL, is scored
    exactly by one stacked_moments pass over its deletion stack, and its
    argmax removed. A removal copies the units around the deleted row. A
    one-deletion window trusts the kernel's focal call outside FOCAL_MARGIN,
    as the window already does for the deletions the kernel marks focal
    (NaN), which it never scores exactly. The loop carries only the
    current units and the indices of the surviving scenes, and runs under
    one np.errstate. After the loop one units_summary call builds every
    step's OpsSummary from the recorded rows. The loop stops, checking
    before each removal, when the current endpoint is at most the fp zero
    floor (the test no longer rejects), when max_removals (default n // 4)
    have been removed, when three scenes remain, or when no deletion can be
    evaluated at all.

    Args:
        sample: registered directions, n >= 3.
        alpha_ref: reference level for the endpoints.
        max_removals: safety cap, >= 0; defaults to n // 4.
        df: chi-square dof forwarded to the per-step summaries.
    """
    if sample.n < 3:
        raise EmptySample("need at least three scenes to reduce")
    z = two_sided_quantile(alpha_ref, "alpha_ref")
    if max_removals is None:
        max_removals = sample.n // 4
    if max_removals < 0:
        raise ValueError("max_removals must be >= 0")

    full = coplanarity_test(sample, alpha_ref, df)
    ids = sample.scene_ids
    units = sample.units
    survivors = list(range(sample.n))
    removed: List[str] = []  # the removed scene ids
    # per sample the loop passes over, the first the full one: its
    # (mean, resultant, ts, se) row and its covariance
    rows: List[tuple] = []
    covariances: List[np.ndarray] = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            # the sample is not focal: the full test raises on a focal one,
            # and no removal leaves one
            (mean, resultant, ts, se, _), cov, lower, err = _deletion_endpoints(units, z)
            rows.append((mean, resultant, ts, se))
            covariances.append(cov)
            if ts - z * se <= ZERO_TOL:
                reason = STOP_NONPOSITIVE
                break
            if len(removed) >= max_removals:
                reason = STOP_MAX_REMOVALS
                break
            if len(survivors) <= 3:
                reason = STOP_MIN_SCENES
                break

            # rank by the kernel; only deletions whose endpoint could still be
            # the maximum are scored exactly, and the argmax is taken there;
            # fmax skips the NaN of focal deletions, and a NaN fails the >=
            window = (lower + err >= np.fmax.reduce(lower - err)).nonzero()[0]
            if len(window) == 1 and err[window[0]] < np.inf:
                # every other exact endpoint lies below this one's: the
                # exhaustive argmax, with no copy (a copy scores the same)
                # and, its bound finite, not focal
                best = int(window[0])
            else:
                *_, window_ts, window_se, focal = _deletion_moments(units, window)
                exact = window_ts - z * window_se  # meaningless on focal rows, which are skipped
                keys = [_scene_order_key(ids[survivors[i]]) for i in window.tolist()]
                # of bitwise-equal rows only the smallest id is a candidate
                distinct = {}
                for w in (~focal).nonzero()[0].tolist():
                    key = units[window[w]].tobytes()
                    if key not in distinct or keys[w] < keys[distinct[key]]:
                        distinct[key] = w
                pick = min(distinct.values(), key=lambda w: (-exact[w], keys[w]), default=None)
                if pick is None:
                    reason = STOP_NO_IMPROVEMENT
                    break
                best = int(window[pick])

            left = np.empty((len(survivors) - 1,) + units.shape[1:])
            left[:best] = units[:best]
            left[best:] = units[best + 1 :]
            units = left
            removed.append(ids[survivors.pop(best)])

    steps = ()
    if removed:  # every step's summary in one pass over the rows after the first
        sizes = range(sample.n - 1, sample.n - 1 - len(removed), -1)
        summaries = units_summary(sizes, alpha_ref, full.df, *zip(*rows[1:]), covariances[1:])
        steps = tuple(map(ReductionStep, removed, summaries, (s.ci[0] for s in summaries)))
    return ReductionTrace(
        steps=steps,
        alpha_ref=alpha_ref,
        initial_scene_ids=ids,
        final_scene_ids=tuple(ids[i] for i in survivors),
        stopped_reason=reason,
    )
