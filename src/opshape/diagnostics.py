"""Influence diagnostics: single-deletion table and greedy scene removal.

The greedy loop repeatedly deletes the scene whose removal leaves the
highest lower confidence endpoint for the dispersion index, recording one
step per removal, and stops as soon as the current endpoint is no longer
strictly positive (the dispersion test would no longer reject), at the
removal cap, or at three scenes. Ties are broken by scene id, numerically
when ids are digit strings, so the outcome does not depend on input row
order.

Each step scores all n deletions at once with a closed-form kernel: deleting
one row changes the mean and the scatter matrix by a rank-one update, so the
post-deletion endpoints cost one O(n (qd)^2) numpy pass instead of n full
tests. The kernel only ranks. The deletions whose endpoint could, within the
kernel's error bound, still be the largest form the step's window, typically
one deletion: their reduced samples are stacked and scored exactly by one
stacked_moments pass, and the argmax and tie-break are taken over those
exact endpoints, so the reported steps are those of an exhaustive search.
Only the winner gets a full summary, built by units_summary (the function
coplanarity_test wraps) from its row of the pass and its covariance, which
the next step's kernel pass computes anyway.

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
    _covariance,
    _dispersion_and_se,
    confidence_interval,
    coplanarity_test,
    normal_quantile,
    stacked_moments,
    units_summary,
    z_values,
)
from .errors import EmptySample, InvalidLevel
from .geometry import DirectionSample

STOP_NONPOSITIVE = "lower_endpoint_nonpositive"
STOP_MAX_REMOVALS = "max_removals_reached"
STOP_NO_IMPROVEMENT = "no_improvement"
# three scenes remain while max_removals would allow more removals
STOP_MIN_SCENES = "min_scenes_reached"

# Error model of the deletion kernel. Its endpoint for deleting row i and
# coplanarity_test's endpoint for the same deletion are two roundings of one
# number; they differ by at most
#   err_i = 2q * rho_i + z * (dse_i + SE_CLAMP_RTOL * (1 + tS_i)),
# where rho_i = (KERNEL_RTOL + n * eps) / min_f ||m_-i,f|| bounds the relative
# error of the block means, the gradient and the quadratic form (n * eps is the
# worst-case summation error, the 1/r term the normalisation of a short mean),
# e_i = rho_i * 4q * (n tr C + n ||D_i||^2 / (n-1)) / (n-1)^2 the error of se^2
# (the bracket bounds the magnitudes the quadratic form is summed from), and
# dse_i = 2 e_i / (se_i + sqrt(e_i)) >= |se_i - se_i'| whenever
# |se_i^2 - se_i'^2| <= e_i. Over 9,000 random samples (q = 1 and 3, n = 4..40)
# the kernel-vs-direct distance was at most 1.6e-3 of err_i, reached where a
# deletion leaves zero projected variance, and about 1e-6 of it elsewhere (the
# property test asserts 1/100), so the exact argmax always lies inside the
# window that greedy_reduce re-evaluates.
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


# doubles in one (rows, n - 1, q, d) deletion stack of leave_one_out
_LOO_SLICE_DOUBLES = 1 << 14


def _deletion_moments(units: np.ndarray, rows: np.ndarray):
    """The samples units (n, q, d) without each of rows, and their moments.

    Returns (stack, mean, resultant, ts, se, focal): stack has shape
    (len(rows), n - 1, q, d), entry r holding units[j + (j >= rows[r])] for
    j < n - 1, one C-contiguous array laid out as r samples of their own, and
    the rest is stacked_moments(stack), each entry bit-identical to the
    same sample computed alone. Each entry is two slice copies of flat
    views, the rows before and after the deleted one: numpy makes those
    faster than an index gather or copies of (rows, q, d) blocks.
    """
    n = units.shape[0]
    k = units[0].size
    flat = units.reshape(-1)
    stack = np.empty((len(rows), (n - 1) * k))
    for entry, i in zip(stack, rows.tolist()):
        entry[: i * k] = flat[: i * k]
        entry[i * k :] = flat[(i + 1) * k :]
    stack = stack.reshape((len(rows), n - 1) + units.shape[1:])
    return (stack,) + stacked_moments(stack)


def leave_one_out(
    sample: DirectionSample, alpha: float = 0.05, df: Optional[int] = None
) -> List[LeaveOneOutRow]:
    """Single-deletion dispersion table, one row per scene in sample order.

    One stacked exact pass: for a slice of deleted rows i at a time, the
    reduced samples are stacked by _deletion_moments into one
    (rows, n - 1, q, d) array of at most about 2^14 doubles, and their tS and
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
    if df is not None and df < 1:
        raise ValueError("degrees of freedom must be >= 1")
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


def _deletion_endpoints(
    units: np.ndarray, z: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CI lower endpoints after each single deletion, their error bounds, and C.

    One numpy pass over the (n, q, d) units of a sample: with mean
    m, centred rows D = U - m and C = D'D / n, deleting row i leaves the mean
    m_-i = m - D_i / (n-1) and the quadratic form
    g_i' S_-i g_i = [n g_i'C g_i - n/(n-1) (D_i . g_i)^2] / (n-1), a rank-one
    downdate (Chan, Golub & LeVeque 1983). The endpoint is tS_-i - z se_-i
    with the same tS rule and SE clamp as coplanarity_test.

    Returns:
        (lower, err, cov). lower and err have shape (n,): lower is NaN where
        the deletion leaves a focal mean; err is the bound of the module's
        error model, infinite where a block mean lies within FOCAL_MARGIN of
        FOCAL_TOL. cov is C, shape (qd, qd), bit-identical to the covariance
        of coplanarity_test on the same units.
    """
    n, q, d = units.shape
    flat = units.reshape(n, q * d)
    mean = flat.sum(axis=0) / n
    dev = flat - mean
    cov = dev.T @ dev / n
    del_means = (mean - dev / (n - 1)).reshape(n, q, d)
    r = np.sqrt((del_means * del_means).sum(axis=2))
    rmin = r.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = (-2.0 * del_means / r[:, :, None]).reshape(n, q * d)
        proj = np.einsum("ij,ij->i", dev, grad)
        gcg = np.einsum("ij,ij->i", grad @ cov, grad)
        quad = np.maximum(n * gcg - n / (n - 1) * proj**2, 0.0) / (n - 1)
        se_raw = np.sqrt(quad / (n - 1))
        ts, se = _dispersion_and_se(r, se_raw)
        rho = (KERNEL_RTOL + n * _EPS) / rmin
        scale = 4.0 * q * (n * cov.trace() + n / (n - 1) * np.einsum("ij,ij->i", dev, dev))
        e = rho * scale / (n - 1) ** 2
        dse = np.where(e > 0.0, 2.0 * e / (se_raw + np.sqrt(e)), 0.0)
        err = 2.0 * q * rho + z * (dse + SE_CLAMP_RTOL * (1.0 + ts))
    lower = ts - z * se
    if rmin.min() <= FOCAL_TOL + FOCAL_MARGIN:  # some deletion is focal or nearly so
        lower[rmin < FOCAL_TOL - FOCAL_MARGIN] = np.nan
        # near-focal deletions: finite, so they pass the focal mask, and with
        # an infinite bound, so greedy_reduce always re-evaluates them
        near = np.abs(rmin - FOCAL_TOL) <= FOCAL_MARGIN
        lower[near] = 0.0
        err[near] = np.inf
    return lower, err, cov


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

    Each iteration scores every single deletion from the current sample
    with the deletion kernel, scores the window of deletions that could
    hold the maximum exactly by one stacked_moments pass over their
    deletion stack, and removes the argmax of the post-deletion CI lower
    endpoint ts - z * se at level alpha_ref. The loop carries the current
    (n, q, d) units and the indices of the surviving scenes, not a sample
    per candidate. The winner's OpsSummary is built by units_summary from
    its row of the pass and its covariance, which the next iteration's
    kernel computes anyway; only a removal with no later kernel pass
    computes it on its own. The loop stops, checking before each removal,
    when the current endpoint is at most the fp zero floor (the test no
    longer rejects), when max_removals (default n // 4) have been removed,
    when three scenes remain, or when no deletion can be evaluated at all.

    Args:
        sample: registered directions, n >= 3.
        alpha_ref: reference level for the endpoints.
        max_removals: safety cap, >= 0; defaults to n // 4.
        df: chi-square dof forwarded to the per-step summaries.
    """
    if sample.n < 3:
        raise EmptySample("need at least three scenes to reduce")
    if not 0.0 < alpha_ref < 1.0:
        raise InvalidLevel(f"alpha_ref must be in (0, 1), got {alpha_ref}")
    if max_removals is None:
        max_removals = sample.n // 4
    if max_removals < 0:
        raise ValueError("max_removals must be >= 0")

    z = normal_quantile(1.0 - alpha_ref / 2.0)
    full = coplanarity_test(sample, alpha_ref, df)
    current = full.ci[0]
    ids = sample.scene_ids
    units = sample.units
    survivors = list(range(sample.n))
    # per removal: the removed row and its (mean, resultant, ts, se) row
    removals: List[Tuple[int, tuple]] = []
    covariances: List[np.ndarray] = []
    while True:
        if current <= ZERO_TOL:
            reason = STOP_NONPOSITIVE
            break
        if len(removals) >= max_removals:
            reason = STOP_MAX_REMOVALS
            break
        if len(survivors) <= 3:
            reason = STOP_MIN_SCENES
            break

        # rank by the kernel; only deletions whose endpoint could still be
        # the maximum are scored exactly, and the argmax is taken there
        lower, err, cov = _deletion_endpoints(units, z)
        if removals:  # cov is the covariance of the sample the last removal left
            covariances.append(cov)
        # fmax skips the NaN of focal deletions, and a NaN fails the >=
        window = np.flatnonzero(lower + err >= np.fmax.reduce(lower - err))
        stack, mean, resultant, ts, se, focal = _deletion_moments(units, window)
        exact = ts - z * se  # meaningless on focal rows, which are skipped
        best = None
        for w in np.flatnonzero(~focal).tolist():
            if (
                best is None
                or exact[w] > exact[best]
                or (
                    exact[w] == exact[best]
                    and _scene_order_key(ids[survivors[window[w]]])
                    < _scene_order_key(ids[survivors[window[best]]])
                )
            ):
                best = w
        if best is None:
            reason = STOP_NO_IMPROVEMENT
            break

        units = stack[best]
        current = exact[best]
        removed = survivors.pop(window[best])
        removals.append((removed, (mean[best], resultant[best], ts[best], se[best])))
    if len(covariances) < len(removals):
        covariances.append(_covariance(units))

    steps = []
    for k, ((removed, moments), cov) in enumerate(zip(removals, covariances)):
        summary = units_summary(sample.n - k - 1, alpha_ref, full.df, *moments, cov)
        steps.append(ReductionStep(ids[removed], summary, summary.ci[0]))
    return ReductionTrace(
        steps=tuple(steps),
        alpha_ref=alpha_ref,
        initial_scene_ids=ids,
        final_scene_ids=tuple(ids[i] for i in survivors),
        stopped_reason=reason,
    )
