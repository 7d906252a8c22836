"""Extrinsic moments and dispersion inference for samples of unit vectors.

The dispersion index of a registered sample is twice the summed defect of
the per-block mean resultant lengths, tS = 2 * sum_f (1 - ||u_bar_f||).
It vanishes exactly when each block is constant, which for camera scenes
means the landmarks are consistent with a single planar configuration.
Inference uses the delta-method standard error of tS together with a
chi-square calibration of n * tS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .errors import EmptySample, FocalMean, InvalidLevel
from .geometry import DirectionSample, _freeze

# dispersion at or below this is exact concentration (fp zero)
ZERO_TOL = 1e-12
# block mean shorter than this has no usable extrinsic mean
FOCAL_TOL = 1e-10
# raw delta SE at rounding-noise scale collapses to exactly 0.0
SE_CLAMP_RTOL = 1e-12
_FOCAL_MESSAGE = f"block mean has norm below {FOCAL_TOL}; extrinsic mean undefined"


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return float(special.ndtr(z))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise InvalidLevel(f"quantile level must be in (0, 1), got {p}")
    return float(special.ndtri(p))


def chisq_upper_tail(t: float, df: int) -> float:
    """P(chi2_df > t) via the regularized upper incomplete gamma."""
    if t < 0.0:
        raise ValueError("statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    return float(special.gammaincc(df / 2.0, t / 2.0))


def mean_vector(sample: DirectionSample) -> np.ndarray:
    """Per-block Euclidean mean, shape (q, d)."""
    return sample.units.mean(axis=0)


def resultant_length(mean: np.ndarray) -> np.ndarray:
    """Per-block mean resultant length, shape (q,). Values in [0, 1] up to fp."""
    m = np.atleast_2d(np.asarray(mean, dtype=np.float64))
    return np.linalg.norm(m, axis=1)


def extrinsic_mean(mean: np.ndarray) -> np.ndarray:
    """Per-block mean direction u_bar / ||u_bar||, shape (q, d).

    Raises:
        FocalMean: some block mean is numerically zero, so every direction
            is equally close and no representative exists.
    """
    m = np.atleast_2d(np.asarray(mean, dtype=np.float64))
    r = np.linalg.norm(m, axis=1)
    if (r < FOCAL_TOL).any():
        raise FocalMean(_FOCAL_MESSAGE)
    return m / r[:, None]


def total_variance(sample: DirectionSample) -> float:
    """Dispersion index tS = 2 * sum over blocks of (1 - resultant length).

    Clamped at 0 from below: rounding can push a constant sample's resultant
    a few ulp past 1.
    """
    return float(_dispersion_and_se(resultant_length(mean_vector(sample)))[0])


def _dispersion_and_se(resultant, se_raw=0.0):
    """Dispersion index and clamped SE from per-block resultant lengths.

    tS = 2 * sum_f (1 - r_f) over the last axis of `resultant`, clamped at 0
    from below (rounding can push a constant sample's resultant a few ulp
    past 1). A raw delta SE at rounding-noise scale, se_raw <=
    SE_CLAMP_RTOL * (1 + tS), becomes exactly 0.0: two-point samples cancel
    the projected variance identically, and constant samples must not
    manufacture a positive error from summation noise. Works elementwise on
    arrays of samples, one per leading index.
    """
    # multiplying by the mask costs no more than the scalar max() and
    # comparison it replaces; + 0.0 turns the -0.0 of a negative tS into 0.0
    ts = 2.0 * (1.0 - resultant).sum(axis=-1)
    ts = ts * (ts > 0.0) + 0.0
    return ts, se_raw * (se_raw > SE_CLAMP_RTOL * (1.0 + ts))


def sample_covariance(sample: DirectionSample) -> np.ndarray:
    """Covariance (1/n normalization) of the stacked block vectors, (q*d, q*d)."""
    return _covariance(sample.units)


def _covariance(units: np.ndarray) -> np.ndarray:
    n = units.shape[0]
    flat = units.reshape(n, -1)
    dev = flat - flat.sum(axis=0) / n  # flat.mean(axis=0), bit for bit
    return dev.T @ dev / n


def stacked_moments(units: np.ndarray):
    """Block means, resultant lengths, tS and delta SE of R samples at once.

    units has shape (R, n, q, d), one sample per leading index; R may be 0.
    Returns (mean (R, q, d), resultant (R, q), ts (R,), se (R,), focal (R,)),
    each entry bit-identical to the same sample computed alone: the SE is
    sqrt(g' S_n g / n) with g the stacked per-block gradients
    -2 u_bar_f / ||u_bar_f||, evaluated as a mean of squared projections,
    which cannot go negative under rounding (unlike the assembled-matrix
    form, whose cancellation noise blows up when the resultant is small),
    then clamped by _dispersion_and_se. focal marks the samples with a block
    mean shorter than FOCAL_TOL: their extrinsic mean and gradient are
    undefined, and so are their ts and se (NaN, inf or meaningless).
    """
    reps, n, q, d = units.shape
    # the same operations, bit for bit, as units.mean(axis=1) and
    # np.linalg.norm(mean, axis=-1), without their Python overhead
    mean = units.sum(axis=1) / n
    resultant = np.sqrt((mean * mean).sum(axis=-1))
    focal = (resultant < FOCAL_TOL).any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grad = (-2.0 * mean / resultant[..., None]).reshape(reps, q * d, 1)
        # per sample: one (n, qd) @ (qd,) gemv and one dot, as for a single sample
        proj = (units.reshape(reps, n, q * d) - mean.reshape(reps, 1, q * d)) @ grad
        quad = (proj.transpose(0, 2, 1) @ proj).reshape(reps) / n
        ts, se = _dispersion_and_se(resultant, np.sqrt(quad / n))
    return mean, resultant, ts, se, focal


def sample_moments(units: np.ndarray):
    """stacked_moments without the focal mask, for samples that must not be focal.

    Returns (mean, resultant, ts, se) as stacked_moments does.

    Raises:
        FocalMean: some sample has a block mean shorter than FOCAL_TOL, so
            its extrinsic mean and gradient are undefined.
    """
    mean, resultant, ts, se, focal = stacked_moments(units)
    if focal.any():
        raise FocalMean(_FOCAL_MESSAGE)
    return mean, resultant, ts, se


def delta_se(sample: DirectionSample) -> float:
    """Delta-method standard error of the dispersion index.

    se = sqrt(g' S_n g / n) with g the stacked per-block gradients
    -2 u_bar_f / ||u_bar_f||; for one block this is
    (2 / sqrt(n)) * sqrt(u_bar' S_n u_bar) / ||u_bar||. A raw value at
    rounding-noise scale is returned as exactly 0.0 (_dispersion_and_se).
    """
    return float(sample_moments(sample.units[None])[3][0])


def confidence_interval(ts: float, se: float, alpha: float) -> Tuple[float, float]:
    """Symmetric normal interval ts -+ z_{1-alpha/2} * se; lower end not clamped.

    Works elementwise on arrays of ts and se, with the quantile computed once.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    if np.any(np.asarray(se) < 0.0):
        raise ValueError("standard error must be nonnegative")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * se
    return (ts - half, ts + half)


def z_statistic(ts: float, se: float) -> Tuple[float, float, bool]:
    """One-sided normal test of zero dispersion.

    Returns:
        (z, p_upper, degenerate). With se == 0 the statistic is undefined;
        by convention p = 1 when ts is (fp-)zero and p = 0 otherwise, and
        the degenerate flag is set.
    """
    if se < 0.0:
        raise ValueError("standard error must be nonnegative")
    if se == 0.0:
        if ts <= ZERO_TOL:
            return (0.0, 1.0, True)
        return (math.inf, 0.0, True)
    z = ts / se
    return (z, float(special.ndtr(-z)), False)


def chisq_statistic(ts: float, n: int, df: int) -> Tuple[float, float]:
    """Large-sample calibration T = n * ts against chi-square with df dof.

    For df = 2 the upper tail is exp(-T/2) exactly; other df use the
    regularized incomplete gamma.
    """
    if ts < 0.0:
        raise ValueError("dispersion must be nonnegative")
    if n < 1:
        raise EmptySample("need n >= 1")
    t = n * ts
    if df == 2:
        return (t, math.exp(-t / 2.0))
    return (t, chisq_upper_tail(t, df))


def angular_distances(sample: DirectionSample) -> np.ndarray:
    """Angles (n, q) between each vector and its block's extrinsic mean."""
    mu = extrinsic_mean(mean_vector(sample))
    cosines = np.einsum("nqd,qd->nq", sample.units, mu)
    return np.arccos(np.clip(cosines, -1.0, 1.0))


@dataclass(frozen=True)
class OpsSummary:
    """Full inference summary for one registered sample.

    ci is the two-sided (1 - alpha) interval for the population dispersion;
    the primary planarity decision is reject_ci (lower endpoint strictly
    positive, beyond the fp zero floor), with the chi-square decision
    reported side by side. degenerate marks the se = 0 convention.
    """

    n: int
    q: int
    dim: int
    alpha: float
    df: int
    mean_vector: np.ndarray
    resultant: np.ndarray
    extrinsic_mean: np.ndarray
    total_variance: float
    covariance: np.ndarray
    se: float
    z: float
    t_stat: float
    p_normal: float
    p_chisq: float
    ci: Tuple[float, float]
    degenerate: bool
    reject_ci: bool
    reject_chisq: bool

    def __post_init__(self):
        object.__setattr__(self, "mean_vector", _freeze(self.mean_vector))
        object.__setattr__(self, "resultant", _freeze(self.resultant))
        object.__setattr__(self, "extrinsic_mean", _freeze(self.extrinsic_mean))
        object.__setattr__(self, "covariance", _freeze(self.covariance))

    @property
    def reject(self) -> bool:
        return self.reject_ci


def coplanarity_test(
    sample: DirectionSample, alpha: float = 0.05, df: Optional[int] = None
) -> OpsSummary:
    """Test zero dispersion (all scenes register identically) at level alpha.

    Args:
        sample: registered directions, n >= 2.
        alpha: two-sided CI level and chi-square level, in (0, 1).
        df: chi-square degrees of freedom; defaults to (d - 1) * q.

    Raises:
        EmptySample, InvalidLevel, FocalMean.
    """
    if sample.n < 2:
        raise EmptySample("need at least two scenes to test dispersion")
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    if df is None:
        df = (sample.dim - 1) * sample.q
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    moments = (a[0] for a in sample_moments(sample.units[None]))
    return units_summary(sample.units, alpha, df, *moments)


def units_summary(
    units: np.ndarray,
    alpha: float,
    df: int,
    mean: np.ndarray,
    resultant: np.ndarray,
    ts: float,
    se: float,
) -> OpsSummary:
    """The OpsSummary of the (n, q, d) units, given their stacked_moments row.

    mean, resultant, ts and se are one sample's entries of stacked_moments,
    for a sample that is not focal; alpha and df are taken as valid. The
    covariance and the statistics are added here, so coplanarity_test and
    a row of a stacked pass give bit-identical summaries.
    """
    n, q, d = units.shape
    ts, se = float(ts), float(se)
    z, p_normal, degenerate = z_statistic(ts, se)
    t_stat, p_chisq = chisq_statistic(ts, n, df)
    ci = confidence_interval(ts, se, alpha)

    return OpsSummary(
        n=n,
        q=q,
        dim=d,
        alpha=alpha,
        df=df,
        mean_vector=mean,
        resultant=resultant,
        extrinsic_mean=mean / resultant[:, None],
        total_variance=ts,
        covariance=_covariance(units),
        se=se,
        z=z,
        t_stat=t_stat,
        p_normal=p_normal,
        p_chisq=p_chisq,
        ci=(float(ci[0]), float(ci[1])),
        degenerate=degenerate,
        reject_ci=bool(ci[0] > ZERO_TOL),
        reject_chisq=bool(p_chisq < alpha),
    )
