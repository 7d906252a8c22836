"""Extrinsic moments and dispersion inference for samples of unit vectors.

The dispersion index of a registered sample is twice the summed defect of
the per-block mean resultant lengths, tS = 2 * sum_f (1 - ||u_bar_f||).
It vanishes exactly when each block is constant, which for camera scenes
means the landmarks are consistent with a single planar configuration.
Inference uses the delta-method standard error of tS together with a
chi-square calibration of n * tS.

Every moment comes from one stacked pass, stacked_moments, over R samples
at once, laid out scenes-major as (n, R, q, d): scene j of every sample is
one contiguous row, so the sum over scenes and the centring run one long
loop per scene rather than a loop of q * d per scene and sample, and still
add the scenes in order, bit for bit as one sample alone. One (n, q, d)
sample is the R = 1 stack units[:, None]. coplanarity_test's OpsSummary
holds that row (block means, resultant lengths, extrinsic mean, tS, SE)
with the covariance and the test statistics, and total_variance is its tS
alone.

The normal CDF and quantile are ports of ndtr (with its erf and erfc) and
ndtri from S. L. Moshier's Cephes Math Library (1989), the code behind
scipy.special.ndtr and ndtri: the same rational approximations, evaluated
in the order of cephes's polevl and p1evl with plain float arithmetic and
libm's exp, log and sqrt, so they give scipy's bits. scipy.special itself
is imported only by chisq_upper_tail, on its first call; with df = 2
(chisq_statistic's closed form) nothing here loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import EmptySample, FocalMean, InvalidLevel
from .geometry import DirectionSample, _freeze, last_axis_norms

# dispersion at or below this is exact concentration (fp zero)
ZERO_TOL = 1e-12
# block mean shorter than this has no usable extrinsic mean
FOCAL_TOL = 1e-10
# raw delta SE at rounding-noise scale collapses to exactly 0.0
SE_CLAMP_RTOL = 1e-12
_FOCAL_MESSAGE = f"block mean has norm below {FOCAL_TOL}; extrinsic mean undefined"

# cephes constants: sqrt(1/2), log(DBL_MAX), sqrt(2 pi) and exp(-2)
_SQRT1_2 = 7.07106781186547524401e-1
_MAXLOG = 7.09782712893383996843e2
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 1.35335283236612691894e-1


def _erf(x: float) -> float:
    """cephes erf: x T(x^2) / U(x^2) on |x| <= 1, 1 - erfc(x) beyond."""
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    t = ((((9.60497373987051638749e0 * z
            + 9.00260197203842689217e1) * z
           + 2.23200534594684319226e3) * z
          + 7.00332514112805075473e3) * z
         + 5.55923013010394962768e4)
    u = (((((z + 3.35617141647503099647e1) * z
            + 5.21357949780152679795e2) * z
           + 4.59432382970980127987e3) * z
          + 2.26290000613890934246e4) * z
         + 4.92673942608635921086e4)
    return x * t / u


def _erfc(a: float) -> float:
    """cephes erfc: 1 - erf(a) on |a| < 1, exp(-a^2) P(|a|) / Q(|a|) beyond."""
    x = -a if a < 0.0 else a
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        p = ((((((((2.46196981473530512524e-10 * x
                    + 5.64189564831068821977e-1) * x
                   + 7.46321056442269912687e0) * x
                  + 4.86371970985681366614e1) * x
                 + 1.96520832956077098242e2) * x
                + 5.26445194995477358631e2) * x
               + 9.34528527171957607540e2) * x
              + 1.02755188689515710272e3) * x
             + 5.57535335369399327526e2)
        q = ((((((((x + 1.32281951154744992508e1) * x
                   + 8.67072140885989742329e1) * x
                  + 3.54937778887819891062e2) * x
                 + 9.75708501743205489753e2) * x
                + 1.82390916687909736289e3) * x
               + 2.24633760818710981792e3) * x
              + 1.65666309194161350182e3) * x
             + 5.57535340817727675546e2)
    else:
        p = (((((5.64189583547755073984e-1 * x
                 + 1.27536670759978104416e0) * x
                + 5.01905042251180477414e0) * x
               + 6.16021097993053585195e0) * x
              + 7.40974269950448939160e0) * x
             + 2.97886665372100240670e0)
        q = ((((((x + 2.26052863220117276590e0) * x
                 + 9.39603524938001434673e0) * x
                + 1.20489539808096656605e1) * x
               + 1.70814450747565897222e1) * x
              + 9.60896809063285878198e0) * x
             + 3.36907645100081516050e0)
    y = (z * p) / q
    if a < 0.0:
        y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0.0 else 0.0


def normal_cdf(a: float) -> float:
    """Standard normal CDF at a: cephes ndtr; NaN gives NaN."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


@lru_cache(maxsize=16)  # confidence_interval asks for one level many times
def _ndtri(y0: float) -> float:
    """cephes ndtri: the standard normal quantile of y0 in [0, 1].

    A rational function of y - 1/2 for exp(-2) < y0 < 1 - exp(-2); in the
    tails an expansion in z = sqrt(-2 log y) with y = min(y0, 1 - y0), one
    rational function in 1/z for z < 8 (y > exp(-32)) and another beyond.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y = y0
    lower = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        lower = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        p = ((((-5.99633501014107895267e1 * y2
                + 9.80010754185999661536e1) * y2
               - 5.66762857469070293439e1) * y2
              + 1.39312609387279679503e1) * y2
             - 1.23916583867381258016e0)
        q = ((((((((y2 + 1.95448858338141759834e0) * y2
                   + 4.67627912898881538453e0) * y2
                  + 8.63602421390890590575e1) * y2
                 - 2.25462687854119370527e2) * y2
                + 2.00260212380060660359e2) * y2
               - 8.20372256168333339912e1) * y2
              + 1.59056225126211695515e1) * y2
             - 1.18331621121330003142e0)
        x = y + y * (y2 * p / q)
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        p = ((((((((4.05544892305962419923e0 * z
                    + 3.15251094599893866154e1) * z
                   + 5.71628192246421288162e1) * z
                  + 4.40805073893200834700e1) * z
                 + 1.46849561928858024014e1) * z
                + 2.18663306850790267539e0) * z
               - 1.40256079171354495875e-1) * z
              - 3.50424626827848203418e-2) * z
             - 8.57456785154685413611e-4)
        q = ((((((((z + 1.57799883256466749731e1) * z
                   + 4.53907635128879210584e1) * z
                  + 4.13172038254672030440e1) * z
                 + 1.50425385692907503408e1) * z
                + 2.50464946208309415979e0) * z
               - 1.42182922854787788574e-1) * z
              - 3.80806407691578277194e-2) * z
             - 9.33259480895457427372e-4)
    else:
        p = ((((((((3.23774891776946035970e0 * z
                    + 6.91522889068984211695e0) * z
                   + 3.93881025292474443415e0) * z
                  + 1.33303460815807542389e0) * z
                 + 2.01485389549179081538e-1) * z
                + 1.23716634817820021358e-2) * z
               + 3.01581553508235416007e-4) * z
              + 2.65806974686737550832e-6) * z
             + 6.23974539184983293730e-9)
        q = ((((((((z + 6.02427039364742014255e0) * z
                   + 3.67983563856160859403e0) * z
                  + 1.37702099489081330271e0) * z
                 + 2.16236993594496635890e-1) * z
                + 1.34204006088543189037e-2) * z
               + 3.28014464682127739104e-4) * z
              + 2.89247864745380683936e-6) * z
             + 6.79019408009981274425e-9)
    x = x0 - z * p / q
    return -x if lower else x


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1), computed once per level."""
    if not 0.0 < p < 1.0:
        raise InvalidLevel(f"quantile level must be in (0, 1), got {p}")
    return _ndtri(float(p))


def chisq_upper_tail(t: float, df: int) -> float:
    """P(chi2_df > t) via the regularized upper incomplete gamma."""
    if t < 0.0:
        raise ValueError("statistic must be nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    from scipy import special  # the module's only scipy use; see its docstring

    return float(special.gammaincc(df / 2.0, t / 2.0))


def total_variance(sample: DirectionSample) -> float:
    """Dispersion index tS = 2 * sum over blocks of (1 - resultant length).

    The tS of stacked_moments for the one sample, so bit for bit the value
    coplanarity_test reports; clamped at 0 from below, since rounding can
    push a constant sample's resultant a few ulp past 1. A focal sample
    still has its tS.
    """
    return float(stacked_moments(sample.units[:, None])[2][0])


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


def _covariance(units: np.ndarray) -> np.ndarray:
    n = units.shape[0]
    flat = units.reshape(n, -1)
    dev = flat - flat.sum(axis=0) / n  # flat.mean(axis=0), bit for bit
    return dev.T @ dev / n


def stacked_moments(units: np.ndarray):
    """Block means, resultant lengths, tS and delta SE of R samples at once.

    units is a scenes-major stack of shape (n, R, q, d): units[:, r] is
    sample r, and R may be 0. A single (n, q, d) sample is units[:, None].
    Returns (mean (R, q, d), resultant (R, q), ts (R,), se (R,), focal (R,)),
    each entry bit-identical to the same sample computed alone. In this
    layout the sum over scenes and the centring run one long loop over all
    R samples per scene; the sum still adds the scenes one after another,
    as for a single sample. The SE is sqrt(g' S_n g / n) with g the stacked
    per-block gradients -2 u_bar_f / ||u_bar_f||, evaluated as a mean of
    squared projections, which cannot go negative under rounding (unlike
    the assembled-matrix form, whose cancellation noise blows up when the
    resultant is small), then clamped by _dispersion_and_se. focal marks the
    samples with a block mean shorter than FOCAL_TOL: their extrinsic mean
    and gradient are undefined, and so is their se (NaN, inf or
    meaningless); their ts is still 2 * sum_f (1 - ||u_bar_f||).
    """
    n, reps, q, d = units.shape
    # the same operations, bit for bit, as a sample's mean(axis=0) and
    # np.linalg.norm(mean, axis=-1), without their Python overhead
    mean = units.sum(axis=0) / n
    resultant = np.sqrt((mean * mean).sum(axis=-1))
    focal = (resultant < FOCAL_TOL).any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grad = (-2.0 * mean / resultant[..., None]).reshape(reps, q * d, 1)
        # per sample: one (n, qd) @ (qd,) gemv on the strided (R, n, qd)
        # view of the centred rows and one dot, as for a single sample
        dev = (units - mean).reshape(n, reps, q * d)
        proj = dev.transpose(1, 0, 2) @ grad
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


def confidence_interval(ts: float, se: float, alpha: float) -> Tuple[float, float]:
    """Symmetric normal interval ts -+ z_{1-alpha/2} * se; lower end not clamped.

    Works elementwise on arrays of ts and se, with the quantile computed once.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"alpha must be in (0, 1), got {alpha}")
    if (np.asarray(se) < 0.0).any():
        raise ValueError("standard error must be nonnegative")
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * se
    return (ts - half, ts + half)


def z_values(ts: np.ndarray, se: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """z = ts / se, the one-sided normal statistic of zero dispersion, and the
    degenerate flag, for arrays of ts and se.

    With se == 0 the statistic is undefined; by convention z = 0 when ts is
    (fp-)zero and z = inf otherwise, and the degenerate flag is set. NaN
    entries give z NaN and a false flag, except that a NaN ts over se == 0
    gives inf and a set flag.
    """
    if (se < 0.0).any():
        raise ValueError("standard error must be nonnegative")
    degenerate = se == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = np.where(degenerate, np.where(ts <= ZERO_TOL, 0.0, math.inf), ts / se)
    return z, degenerate


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


def angular_distances(units: np.ndarray, mean_direction: np.ndarray) -> np.ndarray:
    """Angles (n, q) between each vector of units (n, q, d) and its block's
    mean direction, a (q, d) row of unit vectors such as an OpsSummary's
    extrinsic_mean.

    Kahan's theta = 2 * atan2(||u - m||, ||u + m||) keeps its relative
    accuracy for any d, near 0 and near pi alike, where the arccos of a dot
    product loses every digit of an angle below about 1.5e-8.
    """
    u = np.asarray(units, dtype=np.float64)
    m = np.asarray(mean_direction, dtype=np.float64)
    return 2.0 * np.arctan2(last_axis_norms(u - m), last_axis_norms(u + m))


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
    moments = (a[0] for a in sample_moments(sample.units[:, None]))
    return units_summary(sample.n, alpha, df, *moments, _covariance(sample.units))


def units_summary(
    n: int,
    alpha: float,
    df: int,
    mean: np.ndarray,
    resultant: np.ndarray,
    ts: float,
    se: float,
    covariance: np.ndarray,
) -> OpsSummary:
    """The OpsSummary of n units, given their stacked_moments row and covariance.

    mean, resultant, ts and se are one sample's entries of stacked_moments,
    for a sample that is not focal, and covariance is _covariance of its
    units; alpha and df are taken as valid. The statistics are added here,
    so coplanarity_test and a row of a stacked pass give bit-identical
    summaries.
    """
    q, d = mean.shape
    ts, se = float(ts), float(se)
    z, degenerate = z_values(np.float64(ts), np.float64(se))
    z, degenerate = float(z), bool(degenerate)
    # a degenerate zero dispersion has p = 1; otherwise the upper normal tail
    p_normal = 1.0 if degenerate and z == 0.0 else normal_cdf(-z)
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
        covariance=covariance,
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
