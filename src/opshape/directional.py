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
with the covariance and the test statistics; a sample whose mean may be
focal has its tS, bit for bit, as stacked_moments(units[:, None])[2][0].

The normal CDF and quantile are ports of ndtr (with its erf and erfc) and
ndtri from S. L. Moshier's Cephes Math Library (1989), the code behind
scipy.special.ndtr and ndtri: the same rational approximations, evaluated
in the order of cephes's polevl and p1evl with plain float arithmetic and
libm's exp, log and sqrt, so they give scipy's bits. The chi-square upper
tail of integer df is the finite sum of Abramowitz & Stegun (1964) 26.4.4
and 26.4.5 on that erfc, so the package needs numpy alone at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .errors import EmptySample, FocalMean, InvalidLevel
from .geometry import DirectionSample, _freeze, last_axis_dots, last_axis_norms, mean_outer

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


def two_sided_quantile(alpha: float, name: str = "alpha") -> float:
    """z_{1 - alpha/2}, the normal quantile of a two-sided level-alpha interval.

    Raises:
        InvalidLevel: alpha is not in (0, 1), or is at most 2**-53, where
            1 - alpha/2 rounds to 1; the message names alpha as `name`.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidLevel(f"{name} must be in (0, 1), got {alpha}")
    level = 1.0 - alpha / 2.0
    if level == 1.0:
        raise InvalidLevel(f"{name} must be above 2**-53, where 1 - {name}/2 rounds to 1, got {alpha}")
    return normal_quantile(level)


def chisq_upper_tail(t: float, df: int) -> float:
    """P(chi2_df > t) for integer df >= 1 and t >= 0 (NaN gives NaN), to about 1e-300.

    With x = t/2, the sum of T(a) = x^a e^-x / Gamma(a + 1) over a = df/2 - 1,
    df/2 - 2, ... >= 0, plus erfc(sqrt(x)) for odd df (A&S 26.4.4, 26.4.5),
    taken outward from its largest term by the ratios of neighbouring terms;
    at df = 2 it is exp(-x), bit for bit.
    """
    if t < 0.0:
        raise ValueError("statistic must be nonnegative")
    if not (df >= 1 and df % 1 == 0):
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    x = t / 2.0
    head = _erfc(math.sqrt(x)) if df % 2 else 0.0
    top = df / 2.0 - 1.0
    if top < 0.0 or not 0.0 < x < math.inf:  # no peak term: df = 1, t = 0, inf or NaN
        return head if top < 0.0 else math.exp(-x)
    low = top % 1.0
    a = peak = min(top, low + max(0.0, math.floor(x - low)))
    if a < 16.0:  # log T(peak)
        lead = a * math.log(x) - x - math.lgamma(a + 1.0)  # -x at a = 0: lgamma(1) = +0
    else:  # Loader's (2000) -bd0 - stirlerr - log(2 pi a)/2: no lgamma rounding
        s = 1.0 / (a * a)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - s / 1188) * s) * s) * s) / a
        lead = -(a * math.log1p((a - x) / x) + (x - a)) - stirlerr - 0.5 * math.log(2 * math.pi * a)
    total = 1.0
    for stop, step in ((low, -1.0), (top, 1.0)):  # down to T(low), then up to T(top)
        a, term = peak, 1.0
        while a != stop and term > total * 1e-30:
            term *= a / x if step < 0.0 else x / (a + 1.0)  # T(a -+ 1) / T(a)
            a += step
            total += term
    return head + math.exp(lead) * total


def _dispersion_and_se(resultant, se_raw=0.0):
    """Dispersion index and clamped SE from per-block resultant lengths.

    tS = 2 * sum_f (1 - r_f) over the last axis of `resultant`, clamped at 0
    from below (rounding can push a constant sample's resultant a few ulp
    past 1). A raw delta SE at rounding-noise scale, se_raw <= se_clamp(tS),
    becomes exactly 0.0: two-point samples cancel the projected variance
    identically, and constant samples must not manufacture a positive error
    from summation noise. Works elementwise on arrays of samples, one per
    leading index.
    """
    # multiplying by the mask costs no more than the scalar max() and
    # comparison it replaces; + 0.0 turns the -0.0 of a negative tS into 0.0
    ts = 2.0 * (1.0 - resultant).sum(axis=-1)
    ts = ts * (ts > 0.0) + 0.0
    return ts, se_raw * (se_raw > se_clamp(ts))


def se_clamp(ts):
    """SE_CLAMP_RTOL * (1 + tS): a raw delta SE at or below it is rounding
    noise and becomes 0.0. Elementwise on arrays."""
    return SE_CLAMP_RTOL * (1.0 + ts)


def _covariance(units: np.ndarray) -> np.ndarray:
    """The (qd, qd) covariance of the rows of units (n, q, d), over n."""
    n = units.shape[0]
    flat = units.reshape(n, -1)
    return mean_outer(flat - flat.sum(axis=0) / n)  # flat.mean(axis=0), bit for bit


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
    resultant is small), then clamped by _dispersion_and_se; each sample's
    squared projections are summed along one contiguous row. focal marks the
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
        grad = (-2.0 * mean / resultant[..., None]).reshape(reps, q * d)
        dev = (units - mean).reshape(n, reps, q * d)
        proj = last_axis_dots(dev, grad)  # (n, R)
        # squares laid out (R, n) in C order: one contiguous row per sample
        quad = np.multiply(proj.T, proj.T, order="C").sum(axis=1) / n
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
    z = two_sided_quantile(alpha)
    if (np.asarray(se) < 0.0).any():
        raise ValueError("standard error must be nonnegative")
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
    """Large-sample calibration T = n * ts: (T, chisq_upper_tail(T, df)), for every df."""
    if ts < 0.0:
        raise ValueError("dispersion must be nonnegative")
    if n < 1:
        raise EmptySample("need n >= 1")
    t = n * ts
    return (t, chisq_upper_tail(t, df))


def angular_distances(units: np.ndarray, mean_direction: np.ndarray) -> np.ndarray:
    """Angles (n, q) between each vector of units (n, q, d) and its block's
    mean direction, a (q, d) row of unit vectors such as an OpsSummary's
    extrinsic_mean.

    Kahan's theta = 2 * atan2(||u - m||, ||u + m||) keeps its relative
    accuracy for any d, near 0 and near pi alike, where the arccos of a dot
    product loses every digit of an angle below about 1.5e-8. The atan2 is
    libm's: numpy's rounds about one value in twenty otherwise with AVX-512.
    """
    far = last_axis_norms(np.subtract(units, mean_direction, dtype=np.float64))
    near = last_axis_norms(np.add(units, mean_direction, dtype=np.float64))
    theta = map(math.atan2, far.ravel().tolist(), near.ravel().tolist())
    return 2.0 * np.fromiter(theta, np.float64, far.size).reshape(far.shape)


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

    @classmethod
    def _of_locked_rows(cls, **fields) -> "OpsSummary":
        """A summary whose arrays are read-only rows of arrays no caller
        holds writable, taken as they are (units_summary builds them)."""
        summary = object.__new__(cls)
        summary.__dict__.update(fields)
        return summary


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
    moments = sample_moments(sample.units[:, None])
    return units_summary([sample.n], alpha, df, *moments, [_covariance(sample.units)])[0]


def units_summary(
    n: Sequence[int],
    alpha: float,
    df: int,
    mean: ArrayLike,
    resultant: ArrayLike,
    ts: ArrayLike,
    se: ArrayLike,
    covariance: Sequence[np.ndarray],
) -> Tuple[OpsSummary, ...]:
    """The OpsSummary of each of k samples, given their stacked_moments rows
    and covariances.

    n holds the k sample sizes; mean (k, q, d), resultant (k, q), ts (k,)
    and se (k,) are k rows of stacked_moments, arrays or sequences of rows,
    of samples that are not focal, and covariance holds the k _covariance of
    their units; alpha and df are taken as valid. The array statistics (z,
    the interval and the extrinsic means) are formed once for all k rows and
    the tail probabilities row by row, so coplanarity_test (k = 1) and the
    rows of a stacked pass give bit-identical summaries. Each stacked array
    is made once and locked, and each summary holds read-only rows of them.
    """
    mean = _freeze(mean)
    resultant = _freeze(resultant)
    covariance = _freeze(covariance)
    ts = np.array(ts, dtype=np.float64)
    se = np.array(se, dtype=np.float64)
    q, d = mean.shape[1:]
    z, degenerate = z_values(ts, se)
    lower, upper = confidence_interval(ts, se, alpha)
    extrinsic_mean = mean / resultant[..., None]
    extrinsic_mean.flags.writeable = False
    columns = (ts.tolist(), se.tolist(), z.tolist(), degenerate.tolist(), lower.tolist(), upper.tolist())
    summaries = []
    for i, (n_i, ts_i, se_i, z_i, degenerate_i, lower_i, upper_i) in enumerate(zip(n, *columns)):
        # a degenerate zero dispersion has p = 1; otherwise the upper normal tail
        p_normal = 1.0 if degenerate_i and z_i == 0.0 else normal_cdf(-z_i)
        t_stat, p_chisq = chisq_statistic(ts_i, n_i, df)
        summaries.append(OpsSummary._of_locked_rows(
            n=n_i,
            q=q,
            dim=d,
            alpha=alpha,
            df=df,
            mean_vector=mean[i],
            resultant=resultant[i],
            extrinsic_mean=extrinsic_mean[i],
            total_variance=ts_i,
            covariance=covariance[i],
            se=se_i,
            z=z_i,
            t_stat=t_stat,
            p_normal=p_normal,
            p_chisq=p_chisq,
            ci=(lower_i, upper_i),
            degenerate=degenerate_i,
            reject_ci=bool(lower_i > ZERO_TOL),
            reject_chisq=bool(p_chisq < alpha),
        ))
    return tuple(summaries)
