import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import tangent_stack
from opshape import directional
from opshape.directional import (
    OpsSummary,
    _covariance,
    angular_distances,
    chisq_statistic,
    chisq_upper_tail,
    confidence_interval,
    coplanarity_test,
    normal_cdf,
    normal_quantile,
    stacked_moments,
    units_summary,
)
from opshape.errors import EmptySample, FocalMean, InvalidLevel, MixedOrientationWarning
from opshape.geometry import DirectionSample, FrameSpec
from opshape.pipeline import register_scenes
from opshape.rng import SplitMix64
from opshape.synth import synthesize_views, tangent_gaussian_sample

mpmath.mp.dps = 50


def sample_of(*rows):
    return DirectionSample(np.array(rows, dtype=np.float64))


def random_sphere_sample(n, seed, q=1, d=3):
    gen = SplitMix64(seed)
    raw = gen.normals(n * q * d).reshape(n, q, d)
    units = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    return DirectionSample(units, tuple(str(i) for i in range(n)))


THREE_ROWS = sample_of([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
# hand values for THREE_ROWS: mean (2/3, 1/3, 0), resultant sqrt(5)/3
R_THREE = math.sqrt(5.0) / 3.0
TS_THREE = 2.0 * (1.0 - R_THREE)
SE_THREE = 2.0 * math.sqrt(2.0) / (3.0 * math.sqrt(15.0))


# ---------- first moments -------------------------------------------------------

def test_mean_vector_basic():
    np.testing.assert_array_equal(
        coplanarity_test(sample_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])).mean_vector,
        [[0.0, 0.0, 1.0]],
    )
    np.testing.assert_allclose(
        coplanarity_test(sample_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])).mean_vector,
        [[0.5, 0.5, 0.0]],
        atol=0,
    )


def test_resultant_length_basic():
    same = coplanarity_test(sample_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0]))
    assert same.resultant[0] == pytest.approx(1.0)
    r = coplanarity_test(sample_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])).resultant
    assert r[0] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)


def test_extrinsic_mean_normalizes_and_rejects_focal():
    # block mean (0, 0, 1/3)
    third = sample_of([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        coplanarity_test(third).extrinsic_mean, [[0.0, 0.0, 1.0]], atol=0
    )
    np.testing.assert_allclose(
        coplanarity_test(sample_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])).extrinsic_mean,
        [[math.sqrt(2) / 2, math.sqrt(2) / 2, 0.0]],
        atol=1e-16,
    )
    with pytest.raises(FocalMean):
        coplanarity_test(sample_of([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]))


# ---------- dispersion index ----------------------------------------------------

def test_total_variance_constant_sample_is_exact_zero():
    ts = coplanarity_test(sample_of([0.0, 1.0, 0.0], [0.0, 1.0, 0.0])).total_variance
    assert ts == 0.0


def test_total_variance_hand_value():
    assert coplanarity_test(THREE_ROWS).total_variance == pytest.approx(TS_THREE, abs=1e-15)
    assert TS_THREE == pytest.approx(0.50929, abs=5e-6)


def test_total_variance_bounds_random():
    for seed in range(5):
        s = random_sphere_sample(20, seed, q=2)
        ts = coplanarity_test(s).total_variance
        assert 0.0 <= ts <= 2.0 * s.q


def test_sample_covariance_hand_value():
    cov = coplanarity_test(THREE_ROWS).covariance
    expect = np.array(
        [[2 / 9, -2 / 9, 0.0], [-2 / 9, 2 / 9, 0.0], [0.0, 0.0, 0.0]]
    )
    np.testing.assert_allclose(cov, expect, atol=1e-16)


def test_sample_covariance_constant_is_zero():
    cov = coplanarity_test(sample_of([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])).covariance
    np.testing.assert_array_equal(cov, np.zeros((3, 3)))


def test_trace_identity_random_samples():
    # per block: trace of the covariance equals 1 - resultant^2
    for seed in range(30):
        s = random_sphere_sample(12, 1000 + seed, q=2)
        summary = coplanarity_test(s)
        cov, r = summary.covariance, summary.resultant
        d = s.dim
        for f in range(s.q):
            block = cov[f * d : (f + 1) * d, f * d : (f + 1) * d]
            assert np.trace(block) == pytest.approx(1.0 - r[f] ** 2, abs=1e-12)


# ---------- delta-method standard error ------------------------------------------

def test_delta_se_hand_value():
    assert coplanarity_test(THREE_ROWS).se == pytest.approx(SE_THREE, abs=1e-15)
    assert SE_THREE == pytest.approx(0.24343, abs=5e-6)


def test_delta_se_constant_sample_is_exact_zero():
    assert coplanarity_test(sample_of([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])).se == 0.0


def test_delta_se_two_point_samples_exactly_zero():
    # ubar is orthogonal to u1 - u2 for unit vectors, so the quadratic
    # form collapses no matter the pair
    gen = SplitMix64(55)
    for _ in range(20):
        raw = gen.normals(6).reshape(2, 3)
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        if np.linalg.norm(raw.sum(axis=0)) < 1e-6:
            continue
        assert coplanarity_test(DirectionSample(raw)).se == 0.0


def test_delta_se_focal_propagates():
    with pytest.raises(FocalMean):
        coplanarity_test(sample_of([1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]))


# ---------- interval and test engines --------------------------------------------

def test_confidence_interval_degenerate_and_validation():
    assert confidence_interval(0.3, 0.0, 0.05) == (0.3, 0.3)
    lo, hi = confidence_interval(0.2, 0.1, 0.05)
    assert lo < 0.2 < hi
    assert lo == pytest.approx(0.2 - 1.959964 * 0.1, abs=1e-6)
    with pytest.raises(InvalidLevel):
        confidence_interval(0.2, 0.1, 0.0)
    with pytest.raises(InvalidLevel):
        confidence_interval(0.2, 0.1, 1.0)


def test_confidence_interval_lower_not_clamped():
    lo, hi = confidence_interval(0.01, 0.1, 0.05)
    assert lo < 0.0


def summary_z(ts, se):
    """(z, p_normal, degenerate) of the units_summary of a sample with dispersion ts and SE se."""
    mean = np.array([[[0.0, 0.0, 1.0]]])
    (s,) = units_summary([10], 0.05, 2, mean, np.ones((1, 1)), np.array([ts]), np.array([se]), [np.zeros((3, 3))])
    return s.z, s.p_normal, s.degenerate


def test_units_summary_rows_are_read_only_views_of_its_own_stacks():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 20, 5)[:, None]
    stack = np.stack([units[:-1], units[1:]], axis=1)  # two samples, scenes-major
    mean, resultant, ts, se, _ = stacked_moments(stack)
    covariance = [_covariance(stack[:, r]) for r in range(2)]
    inputs = [a.copy() for a in (mean, resultant, *covariance)]
    summaries = units_summary([19, 19], 0.05, 2, mean, resultant, ts, se, covariance)
    for a in (mean, resultant, *covariance):
        a[...] = 7.0  # the caller's arrays are not the summaries'
    for name in ("mean_vector", "resultant", "extrinsic_mean", "covariance"):
        rows = [getattr(s, name) for s in summaries]
        assert not any(row.flags.writeable for row in rows), name
        assert rows[0].base is rows[1].base is not None, name  # one stack, no copy per row
    for r, s in enumerate(summaries):
        ref.assert_same_bits(s.mean_vector, inputs[0][r])
        ref.assert_same_bits(s.resultant, inputs[1][r])
        ref.assert_same_bits(s.covariance, inputs[2 + r])


def test_summary_from_outside_data_copies_and_locks_its_arrays():
    (s,) = units_summary([10], 0.05, 2, np.array([[[0.0, 0.6, 0.8]]]), np.ones((1, 1)),
                         [0.1], [0.05], [np.eye(3)])
    fields = {f: getattr(s, f) for f in s.__dataclass_fields__}
    outside = {name: np.array(fields[name]) for name in ("mean_vector", "resultant", "extrinsic_mean", "covariance")}
    copy = OpsSummary(**{**fields, **outside})
    for name, a in outside.items():
        got = getattr(copy, name)
        assert got is not a and not np.shares_memory(got, a) and not got.flags.writeable, name
        a[...] = 7.0
        ref.assert_same_bits(got, getattr(s, name), name)


def z_convention(ts, se):
    """The one-sided normal test of zero dispersion, one scalar at a time:
    (z, p_upper, degenerate). With se == 0 the statistic is undefined; by
    convention p = 1 when ts is (fp-)zero and p = 0 otherwise, and the
    degenerate flag is set."""
    if se == 0.0:
        return (0.0, 1.0, True) if ts <= directional.ZERO_TOL else (math.inf, 0.0, True)
    z = ts / se
    return (z, normal_cdf(-z), False)


def test_z_statistic_basic_points():
    z, p, degenerate = summary_z(0.0, 1.0)
    assert (z, p, degenerate) == (0.0, 0.5, False)
    z, p, _ = summary_z(1.959964, 1.0)
    assert p == pytest.approx(0.025, abs=1e-6)


def test_z_statistic_derived_value():
    z, p, _ = summary_z(0.1871, 0.0812)
    assert z == pytest.approx(0.1871 / 0.0812, abs=1e-12)
    assert p == pytest.approx(1.0 - ref.normal_cdf(z), abs=1e-12)
    assert p == pytest.approx(0.0106, abs=5e-4)


def test_z_statistic_degenerate_conventions():
    assert summary_z(0.0, 0.0) == (0.0, 1.0, True)
    z, p, degenerate = summary_z(0.3, 0.0)
    assert math.isinf(z) and p == 0.0 and degenerate
    with pytest.raises(ValueError, match="standard error must be nonnegative"):
        summary_z(0.3, -1e-300)


def test_chisq_statistic_closed_form_df2():
    t, p = chisq_statistic(0.1871, 41, 2)
    assert t == 41 * 0.1871
    assert p == math.exp(-t / 2.0)
    assert chisq_statistic(0.0, 10, 2)[1] == 1.0
    t_half = 2.0 * math.log(2.0)
    assert chisq_statistic(t_half / 7, 7, 2)[1] == pytest.approx(0.5, abs=1e-12)


def test_chisq_upper_tail_df2_is_exp_bit_for_bit():
    # one path for every df: at df = 2 the sum is its one term, exp(-t/2)
    tiny = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300]
    grid = np.linspace(0.0, 1500.0, 30001).tolist() + [1400.0, 1490.0, 2000.0]
    drawn = np.random.default_rng(5).uniform(0.0, 1500.0, 20000).tolist()
    for t in tiny + grid + drawn:
        assert chisq_upper_tail(t, 2) == math.exp(-t / 2.0), t


def test_chisq_upper_tail_rejects_bad_arguments():
    for df in (0, -1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="degrees of freedom must be an integer >= 1"):
            chisq_upper_tail(1.0, df)
    with pytest.raises(ValueError, match="statistic must be nonnegative"):
        chisq_upper_tail(-1e-300, 2)
    # no term to sum from: t = 0, inf and NaN give exp(-t/2) at every df
    for df in (1, 2, 5, 6):
        assert chisq_upper_tail(0.0, df) == 1.0
        assert chisq_upper_tail(math.inf, df) == 0.0
        assert math.isnan(chisq_upper_tail(math.nan, df))


def chisq_tail_exact(t, df):
    """P(chi2_df > t) from mpmath's regularized incomplete gamma, at 50 digits."""
    return float(mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(t) / 2, mpmath.inf, regularized=True))


CHISQ_TS = (
    1e-300, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0,
    50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 400.0, 500.0, 700.0, 1000.0, 1400.0, 2000.0, 5000.0,
    1e4,
)


def chisq_grid(dfs):
    """(t, df, exact) where the exact tail is at least 1e-300: CHISQ_TS and
    points around the mean df of each df."""
    for df in dfs:
        near = {df - 1.0, float(df), df + 1.0, 0.5 * df, 1.5 * df, df + 3.0 * math.sqrt(df)}
        for t in sorted(near.union(CHISQ_TS)):
            exact = chisq_tail_exact(t, df)
            if exact >= 1e-300:
                yield t, df, exact


def test_chisq_upper_tail_matches_mpmath():
    for t, df, exact in chisq_grid([*range(1, 13), 40, 41, 400, 401]):
        assert chisq_upper_tail(t, df) == pytest.approx(exact, rel=1e-12, abs=0.0), (t, df)


def test_chisq_upper_tail_is_no_less_accurate_than_gammaincc():
    # the routine it replaced, on df 1-41 and 14 more up to 400: 1,758 points
    special = pytest.importorskip("scipy.special")
    dfs = [*range(1, 42), 50, 51, 99, 100, 101, 149, 150, 199, 200, 201, 299, 300, 399, 400]
    ours, theirs = [], []
    for t, df, exact in chisq_grid(dfs):
        ours.append(abs(chisq_upper_tail(t, df) - exact) / math.ulp(exact))
        theirs.append(abs(float(special.gammaincc(df / 2.0, t / 2.0)) - exact) / math.ulp(exact))
    assert len(ours) == 1758
    assert max(ours) <= max(theirs) and sum(ours) <= sum(theirs)


def test_chisq_upper_tail_at_a_huge_df():
    # at t = df = 10^8 the sum runs about 77,000 terms down from its peak
    took = []
    for _ in range(3):
        start = time.perf_counter()
        got = chisq_upper_tail(1e8, 10**8)
        took.append(time.perf_counter() - start)
    assert min(took) < 0.05
    assert got == pytest.approx(chisq_tail_exact(1e8, 10**8), rel=1e-12, abs=0.0)


def test_chisq_upper_tail_other_df():
    # df=4 reference: P(T > t) = exp(-t/2) (1 + t/2)
    for t in (0.5, 3.0, 10.0):
        expect = math.exp(-t / 2.0) * (1.0 + t / 2.0)
        assert chisq_upper_tail(t, 4) == pytest.approx(expect, rel=1e-12)


def test_normal_cdf_matches_high_precision_reference():
    for z in np.linspace(-8.0, 8.0, 33):
        assert normal_cdf(float(z)) == pytest.approx(
            ref.normal_cdf(float(z)), abs=1e-10
        )


def test_normal_quantile_matches_reference():
    for p in (0.025, 0.5, 0.7, 0.975, 0.999):
        expect = float(mpmath.sqrt(2) * mpmath.erfinv(2 * p - 1))
        assert normal_quantile(p) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(InvalidLevel):
        normal_quantile(0.0)
    with pytest.raises(InvalidLevel):
        normal_quantile(1.5)
    with pytest.raises(InvalidLevel):
        normal_quantile(math.nan)


# the largest alpha at which 1 - alpha/2 rounds to 1, and the next double up
TINY_ALPHA = 2.0**-53
SMALLEST_ALPHA = float(np.nextafter(TINY_ALPHA, 1.0))


@pytest.mark.parametrize("alpha", [1e-300, 5e-324, TINY_ALPHA])
def test_interval_refuses_a_level_that_rounds_to_one(alpha):
    assert 1.0 - alpha / 2.0 == 1.0
    with pytest.raises(InvalidLevel) as error:
        confidence_interval(1.0, 0.1, alpha)
    assert str(error.value) == f"alpha must be above 2**-53, where 1 - alpha/2 rounds to 1, got {alpha}"


def test_interval_at_the_smallest_level_is_finite():
    lower, upper = confidence_interval(1.0, 0.1, SMALLEST_ALPHA)
    assert math.isfinite(lower) and math.isfinite(upper) and lower < 1.0 < upper


# ---------- the cephes port against scipy.special ---------------------------------

def _around(edges, ulps=3):
    """Each edge and its neighbours up to `ulps` steps on either side."""
    out = []
    for edge in edges:
        below = above = float(edge)
        out.append(below)
        for _ in range(ulps):
            below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
            out += [below, above]
    return np.array(out)


def _scalar_calls(port, xs):
    """port called on each of xs as a Python float."""
    return np.fromiter(map(port, xs.tolist()), dtype=np.float64, count=len(xs))


SPECIAL_POINTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, -1e-310, 1e-300, 1e300, -1e300]
SQRT2 = math.sqrt(2.0)
# ndtr's own edges: |a| / sqrt(2) at sqrt(1/2) (erf or erfc), at 1 and 8
# (erfc's three forms), and at sqrt(log(DBL_MAX)) (erfc's underflow)
NDTR_EDGES = [e * s for e in (1.0, SQRT2, 8.0 * SQRT2, SQRT2 * math.sqrt(709.782712893384))
              for s in (1.0, -1.0)]
# erf's and erfc's: |x| at 1 and 8, and ndtr's sqrt(1/2)
ERF_EDGES = [e * s for e in (math.sqrt(0.5), 1.0, 8.0, math.sqrt(709.782712893384))
             for s in (1.0, -1.0)]


def _ndtr_inputs(count, seed):
    rng = np.random.default_rng(seed)
    third = count // 3
    magnitudes = np.exp(rng.uniform(-745.0, 5.0, count - 2 * third))
    return np.concatenate([
        rng.normal(0.0, 4.0, third),
        rng.uniform(-40.0, 40.0, third),
        magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
    ])


def test_ndtr_port_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    xs = np.concatenate([_ndtr_inputs(1_000_000, 11), _around(NDTR_EDGES + ERF_EDGES),
                         np.array(SPECIAL_POINTS)])
    ref.assert_same_bits(_scalar_calls(normal_cdf, xs), special.ndtr(xs), any_nan=True)
    # numpy scalars give the same bits, and units_summary's p-value is the port
    for x in xs[:1000]:
        ref.assert_same_bits(normal_cdf(x), special.ndtr(x), x, any_nan=True)
    for ts, se in ((0.1871, 0.0812), (3.0, 1e-3), (1e-9, 0.5), (0.02, 0.1)):
        assert summary_z(ts, se)[1] == float(special.ndtr(-(ts / se)))


def test_erf_and_erfc_ports_equal_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    xs = np.concatenate([_ndtr_inputs(200_000, 12), _around(ERF_EDGES),
                         np.array(SPECIAL_POINTS)])
    ref.assert_same_bits(_scalar_calls(directional._erf, xs), special.erf(xs), any_nan=True)
    ref.assert_same_bits(_scalar_calls(directional._erfc, xs), special.erfc(xs), any_nan=True)


def test_ndtri_port_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(13)
    # the central rational function, then both tails down to subnormals
    # (sqrt(-2 log y) crosses 8 at y = exp(-32))
    ps = np.concatenate([
        rng.uniform(0.0, 1.0, 400_000),
        np.exp(rng.uniform(-745.0, 0.0, 300_000)),
        1.0 - np.exp(rng.uniform(-37.0, 0.0, 300_000)),
        _around([math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5,
                 1.0 - math.exp(-32.0)]),
        np.array([0.0, 5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, math.nan,
                  math.nextafter(1.0, 0.0), 1.0]),
    ])
    ref.assert_same_bits(_scalar_calls(directional._ndtri, ps), special.ndtri(ps), any_nan=True)
    assert directional._ndtri(0.0) == -math.inf
    assert directional._ndtri(1.0) == math.inf
    for p in (0.975, 0.995, 0.5, 1e-300, 1.0 - 1e-16):
        assert normal_quantile(p) == float(special.ndtri(p))


def test_normal_quantile_is_computed_once_per_level():
    directional._ndtri.cache_clear()
    values = {normal_quantile(1.0 - 0.05 / 2.0) for _ in range(100)}
    values.add(normal_quantile(np.float64(0.975)))
    assert values == {directional._ndtri(0.975)}
    assert directional._ndtri.cache_info().misses == 1


def test_z_values_match_z_statistic_elementwise():
    tol = directional.ZERO_TOL
    ts = np.array([0.0, 0.0, tol, 2 * tol, 0.3, 0.3, 1e-300, math.nan, math.nan, 0.5, -0.0, 1.0])
    se = np.array([0.0, 1.0, 0.0, 0.0, 0.0, -0.0, 1e-300, math.nan, 0.0, 1e-320, 0.0, math.inf])
    ts = np.concatenate([ts, np.random.default_rng(3).uniform(0.0, 1.0, 200)])
    se = np.concatenate([se, np.random.default_rng(4).uniform(0.0, 0.1, 200)])
    z, degenerate = directional.z_values(ts, se)
    for i, (ts_i, se_i) in enumerate(zip(ts.tolist(), se.tolist())):
        want = z_convention(ts_i, se_i)
        got = summary_z(ts_i, se_i)
        ref.assert_same_bits(got[:2], want[:2], (ts_i, se_i), any_nan=True)
        assert got[2] is want[2]
        ref.assert_same_bits(z[i], want[0], (ts_i, se_i), any_nan=True)
        assert degenerate[i] == want[2]
    with pytest.raises(ValueError, match="standard error must be nonnegative"):
        directional.z_values(np.array([0.1, 0.2]), np.array([0.1, -1e-300]))


# ---------- angles ---------------------------------------------------------------

def test_angular_distances_cardinal_cases():
    s = sample_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(
        angular_distances(s.units, coplanarity_test(s).extrinsic_mean), np.zeros((3, 1)), atol=0
    )

    mixed = sample_of([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    mu = coplanarity_test(mixed).extrinsic_mean
    ang = angular_distances(mixed.units, mu)
    mu = mu[0]
    assert ang[0, 0] == pytest.approx(math.acos(np.dot([0, 0, 1], mu)), abs=1e-15)
    assert ang[2, 0] == pytest.approx(math.acos(np.dot([1, 0, 0], mu)), abs=1e-15)


def test_angular_distances_orthogonal_and_antipodal():
    # three clustered rows pin the mean near +z; probe rows sit at right
    # angle and antipode
    rows = [[0.0, 0.0, 1.0]] * 8 + [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    s = sample_of(*rows)
    mu = coplanarity_test(s).extrinsic_mean
    ang = angular_distances(s.units, mu)
    mu = mu[0]
    assert ang[8, 0] == pytest.approx(math.acos(mu @ np.array([1.0, 0, 0])), abs=1e-12)
    assert ang[9, 0] == pytest.approx(math.pi - ang[0, 0], abs=1e-12)


def test_small_angles_keep_their_digits():
    # the arccos of the dot product read 16 of these 20 angles as 0.0
    views = synthesize_views(k=5, cameras=20, seed=3, noise=1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MixedOrientationWarning)
        sample, _, _ = register_scenes(views, FrameSpec())
    mean = coplanarity_test(sample).extrinsic_mean
    angles = angular_distances(sample.units, mean)
    assert (angles > 0.0).all()
    want = [[ref.angle(u, m) for u, m in zip(row, mean)] for row in sample.units]
    np.testing.assert_allclose(angles, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_angles_near_zero_and_pi_in_any_dimension(d):
    gen = SplitMix64(90 + d)
    means = gen.normals(4 * d).reshape(4, d)
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    # from 1e-9: below it the few-ulp norm error of a unit vector, not the
    # formula, limits the relative accuracy
    thetas = 10.0 ** np.linspace(-9, -1, 9)
    thetas = np.concatenate([thetas, np.pi - thetas])
    units = []
    for theta in thetas:
        # rotate each mean by theta towards a direction orthogonal to it
        w = gen.normals(4 * d).reshape(4, d)
        w -= (w * means).sum(axis=1, keepdims=True) * means
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        units.append(np.cos(theta) * means + np.sin(theta) * w)
    units = np.stack(units)
    angles = angular_distances(units, means)
    want = [[ref.angle(u, m) for u, m in zip(row, means)] for row in units]
    np.testing.assert_allclose(angles, want, rtol=1e-12, atol=0.0)


# ---------- assembled summary ----------------------------------------------------

def test_coplanarity_test_assembles_consistent_summary():
    s = random_sphere_sample(40, 77)
    out = coplanarity_test(s, alpha=0.05)
    assert isinstance(out, OpsSummary)
    assert out.n == 40 and out.q == 1
    assert out.t_stat == 40 * out.total_variance
    assert out.ci[0] <= out.total_variance <= out.ci[1]
    assert 0.0 <= out.p_normal <= 1.0 and 0.0 <= out.p_chisq <= 1.0
    assert out.df == 2
    assert out.reject_ci == (out.ci[0] > 1e-12)
    assert out.reject_chisq == (out.p_chisq < 0.05)


def test_coplanarity_test_constant_sample_degenerate_not_fatal():
    s = sample_of([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    out = coplanarity_test(s, alpha=0.05)
    assert out.degenerate
    assert out.total_variance == 0.0 and out.se == 0.0
    assert out.p_normal == 1.0
    assert not out.reject_ci and not out.reject_chisq


def test_coplanarity_test_two_point_degenerate_flag():
    s = sample_of([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    out = coplanarity_test(s, alpha=0.05)
    assert out.degenerate and out.se == 0.0
    assert out.total_variance > 0.0
    assert out.p_normal == 0.0


def test_coplanarity_test_needs_two_scenes():
    with pytest.raises(EmptySample):
        coplanarity_test(sample_of([1.0, 0.0, 0.0]), alpha=0.05)


def test_rotation_equivariance():
    s = random_sphere_sample(25, 99)
    gen = SplitMix64(123)
    raw = gen.normals(9).reshape(3, 3)
    rot, _ = np.linalg.qr(raw)
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    rotated = DirectionSample((s.units @ rot.T), s.scene_ids)

    a = coplanarity_test(s, alpha=0.05)
    b = coplanarity_test(rotated, alpha=0.05)
    assert b.resultant[0] == pytest.approx(a.resultant[0], abs=1e-12)
    assert b.total_variance == pytest.approx(a.total_variance, abs=1e-12)
    assert b.se == pytest.approx(a.se, abs=1e-12)
    assert b.t_stat == pytest.approx(a.t_stat, abs=1e-10)
    assert b.p_chisq == pytest.approx(a.p_chisq, abs=1e-12)
    assert b.ci[0] == pytest.approx(a.ci[0], abs=1e-12)
    np.testing.assert_allclose(
        b.extrinsic_mean[0], a.extrinsic_mean[0] @ rot.T, atol=1e-12
    )


def test_duplication_doubles_t_statistic():
    s = random_sphere_sample(15, 7)
    doubled = DirectionSample(
        np.concatenate([s.units, s.units]),
        s.scene_ids + tuple(f"copy-{i}" for i in s.scene_ids),
    )
    a = coplanarity_test(s, 0.05)
    b = coplanarity_test(doubled, 0.05)
    assert b.total_variance == pytest.approx(a.total_variance, abs=1e-15)
    assert b.t_stat == pytest.approx(2.0 * a.t_stat, abs=1e-12)


def test_multi_block_total_variance_sums_blocks():
    gen = SplitMix64(31)
    raw = gen.normals(10 * 2 * 3).reshape(10, 2, 3)
    units = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    s = DirectionSample(units, tuple(str(i) for i in range(10)))
    blocks = [
        DirectionSample(units[:, [f], :], s.scene_ids) for f in range(2)
    ]
    assert coplanarity_test(s).total_variance == pytest.approx(
        sum(coplanarity_test(b).total_variance for b in blocks), abs=1e-15
    )
    out = coplanarity_test(s, 0.05)
    assert out.df == 4  # (d - 1) * q


def test_small_dispersion_summary_against_tangent_oracle():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.08, 400, 17)
    s = DirectionSample(units)
    out = coplanarity_test(s, 0.05)
    # tS approximates the mean squared tangent radius at this scale
    tangent_sq = np.sum(units[:, :2] ** 2, axis=1)
    assert out.total_variance == pytest.approx(float(np.mean(tangent_sq)), rel=0.02)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    q=st.sampled_from([1, 2, 3]),
    n=st.integers(2, 60),
    sigma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 4),
)
@example(q=1, n=2, sigma=0.0, seed=0)
@example(q=3, n=60, sigma=1.0, seed=2**64 - 4)
def test_summary_mean_and_total_variance_equal_the_per_sample_formula(q, n, sigma, seed):
    """The summary's extrinsic mean, which the angle CSVs take, and
    total_variance are the per-sample formulas on the block means, bit for bit."""
    draws = tangent_stack([0.3, -0.4, 0.8], sigma, n, [seed + f for f in range(q)])
    s = DirectionSample(draws.transpose(1, 0, 2))
    m = s.units.mean(axis=0)
    r = np.linalg.norm(m, axis=1)
    summary = coplanarity_test(s)
    assert summary.extrinsic_mean.tobytes() == (m / r[:, None]).tobytes()
    ts = summary.total_variance
    assert ts == max(2.0 * float(np.sum(1.0 - r)), 0.0)
    assert math.copysign(1.0, ts) == 1.0


# ---------- the scenes-major stacked pass against one sample at a time ------------

def sample_stack(reps, n, q, seed):
    """(R, n, q, 3) samples, one per leading index: tangent-Gaussian blocks
    of spreads 1e-3 to 1, the second sample with constant rows."""
    seeds = np.arange(reps * q, dtype=np.uint64) + np.uint64(seed)
    blocks = [
        tangent_stack([0.3, -0.4, 0.8], sigma, n, seeds[f::q])
        for f, sigma in zip(range(q), (1e-3, 0.3, 1.0))
    ]
    stack = np.stack(blocks, axis=2)
    if reps > 1:
        stack[1] = stack[1, 0]
    return stack


@pytest.mark.parametrize("layout", ["contiguous", "view", "strided"])
@pytest.mark.parametrize("reps", [0, 1, 5])
@pytest.mark.parametrize("n", [2, 3, 17, 200])
@pytest.mark.parametrize("q", [1, 3])
def test_stacked_moments_equal_each_sample_alone(q, n, reps, layout):
    stack = sample_stack(reps, n, q, seed=1000 * n + q)
    if layout == "contiguous":
        units = np.ascontiguousarray(stack.swapaxes(0, 1))
    elif layout == "view":  # the (R, n, q, d) memory order read scenes-major
        units = stack.swapaxes(0, 1)
    else:  # every other sample of a scenes-major stack twice as wide
        wide = np.repeat(stack, 2, axis=0)
        units = np.ascontiguousarray(wide.swapaxes(0, 1))[:, ::2]
    assert units.shape == (n, reps, q, 3)
    if reps > 1:
        assert units.flags.c_contiguous == (layout == "contiguous")
    got = directional.stacked_moments(units)
    shapes = [(reps, q, 3), (reps, q), (reps,), (reps,), (reps,)]
    assert [a.shape for a in got] == shapes
    for r in range(reps):
        want = ref.moments(stack[r])
        for name, g, w in zip(("mean", "resultant", "ts", "se", "focal"), got, want):
            ref.assert_same_bits(g[r], w, (name, r))
