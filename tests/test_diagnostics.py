import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import opshape.diagnostics as diagnostics
import reference as ref
from opshape.diagnostics import (
    STOP_MAX_REMOVALS,
    STOP_MIN_SCENES,
    STOP_NO_IMPROVEMENT,
    STOP_NONPOSITIVE,
    LeaveOneOutRow,
    greedy_reduce,
    leave_one_out,
)
from opshape.directional import (
    _covariance,
    coplanarity_test,
    normal_quantile,
    stacked_moments,
)
from opshape.errors import EmptySample, FocalMean, InvalidLevel
from opshape.geometry import DirectionSample
from opshape.synth import tangent_gaussian_sample

OUTLIER = np.array([math.sin(0.5), 0.0, math.cos(0.5)])


def outlier_sample(n_tight=49, sigma=0.05, seed=11):
    tight = tangent_gaussian_sample([0.0, 0.0, 1.0], sigma, n_tight, seed)
    vectors = np.vstack([tight, OUTLIER])
    return DirectionSample(vectors)


def outlier_sample_q3(n_tight=20, sigma=0.12, seed=3):
    """Three sphere blocks with different centres; the last row is off in each."""
    centres = ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    blocks = []
    for f, centre in enumerate(centres):
        tight = tangent_gaussian_sample(centre, sigma, n_tight, seed + f)
        off = tangent_gaussian_sample(centre, 0.5, 1, seed + 10 + f)
        blocks.append(np.vstack([tight, off]))
    return DirectionSample(np.stack(blocks, axis=1))


# ---------- leave-one-out table ---------------------------------------------------

def test_loo_constant_sample_all_zero():
    units = np.tile(np.array([0.0, 0.0, 1.0]), (5, 1))
    rows = leave_one_out(DirectionSample(units), alpha=0.05)
    assert len(rows) == 5
    for row in rows:
        assert row.total_variance == 0.0
        assert row.se == 0.0
        assert row.degenerate
        assert not row.focal


def test_loo_outlier_row_has_minimal_dispersion():
    units = np.vstack([np.tile([0.0, 0.0, 1.0], (6, 1)), [[1.0, 0.0, 0.0]]])
    sample = DirectionSample(units)
    rows = leave_one_out(sample, alpha=0.05)
    ts = [row.total_variance for row in rows]
    assert np.argmin(ts) == 6
    assert ts[6] == 0.0


def test_loo_matches_direct_recomputation():
    sample = outlier_sample(n_tight=11)
    rows = leave_one_out(sample, alpha=0.05)
    for i, row in enumerate(rows):
        s = coplanarity_test(DirectionSample(ref.drop_rows(sample.units, [i])), 0.05)
        want = LeaveOneOutRow(sample.scene_ids[i], s.total_variance, s.se, s.z, s.ci[0], s.degenerate, False)
        ref.assert_same_bits(row, want)


def test_loo_focal_deletion_flagged_not_fatal():
    units = np.array(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    rows = leave_one_out(DirectionSample(units), alpha=0.05)
    # deleting the third row leaves an antipodal pair with zero mean
    assert rows[2].focal
    assert math.isnan(rows[2].total_variance)
    assert not rows[0].focal and not rows[1].focal
    # rows are immutable named tuples: a row equals the plain tuple of its fields
    with pytest.raises(AttributeError):
        rows[0].focal = True
    assert rows[0] == tuple(getattr(rows[0], name) for name in LeaveOneOutRow._fields)


def test_loo_needs_three_rows():
    units = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(EmptySample):
        leave_one_out(DirectionSample(units), alpha=0.05)


# ---------- the stacked pass against the per-row loop ------------------------------

def _duplicated_sample():
    units = tangent_gaussian_sample([0.0, 0.6, 0.8], 0.2, 6, 21)
    return DirectionSample(np.vstack([units, units[:4], units[2:3]]))


LOO_CASES = {
    "q1": lambda: outlier_sample(),
    "q3": lambda: outlier_sample_q3(),
    # SE clamps to 0 on every deletion, so every row is degenerate
    "constant": lambda: DirectionSample(np.tile([0.0, 0.0, 1.0], (7, 1))),
    "duplicated": _duplicated_sample,
    # deleting the last row leaves two antipodal pairs: a focal row
    "antipodal": lambda: ANTIPODAL,
    "three_rows": lambda: DirectionSample(
        np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ),
    # as antipodal, but the focal mean has norm 5e-12: short, not zero
    "near_antipodal": lambda: DirectionSample(
        np.vstack([np.eye(3)[:2], [[-1.0, -2e-11, 0.0]], -np.eye(3)[1:]])
    ),
}


@pytest.mark.parametrize("case", sorted(LOO_CASES))
@pytest.mark.parametrize("rows_per_slice", [None, 0, 1, 2, 7])
def test_loo_stacked_pass_matches_per_row_loop(monkeypatch, case, rows_per_slice):
    # None keeps the module's slice size; 0 puts every deletion in one slice;
    # 1, 2 and 7 give several slices, most with an uneven last one
    sample = LOO_CASES[case]()
    n, q, d = sample.units.shape
    if rows_per_slice is not None:
        rows = rows_per_slice or n
        monkeypatch.setattr(diagnostics, "_LOO_SLICE_DOUBLES", rows * (n - 1) * q * d)
    # the reference tests each deletion at df too; no row depends on it
    for alpha, df in ((0.05, None), (0.01, 1), (0.5, 7)):
        ref.assert_same_bits(leave_one_out(sample, alpha), ref.leave_one_out(sample, alpha, df))


def test_loo_validation_matches_per_row_loop():
    sample = outlier_sample(n_tight=5)
    cases = ((0.0, None, InvalidLevel), (1.0, 2, InvalidLevel))
    for alpha, df, error in cases:
        with pytest.raises(error) as got:
            leave_one_out(sample, alpha)
        with pytest.raises(error) as expected:
            ref.leave_one_out(sample, alpha, df)
        assert str(got.value) == str(expected.value)


# ---------- greedy reduction ------------------------------------------------------

def test_greedy_stops_immediately_when_not_rejecting():
    units = np.tile(np.array([0.0, 0.0, 1.0]), (6, 1))
    trace = greedy_reduce(DirectionSample(units), alpha_ref=0.05)
    assert trace.steps == ()
    assert trace.stopped_reason == STOP_NONPOSITIVE
    assert trace.final_scene_ids == trace.initial_scene_ids


def test_greedy_first_removal_is_the_outlier():
    sample = outlier_sample()
    outlier_id = sample.scene_ids[-1]
    full = coplanarity_test(sample, 0.05)
    assert full.ci[0] > 0  # the test rejects before any removal

    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert len(trace.steps) >= 1
    assert trace.steps[0].removed_scene_id == outlier_id

    i, oracle = ref.best_deletion(sample, 0.05)
    assert trace.steps[0].removed_scene_id == sample.scene_ids[i]
    assert trace.steps[0].ci_lower == oracle.ci[0]


def assert_greedy_matches_exhaustive(sample, max_removals):
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=max_removals)
    ref.assert_same_bits(trace, ref.greedy_reduce(sample, 0.05, max_removals))
    return trace


def test_greedy_every_step_matches_exhaustive_argmax():
    assert_greedy_matches_exhaustive(outlier_sample(n_tight=20, sigma=0.12, seed=3), 4)


def test_greedy_every_step_matches_exhaustive_argmax_q3():
    sample = outlier_sample_q3()
    assert sample.q == 3
    assert len(assert_greedy_matches_exhaustive(sample, 4).steps) == 4


def test_greedy_tie_break_on_identical_rows():
    # duplicate the most influential row under ids "10" and "2", side by
    # side: deleting either leaves the same array, so the two endpoints tie
    # bitwise, and the numerically smaller id must go first
    tight = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 30, 17)
    k = ref.best_deletion(DirectionSample(tight), 0.05)[0]
    ids = [str(100 + i) for i in range(31)]
    ids[k], ids[k + 1] = "10", "2"
    sample = DirectionSample(
        np.vstack([tight[:k], tight[k], tight[k:]]), scene_ids=ids
    )
    tied = [ref.summary(ref.drop_rows(sample.units, [i]), 0.05).ci[0] for i in (k, k + 1)]
    assert tied[0] == tied[1]
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=1)
    assert trace.steps[0].removed_scene_id == "2"
    assert trace.steps[0].ci_lower == tied[0]


def test_greedy_near_ties_follow_exact_values():
    # a copy of the most influential row, moved by ~1e-13: the two deletions
    # differ in the last bits, where the kernel's ranking and the direct
    # values can disagree; the reported step must follow the direct values
    tight = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 30, 17)
    k = ref.best_deletion(DirectionSample(tight), 0.05)[0]
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = tight[k] + 1e-13 * rng.normal(size=3)
        sample = DirectionSample(
            np.vstack([tight[:k], tight[k], row / np.linalg.norm(row), tight[k + 1 :]])
        )
        i, oracle = ref.best_deletion(sample, 0.05)
        step = greedy_reduce(sample, alpha_ref=0.05, max_removals=1).steps[0]
        assert (step.removed_scene_id, step.ci_lower) == (sample.scene_ids[i], oracle.ci[0])


@st.composite
def kernel_samples(draw):
    q = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(4, 40))
    sigma = draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.5, 1.5]))
    shape = draw(st.sampled_from(["plain", "constant", "duplicates", "constant_but_one"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(q):
        centre = rng.normal(size=3)
        v = tangent_gaussian_sample(
            centre / np.linalg.norm(centre), sigma, n, int(rng.integers(2**32))
        )
        if shape == "constant":
            v[:] = v[0]
        elif shape == "duplicates":
            v[1::2] = v[0::2][: n // 2]
        elif shape == "constant_but_one":
            v[1:] = v[1]
        blocks.append(v)
    return DirectionSample(np.stack(blocks, axis=1))


# deleting the last row leaves two antipodal pairs: a focal mean
ANTIPODAL = DirectionSample(np.vstack([np.eye(3)[:2], -np.eye(3)[:2], np.eye(3)[2]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_samples(), st.sampled_from([0.01, 0.05, 0.5]))
@example(ANTIPODAL, 0.05)
def test_deletion_kernel_matches_direct_within_window(sample, alpha):
    # the greedy window is the kernel's error bound; the real distance to
    # the direct recomputation must sit far inside it
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, lower, err = diagnostics._deletion_endpoints(
            sample.units, normal_quantile(1.0 - alpha / 2.0)
        )
    for i in range(sample.n):
        try:
            direct = ref.summary(ref.drop_rows(sample.units, [i]), alpha).ci[0]
        except FocalMean:
            assert math.isnan(lower[i]) or err[i] == math.inf
            continue
        assert not math.isnan(lower[i])
        assert abs(lower[i] - direct) <= err[i] / 100


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kernel_samples(),
    st.sampled_from([0.01, 0.05, 0.5]),
    st.sampled_from([None, 1, 2]),
    st.integers(1, 41),
)
@example(ANTIPODAL, 0.05, None, 2)
def test_loo_stacked_rows_equal_per_row_loop(sample, alpha, df, rows_per_slice):
    n, q, d = sample.units.shape
    with mock.patch.object(diagnostics, "_LOO_SLICE_DOUBLES", rows_per_slice * (n - 1) * q * d):
        got = leave_one_out(sample, alpha)
    ref.assert_same_bits(got, ref.leave_one_out(sample, alpha, df))


@st.composite
def deletion_rows(draw, n):
    """Deleted rows: single rows, runs and scattered sets, often holding the
    first or the last row (a slice touching the last row is the edge case)."""
    shape = draw(st.sampled_from(["single", "run", "scattered", "all"]))
    if shape == "single":
        rows = [draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))]
    elif shape == "run":
        start = draw(st.sampled_from([0]) | st.integers(0, n - 1))
        stop = draw(st.sampled_from([n]) | st.integers(start + 1, n))
        rows = list(range(start, stop))
    elif shape == "scattered":
        rows = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        rows = sorted(rows | set(draw(st.sampled_from([(), (0,), (n - 1,), (0, n - 1)]))))
    else:
        rows = list(range(n))
    return np.array(rows, dtype=np.intp)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kernel_samples(), st.data())
def test_deletion_stack_slices_equal_the_index_gather(sample, data):
    units = sample.units
    rows = data.draw(deletion_rows(units.shape[0]))
    stack, *moments = diagnostics._deletion_moments(units, rows)
    # the index gather _deletion_moments used before its slice copies
    expected = np.stack([ref.drop_rows(units, [i]) for i in rows]).swapaxes(0, 1)
    assert stack.flags.c_contiguous
    ref.assert_same_bits(stack, expected, "stack")
    names = ("mean", "resultant", "ts", "se", "focal")
    for got, want, name in zip(moments, stacked_moments(expected), names):
        ref.assert_same_bits(got, want, name)


# two antipodal pairs: the sample's own mean is focal
FOCAL = DirectionSample(np.vstack([np.eye(3)[:2], -np.eye(3)[:2]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_samples())
@example(ANTIPODAL)
@example(FOCAL)
@example(_duplicated_sample())
def test_kernel_row_is_the_samples_stacked_moments_row(sample):
    # greedy_reduce takes the pass's row and C as the summary of the sample
    # the last removal left, instead of a second pass over that sample
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        row, cov, _, _ = diagnostics._deletion_endpoints(sample.units, 1.96)
    want = stacked_moments(sample.units[:, None])
    for got, column, name in zip(row, want, ("mean", "resultant", "ts", "se", "focal")):
        ref.assert_same_bits(got, column[0], name)
    ref.assert_same_bits(cov, _covariance(sample.units), "cov")


# ---------- the window pass against the exhaustive search ------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    kernel_samples(),
    st.sampled_from([0.01, 0.05, 0.5]),
    st.sampled_from([None, 1, 2]),
    st.none() | st.integers(0, 40),
)
@example(outlier_sample(n_tight=20, sigma=0.12, seed=3), 0.05, None, 6)
@example(outlier_sample_q3(), 0.05, None, 6)
@example(ANTIPODAL, 0.05, None, 2)
def test_greedy_window_pass_equals_per_candidate_loop(sample, alpha, df, max_removals):
    ref.assert_same_bits(
        greedy_reduce(sample, alpha, max_removals, df),
        ref.greedy_reduce(sample, alpha, max_removals, df),
    )


# ---------- greedy's two steps against the exhaustive pair search --------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(kernel_samples(), st.sampled_from([0.01, 0.05, 0.5]))
@example(outlier_sample_q3(), 0.05)
def test_greedy_pair_is_no_better_than_the_best_pair(sample, alpha):
    # greedy's second endpoint is the exact endpoint of its own pair, which
    # the brute-force pair search can only match or beat
    trace = greedy_reduce(sample, alpha, max_removals=2)
    assume(len(trace.steps) == 2)
    rows = [sample.scene_ids.index(sid) for sid in trace.removed_scene_ids]
    lower = ref.lower(ref.drop_rows(sample.units, rows), alpha)
    assert math.isclose(trace.steps[1].ci_lower, lower, rel_tol=ref.RTOL, abs_tol=ref.ATOL)
    _, best = ref.best_pair(sample, alpha)
    assert lower <= best


def test_pair_search_finds_the_two_outliers():
    tight = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.05, 20, 5)
    units = np.vstack([tight[:7], OUTLIER, tight[7:], [[0.0, math.sin(0.4), math.cos(0.4)]]])
    sample = DirectionSample(units)
    pair, lower = ref.best_pair(sample, 0.05)
    assert pair == ("7", "21")
    assert lower == ref.lower(ref.drop_rows(sample.units, [21, 7]))
    assert lower > ref.lower(ref.drop_rows(sample.units, [7, 8]))


def test_greedy_bookkeeping_and_summary_consistency():
    sample = outlier_sample(n_tight=23, sigma=0.1, seed=9)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=3)
    removed = trace.removed_scene_ids
    assert len(set(removed)) == len(removed)
    assert set(removed) | set(trace.final_scene_ids) == set(sample.scene_ids)
    assert not set(removed) & set(trace.final_scene_ids)
    for i, step in enumerate(trace.steps):
        assert step.summary.n == sample.n - (i + 1)
        assert step.ci_lower == step.summary.ci[0]


def test_greedy_permutation_invariance():
    sample = outlier_sample(n_tight=15, sigma=0.1, seed=21)
    rng = np.random.default_rng(4)
    perm = rng.permutation(sample.n)
    shuffled = DirectionSample(
        sample.units[perm], tuple(sample.scene_ids[i] for i in perm)
    )
    a = greedy_reduce(sample, alpha_ref=0.05, max_removals=3)
    b = greedy_reduce(shuffled, alpha_ref=0.05, max_removals=3)
    assert a.removed_scene_ids == b.removed_scene_ids
    assert a.stopped_reason == b.stopped_reason
    if a.steps:
        assert a.steps[-1].summary.total_variance == pytest.approx(
            b.steps[-1].summary.total_variance, abs=1e-15
        )


class _ScriptedSummary:
    def __init__(self, lower):
        self.ci = (lower, lower + 1.0)
        self.n = 0
        self.df = 2


def _scripted(sample, monkeypatch, lower_of):
    """Script greedy's endpoints by deleted scene id: the kernel's, with a
    zero error bound, and the window's exact ones (NaN meaning focal). The
    kernel's row of the sample itself keeps its mean and C, with the
    endpoint 0.5 (tS 0.5, SE 0), so every sample rejects.

    The seams see units, not ids, so each row is looked up by its bytes in
    sample, whose rows must be distinct.
    """
    id_of = {row.tobytes(): sid for row, sid in zip(sample.units, sample.scene_ids)}
    assert len(id_of) == sample.n

    def lowers(units, rows):
        return np.array([lower_of(id_of[units[i].tobytes()]) for i in rows], dtype=np.float64)

    real_kernel = diagnostics._deletion_endpoints

    def kernel(units, z):
        (mean, resultant, _, _, focal), cov, _, _ = real_kernel(units, z)
        row = (mean, resultant, np.float64(0.5), np.float64(0.0), focal)
        return row, cov, lowers(units, range(len(units))), np.zeros(len(units))

    real = diagnostics._deletion_moments

    def window(units, rows):
        stack, mean, resultant, _, _, _ = real(units, rows)
        lower = lowers(units, rows)
        return stack, mean, resultant, np.nan_to_num(lower), np.zeros(len(rows)), np.isnan(lower)

    monkeypatch.setattr(diagnostics, "_deletion_endpoints", kernel)
    monkeypatch.setattr(diagnostics, "_deletion_moments", window)


def test_greedy_tie_break_prefers_smallest_numeric_id(monkeypatch):
    # script the endpoint values so two candidates tie bitwise at the
    # argmax; the numerically smaller id ("2" before "10") must win
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.05, 12, 13)
    ids = ("10", "2") + tuple(str(100 + i) for i in range(10))
    sample = DirectionSample(units, scene_ids=ids)

    monkeypatch.setattr(diagnostics, "coplanarity_test", lambda *args: _ScriptedSummary(0.5))
    _scripted(sample, monkeypatch, lambda sid: 0.75 if sid in {"2", "10"} else 0.25)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=1)
    assert trace.steps[0].removed_scene_id == "2"
    assert trace.stopped_reason == STOP_MAX_REMOVALS


def test_greedy_tie_break_orders_digits_before_names(monkeypatch):
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.05, 6, 14)
    ids = ("alpha", "7", "beta", "40", "gamma", "11")
    sample = DirectionSample(units, scene_ids=ids)

    monkeypatch.setattr(diagnostics, "coplanarity_test", lambda *args: _ScriptedSummary(0.5))
    _scripted(sample, monkeypatch, lambda sid: 0.5)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=3)
    assert [s.removed_scene_id for s in trace.steps] == ["7", "11", "40"]


def test_greedy_max_removals_cap():
    sample = outlier_sample(n_tight=19, sigma=0.15, seed=2)
    if coplanarity_test(sample, 0.05).ci[0] <= 0:
        pytest.skip("fixture no longer rejects at the start")
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=1)
    if trace.stopped_reason == STOP_MAX_REMOVALS:
        assert len(trace.steps) == 1
    else:
        assert trace.stopped_reason == STOP_NONPOSITIVE


def test_greedy_default_cap_is_quarter_of_sample():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.3, 12, 8)
    sample = DirectionSample(units)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert len(trace.steps) <= 12 // 4


def test_greedy_floor_at_three_scenes():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.4, 4, 15)
    sample = DirectionSample(units)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=10)
    assert len(trace.final_scene_ids) >= 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_floor_with_removals_left_has_its_own_reason(seed):
    # six scattered rows keep rejecting down to the three-scene floor; a cap
    # above n - 3 is not what stops the loop, so it must not be reported
    sample = DirectionSample(tangent_gaussian_sample([0.0, 0.0, 1.0], 0.4, 6, seed))
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=10)
    assert len(trace.steps) == 3 and len(trace.final_scene_ids) == 3
    assert trace.steps[-1].ci_lower > diagnostics.ZERO_TOL
    assert trace.stopped_reason == STOP_MIN_SCENES
    # a cap that the floor reaches at the same step is still the cap
    assert greedy_reduce(sample, 0.05, max_removals=3).stopped_reason == STOP_MAX_REMOVALS


def test_greedy_no_improvement_when_nothing_evaluable(monkeypatch):
    # force every candidate deletion to be focal; the full-sample summary
    # itself must still succeed and reject
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 60, 30)
    sample = DirectionSample(units)
    assert coplanarity_test(sample, 0.05).ci[0] > 0
    _scripted(sample, monkeypatch, lambda sid: math.nan)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert trace.steps == ()
    assert trace.stopped_reason == STOP_NO_IMPROVEMENT


def test_greedy_no_improvement_when_the_window_is_all_focal(monkeypatch):
    # the kernel finds candidates, the exact pass rules every one out; an
    # infinite bound on every deletion sends each one to the exact pass
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 60, 30)
    sample = DirectionSample(units)
    real_kernel = diagnostics._deletion_endpoints
    real = diagnostics._deletion_moments

    def unbounded(units, z):
        row, cov, lower, err = real_kernel(units, z)
        return row, cov, lower, np.full_like(err, np.inf)

    def all_focal(units, rows):
        *moments, focal = real(units, rows)
        return (*moments, np.ones_like(focal))

    monkeypatch.setattr(diagnostics, "_deletion_endpoints", unbounded)
    monkeypatch.setattr(diagnostics, "_deletion_moments", all_focal)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert trace.steps == ()
    assert trace.stopped_reason == STOP_NO_IMPROVEMENT


# four rows whose mean has norm 1e-10 = FOCAL_TOL up to rounding, and e3:
# deleting e3 is near-focal, with an infinite bound
NEAR_FOCAL = DirectionSample(np.array([
    [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
    [0.0, -math.cos(4e-10), -math.sin(4e-10)], [0.0, 0.0, 1.0],
]))


@pytest.mark.parametrize(
    "sample, max_removals, exact_passes",
    [
        # one deletion in every window: no exact pass
        (outlier_sample(n_tight=20, sigma=0.12, seed=3), 4, 0),
        (outlier_sample_q3(), 4, 0),
        # every row five times: at least two copies of the winner in every window
        (DirectionSample(np.repeat(tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 12, 7), 5, axis=0)), 4, 4),
        (NEAR_FOCAL, 1, 1),
    ],
    ids=["q1", "q3", "duplicates", "near_focal"],
)
def test_greedy_exact_window_pass_only_where_the_kernel_cannot_decide(
    monkeypatch, sample, max_removals, exact_passes
):
    calls = mock.Mock(wraps=diagnostics._deletion_moments)
    monkeypatch.setattr(diagnostics, "_deletion_moments", calls)
    trace = greedy_reduce(sample, 0.05, max_removals)
    assert len(trace.steps) == max_removals
    assert calls.call_count == exact_passes
    ref.assert_same_bits(trace, ref.greedy_reduce(sample, 0.05, max_removals))


def test_near_focal_deletion_has_an_infinite_bound():
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, lower, err = diagnostics._deletion_endpoints(NEAR_FOCAL.units, 1.96)
    assert err[-1] == math.inf and np.isfinite(err[:-1]).all()
    assert lower[-1] == 0.0


def test_greedy_validation():
    units = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(EmptySample):
        greedy_reduce(DirectionSample(units), alpha_ref=0.05)
    sample = outlier_sample(n_tight=5)
    with pytest.raises(InvalidLevel):
        greedy_reduce(sample, alpha_ref=1.5)
    with pytest.raises(InvalidLevel, match=r"^alpha_ref must be above 2\*\*-53, .*, got 1e-300$"):
        greedy_reduce(sample, alpha_ref=1e-300)
    with pytest.raises(ValueError):
        greedy_reduce(sample, alpha_ref=0.05, max_removals=-1)
