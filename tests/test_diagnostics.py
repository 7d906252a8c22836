import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import opshape.diagnostics as diagnostics
from opshape.diagnostics import (
    STOP_MAX_REMOVALS,
    STOP_MIN_SCENES,
    STOP_NO_IMPROVEMENT,
    STOP_NONPOSITIVE,
    LeaveOneOutRow,
    ReductionStep,
    ReductionTrace,
    greedy_reduce,
    leave_one_out,
)
from opshape.directional import (
    OpsSummary,
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
    return DirectionSample.from_vectors(vectors)


def outlier_sample_q3(n_tight=20, sigma=0.12, seed=3):
    """Three sphere blocks with different centres; the last row is off in each."""
    centres = ([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    blocks = []
    for f, centre in enumerate(centres):
        tight = tangent_gaussian_sample(centre, sigma, n_tight, seed + f)
        off = tangent_gaussian_sample(centre, 0.5, 1, seed + 10 + f)
        blocks.append(np.vstack([tight, off]))
    return DirectionSample.from_vectors(np.stack(blocks, axis=1))


def exhaustive_best_deletion(sample, alpha):
    """Independent argmax of the post-deletion lower endpoint."""
    best_id, best_lower = None, -math.inf
    for i in range(sample.n):
        try:
            out = coplanarity_test(sample.without(i), alpha)
        except FocalMean:
            continue
        if out.ci[0] > best_lower:
            best_id, best_lower = sample.scene_ids[i], out.ci[0]
    return best_id, best_lower


# ---------- leave-one-out table ---------------------------------------------------

def test_loo_constant_sample_all_zero():
    units = np.tile(np.array([0.0, 0.0, 1.0]), (5, 1))
    rows = leave_one_out(DirectionSample.from_vectors(units), alpha=0.05)
    assert len(rows) == 5
    for row in rows:
        assert row.total_variance == 0.0
        assert row.se == 0.0
        assert row.degenerate
        assert not row.focal


def test_loo_outlier_row_has_minimal_dispersion():
    units = np.vstack([np.tile([0.0, 0.0, 1.0], (6, 1)), [[1.0, 0.0, 0.0]]])
    sample = DirectionSample.from_vectors(units)
    rows = leave_one_out(sample, alpha=0.05)
    ts = [row.total_variance for row in rows]
    assert np.argmin(ts) == 6
    assert ts[6] == 0.0


def test_loo_matches_direct_recomputation():
    sample = outlier_sample(n_tight=11)
    rows = leave_one_out(sample, alpha=0.05)
    for i, row in enumerate(rows):
        direct = coplanarity_test(sample.without(i), 0.05)
        assert row.scene_id == sample.scene_ids[i]
        assert row.total_variance == direct.total_variance
        assert row.se == direct.se
        assert row.z == direct.z
        assert row.ci_lower == direct.ci[0]
        assert row.degenerate == direct.degenerate
        assert not row.focal


def test_loo_focal_deletion_flagged_not_fatal():
    units = np.array(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    rows = leave_one_out(DirectionSample.from_vectors(units), alpha=0.05)
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
        leave_one_out(DirectionSample.from_vectors(units), alpha=0.05)


# ---------- the stacked pass against the per-row loop ------------------------------

def ref_leave_one_out(sample, alpha=0.05, df=None):
    """The per-row loop the stacked pass replaced: one copy and one test per row."""
    rows = []
    for i in range(sample.n):
        sid = sample.scene_ids[i]
        try:
            s = coplanarity_test(sample.without(i), alpha, df)
        except FocalMean:
            nan = math.nan
            rows.append(LeaveOneOutRow(sid, nan, nan, nan, nan, False, True))
            continue
        rows.append(
            LeaveOneOutRow(sid, s.total_variance, s.se, s.z, s.ci[0], s.degenerate, False)
        )
    return rows


def assert_same_rows(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for name in LeaveOneOutRow._fields:
            a, b = getattr(g, name), getattr(e, name)
            assert a == b or (math.isnan(a) and math.isnan(b)), name
        # repr also tells -0.0 from 0.0 and numpy scalars from Python ones
        assert repr(g) == repr(e)


def _duplicated_sample():
    units = tangent_gaussian_sample([0.0, 0.6, 0.8], 0.2, 6, 21)
    return DirectionSample.from_vectors(np.vstack([units, units[:4], units[2:3]]))


LOO_CASES = {
    "q1": lambda: outlier_sample(),
    "q3": lambda: outlier_sample_q3(),
    # SE clamps to 0 on every deletion, so every row is degenerate
    "constant": lambda: DirectionSample.from_vectors(np.tile([0.0, 0.0, 1.0], (7, 1))),
    "duplicated": _duplicated_sample,
    # deleting the last row leaves two antipodal pairs: a focal row
    "antipodal": lambda: ANTIPODAL,
    "three_rows": lambda: DirectionSample.from_vectors(
        np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ),
    # as antipodal, but the focal mean has norm 5e-12: short, not zero
    "near_antipodal": lambda: DirectionSample.from_vectors(
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
    for alpha, df in ((0.05, None), (0.01, 1), (0.5, 7)):
        assert_same_rows(leave_one_out(sample, alpha, df), ref_leave_one_out(sample, alpha, df))


def test_loo_validation_matches_per_row_loop():
    sample = outlier_sample(n_tight=5)
    cases = ((0.0, None, InvalidLevel), (1.0, 2, InvalidLevel), (0.05, 0, ValueError))
    for alpha, df, error in cases:
        with pytest.raises(error) as got:
            leave_one_out(sample, alpha, df)
        with pytest.raises(error) as expected:
            ref_leave_one_out(sample, alpha, df)
        assert str(got.value) == str(expected.value)


# ---------- greedy reduction ------------------------------------------------------

def test_greedy_stops_immediately_when_not_rejecting():
    units = np.tile(np.array([0.0, 0.0, 1.0]), (6, 1))
    trace = greedy_reduce(DirectionSample.from_vectors(units), alpha_ref=0.05)
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

    oracle_id, oracle_lower = exhaustive_best_deletion(sample, 0.05)
    assert trace.steps[0].removed_scene_id == oracle_id
    assert trace.steps[0].ci_lower == oracle_lower


def assert_greedy_matches_exhaustive(sample, max_removals):
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=max_removals)
    current = sample
    for step in trace.steps:
        oracle_id, oracle_lower = exhaustive_best_deletion(current, 0.05)
        assert step.removed_scene_id == oracle_id
        assert step.ci_lower == oracle_lower
        current = current.subset(
            [sid for sid in current.scene_ids if sid != step.removed_scene_id]
        )
    assert current.scene_ids == trace.final_scene_ids
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
    base = DirectionSample.from_vectors(tight)
    k = int(exhaustive_best_deletion(base, 0.05)[0])
    ids = [str(100 + i) for i in range(31)]
    ids[k], ids[k + 1] = "10", "2"
    sample = DirectionSample.from_vectors(
        np.vstack([tight[:k], tight[k], tight[k:]]), scene_ids=ids
    )
    tied = [coplanarity_test(sample.without(i), 0.05).ci[0] for i in (k, k + 1)]
    assert tied[0] == tied[1]
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=1)
    assert trace.steps[0].removed_scene_id == "2"
    assert trace.steps[0].ci_lower == tied[0]


def test_greedy_near_ties_follow_exact_values():
    # a copy of the most influential row, moved by ~1e-13: the two deletions
    # differ in the last bits, where the kernel's ranking and the direct
    # values can disagree; the reported step must follow the direct values
    tight = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 30, 17)
    k = int(exhaustive_best_deletion(DirectionSample.from_vectors(tight), 0.05)[0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = tight[k] + 1e-13 * rng.normal(size=3)
        sample = DirectionSample.from_vectors(
            np.vstack([tight[:k], tight[k], row / np.linalg.norm(row), tight[k + 1 :]])
        )
        oracle_id, oracle_lower = exhaustive_best_deletion(sample, 0.05)
        step = greedy_reduce(sample, alpha_ref=0.05, max_removals=1).steps[0]
        assert (step.removed_scene_id, step.ci_lower) == (oracle_id, oracle_lower)


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
    return DirectionSample.from_vectors(np.stack(blocks, axis=1))


# deleting the last row leaves two antipodal pairs: a focal mean
ANTIPODAL = DirectionSample.from_vectors(np.vstack([np.eye(3)[:2], -np.eye(3)[:2], np.eye(3)[2]]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_samples(), st.sampled_from([0.01, 0.05, 0.5]))
@example(ANTIPODAL, 0.05)
def test_deletion_kernel_matches_direct_within_window(sample, alpha):
    # the greedy window is the kernel's error bound; the real distance to
    # the direct recomputation must sit far inside it
    lower, err, cov = diagnostics._deletion_endpoints(
        sample.units, normal_quantile(1.0 - alpha / 2.0)
    )
    # the covariance greedy_reduce carries into the previous step's summary
    assert cov.tobytes() == _covariance(sample.units).tobytes()
    for i in range(sample.n):
        try:
            direct = coplanarity_test(sample.without(i), alpha).ci[0]
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
        got = leave_one_out(sample, alpha, df)
    assert_same_rows(got, ref_leave_one_out(sample, alpha, df))


def gather_deletion_stack(units, rows):
    """The index gather _deletion_moments used before its slice copies."""
    cols = np.arange(units.shape[0] - 1)
    return units[cols + (cols >= rows[:, None])]


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
    expected = gather_deletion_stack(units, rows)
    assert stack.flags.c_contiguous
    assert_same_value(stack, expected, "stack")
    names = ("mean", "resultant", "ts", "se", "focal")
    for got, want, name in zip(moments, stacked_moments(expected), names):
        assert_same_value(got, want, name)


# ---------- the window pass against the per-candidate loop ------------------------

def ref_greedy_reduce(sample, alpha_ref=0.05, max_removals=None, df=None):
    """The per-candidate loop the window pass replaced: for every deletion in
    the kernel's window, one sample copy and one full coplanarity_test."""
    if max_removals is None:
        max_removals = sample.n // 4
    z = normal_quantile(1.0 - alpha_ref / 2.0)
    current = sample
    summary = coplanarity_test(current, alpha_ref, df)
    steps = []
    while True:
        if summary.ci[0] <= diagnostics.ZERO_TOL:
            reason = STOP_NONPOSITIVE
            break
        if len(steps) >= max_removals:
            reason = STOP_MAX_REMOVALS
            break
        if current.n <= 3:
            reason = STOP_MIN_SCENES
            break
        lower, err, _ = diagnostics._deletion_endpoints(current.units, z)
        ok = ~np.isnan(lower)
        floor = np.max(lower[ok] - err[ok], initial=-np.inf)
        best = None
        for i in np.flatnonzero(ok & (lower + err >= floor)).tolist():
            reduced = current.without(i)
            try:
                cand = coplanarity_test(reduced, alpha_ref, df)
            except FocalMean:
                continue
            lower_i = cand.ci[0]
            if (
                best is None
                or lower_i > best[0]
                or (
                    lower_i == best[0]
                    and diagnostics._scene_order_key(current.scene_ids[i])
                    < diagnostics._scene_order_key(current.scene_ids[best[1]])
                )
            ):
                best = (lower_i, i, cand, reduced)
        if best is None:
            reason = STOP_NO_IMPROVEMENT
            break
        lower_i, idx, summary, reduced = best
        steps.append(ReductionStep(current.scene_ids[idx], summary, lower_i))
        current = reduced
    return ReductionTrace(
        tuple(steps), alpha_ref, sample.scene_ids, current.scene_ids, reason
    )


def assert_same_value(a, b, name):
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    else:
        # repr tells -0.0 from 0.0, NaN from a number and numpy scalars from Python ones
        assert repr(a) == repr(b), name


def assert_same_trace(got, expected):
    for field in ("alpha_ref", "initial_scene_ids", "final_scene_ids", "stopped_reason"):
        assert getattr(got, field) == getattr(expected, field), field
    assert len(got.steps) == len(expected.steps)
    for g, e in zip(got.steps, expected.steps):
        assert g.removed_scene_id == e.removed_scene_id
        assert_same_value(g.ci_lower, e.ci_lower, "ci_lower")
        for field in dataclasses.fields(OpsSummary):
            name = field.name
            assert_same_value(getattr(g.summary, name), getattr(e.summary, name), name)


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
    assert_same_trace(
        greedy_reduce(sample, alpha, max_removals, df),
        ref_greedy_reduce(sample, alpha, max_removals, df),
    )


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
    zero error bound, and the window's exact ones (NaN meaning focal).

    The seams see units, not ids, so each row is looked up by its bytes in
    sample, whose rows must be distinct.
    """
    id_of = {row.tobytes(): sid for row, sid in zip(sample.units, sample.scene_ids)}
    assert len(id_of) == sample.n

    def lowers(units, rows):
        return np.array([lower_of(id_of[units[i].tobytes()]) for i in rows], dtype=np.float64)

    def kernel(units, z):
        lower = lowers(units, range(len(units)))
        return lower, np.zeros(len(units)), diagnostics._covariance(units)

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
    sample = DirectionSample.from_vectors(units, scene_ids=ids)

    monkeypatch.setattr(diagnostics, "coplanarity_test", lambda *args: _ScriptedSummary(0.5))
    _scripted(sample, monkeypatch, lambda sid: 0.75 if sid in {"2", "10"} else 0.25)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=1)
    assert trace.steps[0].removed_scene_id == "2"
    assert trace.stopped_reason == STOP_MAX_REMOVALS


def test_greedy_tie_break_orders_digits_before_names(monkeypatch):
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.05, 6, 14)
    ids = ("alpha", "7", "beta", "40", "gamma", "11")
    sample = DirectionSample.from_vectors(units, scene_ids=ids)

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
    sample = DirectionSample.from_vectors(units)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert len(trace.steps) <= 12 // 4


def test_greedy_floor_at_three_scenes():
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.4, 4, 15)
    sample = DirectionSample.from_vectors(units)
    trace = greedy_reduce(sample, alpha_ref=0.05, max_removals=10)
    assert len(trace.final_scene_ids) >= 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_greedy_floor_with_removals_left_has_its_own_reason(seed):
    # six scattered rows keep rejecting down to the three-scene floor; a cap
    # above n - 3 is not what stops the loop, so it must not be reported
    sample = DirectionSample.from_vectors(tangent_gaussian_sample([0.0, 0.0, 1.0], 0.4, 6, seed))
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
    sample = DirectionSample.from_vectors(units)
    assert coplanarity_test(sample, 0.05).ci[0] > 0
    _scripted(sample, monkeypatch, lambda sid: math.nan)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert trace.steps == ()
    assert trace.stopped_reason == STOP_NO_IMPROVEMENT


def test_greedy_no_improvement_when_the_window_is_all_focal(monkeypatch):
    # the kernel finds candidates, the exact pass rules every one out
    units = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, 60, 30)
    sample = DirectionSample.from_vectors(units)
    real = diagnostics._deletion_moments

    def all_focal(units, rows):
        *moments, focal = real(units, rows)
        return (*moments, np.ones_like(focal))

    monkeypatch.setattr(diagnostics, "_deletion_moments", all_focal)
    trace = greedy_reduce(sample, alpha_ref=0.05)
    assert trace.steps == ()
    assert trace.stopped_reason == STOP_NO_IMPROVEMENT


def test_greedy_validation():
    units = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(EmptySample):
        greedy_reduce(DirectionSample.from_vectors(units), alpha_ref=0.05)
    sample = outlier_sample(n_tight=5)
    with pytest.raises(InvalidLevel):
        greedy_reduce(sample, alpha_ref=1.5)
    with pytest.raises(ValueError):
        greedy_reduce(sample, alpha_ref=0.05, max_removals=-1)
