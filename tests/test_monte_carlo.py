"""The stacked Monte Carlo pass against the per-replication loop it replaced.

The reference, reference.monte_carlo, is the Monte Carlo code as it stood
before the stacked pass: one generator, one sample and one dispersion test
per replication, in a Python loop. `normal_rows`, `TangentDraws.draw` over
many seeds, `sample_moments` and `run_monte_carlo` must reproduce it bit
for bit. The sliced oracle mean, `tangent_gaussian_mean`, must equal the
mean of the whole sample by bytes, in memory that does not grow with the draws,
whichever pool worker draws each slice, with each slice summed on the
thread that drew it and the first failing slice's error raised; its slice
bounds must follow the row-walking rule of reference.mean_bounds, and the
einsum of its running sum must add rows in the order of reference.row_sum.
The replication pass runs as one task on the pool beside the oracle's
slices; its error precedence and its stop on the calling thread's error
are checked here, as is the drawn oracle against the closed-form
population dispersion.
"""

import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

import reference as ref
from opshape import pipeline, synth
from conftest import tangent_stack
from opshape.directional import ZERO_TOL, coplanarity_test, sample_moments
from opshape.errors import EmptySample, FocalMean, GenerationFailed, InvalidLevel
from opshape.geometry import DirectionSample, last_axis_norms
from opshape.rng import SplitMix64, normal_rows
from opshape.synth import tangent_gaussian_mean, tangent_gaussian_sample

MASK = ref.MASK
SEEDS = (0, 1, 42, 2**63, 2**63 + 7, MASK - 1, MASK)


# ---- draws ---------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 2, 7, 8, 401])
@pytest.mark.parametrize("start", [0, 3])
def test_normal_rows_match_one_generator_per_seed(count, start):
    rows = normal_rows(np.array(SEEDS, dtype=np.uint64), count, start)
    assert rows.shape == (len(SEEDS), count)
    for row, seed in zip(rows, SEEDS):
        ref.assert_same_bits(row, ref.normals(seed, count, start))


def test_normal_rows_take_python_ints_mod_2_pow_64():
    ref.assert_same_bits(normal_rows([-1, 2**64 + 5], 9), normal_rows([MASK, 5], 9))


def test_normals_method_continues_the_stream():
    gen = SplitMix64(MASK)
    first, second = gen.normals(3), gen.normals(6)
    ref.assert_same_bits(first, ref.normals(MASK, 3))
    # three normals take two Box-Muller pairs: four words
    ref.assert_same_bits(second, ref.normals(MASK, 6, start=4))
    assert gen.counter == 10


@pytest.mark.parametrize("direction", [[0.0, 0.0, 1.0], [1.0, 2.0, 2.0], [0.5, -1.0, 0.25, 2.0]])
@pytest.mark.parametrize("sigma", [0.0, 0.1, 2.0])
@pytest.mark.parametrize("n", [1, 3, 200])
def test_tangent_gaussian_samples_match_single_draws(direction, sigma, n):
    stacked = tangent_stack(direction, sigma, n, np.array(SEEDS, dtype=np.uint64))
    assert stacked.shape == (len(SEEDS), n, len(direction))
    for sample, seed in zip(stacked, SEEDS):
        expected = ref.tangent_draws(direction, sigma, n, seed)
        ref.assert_same_bits(sample, expected)
        ref.assert_same_bits(tangent_gaussian_sample(direction, sigma, n, seed), expected)


@pytest.mark.parametrize("sigma", [1e200, 1e308])
def test_tangent_draw_beyond_double_range_fails_to_generate(sigma):
    with pytest.raises(GenerationFailed, match="too large") as whole:
        tangent_stack([0.0, 0.0, 1.0], sigma, 5, [1, 2])
    with pytest.raises(GenerationFailed) as sliced:
        tangent_gaussian_mean([0.0, 0.0, 1.0], sigma, 5, 1)
    assert str(sliced.value) == str(whole.value)


# ---- the sliced oracle mean --------------------------------------------------------


# draw counts around the slice size s: one slice, s exactly, a one-row tail
# and several slices with an odd tail
def draw_counts(s):
    return (1, 2, 3, s - 1, s, s + 1, 2 * s + 5)


def mean_bounds(n):
    """(lo, hi) of every slice of an n-draw oracle mean, as the oracle computes them."""
    return [synth._mean_bound(n, k) for k in range(synth._mean_slices(n))]


@pytest.mark.parametrize("size", [2, 3, 64, synth._MEAN_SLICE])
def test_mean_bounds_follow_the_slice_rule(monkeypatch, size):
    monkeypatch.setattr(synth, "_MEAN_SLICE", size)
    for n in [*range(1, 4 * size + 3), 40_001, 32_769, 400_003]:
        assert mean_bounds(n) == ref.mean_bounds(n, size), n


def test_mean_bounds_of_a_huge_oracle_are_computed_not_listed():
    n, size = 10**15, synth._MEAN_SLICE  # 10^15 = 2^15 5^15: whole slices
    slices = n // size
    assert synth._mean_slices(n) == slices
    assert synth._mean_bound(n, 0) == (0, size)
    assert synth._mean_bound(n, slices - 1) == (n - size, n)
    # a tail of one row or two is a slice of its own
    assert synth._mean_slices(n + 1) == slices + 1
    assert synth._mean_bound(n + 1, slices) == (n, n + 1)
    assert synth._mean_slices(n + 2) == slices + 1
    assert synth._mean_bound(n + 2, slices - 1) == (n - size, n)
    assert synth._mean_bound(n + 2, slices) == (n, n + 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from([1, 2, 3, 16_385, 16_386]),
    st.integers(2, 9),
    st.integers(-300, 300),
    st.integers(0, 3),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
def test_einsum_adds_rows_in_order(rows, d, exponent, spread, zeros, seed):
    """The oracle's running sum, `np.einsum("ij->j", x)`, adds the rows of x
    in order, as a loop would and as `ndarray.mean(axis=0)`'s reduction
    does; a numpy whose einsum changed that order would move the mean's
    bits. Magnitudes run from 1e-300 to 1e300 over a few decades per
    example, so the order shows in the rounding, with signed zeros."""
    gen = np.random.default_rng(seed)
    powers = np.clip(exponent + gen.integers(-spread, spread + 1, size=(rows, d)), -300, 300)
    x = gen.uniform(1.0, 10.0, size=(rows, d)) * 10.0**powers
    x *= gen.choice([-1.0, 1.0], size=(rows, d))
    x[gen.random((rows, d)) < zeros] *= 0.0  # zero of the value's sign
    want = ref.row_sum(x)
    ref.assert_same_bits(np.einsum("ij->j", x), want)
    ref.assert_same_bits(np.add.reduce(x, axis=0), want)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("mean_slice", [64, 128, None])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    st.none() | st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    st.integers(0, 2**64 - 1),
)
@example(None, 0)
def test_tangent_mean_is_the_mean_of_the_whole_sample(d, mean_slice, values, seed):
    # None: the e_d direction `mc` uses, else a generic (possibly signed-zero) one
    direction = np.eye(d)[-1] if values is None else np.array(values[:d])
    assume(np.linalg.norm(direction) > 0.1)
    with pytest.MonkeyPatch.context() as patch:
        # None: a slice larger than every n drawn here
        patch.setattr(synth, "_MEAN_SLICE", mean_slice or 1 << 20)
        for sigma in (0.0, 1e-3, 0.1, 2.0):
            for n in draw_counts(mean_slice or 64):
                expected = tangent_gaussian_sample(direction, sigma, n, seed).mean(axis=0)
                ref.assert_same_bits(tangent_gaussian_mean(direction, sigma, n, seed), expected)


def pooled_mean(direction, sigma, n, seed, schedule, drawers, workers=2, summers=None):
    """`tangent_gaussian_mean` on a pool of `workers` threads made for the
    call; drawers gets the thread that drew each slice, and summers the
    thread that added it to the running sum, both keyed by the slice's
    first row.

    schedule None: no pool. "eager": every worker is free from the start,
    and the first slice waits until another slice has begun, when the pool
    lets one begin. An int c: one worker is held busy, as by the
    replication pass, until slice c begins.
    """
    slices = {lo: k for k, (lo, _) in enumerate(mean_bounds(n))}
    overlap = min(workers, len(slices)) > 1
    other, free = threading.Event(), threading.Event()
    draw, einsum = synth._mean_slice, np.einsum
    # each drawn slice's first row, by the address of its sum buffer, which
    # the next slice to take the buffer draws into only after this sum
    buffers = {}

    def recorded(draws, seed, lo, hi, out, scratch):
        k = slices[lo]
        if k == schedule:
            free.set()
        if k > 0:
            other.set()
        elif schedule == "eager" and overlap:
            assert other.wait(10)
        try:
            return draw(draws, seed, lo, hi, out=out, scratch=scratch)
        finally:
            drawers[lo] = threading.current_thread()
            buffers[out.ctypes.data] = lo

    def summed(subscripts, buf):
        if summers is not None:
            summers[buffers[buf.ctypes.data]] = threading.current_thread()
        return einsum(subscripts, buf)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_mean_slice", recorded)
        patch.setattr(np, "einsum", summed)
        if schedule is None:
            return tangent_gaussian_mean(direction, sigma, n, seed)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            held = pool.submit(free.wait, 10) if isinstance(schedule, int) else None
            try:
                return tangent_gaussian_mean(direction, sigma, n, seed, pool)
            finally:
                free.set()
                assert held is None or held.result()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("mean_slice", [64, 128])
@pytest.mark.parametrize("schedule", [None, "eager", "late"])
@settings(max_examples=4, deadline=None, derandomize=True)
@given(
    st.none() | st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5),
    st.integers(0, 2**64 - 1),
)
@example(None, 0)
def test_helped_mean_is_the_mean_of_the_whole_sample(d, mean_slice, schedule, values, seed):
    direction = np.eye(d)[-1] if values is None else np.array(values[:d])
    assume(np.linalg.norm(direction) > 0.1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_MEAN_SLICE", mean_slice)
        for sigma in (0.0, 1e-3, 0.1, 2.0):
            for n in draw_counts(mean_slice):
                bounds = mean_bounds(n)
                when = len(bounds) // 2 if schedule == "late" else schedule
                expected = tangent_gaussian_sample(direction, sigma, n, seed).mean(axis=0)
                for workers in (1, 2, 4) if schedule == "eager" else (2,):
                    drawers, summers = {}, {}
                    got = pooled_mean(direction, sigma, n, seed, when, drawers, workers, summers)
                    ref.assert_same_bits(got, expected)
                    assert sorted(drawers) == [lo for lo, _ in bounds]  # each slice drawn once
                    assert summers == drawers  # and summed on the thread that drew it
                    threads = set(drawers.values())
                    if schedule is None:
                        assert threads == {threading.current_thread()}
                    else:
                        assert threading.current_thread() not in threads  # the pool drew them
                    if schedule == "eager" and min(workers, len(bounds)) > 1:
                        assert len(threads) >= 2  # two workers drew at once


def test_helpers_beyond_the_cores_draw_each_slice_once(monkeypatch):
    # four workers on two cores, switching as often as possible, under the
    # production cap on pending slices and a narrower one
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)
    n, seed = 20_001, 3  # 312 slices, more than either cap
    draw = synth._mean_slice
    expected = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, n, seed).mean(axis=0)
    for cap in (2, synth._MEAN_PENDING):
        monkeypatch.setattr(synth, "_MEAN_PENDING", cap)
        drawn = []

        def counted(*args, **kwargs):
            drawn.append(args[-2])
            return draw(*args, **kwargs)

        monkeypatch.setattr(synth, "_mean_slice", counted)
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with CountingPool(max_workers=4) as pool:
                got = tangent_gaussian_mean([0.0, 0.0, 1.0], 0.1, n, seed, pool)
        finally:
            sys.setswitchinterval(interval)
        ref.assert_same_bits(got, expected)
        assert sorted(drawn) == [lo for lo, _ in mean_bounds(n)]
        assert pool.most <= cap
        assert threading.active_count() == threads


class CountingPool(ThreadPoolExecutor):
    """A thread pool that keeps the futures of the tasks submitted to it and
    counts the most of them submitted and not yet finished at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.futures, self.unfinished, self.most = [], 0, 0
        self._count = threading.Lock()

    def submit(self, fn, /, *args, **kwargs):
        def counted():
            try:
                return fn(*args, **kwargs)
            finally:
                # before the future is done, so the caller never sees it done first
                with self._count:
                    self.unfinished -= 1

        with self._count:
            self.unfinished += 1
            self.most = max(self.most, self.unfinished)
        self.futures.append(super().submit(counted))
        return self.futures[-1]


def test_pending_slices_never_exceed_the_cap(monkeypatch):
    # while slice 0, and with it the whole chain, is held, the calling
    # thread submits exactly the cap and waits
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)  # 100 slices
    draw = synth._mean_slice
    mu, n = [0.0, 0.0, 1.0], 64 * 100
    for cap in (2, synth._MEAN_PENDING):
        monkeypatch.setattr(synth, "_MEAN_PENDING", cap)
        pool = CountingPool(max_workers=4)
        while_held = []

        def held(*args, **kwargs):
            if args[-2] == 0:
                deadline = time.monotonic() + 10
                while len(pool.futures) < cap and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)  # and a while after
                while_held.append(len(pool.futures))
            return draw(*args, **kwargs)

        monkeypatch.setattr(synth, "_mean_slice", held)
        with pool:
            got = tangent_gaussian_mean(mu, 0.1, n, 1, pool)
        ref.assert_same_bits(got, tangent_gaussian_sample(mu, 0.1, n, 1).mean(axis=0))
        assert while_held == [cap]
        assert len(pool.futures) == 100
        assert pool.most == cap


def test_an_interrupted_mean_cancels_every_queued_slice(monkeypatch):
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)  # 40 slices, all submitted at once
    caller = threading.current_thread()
    begun, drawing, returned = [], threading.Event(), threading.Event()
    draw, result = synth._mean_slice, Future.result

    def held(*args, **kwargs):
        begun.append(args[-2])
        drawing.set()
        returned.wait(10)  # the pool's one worker is busy until the call has returned
        return draw(*args, **kwargs)

    def interrupted_result(future, timeout=None):
        if threading.current_thread() is caller:
            # the interrupt arrives while the caller waits for the last slice
            assert drawing.wait(10)
            raise KeyboardInterrupt
        return result(future, timeout)

    monkeypatch.setattr(synth, "_mean_slice", held)
    monkeypatch.setattr(Future, "result", interrupted_result)
    with CountingPool(max_workers=1) as pool:
        try:
            with pytest.raises(KeyboardInterrupt):
                tangent_gaussian_mean([0.0, 0.0, 1.0], 0.1, 64 * 40, 1, pool)
        finally:
            returned.set()
    assert len(pool.futures) == 40
    assert all(future.cancelled() for future in pool.futures[1:])
    assert begun == [0]  # no queued slice began


def test_tangent_mean_fails_in_a_late_slice_as_the_sample_does(monkeypatch):
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)
    n, seed = 1000, 7
    # about e_3 a draw's squared norm is 1 + sigma^2 (z0^2 + z1^2)
    radii = np.hypot(*normal_rows([seed], 2 * n).reshape(n, 2).T)
    assert int(np.argmax(radii)) >= 64  # the one failing draw lies beyond the first slice
    second, first = np.sort(radii)[-2:]
    # only the draw of largest radius squares past the double range
    sigma = 2.0 * math.sqrt(np.finfo(np.float64).max) / (first + second)
    with pytest.raises(GenerationFailed) as whole:
        tangent_gaussian_sample([0.0, 0.0, 1.0], sigma, n, seed)
    with pytest.raises(GenerationFailed) as sliced:
        tangent_gaussian_mean([0.0, 0.0, 1.0], sigma, n, seed)
    assert str(sliced.value) == str(whole.value)
    # a worker draws the failing slice, and the last slice's task raises its error
    failing, drawers = int(np.argmax(radii)) // 64, {}
    threads = threading.active_count()
    with pytest.raises(GenerationFailed) as pooled:
        pooled_mean([0.0, 0.0, 1.0], sigma, n, seed, failing - 1, drawers)
    assert str(pooled.value) == str(whole.value)
    assert drawers[64 * failing] is not threading.current_thread()
    # the other worker drew at most one slice past the failing one
    assert max(drawers) <= 64 * (failing + 1)
    assert threading.active_count() == threads


def test_the_first_failing_slice_wins_whichever_fails_first(monkeypatch):
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)  # 10 slices
    late_failed, failures = threading.Event(), []

    def failing(*args, **kwargs):
        lo = args[-2]
        if lo == 64:
            assert late_failed.wait(10)  # slice 2 has raised
        if lo in (64, 128):
            failures.append(lo)
            try:
                raise GenerationFailed(f"slice {lo // 64}")
            finally:
                late_failed.set()
        return np.zeros((64, 3))

    monkeypatch.setattr(synth, "_mean_slice", failing)
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(GenerationFailed, match="slice 1"):
            tangent_gaussian_mean([0.0, 0.0, 1.0], 0.1, 640, 1, pool)
    assert failures == [128, 64]


def test_at_most_one_slice_per_worker_is_drawn_past_a_failure(monkeypatch):
    # the failing slice takes a while, and the other workers run ahead of
    # it; the slices after it are cheap, so the chain would run on at once
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)  # 100 slices
    failing, drawers = 10, []

    def failing_slice(*args, **kwargs):
        lo = args[-2]
        drawers.append((lo, threading.current_thread()))
        if lo == 64 * failing:
            time.sleep(0.2)
            raise GenerationFailed("failed")
        return np.zeros((64, 3))

    monkeypatch.setattr(synth, "_mean_slice", failing_slice)
    for workers in (2, 4):
        drawers.clear()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            with pytest.raises(GenerationFailed, match="failed"):
                tangent_gaussian_mean([0.0, 0.0, 1.0], 0.1, 64 * 100, 1, pool)
        past = [thread for lo, thread in drawers if lo > 64 * failing]
        assert len(past) == len(set(past)) <= workers - 1


def failing_sigma(d, n, seed):
    """A sigma at which only the draw of largest normal radius overflows.

    Near mu a draw's squared norm is 1 + sigma^2 |z|^2, z its d - 1
    normals, so the largest radius alone squares past the double range."""
    radii = np.sqrt((normal_rows([seed], n * (d - 1)).reshape(n, d - 1) ** 2).sum(axis=1))
    second, first = np.sort(radii)[-2:]
    return 2.0 * math.sqrt(np.finfo(np.float64).max) / (first + second), int(np.argmax(radii))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reused_buffers_carry_nothing_between_slices_or_calls(monkeypatch, d):
    # each task draws into a scratch and sum buffer set that earlier slices
    # of the call used; calls in turn on one pool, one of them failing in a
    # late slice, must each give the whole sample's mean or error
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)
    n = 64 * 4
    seed = next(s for s in range(100) if failing_sigma(d, n, s)[1] >= 64)
    huge = failing_sigma(d, n, seed)[0]
    calls = [
        (np.eye(d)[-1], 0.1, 64 * 5 + 7, 3),  # a short last slice
        (np.arange(1.0, d + 1.0), 0.7, 64 * 3 + 1, 11),  # a one-row last slice
        (np.eye(d)[-1], huge, n, seed),
        (np.arange(d, 0.0, -1.0), 0.02, 64 * 2 + 30, 8),
    ]

    def whole_mean(direction, sigma, n, seed):
        return tangent_gaussian_sample(direction, sigma, n, seed).mean(axis=0)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for direction, sigma, n, seed in calls:
            got = ref.outcome(tangent_gaussian_mean, direction, sigma, n, seed, pool)
            assert got == ref.outcome(whole_mean, direction, sigma, n, seed)
    assert ref.outcome(whole_mean, *calls[2])[0] is GenerationFailed


def traced_peak(draw):
    tracemalloc.start()
    try:
        draw()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tangent_mean_memory_does_not_grow_with_the_draws():
    mu = [0.0, 0.0, 1.0]
    whole = traced_peak(lambda: tangent_gaussian_sample(mu, 0.1, 10**6, 5).mean(axis=0))
    small = traced_peak(lambda: tangent_gaussian_mean(mu, 0.1, 2 * 10**5, 5))
    large = traced_peak(lambda: tangent_gaussian_mean(mu, 0.1, 10**6, 5))
    # the whole sample holds at least its (n, 2) normals and (n, 3) units at once
    assert whole > 40 * 10**6
    assert large < 8 * 2**20
    assert abs(large - small) <= 0.1 * small
    # a pool holds at most one drawn slice per worker
    pooled = traced_peak(lambda: pooled_mean(mu, 0.1, 10**6, 5, "eager", {}))
    assert pooled < 8 * 2**20


def test_replication_memory_does_not_grow_with_the_replications():
    mu = np.eye(3)[-1]

    def replication_peak(reps):
        seeds = SplitMix64(3).u64_block(reps)
        ts, se = np.empty(reps), np.empty(reps)
        stop = threading.Event()
        return traced_peak(lambda: pipeline._replications(mu, 0.1, 200, seeds, ts, se, stop))

    small, large = replication_peak(1000), replication_peak(4000)
    # the buffers of one slice of about 2^16 doubles, and the moments' temporaries
    assert large < 3 * 2**20
    assert abs(large - small) <= 0.1 * small


# ---- statistics ------------------------------------------------------------------


def stacks():
    """(R, n, q, d) stacks: tight, spread, two rows, q = 3, constant rows."""
    seeds = np.array(SEEDS, dtype=np.uint64)
    yield tangent_stack([0.0, 0.0, 1.0], 0.05, 50, seeds)[:, :, None, :]
    yield tangent_stack([1.0, 2.0, 2.0], 1.5, 17, seeds)[:, :, None, :]
    yield tangent_stack([0.0, 1.0, 0.0], 0.3, 2, seeds)[:, :, None, :]
    blocks = [tangent_stack([0.0, 0.0, 1.0], 0.2, 30, seeds[f:]) for f in range(3)]
    yield np.stack([b[:4] for b in blocks], axis=2)
    # each sample repeats one vector 25 times
    yield np.repeat(ref.tangent_draws([1.0, 2.0, 2.0], 0.3, 4, 9)[:, None, None, :], 25, axis=1)


@pytest.mark.parametrize("index", range(5))
def test_sample_moments_match_single_sample_reference(index):
    units = list(stacks())[index]
    mean, resultant, ts, se = sample_moments(units.swapaxes(0, 1))
    for r, sample in enumerate(units):
        expected = ref.moments(sample)
        ref.assert_same_bits((mean[r], resultant[r], ts[r], se[r], np.False_), expected)
        summary = coplanarity_test(DirectionSample(sample))
        assert (summary.total_variance, summary.se) == expected[2:4]


def test_constant_rows_clamp_se_to_zero():
    units = list(stacks())[4]
    _, _, ts, se = sample_moments(units.swapaxes(0, 1))
    assert np.all(se == 0.0)
    assert np.all(ts <= ZERO_TOL)


def test_focal_replication_raises_focal_mean():
    units = list(stacks())[0][:3].copy()
    units[1, :25, 0] = [0.0, 0.0, 1.0]
    units[1, 25:, 0] = [0.0, 0.0, -1.0]
    assert ref.moments(units[1])[4]  # focal
    with pytest.raises(FocalMean):
        sample_moments(units.swapaxes(0, 1))


# ---- the whole pass ---------------------------------------------------------------


@pytest.mark.parametrize(
    "sigma, n, reps, alpha, seed, oracle_draws",
    [
        (0.1, 200, 40, 0.05, 0, 2000),
        (0.1, 2, 50, 0.05, 1, 100),
        (0.4, 57, 33, 0.05, 3, 1001),
        (0.0, 20, 10, 0.05, 12345, 10),
        (1.5, 31, 25, 0.2, 2**63 + 7, 999),
    ],
)
@pytest.mark.parametrize("slice_doubles", [1 << 20, 1, 700])
def test_run_monte_carlo_matches_per_replication_loop(
    monkeypatch, sigma, n, reps, alpha, seed, oracle_draws, slice_doubles
):
    # a small slice splits the replications into several (uneven) slices
    monkeypatch.setattr(pipeline, "_MC_SLICE_DOUBLES", slice_doubles)
    expected = ref.monte_carlo(sigma, n, reps, alpha, seed, oracle_draws)
    threads = threading.active_count()
    # and the oracle's draws into slices of 64 or 128 rows, or one slice
    for mean_slice in (64, 128, synth._MEAN_SLICE):
        monkeypatch.setattr(synth, "_MEAN_SLICE", mean_slice)
        got = pipeline.run_monte_carlo(sigma, n, reps, alpha, seed, oracle_draws)
        assert got == expected
        assert threading.active_count() == threads  # the worker has exited


@pytest.mark.parametrize(
    "draws, slices",
    [
        (40_001, 3),  # ends in an odd tail
        (400_003, 25),  # the 20 replications end early, so both workers draw slices
        (32_769, 3),  # a one-row tail is a slice of its own
    ],
)
def test_oracle_at_the_production_slice_is_the_whole_sample_mean(monkeypatch, draws, slices):
    seed = SplitMix64(0).next_u64()  # the oracle's seed under master seed 0
    mean = tangent_gaussian_sample([0.0, 0.0, 1.0], 0.1, draws, seed).mean(axis=0)
    drawn = []
    draw = synth._mean_slice

    def counted(*args, **kwargs):
        drawn.append(args[-2])
        return draw(*args, **kwargs)

    monkeypatch.setattr(synth, "_mean_slice", counted)
    got = pipeline.run_monte_carlo(0.1, 30, 20, 0.05, 0, draws)
    assert got["oracle_total_variance"] == 2.0 * (1.0 - math.sqrt(ref.dot(mean, mean)))
    assert synth._MEAN_SLICE == 16_384
    assert sorted(drawn) == [lo for lo, _ in mean_bounds(draws)]
    assert len(drawn) == slices


# ---- the worker thread --------------------------------------------------------------


def run_small():
    return pipeline.run_monte_carlo(0.1, 20, 30, 0.05, 3, 500)


def test_oracle_error_wins_over_a_replication_error(monkeypatch):
    failed = threading.Event()

    def focal_replication(units):
        failed.set()
        raise FocalMean("replication")

    def failing_oracle(*args):
        assert failed.wait(10)  # the worker has raised first
        raise GenerationFailed("oracle")

    monkeypatch.setattr(pipeline, "sample_moments", focal_replication)
    threads = threading.active_count()
    with pytest.raises(FocalMean, match="replication"):
        run_small()
    assert threading.active_count() == threads
    failed.clear()
    monkeypatch.setattr(pipeline, "tangent_gaussian_mean", failing_oracle)
    with pytest.raises(GenerationFailed, match="oracle"):
        run_small()
    assert threading.active_count() == threads


def no_draw(*args):
    raise AssertionError("drew before the arguments were checked")


def test_alpha_whose_interval_rounds_to_one_fails_before_any_draw(monkeypatch):
    monkeypatch.setattr(pipeline, "tangent_gaussian_mean", no_draw)
    monkeypatch.setattr(pipeline, "TangentDraws", no_draw)
    with pytest.raises(InvalidLevel, match=r"^alpha must be above 2\*\*-53, .*, got 1e-300$"):
        pipeline.run_monte_carlo(alpha=1e-300, n=5, reps=3, oracle_draws=10)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_bad_alpha_fails_before_any_draw(monkeypatch, alpha):
    monkeypatch.setattr(pipeline, "tangent_gaussian_mean", no_draw)
    monkeypatch.setattr(pipeline, "TangentDraws", no_draw)
    threads = threading.active_count()
    with pytest.raises(InvalidLevel) as error:
        pipeline.run_monte_carlo(alpha=alpha, n=5, reps=3, oracle_draws=10)
    assert str(error.value) == f"alpha must be in (0, 1), got {alpha}"
    # n and reps are checked before alpha
    with pytest.raises(EmptySample):
        pipeline.run_monte_carlo(alpha=alpha, n=1, reps=3, oracle_draws=10)
    with pytest.raises(ValueError, match="replication"):
        pipeline.run_monte_carlo(alpha=alpha, n=5, reps=0, oracle_draws=10)
    assert threading.active_count() == threads


def test_interrupt_stops_the_worker_before_its_next_slice(monkeypatch):
    monkeypatch.setattr(pipeline, "_MC_SLICE_DOUBLES", 1)  # one replication a slice
    stops, slices = [], []
    started = threading.Event()
    replications = pipeline._replications

    def spy(*args):
        stops.append(args[-1])
        return replications(*args)

    class CountedDraws(synth.TangentDraws):
        def draw(self, seeds, lo, out, scratch):
            slices.append(len(seeds))
            if len(slices) == 1:
                started.set()
                # hold the first slice until the calling thread has raised
                stops[0].wait(10)
            return super().draw(seeds, lo, out, scratch)

    def interrupted_oracle(*args):
        assert started.wait(10)
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "_replications", spy)
    monkeypatch.setattr(pipeline, "TangentDraws", CountedDraws)
    monkeypatch.setattr(pipeline, "tangent_gaussian_mean", interrupted_oracle)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_monte_carlo(0.1, 2, 1000, 0.05, 0, 100)
    assert threading.active_count() == threads
    assert stops[0].is_set()
    assert slices == [1]  # of 1,000 slices, only the one under way ran


def test_interrupt_stops_the_worker_before_its_next_oracle_slice(monkeypatch):
    monkeypatch.setattr(pipeline, "_MC_SLICE_DOUBLES", 1)  # one replication a slice
    monkeypatch.setattr(synth, "_MEAN_SLICE", 64)  # 1,563 oracle slices
    caller = threading.current_thread()
    stops, replication_slices, oracle_slices, after_stop = [], [], [], []
    replicating, drawing = threading.Event(), threading.Event()
    replications, draw_slice = pipeline._replications, synth._mean_slice
    result = Future.result

    def spy(*args):
        stops.append(args[-1])
        return replications(*args)

    class HeldDraws(synth.TangentDraws):
        def draw(self, seeds, lo, out, scratch):
            after_stop.append(stops[0].is_set())
            replication_slices.append(len(seeds))
            if len(replication_slices) == 1:
                replicating.set()
                stops[0].wait(10)  # until the calling thread has raised
            return super().draw(seeds, lo, out, scratch)

    def held_slice(*args, **kwargs):
        assert replicating.wait(10)  # the stop event is known
        after_stop.append(stops[0].is_set())
        oracle_slices.append(args[-2])
        if len(oracle_slices) == 1:
            drawing.set()
            stops[0].wait(10)
        return draw_slice(*args, **kwargs)

    def interrupted_result(future, timeout=None):
        if threading.current_thread() is caller:
            # the interrupt arrives while the caller waits for the oracle's
            # first slice, both workers inside a slice, the oracle's next
            # slices queued behind them up to the cap
            assert replicating.wait(10) and drawing.wait(10)
            raise KeyboardInterrupt
        return result(future, timeout)

    monkeypatch.setattr(pipeline, "_replications", spy)
    monkeypatch.setattr(pipeline, "TangentDraws", HeldDraws)
    monkeypatch.setattr(synth, "_mean_slice", held_slice)
    monkeypatch.setattr(Future, "result", interrupted_result)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_monte_carlo(0.1, 2, 1000, 0.05, 0, 100_000)
    assert threading.active_count() == threads
    assert stops[0].is_set()
    # only the slices under way ran, and none began once the caller had stopped
    assert replication_slices == [1]
    assert oracle_slices == [0]
    assert not any(after_stop)


# ---- the drawn oracle against the closed form ---------------------------------------


def population_moments(sigma, d):
    """E[c] and E[c^2] of c = (1 + sigma^2 W)^(-1/2), W ~ chi^2_(d-1).

    c is a tangent-Gaussian direction's e_d component, so E[c] is the
    population mean's length R and 2(1 - R) the population total
    variance. With a = (d - 1)/2 and U Tricomi's function,
    E[c^k] = (2 sigma^2)^(-a) U(a, a + 1 - k/2, 1/(2 sigma^2)); for d = 3,
    R = sqrt(pi/2)/sigma * erfcx(1/(sigma sqrt 2)).
    """
    a, z = (d - 1) / 2, 1 / (2 * sigma**2)
    scale = (2 * sigma**2) ** -a
    r = scale * special.hyperu(a, a + 0.5, z)
    if d == 3:
        erfcx_form = math.sqrt(math.pi / 2) / sigma * special.erfcx(1 / (sigma * math.sqrt(2)))
        assert math.isclose(erfcx_form, r, rel_tol=1e-13)
        r = erfcx_form
    return r, scale * special.hyperu(a, a, z)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5])
def test_drawn_oracle_matches_the_closed_form(d, sigma):
    draws = 10**5
    r, second = population_moments(sigma, d)
    # to first order 2(1 - |mean|) varies as twice the mean's e_d component
    se = 2 * math.sqrt((second - r * r) / draws)
    # the oracle seed of `run_monte_carlo(seed=11)`, about e_d
    mean = tangent_gaussian_mean(np.eye(d)[-1], sigma, draws, SplitMix64(11).next_u64())
    assert abs(2 * (1 - float(last_axis_norms(mean))) - 2 * (1 - r)) <= 5 * se
