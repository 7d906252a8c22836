"""The Monte Carlo draw kernels against the ones they replaced.

`rng.box_muller` makes its u1 and u2 words in one splitmix64 pass and
runs Box-Muller in place (here through `rng.normal_rows`);
`synth._unit_draws` adds the mean direction and divides by the norms one
coordinate column at a time, in scratch the caller gives; and
`geometry.check_unit_norm` sums its squares by columns too. Their
references in reference.py are the scalar stream with Box-Muller on it,
and a broadcast over the short last axis. The new kernels must give their
bits, and their errors.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference as ref
from opshape import rng
from opshape.errors import GenerationFailed
from opshape.geometry import check_unit_norm, last_axis_norms
from opshape.rng import normal_rows
from opshape.synth import _tangent_basis, _unit_draws

MASK = ref.MASK


def words(seeds, start, n):
    """Words start .. start+n-1 of each seed's stream, as a (len(seeds), n) uint64 array."""
    return np.array([ref.splitmix64(s, n, start) for s in seeds], dtype=np.uint64)


# ---- rng.box_muller --------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, MASK), min_size=1, max_size=5),
    st.integers(0, 300),
    st.integers(0, 2**63),
)
@example([0, MASK], 300, 2**63)
@example([MASK], 1, 0)
def test_normal_pairs_match_two_word_passes(seeds, m, start):
    got = normal_rows(seeds, 2 * m, start)
    assert got.shape == (len(seeds), 2 * m)
    ref.assert_same_bits(got, ref.normal_pairs(seeds, m, 0, m, start))


def test_u64_blocks_and_normal_pairs_share_one_word_pass():
    # the u64 stream reads its words through `_words`, one pass for any starts
    seeds = np.array([0, 7, MASK], dtype=np.uint64)
    ref.assert_same_bits(rng._words(seeds, 5, 9), words(seeds, 5, 9))
    both = rng._words(seeds, (5, 2**63), 9)
    assert both.shape == (2, 3, 9)
    ref.assert_same_bits(both[1], words(seeds, 2**63, 9))
    ref.assert_same_bits(rng.SplitMix64(MASK).u64_block(9), words([MASK], 0, 9)[0])


# ---- synth._unit_draws -----------------------------------------------------------


def unit_draws(mu, basis, normals, sigma):
    """`_unit_draws` on (R, rows, d - 1) normals, which it scales in place,
    as an (R, rows, d) array: the normals go in as (rows, R) column views
    and the draws come out of a scenes-major (rows, R, d) array."""
    reps, rows, _ = normals.shape
    out = np.empty((rows, reps, mu.size))
    columns = [normals[..., c].T for c in range(mu.size - 1)]
    _unit_draws(mu, basis, columns, sigma, out, np.empty((mu.size + 2) * rows * reps))
    return out.swapaxes(0, 1)


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(2, 5),
    st.lists(finite, min_size=5, max_size=5),
    st.integers(1, 3),
    st.integers(1, 40),
    st.data(),
    st.sampled_from([0.0, 1e-3, 0.1, 2.0, 1e150, 1e200, 1e308]),
)
def test_unit_draws_match_the_broadcast_kernel(d, values, samples, rows, data, sigma):
    assume(np.linalg.norm(values[:d]) > 1e-3)
    mu = np.array(values[:d])
    mu = mu / np.linalg.norm(mu)
    basis = _tangent_basis(mu)
    normals = data.draw(hnp.arrays(np.float64, (samples, rows, d - 1), elements=finite))
    got = ref.outcome(unit_draws, mu, basis, normals.copy(), sigma)
    assert got == ref.outcome(ref.unit_draws, mu, basis, normals.copy(), sigma)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unit_draws_overflow_fails_as_the_broadcast_kernel(d):
    mu = np.eye(d)[-1]
    normals = rng.normal_rows([1, 2], 7 * (d - 1)).reshape(2, 7, d - 1)
    for sigma in (1e200, 1e308):
        got = ref.outcome(unit_draws, mu, _tangent_basis(mu), normals.copy(), sigma)
        assert got[0] is GenerationFailed
        assert got == ref.outcome(ref.unit_draws, mu, _tangent_basis(mu), normals, sigma)


def test_unit_draws_of_no_samples_are_empty():
    mu = np.eye(3)[-1]
    assert unit_draws(mu, _tangent_basis(mu), np.empty((0, 4, 2)), 0.1).shape == (0, 4, 3)


# ---- geometry.check_unit_norm ----------------------------------------------------


any_float = st.floats(allow_nan=True, allow_infinity=True, width=64)
near_unit = st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(2, 7),
    st.lists(st.integers(1, 4), min_size=1, max_size=2),
    st.data(),
)
def test_column_norms_match_linalg_norm(d, lead, data):
    shape = tuple(lead) + (d,)
    elements = data.draw(st.sampled_from([any_float, near_unit]))
    units = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    if data.draw(st.booleans()):
        # unit rows, with some rows spoiled by NaN or inf
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            units = units / np.linalg.norm(units, axis=-1, keepdims=True)
        spoil = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, 1.0]))
        units.reshape(-1, d)[0, data.draw(st.integers(0, d - 1))] = spoil
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.linalg.norm(units, axis=-1)
        got = last_axis_norms(units)
    # a NaN norm may carry another sign bit; every other norm has the same bits
    ref.assert_same_bits(got, expected, any_nan=True)
    with np.errstate(over="ignore", invalid="ignore"):
        assert ref.outcome(check_unit_norm, units) == ref.outcome(ref.check_unit_norm, units)


def test_check_unit_norm_names_the_worst_row():
    units = np.array([[0.6, 0.8, 0.0], [1.0, 1e-5, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(ValueError) as got:
        check_unit_norm(units)
    with pytest.raises(ValueError) as expected:
        ref.check_unit_norm(units)
    assert str(got.value) == str(expected.value)
    check_unit_norm(units[[0, 2]])
