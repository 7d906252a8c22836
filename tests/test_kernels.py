"""The Monte Carlo draw kernels against the ones they replaced.

`rng.normal_pairs` makes its u1 and u2 words in one splitmix64 pass and
runs Box-Muller in place; `synth._unit_draws` adds the mean direction and
divides by the norms one coordinate column at a time; and
`geometry.check_unit_norm` sums its squares by columns too. The references
below are those kernels as they stood before: two word passes per draw, and
a broadcast over the short last axis. The new kernels must give their bits,
and their errors.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from opshape import rng
from opshape.errors import GenerationFailed
from opshape.geometry import UNIT_ATOL, check_unit_norm, last_axis_norms
from opshape.rng import normal_pairs
from opshape.synth import _tangent_basis, _unit_draws

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def ref_mix(state):
    z = state
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def ref_words(seeds, start, n):
    ks = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    return ref_mix(seeds[:, None] + ks * np.uint64(GOLDEN))


def ref_unit_interval(words):
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def ref_normal_pairs(seeds, m, lo, hi, start=0):
    """Box-Muller pairs lo .. hi-1 from two word passes, one for u1 and one for u2."""
    seeds = np.array([int(s) & MASK for s in seeds], dtype=np.uint64)
    u1 = 1.0 - ref_unit_interval(ref_words(seeds, start + lo, hi - lo))
    angle = 2.0 * np.pi * ref_unit_interval(ref_words(seeds, start + m + lo, hi - lo))
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty((seeds.size, 2 * (hi - lo)), dtype=np.float64)
    out[:, 0::2] = r * np.cos(angle)
    out[:, 1::2] = r * np.sin(angle)
    return out


def ref_unit_draws(mu, basis, normals, sigma):
    """normalize(mu + (sigma * normals) @ basis), broadcasting over the last axis."""
    with np.errstate(over="ignore", invalid="ignore"):
        raw = (sigma * normals) @ basis
        raw += mu
        squares = raw[..., 0] * raw[..., 0]
        for j in range(1, mu.size):
            squares += raw[..., j] * raw[..., j]
        norms = np.sqrt(squares)
    if not np.all((norms > 0.0) & (norms < math.inf)):
        raise GenerationFailed(
            f"sigma {sigma:g} is too large: a tangent draw's norm is not finite and positive"
        )
    raw /= norms[..., None]
    return raw


def ref_check_unit_norm(units):
    off = np.abs(np.linalg.norm(units, axis=-1) - 1.0)
    if not np.all(off <= UNIT_ATOL):
        worst = float(np.max(off))
        raise ValueError(f"vectors must be unit norm within {UNIT_ATOL} (off by {worst:.3e})")


def outcome(call, *args):
    """(bytes of the result, None) or (None, the error's type and text)."""
    try:
        return np.asarray(call(*args)).tobytes(), None
    except (ValueError, GenerationFailed) as error:
        return None, (type(error), str(error))


# ---- rng.normal_pairs ------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, MASK), min_size=1, max_size=5),
    st.integers(0, 300),
    st.data(),
    st.integers(0, 2**63),
)
@example([0, MASK], 300, None, 2**63)
@example([MASK], 1, None, 0)
def test_normal_pairs_match_two_word_passes(seeds, m, data, start):
    if data is None:
        lo, hi = 0, m
    else:
        lo = data.draw(st.integers(0, m))
        hi = data.draw(st.integers(lo, m))
    got = normal_pairs(seeds, m, lo, hi, start)
    assert got.shape == (len(seeds), 2 * (hi - lo))
    assert got.tobytes() == ref_normal_pairs(seeds, m, lo, hi, start).tobytes()


def test_u64_blocks_and_normal_pairs_share_one_word_pass():
    # the u64 stream and Box-Muller both read words through `_words`
    seeds = np.array([0, 7, MASK], dtype=np.uint64)
    assert rng._words(seeds, 5, 9).tobytes() == ref_words(seeds, 5, 9).tobytes()
    both = rng._words(seeds, (5, 2**63), 9)
    assert both.shape == (2, 3, 9)
    assert both[1].tobytes() == ref_words(seeds, 2**63, 9).tobytes()
    block = rng.SplitMix64(MASK).u64_block(9)
    assert block.tobytes() == ref_words(seeds[2:], 0, 9)[0].tobytes()


# ---- synth._unit_draws -----------------------------------------------------------


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
    got = outcome(_unit_draws, mu, basis, normals.copy(), sigma)
    assert got == outcome(ref_unit_draws, mu, basis, normals.copy(), sigma)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unit_draws_overflow_fails_as_the_broadcast_kernel(d):
    mu = np.eye(d)[-1]
    normals = rng.normal_rows([1, 2], 7 * (d - 1)).reshape(2, 7, d - 1)
    for sigma in (1e200, 1e308):
        got = outcome(_unit_draws, mu, _tangent_basis(mu), normals, sigma)
        assert got[1] is not None and got[1][0] is GenerationFailed
        assert got == outcome(ref_unit_draws, mu, _tangent_basis(mu), normals, sigma)


def test_unit_draws_of_no_samples_are_empty():
    mu = np.eye(3)[-1]
    assert _unit_draws(mu, _tangent_basis(mu), np.empty((0, 4, 2)), 0.1).shape == (0, 4, 3)


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
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(check_unit_norm, units) == outcome(ref_check_unit_norm, units)


def test_check_unit_norm_names_the_worst_row():
    units = np.array([[0.6, 0.8, 0.0], [1.0, 1e-5, 0.0], [0.0, 0.0, -1.0]])
    with pytest.raises(ValueError) as got:
        check_unit_norm(units)
    with pytest.raises(ValueError) as expected:
        ref_check_unit_norm(units)
    assert str(got.value) == str(expected.value)
    check_unit_norm(units[[0, 2]])
