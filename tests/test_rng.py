import numpy as np

import pytest

from opshape.rng import SplitMix64, successive_normals

MASK = (1 << 64) - 1


def _reference_stream(seed, count):
    """Scalar splitmix64 reference, written independently of the library."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


# ---------- raw 64-bit stream -------------------------------------------------

def test_seed_zero_known_values():
    # first three outputs of the reference algorithm at seed 0
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_stream_matches_reference_scalar_loop():
    for seed in (0, 1, 42, 2**63, MASK):
        gen = SplitMix64(seed)
        got = [gen.next_u64() for _ in range(50)]
        assert got == _reference_stream(seed, 50)


def test_block_is_bitwise_equal_to_scalar_calls():
    gen_a = SplitMix64(1234)
    gen_b = SplitMix64(1234)
    block = gen_a.u64_block(257)
    singles = np.array([gen_b.next_u64() for _ in range(257)], dtype=np.uint64)
    assert np.array_equal(block, singles)


def test_blocks_continue_the_stream():
    gen_a = SplitMix64(9)
    gen_b = SplitMix64(9)
    first = gen_a.u64_block(10)
    second = gen_a.u64_block(10)
    whole = gen_b.u64_block(20)
    assert np.array_equal(np.concatenate([first, second]), whole)


# ---------- derived real-valued draws -----------------------------------------

def test_uniforms_range_and_determinism():
    u = SplitMix64(7).uniforms(10_000)
    assert u.shape == (10_000,)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert np.array_equal(u, SplitMix64(7).uniforms(10_000))


def test_uniform_scalar_matches_block():
    gen = SplitMix64(3)
    singles = [gen.uniform() for _ in range(8)]
    assert np.array_equal(np.array(singles), SplitMix64(3).uniforms(8))


def test_uniforms_match_bit_construction():
    # top 53 bits over 2^53, straight from the raw stream
    raw = _reference_stream(11, 100)
    expect = np.array([(r >> 11) / float(1 << 53) for r in raw])
    assert np.array_equal(SplitMix64(11).uniforms(100), expect)


def test_normals_deterministic_and_roughly_standard():
    x = SplitMix64(2024).normals(200_000)
    assert np.array_equal(x, SplitMix64(2024).normals(200_000))
    assert abs(float(np.mean(x))) < 0.01
    assert abs(float(np.std(x)) - 1.0) < 0.01
    assert np.all(np.isfinite(x))


def test_normal_scalar_matches_fresh_block_head():
    # each scalar draw consumes one Box-Muller pair (two words)
    gen = SplitMix64(5)
    first = gen.normal()
    assert first == SplitMix64(5).normals(1)[0]
    assert gen.counter == 2


def test_distinct_seeds_give_distinct_streams():
    a = SplitMix64(100).u64_block(16)
    b = SplitMix64(101).u64_block(16)
    assert not np.array_equal(a, b)


# ---------- successive draws of one stream at once ---------------------------

@pytest.mark.parametrize("seed", [0, 7, 2**63, MASK - 2, MASK])
@pytest.mark.parametrize("count", [0, 1, 3, 10, 14])
def test_successive_normals_equal_successive_calls(seed, count):
    gen = SplitMix64(seed)
    calls = [gen.normals(count) for _ in range(40)]
    got = successive_normals(seed, count, 40)
    assert got.shape == (40, count)
    assert got.tobytes() == np.array(calls).reshape(40, count).tobytes()


def test_successive_normals_validation():
    assert successive_normals(3, 4, 0).shape == (0, 4)
    with pytest.raises(ValueError):
        successive_normals(3, 4, -1)
    with pytest.raises(ValueError):
        successive_normals(3, -1, 2)
