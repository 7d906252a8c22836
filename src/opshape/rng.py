"""Portable counter-based pseudo-random generator (splitmix64).

The u64 stream is a pure function of (seed, counter), so fixtures regenerate
bit-identically from a seed alone and blocks can be produced out of order by
independent generators. That also lets many streams advance at once:
`normal_rows` draws one row of normals per seed in a single array pass, row
r bit-identical to `SplitMix64(seeds[r]).normals(count)`, and a single
generator's draws are its one-row case. `normal_pairs` gives any range of
a draw's Box-Muller pairs on its own, so a long draw can be made in slices.
`successive_normals` gives many successive draws of one stream at once:
word j of a stream at counter c is word j of the stream seeded
seed + c*golden (mod 2^64) at counter 0, so each draw is a row of
`normal_rows` for its own shifted seed.

The three normal entry points are thin wrappers over `normal_pairs`, and
each stays because it holds counter arithmetic its callers would otherwise
repeat. `SplitMix64.normals` is the stateful draw: it starts at the
generator's counter and advances it, and the benchmark's study generators
draw their jitter with it, so their inputs depend on its stream.
`normal_rows` draws one row per seed, the shape of the Monte Carlo
replications (`synth.tangent_gaussian_samples`), and rounds each count up
to whole pairs. `successive_normals` turns the calls a loop over one
generator would make into shifted seeds, so `synth.synthesize_views` draws
every camera's image noise in one pass.

Every word comes from `_words`, one splitmix64 pass over one or more
ranges of each seed's stream. A range of Box-Muller pairs takes its u1 and
u2 words in one such pass and transforms them in place, so it costs 27
numpy calls that allocate or loop over an array (8 of them the splitmix64
finalizer, whose shifts share one buffer) whatever its length; with many
threads drawing, the calls (each a release and re-take of the interpreter
lock) matter as much as the arithmetic. Gaussian variates go through
numpy's log/cos/sin and are therefore exact only up to the platform's
rounding of those functions.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO_POW_MINUS_53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi


def _mix(z: np.ndarray) -> np.ndarray:
    # finalizer of splitmix64, in place on a fresh array; wraps mod 2^64 via
    # uint64 arithmetic. The three shifts share one buffer.
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _seed_array(seeds) -> np.ndarray:
    """Seeds as a 1-D uint64 array, each reduced mod 2^64."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.reshape(-1)
    # element by element: numpy would turn a list holding 2^64 - 1 into floats
    return np.array([int(s) & _MASK for s in seeds], dtype=np.uint64)


def _words(seeds: np.ndarray, start, n: int) -> np.ndarray:
    """Raw words s .. s+n-1 (0-based) of each seed's stream for each start s.

    start is one int, giving shape (R, n), or a sequence of S ints, giving
    (S, R, n): each start's words one contiguous block. Either way the
    words come from one splitmix64 pass.
    """
    counters = np.add.outer(
        np.asarray(start, dtype=np.uint64), np.arange(1, n + 1, dtype=np.uint64)
    )
    counters *= np.uint64(_GOLDEN)
    return _mix(np.expand_dims(counters, -2) + seeds[:, None])


def _unit_interval(words: np.ndarray) -> np.ndarray:
    # top 53 bits of each word, scaled into [0, 1); shifts words in place
    words >>= np.uint64(11)
    unit = words.astype(np.float64)
    unit *= _TWO_POW_MINUS_53
    return unit


def normal_pairs(seeds, m: int, lo: int, hi: int, start: int = 0) -> np.ndarray:
    """Box-Muller pairs lo .. hi-1 of a draw of m pairs per seed, shape (R, 2*(hi-lo)).

    The draw takes u1 from words start .. start+m-1 and u2 from the next m;
    pair j is (r cos(2 pi u2), r sin(2 pi u2)) with r = sqrt(-2 log u1) from
    words start+j and start+m+j, cosine and sine variates interleaved. Any
    range of pairs is therefore bit-identical to the same columns of the
    whole draw. The u1 and u2 words of the range come from one `_words`
    pass, and Box-Muller runs in place on them.
    """
    if not 0 <= lo <= hi <= m:
        raise ValueError("pair range must satisfy 0 <= lo <= hi <= m")
    seeds = _seed_array(seeds)
    c = hi - lo
    words = _words(seeds, (start + lo, start + m + lo), c)
    words >>= np.uint64(11)
    r, angle = words.astype(np.float64)
    del words
    r *= _TWO_POW_MINUS_53  # in [0, 1), as `_unit_interval` gives it
    np.subtract(1.0, r, out=r)  # u1 in (0, 1]: log stays finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    # 2 pi u2 in one multiply: scaling by 2^-53 is exact, so this has the
    # bits of 2 pi times the u2 of `_unit_interval`
    angle *= _TWO_PI * _TWO_POW_MINUS_53
    out = np.empty((seeds.size, c, 2))
    np.cos(angle, out=out[..., 0])
    np.sin(angle, out=out[..., 1])
    out[..., 0] *= r
    out[..., 1] *= r
    return out.reshape(seeds.size, 2 * c)


def normal_rows(seeds, count: int, start: int = 0) -> np.ndarray:
    """Standard normals from one stream per seed, shape (R, count).

    Row r is bit-identical to `SplitMix64(seeds[r]).normals(count)` on a
    generator whose counter stands at `start`: the ceil(count/2) pairs of
    `normal_pairs`, cut to count.
    """
    if count < 0:
        raise ValueError("sample size must be nonnegative")
    m = (count + 1) // 2
    return normal_pairs(seeds, m, 0, m, start)[:, :count]


def successive_normals(seed: int, count: int, draws: int) -> np.ndarray:
    """`draws` successive `SplitMix64(seed).normals(count)` calls, shape (draws, count).

    Row v is bit-identical to the v-th call on one generator. That call
    starts at counter c = v * 2 * ceil(count / 2), and the stream at
    counter c is the stream seeded seed + c * golden (mod 2^64) at counter
    0; so row v is the `normal_rows` row of that shifted seed, and all rows
    come from one array pass.
    """
    if draws < 0:
        raise ValueError("number of draws must be nonnegative")
    step = (2 * ((count + 1) // 2) * _GOLDEN) & _MASK
    # uint64 arrays wrap mod 2^64, as the stream's counter arithmetic does
    seeds = np.arange(draws, dtype=np.uint64) * np.uint64(step) + np.uint64(int(seed) & _MASK)
    return normal_rows(seeds, count)


class SplitMix64:
    """Deterministic stream of u64 / uniform / normal variates.

    The k-th raw word (0-based) is mix(seed + (k+1)*golden mod 2^64), which
    equals the classic sequential splitmix64 started at `seed`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self.counter = 0

    def u64_block(self, n: int) -> np.ndarray:
        """Next n raw words as a uint64 array; advances the counter by n."""
        if n < 0:
            raise ValueError("block size must be nonnegative")
        block = _words(np.array([self.seed], dtype=np.uint64), self.counter, n)[0]
        self.counter += n
        return block

    def next_u64(self) -> int:
        return int(self.u64_block(1)[0])

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), each from the top 53 bits of one word."""
        return _unit_interval(self.u64_block(n))

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on ceil(n/2) uniform pairs."""
        out = normal_rows([self.seed], n, self.counter)[0]
        self.counter += 2 * ((n + 1) // 2)
        return out
