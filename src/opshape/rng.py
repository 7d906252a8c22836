"""Portable counter-based pseudo-random generator (splitmix64).

The u64 stream is a pure function of (seed, counter), so fixtures regenerate
bit-identically from a seed alone and blocks can be produced out of order by
independent generators. That also lets many streams advance at once:
`normal_rows` draws one row of normals per seed in a single array pass, row
r bit-identical to `SplitMix64(seeds[r]).normals(count)`, and a single
generator's draws are its one-row case. `successive_normals` gives many
successive draws of one stream at once: word j of a stream at counter c is
word j of the stream seeded seed + c*golden (mod 2^64) at counter 0, so
each draw is a row of `normal_rows` for its own shifted seed.

Each normal entry point stays because it holds counter arithmetic its
callers would otherwise repeat. `normal_rows` draws one row per seed and
rounds each count up to whole pairs. `SplitMix64.normals` is the stateful
draw: it starts at the generator's counter and advances it, and the
benchmark's study generators draw their jitter with it, so their inputs
depend on its stream. `successive_normals` turns the calls a loop over one
generator would make into shifted seeds, so `synth.synthesize_views` draws
every camera's image noise in one pass.

Word k of a stream is splitmix64's finalizer on the counter
seed + (k+1)*golden, made as the seed's offset seed + s*golden plus a
table of steps (j+1)*golden (`word_steps`): one add per word, exact mod
2^64. `_words` gives raw words. `box_muller` is the one Box-Muller core:
`normal_rows` and the tangent draws of `synth.TangentDraws` both call it.
It makes a range of pairs' u1 and u2 words as two blocks in one
splitmix64 pass and transforms them in arrays its caller gives, so a
caller that reuses its arrays maps no fresh memory per draw, and any range
of a draw's pairs is bit-identical to the same pairs of the whole draw. It
costs 24 numpy calls whatever its length: 8 of them the finalizer and 3
the per-seed offsets, which are the only arrays it allocates. With many
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


def _mix(z: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    # finalizer of splitmix64, in place; wraps mod 2^64 via uint64
    # arithmetic. The three shifts go to shifted, an array of z's shape.
    np.right_shift(z, np.uint64(30), out=shifted)
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


def word_steps(n: int) -> np.ndarray:
    """(j + 1) * golden (mod 2^64) for j < n: word s + j of a stream seeded
    seed has the counter seed + s * golden plus step j."""
    return np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def _offsets(seeds: np.ndarray, start) -> np.ndarray:
    """seeds + start * golden (mod 2^64): (R,) for one int start, (S, R) for S starts."""
    return np.add.outer(np.asarray(start, dtype=np.uint64) * np.uint64(_GOLDEN), seeds)


def _words(seeds: np.ndarray, start, n: int) -> np.ndarray:
    """Raw words s .. s+n-1 (0-based) of each seed's stream for each start s.

    start is one int, giving shape (R, n), or a sequence of S ints, giving
    (S, R, n): each start's words one contiguous block. Either way the
    words come from one splitmix64 pass.
    """
    z = np.expand_dims(_offsets(seeds, start), -1) + word_steps(n)
    return _mix(z, np.empty_like(z))


def _unit_interval(words: np.ndarray) -> np.ndarray:
    # top 53 bits of each word, scaled into [0, 1); shifts words in place
    words >>= np.uint64(11)
    unit = words.astype(np.float64)
    unit *= _TWO_POW_MINUS_53
    return unit


def box_muller(seeds, starts, steps, words, floats, cos, sin) -> None:
    """Box-Muller pairs j < c of each seed, into the caller's arrays.

    Pair j of seed r takes u1 from word starts[0] + j and u2 from word
    starts[1] + j of the seed's stream, and is (rho cos(2 pi u2), rho
    sin(2 pi u2)) with rho = sqrt(-2 log(1 - u1)). steps is `word_steps(c)`,
    words a (2, c, R) uint64 array and floats a (2, c, R) float64 array,
    both scratch. The cosines go to cos and the sines to sin, (c, R) arrays
    that may be views of words' memory: the words are dead once floats
    holds them. One splitmix64 pass makes the u1 and u2 words, with floats
    as its shift scratch; floats then holds rho and the angle.
    """
    np.add(steps[:, None], _offsets(_seed_array(seeds), starts)[:, None, :], out=words)
    _mix(words, floats.view(np.uint64))
    words >>= np.uint64(11)
    # a cast, then a scale: a multiply that casts as it goes is twice as slow
    np.copyto(floats, words, casting="unsafe")
    rho, angle = floats
    rho *= _TWO_POW_MINUS_53  # in [0, 1), as `_unit_interval` gives it
    np.subtract(1.0, rho, out=rho)  # u1 in (0, 1]: log stays finite
    np.log(rho, out=rho)
    rho *= -2.0
    np.sqrt(rho, out=rho)
    # 2 pi u2 in one multiply: scaling by 2^-53 is exact, so this has the
    # bits of 2 pi times the u2 of `_unit_interval`
    angle *= _TWO_PI * _TWO_POW_MINUS_53
    np.cos(angle, out=cos)
    np.sin(angle, out=sin)
    cos *= rho
    sin *= rho


def normal_rows(seeds, count: int, start: int = 0) -> np.ndarray:
    """Standard normals from one stream per seed, shape (R, count).

    Row r is bit-identical to `SplitMix64(seeds[r]).normals(count)` on a
    generator whose counter stands at `start`. The m = ceil(count/2) pairs
    take u1 from words start .. start+m-1 and u2 from the next m; pair j is
    (r cos(2 pi u2), r sin(2 pi u2)) with r = sqrt(-2 log u1) from words
    start+j and start+m+j, cosine and sine variates interleaved and the
    row cut to count. `box_muller` makes them.
    """
    if count < 0:
        raise ValueError("sample size must be nonnegative")
    seeds = _seed_array(seeds)
    m = (count + 1) // 2
    words = np.empty((2, m, seeds.size), dtype=np.uint64)
    out = np.empty((seeds.size, m, 2))
    box_muller(
        seeds,
        (start, start + m),
        word_steps(m),
        words,
        np.empty(words.shape),
        out[..., 0].T,
        out[..., 1].T,
    )
    return out.reshape(seeds.size, 2 * m)[:, :count]


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
