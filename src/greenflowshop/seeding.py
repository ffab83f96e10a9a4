"""Seed derivation: every random stream and every per-run seed comes from a
root seed, taken modulo 2^64, and a spawn key whose first entry names the
use, so distinct uses never share a stream.

Every seeded draw goes through `Draws`, which replays numpy's `Generator`
algorithms in Python from a PCG64 bit generator's raw words: one numpy call
per chunk of words instead of one per draw, each single bounded draw read
inline, and each sample without replacement drawn by a sampler compiled
once per shape, with the generic draw loop only as the fallback where
Lemire's method might reject a draw.  numpy's RNG policy (NEP 19) keeps
the raw stream of a seeded bit generator stable, but not the `Generator`
methods' algorithms, so no `Generator` is built and no draw depends on
anything but `SeedSequence` and the raw stream.
"""

from __future__ import annotations

import functools

from numpy.random import PCG64, SeedSequence

__all__ = ["STREAM_BENCH", "STREAM_INIT", "STREAM_LOCAL", "STREAM_TUNING",
           "STREAM_VARIATION", "Draws", "child_seed"]

# First spawn-key entry of each use: the initial population, one
# generation's variation and descent, one tuning design row and one
# benchmark repeat.
STREAM_INIT, STREAM_VARIATION, STREAM_LOCAL, STREAM_TUNING, STREAM_BENCH = range(5)

_CHUNK = 512  # raw words pulled per numpy call


def _sequence(seed: int, key: tuple[int, ...]) -> SeedSequence:
    return SeedSequence(seed & 0xFFFFFFFFFFFFFFFF, spawn_key=key)


def child_seed(seed: int, *key: int) -> int:
    """A 32-bit root seed for the independent run that `key` names."""
    return int(_sequence(seed, key).generate_state(1)[0])


@functools.lru_cache(maxsize=None, typed=True)
def _sampler(n: int, k: int):
    """`(sample, size)` for `Draws.choice(n, k)`, with `size` its number of
    bounded draws: Floyd's, one on [0, top] for each top from n - k to n - 1
    (none for top 0, whose pick is 0), then the shuffle's, one on [0, i]
    for i from k - 1 down to 1.  `sample(half, at)` reads the `size`
    half-words from `half[at]` on and returns the sample, or None if any
    draw fails Lemire's quick test `m & 0xFFFFFFFF < b`, so that the method
    might reject it.  Source made from `n` and `k` alone: the half-words in
    `h{i}`, their products with the bounds in `m{i}`, the picks in a list
    that Floyd searches, taking top itself for a pick already taken."""
    if type(n) is not int or type(k) is not int or not 0 <= k <= min(n, 200) or n > 1 << 32:
        raise ValueError(f"cannot draw {k!r} of {n!r} without replacement")
    tops = range(max(n - k, 1), n)
    bounds = [*(top + 1 for top in tops), *range(k, 1, -1)]  # Floyd's, the shuffle's
    reads = "".join(f"h{i}, " for i in range(len(bounds)))
    products = "".join(f"\n    m{i} = h{i} * {b}" for i, b in enumerate(bounds))
    flagged = " or ".join(f"m{i} & 0xFFFFFFFF < {b}" for i, b in enumerate(bounds))
    first_pick = "0" if n == k > 0 else "m0 >> 32" if k else ""  # none for k = 0
    floyd = "".join(f"\n    p = m{i} >> 32\n    picks.append({top} if p in picks else p)"
                    for i, top in enumerate(tops) if i or n == k)
    shuffle = "".join(f"\n    j = m{i} >> 32\n    picks[{p}], picks[j] = picks[j], picks[{p}]"
                      for i, p in enumerate(range(k - 1, 0, -1), len(tops)))
    namespace = {}
    exec(f"""def sample(half, at):
    ({reads}) = half[at:at + {len(bounds)}]{products}
    if {flagged or False}:
        return None
    picks = [{first_pick}]{floyd}{shuffle}
    return picks""", namespace)
    return namespace["sample"], len(bounds)


class Draws:
    """The draws of a `Generator` on the PCG64 stream of `key` under `seed`
    (for an empty key, the root seed's own), replayed from its raw words.

    `integers`, `random`, `choice` and `permutation` return what the
    `Generator` methods of the same names return for bounds up to 2^32, and
    consume the same raw words.  Bounded integers use Lemire's
    multiply-and-reject method on 32-bit half-words (Lemire, ACM TOMACS
    2019); PCG64 hands out a word's low half first and caches its high half
    for the next 32-bit draw, while `random` takes a whole word.  `integers`
    reads its half-word inline and calls `_below`, which pulls words and
    redraws, only at a chunk end or for a low word under the bound, where
    Lemire might reject.  Sampling without replacement is Floyd's algorithm
    (Bentley & Floyd, CACM 1987) followed by a Fisher-Yates shuffle, which
    is what numpy does for samples of up to 200 from up to 2^32 values;
    larger ones are not replayed.  `choice` reads all of a sample's draws
    at once through the `_sampler` compiled for its shape, and redraws them
    through `_below` only when one might be rejected.  `permutation`
    shuffles with partners drawn by masked rejection (numpy's
    `random_interval`) on the same half-words.
    """

    def __init__(self, seed: int, *key: int):
        self._bits = PCG64(_sequence(seed, key))
        # `_half` holds the pulled raw words split into 32-bit halves, low
        # half first, and `_at` indexes the next 32-bit draw; an odd `_at`
        # points at the high half PCG64 has cached.
        self._half: list[int] = []
        self._at = 0

    def _pull(self) -> None:
        keep = self._at & ~1  # the word of `_at`
        raw = self._bits.random_raw(_CHUNK).astype("<u8", copy=False)
        self._half = self._half[keep:] + raw.view("<u4").tolist()
        self._at -= keep

    def _below(self, bounds) -> list[int]:
        """One draw on [0, b) for each bound 1 < b <= 2^32 in `bounds`."""
        if self._at + len(bounds) > len(self._half):
            self._pull()
        half, at = self._half, self._at
        out: list[int] = []
        for b in bounds:
            m = half[at] * b
            at += 1
            while m & 0xFFFFFFFF < b and m & 0xFFFFFFFF < (1 << 32) % b:
                # rejected: redraw from the next half-word
                if at + len(bounds) - len(out) > len(half):
                    self._at = at
                    self._pull()
                    half, at = self._half, self._at
                m = half[at] * b
                at += 1
            out.append(m >> 32)
        self._at = at
        return out

    def integers(self, low: int, high: int | None = None) -> int:
        """`Generator.integers(low, high)` or `integers(low)` as an int."""
        if high is None:
            low, high = 0, low
        b = high - low
        if b == 1:
            return low  # numpy draws nothing for a single value
        if not 1 < b <= 1 << 32:
            raise ValueError(f"cannot draw from [{low}, {high})")
        at = self._at
        if at < len(self._half):
            m = self._half[at] * b
            if m & 0xFFFFFFFF >= b:
                self._at = at + 1
                return low + (m >> 32)
        return low + self._below((b,))[0]

    def random(self) -> float:
        """`Generator.random()`: the top 53 bits of one whole raw word."""
        if self._at + 2 >= len(self._half):
            self._pull()
        at, half = self._at, self._half
        if at & 1:
            # a cached high half stays cached: the word after its own is
            # drawn, and the cached value moves to that word's high slot
            low, high, half[at + 2] = half[at + 1], half[at + 2], half[at]
        else:
            low, high = half[at], half[at + 1]
        self._at = at + 2
        return ((high << 21) | (low >> 11)) * 2.0**-53

    def choice(self, n: int, k: int) -> list[int]:
        """`Generator.choice(n, k, replace=False)` as a list of ints."""
        sample, size = _sampler(n, k)
        at = self._at
        if at + size > len(self._half):
            self._pull()
            at = self._at
        picks = sample(self._half, at)
        if picks is not None:
            self._at = at + size
            return picks
        # Lemire might reject a draw: Floyd's loop over `_below`'s exact
        # draws; numpy skips Floyd's first draw when its range [0, n - k] is {0}
        first = max(n - k, 1)
        draws = self._below([*range(first + 1, n + 1), *range(k, 1, -1)])
        picks = [0] * (first - n + k)
        for top, pick in zip(range(first, n), draws):
            picks.append(top if pick in picks else pick)
        for i, j in zip(range(k - 1, 0, -1), draws[n - first:]):
            picks[i], picks[j] = picks[j], picks[i]
        return picks

    def permutation(self, n: int) -> list[int]:
        """`Generator.permutation(n)` as a list of ints: Fisher-Yates from
        the top, each partner `j` of position `i` a half-word masked to
        `i`'s bit length and redrawn while above `i`."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = i + 1
            while j > i:
                if self._at == len(self._half):
                    self._pull()
                j = self._half[self._at] & mask
                self._at += 1
            perm[i], perm[j] = perm[j], perm[i]
        return perm
