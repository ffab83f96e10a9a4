"""`Draws` against live numpy: every replayed draw equals the `Generator`
call it stands for, and a tail drawn after them agrees on both sides, so
`Draws` stands on the half-word where those calls left the generator."""

import copy
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from greenflowshop.seeding import _CHUNK, Draws, _sampler
from support import assert_same_position, reference_choice

# The bounds the solver draws under: jobs at table3 and 20x5 sizes,
# population sizes, reinsertion move counts (15*14, 50*49, and the 2 and
# 6 of shops with fewer than ten moves); then bounds near 2^32, where
# Lemire's rejection is frequent or the 32-bit draw is taken whole.
SOLVER_BOUNDS = [1, 2, 3, 6, 14, 15, 16, 20, 21, 200, 210, 2450]
WIDE_BOUNDS = [2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1, 2**32]
bounds = st.sampled_from(SOLVER_BOUNDS + WIDE_BOUNDS) | st.integers(1, 2**32)

# One call as (method, arguments); `integers_array` is numpy's
# `integers(n, size=10)`, which `op_neighborhood` replays as ten scalar draws.
# `permutation` sizes pass the table3, 20x5 and 50x10 job counts, and 257
# needs a 9-bit mask, under which about half the half-words are redrawn.
calls = st.one_of(
    st.tuples(st.just("integers"), st.tuples(bounds)),
    st.tuples(st.just("integers"), st.integers(0, 60).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, lo + 40)))),
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("choice"), st.sampled_from(SOLVER_BOUNDS + [3 * 2**30]).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, min(n, 12))))),
    st.tuples(st.just("integers_array"), st.tuples(st.sampled_from([1, 2, 3, 6, 9]))),
    st.tuples(st.just("permutation"), st.tuples(st.integers(0, 60) | st.just(257))),
)


def live_call(rng, method, args):
    if method == "integers":
        return int(rng.integers(*args))
    if method == "random":
        return float(rng.random())
    if method == "choice":
        return [int(x) for x in rng.choice(args[0], args[1], replace=False)]
    if method == "permutation":
        return rng.permutation(args[0]).tolist()
    return [int(x) for x in rng.integers(args[0], size=10)]


def replayed_call(draws, method, args):
    if method == "integers_array":
        return [draws.integers(args[0]) for _ in range(10)]
    return getattr(draws, method)(*args)


# With `cached`, a sequence opens with one 32-bit draw, which leaves its
# word's high half in PCG64's cache for the calls that follow; 2 divides
# 2^32, so Lemire never rejects it.
OPEN_CACHED = [("integers", (2,))]


def assert_replays(seed, cached, sequence):
    """Run `sequence`, opened by `OPEN_CACHED` with `cached`, on a live
    generator and through `Draws` on the same seed, then draw a tail on
    both that agrees only if both stand on the same half-word.
    `default_rng(seed)` is `PCG64(SeedSequence(seed))`, the stream of
    `Draws(seed)`."""
    live, draws = np.random.default_rng(seed), Draws(seed)
    for method, args in OPEN_CACHED * cached + sequence:
        assert replayed_call(draws, method, args) == live_call(live, method, args), method
    assert_same_position(draws, live)


class TestAgainstNumpy:
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.lists(calls, max_size=40))
    @example(0, False, [])
    @example(1, True, [])
    @example(2, True, [("random", ()), ("integers", (20,)), ("random", ())])
    @example(3, False, [("integers", (20,)), ("random", ()), ("integers", (1,))])
    @example(4, True, [("choice", (3, 3)), ("choice", (1, 1)), ("choice", (5, 0))])
    @example(5, True, [("permutation", (0,)), ("permutation", (1,)), ("random", ()),
                       ("permutation", (257,)), ("integers", (15,))])
    # each shuffle of 1500 draws more half-words than one chunk holds
    @example(6, True, [("permutation", (1500,)), ("integers", (15,)), ("permutation", (1500,))])
    def test_mixed_calls(self, seed, cached, sequence):
        assert_replays(seed, cached, sequence)

    @pytest.mark.parametrize("n", SOLVER_BOUNDS + WIDE_BOUNDS)
    @pytest.mark.parametrize("cached", [False, True])
    def test_integers_bound(self, n, cached):
        assert_replays(n, cached, [("integers", (n,))] * 50)

    @pytest.mark.parametrize("n, k", [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (16, 2),
                                      (21, 2), (200, 2), (210, 10), (2450, 10), (6, 6),
                                      (12, 10), (3 * 2**30, 10), (10001, 200)])
    @pytest.mark.parametrize("cached", [False, True])
    def test_choice(self, n, k, cached):
        assert_replays(n + k, cached, [("choice", (n, k))] * 20)

    def test_long_runs_cross_chunk_boundaries(self):
        py = random.Random(17)
        menu = [("integers", (20,)), ("integers", (3, 15)), ("random", ()),
                ("choice", (200, 2)), ("choice", (210, 10)), ("integers_array", (6,)),
                ("integers", (2**32,)), ("integers", (3 * 2**30,)),
                ("permutation", (20,)), ("permutation", (257,))]
        for seed in range(4):
            assert_replays(seed, seed % 2 == 1, [py.choice(menu) for _ in range(3000)])

    def test_keyed_streams(self):
        # `Draws(seed, *key)` is the generator on the spawned sequence
        live = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1, 2)))
        draws = Draws(5, 1, 2)
        for _ in range(3):
            assert draws.choice(200, 2) == live.choice(200, 2, replace=False).tolist()
            assert draws.integers(15) == live.integers(15)
            assert draws.permutation(15) == live.permutation(15).tolist()
        assert_same_position(draws, live)


def lead_to(cached, left):
    """Calls that, after `OPEN_CACHED` with `cached`, leave `left` unread
    half-words in the first pulled chunk.  `integers(2)` takes exactly one
    half-word."""
    return [("integers", (2,))] * (2 * _CHUNK - left - cached)


def lead_in(cached, where):
    """Calls that, after `OPEN_CACHED` with `cached`, leave the next 32-bit
    draw on the last half-word of the first pulled chunk (`where ==
    "last"`) or on the first half-word of the second, pulled by a `random`
    (`"first"`)."""
    if where == "last":
        return lead_to(cached, 1)
    return lead_to(cached, 2) + [("random", ())]


def replayed_draws(seed, cached, sequence):
    draws = Draws(seed)
    for method, args in OPEN_CACHED * cached + sequence:
        replayed_call(draws, method, args)
    return draws


class TestChunkEdges:
    """`integers` reads a half-word inline unless it is past the pulled
    words or Lemire might reject it, and `choice` pulls first when fewer
    half-words are left than its sample draws; these pin the reads on
    either side of a pull, where the inline reads and `_below` hand over."""

    @pytest.mark.parametrize("where", ["last", "first"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_lead_in_reaches_the_edge(self, where, cached):
        draws = replayed_draws(3, cached, lead_in(cached, where))
        edge = len(draws._half) - (1 if where == "last" else 2 * _CHUNK)
        assert draws._at == edge

    @pytest.mark.parametrize("n", SOLVER_BOUNDS + [2**32 - 1, 3 * 2**30])
    @pytest.mark.parametrize("where", ["last", "first"])
    @pytest.mark.parametrize("cached", [False, True])
    def test_draws_at_the_edge(self, n, where, cached):
        lead = lead_in(cached, where)
        assert_replays(n, cached, lead + [("integers", (n,))] * 3)
        if n >= 2:
            assert_replays(n, cached, lead + [("choice", (n, 2))] * 3)

    @pytest.mark.parametrize("n, k", [(210, 10), (380, 10), (2450, 10), (200, 2), (21, 2)])
    @pytest.mark.parametrize("cached", [False, True])
    def test_choice_with_fewer_half_words_left_than_it_reads(self, n, k, cached):
        # Floyd draws k times and the shuffle k - 1 times
        for left in range(1, 2 * k - 1):
            lead = lead_to(cached, left)
            draws = replayed_draws(n, cached, lead)
            assert len(draws._half) - draws._at == left
            assert_replays(n, cached, lead + [("choice", (n, k))] * 3)

    @pytest.mark.parametrize("seed, cached", [(0, False), (5, True)])
    def test_rejection_on_the_last_half_word_redraws_from_the_next_chunk(self, seed, cached):
        # under 3 * 2^30 a quarter of the half-words are rejected; these
        # seeds reject the chunk's last one
        lead = lead_in(cached, "last")
        draws = replayed_draws(seed, cached, lead)
        draws.integers(3 * 2**30)
        assert draws._at > len(draws._half) - 2 * _CHUNK  # read into the next chunk
        assert_replays(seed, cached, lead + [("integers", (3 * 2**30,))] * 3)


def flagged_halves(b):
    """Half-words that fail Lemire's quick test `h * b & 0xFFFFFFFF < b`
    under bound `b`: one that the method rejects, when `b` does not divide
    2^32, then one that it accepts."""
    threshold = (1 << 32) % b
    out = [0] if threshold else []  # 0 * b leaves 0 below the threshold
    for j in range(1, b + 1):
        h = -((-j << 32) // b)  # ceil(j * 2^32 / b); h * b lands just past j * 2^32
        if threshold <= h * b - (j << 32):
            return [*out, h]
    raise AssertionError(f"no accepted flagged half-word under {b}")


class TestQuickTestFallback:
    """A draw that fails the compiled sampler's quick test sends `choice`
    down the exact path from the same half-word, whether Lemire then
    rejects it (one half-word more is read) or accepts it."""

    @pytest.mark.parametrize("n, k", [(210, 10), (2450, 10), (200, 2), (21, 2), (6, 6),
                                      (12, 10)])
    def test_a_flagged_read_at_each_position(self, n, k):
        tops = range(max(n - k, 1), n)
        bounds = [*(top + 1 for top in tops), *range(k, 1, -1)]
        for at, b in enumerate(bounds):
            for h in flagged_halves(b):
                draws = Draws(at)
                draws._pull()
                draws._half[at] = h
                reference = copy.deepcopy(draws)
                rejected = h * b & 0xFFFFFFFF < (1 << 32) % b
                assert _sampler(n, k)[0](draws._half, 0) is None
                assert draws.choice(n, k) == reference_choice(reference, n, k)
                assert draws._at == reference._at == len(bounds) + rejected
                assert ([draws.integers(2**32), draws.random(), draws.permutation(20)]
                        == [reference.integers(2**32), reference.random(),
                            reference.permutation(20)])


class TestRejectsWhatNumpyRejects:
    @pytest.mark.parametrize("args", [(0,), (-3,), (5, 5), (5, 4)])
    def test_empty_range(self, args):
        with pytest.raises(ValueError):
            np.random.default_rng(0).integers(*args)
        with pytest.raises(ValueError):
            Draws(0).integers(*args)

    def test_sample_larger_than_population(self):
        with pytest.raises(ValueError):
            Draws(0).choice(3, 4)

    @pytest.mark.parametrize("args", [(2**32 + 1,), (-1, 2**32)])
    def test_range_wider_than_2_32_not_replayed(self, args):
        with pytest.raises(ValueError):
            Draws(0).integers(*args)

    @pytest.mark.parametrize("n, k", [(2**32 + 1, 2), (2**32 + 5, 10)])
    def test_population_above_2_32_not_replayed(self, n, k):
        # 32-bit draws cannot cover such a range; Lemire's test would
        # reject every one of them
        with pytest.raises(ValueError):
            Draws(0).choice(n, k)

    def test_sample_above_200_not_replayed(self):
        # numpy switches to a tail shuffle for such samples of a large range
        with pytest.raises(ValueError):
            Draws(0).choice(20000, 201)
