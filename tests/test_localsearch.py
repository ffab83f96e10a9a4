import itertools
import random

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from greenflowshop import localsearch
from greenflowshop.instance import Instance
from greenflowshop.localsearch import (
    NEIGHBORHOOD_OPS,
    insert_job,
    op_neighborhood,
    op_reversion,
    op_swap,
    reverse_window,
    swap_positions,
    vnd_explore,
    vnd_local_search,
)
from greenflowshop.objectives import evaluate, simulate_oracle
from greenflowshop.pareto import Individual, dominates
from support import enumerate_front, random_instance, reference_vnd_explore

TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


class TestPrimitives:
    def test_swap_positions(self):
        assert swap_positions((1, 2, 3, 4), 0, 1) == (2, 1, 3, 4)
        assert swap_positions((1, 2, 3, 4), 2, 3) == (1, 2, 4, 3)
        assert swap_positions((1, 2, 3), 0, 2) == (3, 2, 1)

    def test_reverse_window(self):
        assert reverse_window((1, 2, 3, 4, 5), 1, 4) == (1, 4, 3, 2, 5)
        assert reverse_window((1, 2, 3), 0, 3) == (3, 2, 1)
        assert reverse_window((1, 2, 3), 1, 2) == (1, 2, 3)  # degenerate window

    def test_insert_job(self):
        assert insert_job((1, 2, 3), 0, 2) == (2, 3, 1)
        assert insert_job((1, 2, 3), 2, 0) == (3, 1, 2)


class TestOperators:
    def test_swap_returns_two(self):
        out = op_swap((0, 1, 2, 3), np.random.default_rng(0))
        assert len(out) == 2
        for p in out:
            assert sorted(p) == [0, 1, 2, 3]

    def test_reversion_returns_two(self):
        out = op_reversion((0, 1, 2, 3, 4), np.random.default_rng(0))
        assert len(out) == 2
        for p in out:
            assert sorted(p) == [0, 1, 2, 3, 4]

    def test_neighborhood_returns_ten(self):
        out = op_neighborhood((0, 1, 2), np.random.default_rng(0))
        assert len(out) == 10
        for p in out:
            assert sorted(p) == [0, 1, 2]

    def test_single_job_degenerate(self):
        rng = np.random.default_rng(0)
        assert op_swap((0,), rng) == ((0,), (0,))
        assert op_reversion((0,), rng) == ((0,), (0,))
        assert op_neighborhood((0,), rng) == tuple((0,) for _ in range(10))

    def test_closure_over_many_applications(self):
        rng = np.random.default_rng(42)
        base = tuple(range(8))
        for _ in range(500):
            for op in NEIGHBORHOOD_OPS:
                for out in op(base, rng):
                    assert sorted(out) == list(range(8))

    def test_swap_changes_exactly_two_positions(self):
        rng = np.random.default_rng(1)
        base = tuple(range(6))
        for _ in range(50):
            for out in op_swap(base, rng):
                assert sum(a != b for a, b in zip(base, out)) == 2

    def test_neighborhood_moves_distinct_when_possible(self):
        # 4 jobs allow 12 distinct (src, dst) moves, so the ten picks differ
        rng = np.random.default_rng(3)
        base = (0, 1, 2, 3)
        for _ in range(20):
            out = op_neighborhood(base, rng)
            assert len(out) == 10


class TestVnd:
    def test_two_job_instance_finds_dominant_order(self):
        start = Individual((0, 1), evaluate(TOY, (0, 1)))
        best = vnd_local_search(start, TOY, 15, np.random.default_rng(0))
        assert best.obj == (18, 40.0)
        assert best.perm == (1, 0)

    def test_single_job_returns_start(self):
        inst = Instance.from_matrix([[4]], [800])
        start = Individual((0,), evaluate(inst, (0,)))
        best = vnd_local_search(start, inst, 15, np.random.default_rng(0))
        assert best.perm == (0,)
        assert best.obj == start.obj

    def test_zero_budget_returns_input(self):
        start = Individual((0, 1), evaluate(TOY, (0, 1)))
        best = vnd_local_search(start, TOY, 0, np.random.default_rng(0))
        assert best.perm == start.perm
        assert best.obj == start.obj

    def test_output_contract_on_random_starts(self):
        rng_py = random.Random(8)
        rng = np.random.default_rng(8)
        for _ in range(60):
            inst = random_instance(rng_py, 3, rng_py.randint(1, 3))
            perm = tuple(rng_py.sample(range(3), 3))
            start = Individual(perm, evaluate(inst, perm))
            best = vnd_local_search(start, inst, 15, rng)
            assert best.perm == start.perm or dominates(best.obj, start.obj)
            assert not dominates(start.obj, best.obj)

    def test_pareto_start_never_worsened(self):
        rng_py = random.Random(9)
        rng = np.random.default_rng(9)
        inst = random_instance(rng_py, 3, 3)
        _, front = enumerate_front(inst)
        for perm, obj in front.items():
            start = Individual(perm, obj)
            best = vnd_local_search(start, inst, 15, rng)
            # a Pareto-optimal start admits no dominating neighbour
            assert best.obj == start.obj

    def test_pareto_start_ranks_no_pool(self, monkeypatch):
        # no neighbour can dominate a Pareto-optimal start, so no pool is ranked
        sorts = []
        monkeypatch.setattr(localsearch, "fast_nondominated_sort",
                            lambda pool: sorts.append(pool))
        rng_py = random.Random(11)
        inst = random_instance(rng_py, 4, 3)
        _, front = enumerate_front(inst)
        for perm, obj in front.items():
            vnd_explore(Individual(perm, obj), inst, 15, np.random.default_rng(11))
        assert sorts == []

    def test_explore_archive_mutually_nondominated(self):
        rng_py = random.Random(10)
        rng = np.random.default_rng(10)
        inst = random_instance(rng_py, 5, 3)
        perm = tuple(rng_py.sample(range(5), 5))
        start = Individual(perm, evaluate(inst, perm))
        best, archive = vnd_explore(start, inst, 15, rng)
        objs = [ind.obj for ind in archive]
        assert len(set(objs)) == len(objs)
        for a, b in itertools.combinations(objs, 2):
            assert not dominates(a, b) and not dominates(b, a)
        assert any(ind.obj == best.obj for ind in archive)


@st.composite
def descent_cases(draw):
    """A small shop (zero times allowed, ties likely), a start permutation,
    a budget of 0-15 iterations and a generator seed."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 9), min_size=m, max_size=m)
    times = draw(st.lists(row, min_size=n, max_size=n))
    powers = draw(st.lists(st.integers(1, 1500), min_size=m, max_size=m))
    perm = tuple(draw(st.permutations(range(n))))
    return (Instance.from_matrix(times, powers), perm,
            draw(st.integers(0, 15)), draw(st.integers(0, 2**32 - 1)))


def _same_descent(instance, perm, max_iters, seed):
    """Without a store, and twice with one shared store (the second run
    prices nothing new), the descent walks as the reference does; every
    stored entry is the permutation's true objectives."""
    start = Individual(perm, evaluate(instance, perm))
    ref_rng = np.random.default_rng(seed)
    ref_best, ref_archive = reference_vnd_explore(start, instance, max_iters, ref_rng)
    priced = {}
    for store in (None, priced, priced):
        rng = np.random.default_rng(seed)
        best, archive = vnd_explore(start, instance, max_iters, rng, priced=store)
        assert (best.perm, best.obj) == (ref_best.perm, ref_best.obj)
        assert [(i.perm, i.obj) for i in archive] == [(i.perm, i.obj) for i in ref_archive]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    for p, obj in priced.items():
        oracle = simulate_oracle(instance, p)
        assert obj == evaluate(instance, p)
        assert (obj.flowtime, repr(obj.energy)) == (oracle.flowtime, repr(oracle.energy))


class TestAgainstReference:
    """The descent must walk exactly as the always-rank, full-evaluation
    reference in `support` does: same incumbent, same archive in the same
    order, and the generator left in the same state, with or without a
    shared store of priced neighbours."""

    @given(descent_cases())
    @example((Instance.from_matrix([[4]], [800]), (0,), 15, 0))
    @example((Instance.from_matrix([[0], [3]], [800]), (1, 0), 15, 1))
    @example((Instance.from_matrix([[0, 0], [0, 0]], [800, 900]), (0, 1), 15, 2))
    @example((TOY, (0, 1), 0, 3))
    # three jobs allow six reinsertion moves, so one pass repeats neighbours
    @example((Instance.from_matrix([[5], [0], [3]], [800]), (2, 0, 1), 15, 4))
    @example((Instance.from_matrix([[2, 0, 7], [0, 0, 1], [4, 3, 0]], [900, 700, 1400]),
              (0, 1, 2), 15, 5))
    def test_matches_reference(self, case):
        _same_descent(*case)

    def test_store_prices_each_neighbour_once(self, monkeypatch):
        # at three jobs a descent proposes the same neighbour many times;
        # with a store, only a permutation's first proposal is evaluated
        calls = []
        monkeypatch.setattr(localsearch, "evaluate",
                            lambda inst, p, *a: calls.append(p) or evaluate(inst, p, *a))
        inst = Instance.from_matrix([[2, 0, 7], [0, 0, 1], [4, 3, 0]], [900, 700, 1400])
        start = Individual((0, 1, 2), evaluate(inst, (0, 1, 2)))
        for seed in range(3):
            vnd_explore(start, inst, 15, np.random.default_rng(seed))
        unshared, calls[:] = len(calls), []
        priced = {}
        for seed in range(3):
            vnd_explore(start, inst, 15, np.random.default_rng(seed), priced=priced)
        assert len(calls) == len(set(calls)) == len(priced) < unshared

    def test_matches_reference_on_random_shops(self):
        rng = random.Random(31)
        for case in range(160):
            n, m = rng.randint(1, 12), rng.randint(1, 5)
            times = [[rng.choice((0, rng.randint(1, 30))) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_matrix(times, [rng.randint(700, 1500) for _ in range(m)])
            _same_descent(inst, tuple(rng.sample(range(n), n)), case % 16, case)
