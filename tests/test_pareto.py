import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenflowshop.objectives import Objectives
from greenflowshop.pareto import (
    Individual,
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    rank_population,
)
from support import naive_front_peel, reference_crowding_distance, reference_nondominated_sort


def ind(ft, ec, perm=(0,)):
    return Individual(perm, Objectives(ft, float(ec)))


def pop_from(points):
    return [ind(ft, ec) for ft, ec in points]


class TestDominates:
    def test_weak_with_one_strict(self):
        assert dominates(Objectives(1, 2.0), Objectives(2, 2.0))

    def test_incomparable_both_ways(self):
        a, b = Objectives(1, 2.0), Objectives(2, 1.0)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_no_self_domination(self):
        p = Objectives(3, 3.0)
        assert not dominates(p, p)

    @given(st.tuples(st.integers(0, 50), st.integers(0, 50)),
           st.tuples(st.integers(0, 50), st.integers(0, 50)),
           st.tuples(st.integers(0, 50), st.integers(0, 50)))
    def test_order_properties(self, a, b, c):
        oa, ob, oc = (Objectives(x, float(y)) for x, y in (a, b, c))
        assert not dominates(oa, oa)
        if dominates(oa, ob):
            assert not dominates(ob, oa)
        if dominates(oa, ob) and dominates(ob, oc):
            assert dominates(oa, oc)


class TestFastNondominatedSort:
    def test_example_three_fronts(self):
        points = [(1, 5), (2, 3), (4, 1), (3, 4), (5, 5)]
        pop = pop_from(points)
        fronts = fast_nondominated_sort(pop)
        objs = [sorted((i.obj.flowtime, i.obj.energy) for i in f) for f in fronts]
        assert objs == [[(1, 5.0), (2, 3.0), (4, 1.0)], [(3, 4.0)], [(5, 5.0)]]
        assert [i.rank for i in pop] == [1, 1, 1, 2, 3]

    def test_identical_points_share_front(self):
        pop = pop_from([(2, 2)] * 5)
        fronts = fast_nondominated_sort(pop)
        assert len(fronts) == 1 and len(fronts[0]) == 5

    def test_chain_gives_singletons(self):
        pop = pop_from([(1, 1), (2, 2), (3, 3)])
        fronts = fast_nondominated_sort(pop)
        assert [len(f) for f in fronts] == [1, 1, 1]

    def test_empty(self):
        assert fast_nondominated_sort([]) == []

    def test_matches_peeling_oracle(self):
        # same members in the same (input) order, front by front
        rng = random.Random(99)
        sizes = [rng.randint(1, 64) for _ in range(60)]
        sizes += [rng.randint(65, 400) for _ in range(20)]
        for size in sizes:
            span = rng.choice([3, 30, 1000])
            points = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(size)]
            pop = pop_from(points)
            fronts = fast_nondominated_sort(pop)
            got = [[id(i) for i in f] for f in fronts]
            expected = [[id(pop[k]) for k in layer] for layer in naive_front_peel(points)]
            assert got == expected

    def test_front_set_invariants(self):
        rng = random.Random(17)
        for _ in range(40):
            points = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(30)]
            fronts = fast_nondominated_sort(pop_from(points))
            for k, front in enumerate(fronts):
                for a in front:
                    assert not any(dominates(b.obj, a.obj) for b in front)
                if k > 0:
                    for a in front:
                        assert any(dominates(b.obj, a.obj) for b in fronts[k - 1])


class TestAgainstReferenceRanking:
    """`rank_population` must reproduce the scan-the-fronts sort and the
    lambda-keyed crowding it replaced: the same members in the same order
    per front, the same ranks and bit-identical crowding floats."""

    def test_random_pools_with_ties(self):
        rng = random.Random(2002)
        sizes = [0, 1, 2, 3] + [rng.randint(4, 64) for _ in range(60)]
        sizes += [rng.randint(65, 400) for _ in range(20)]
        for size in sizes:
            span = rng.choice([3, 30, 1000])
            # energies with a fractional part, so a different summation
            # order of the crowding gaps would show in the last bits
            points = [(rng.randint(0, span), rng.randint(0, span) * 0.1) for _ in range(size)]
            got, expected = pop_from(points), pop_from(points)
            fronts = rank_population(got)
            reference = reference_nondominated_sort(expected)
            for front in reference:
                reference_crowding_distance(front)
            assert [[got.index(i) for i in f] for f in fronts] == [
                [expected.index(i) for i in f] for f in reference
            ]
            assert [(i.rank, repr(i.crowding)) for i in got] == [
                (i.rank, repr(i.crowding)) for i in expected
            ]


def copies_of(points, layout):
    """Two parallel pools over `points`: `layout` lists, in member order,
    either a point's index, for a new member at that point, or `~k`, to
    list the pool's k-th member object again."""
    pools = [], []
    for pool in pools:
        for k in layout:
            if k < 0:
                pool.append(pool[~k])
            else:
                pool.append(ind(*points[k]))
    return pools


def places(pool, members):
    """Each member's first place in `pool`, by identity."""
    first = {}
    for k, i in enumerate(pool):
        first.setdefault(id(i), k)
    return [first[id(i)] for i in members]


def assert_ranked_as_reference(got, expected):
    """`rank_population` on `got` and the reference sort and crowding on
    `expected` (a parallel pool) agree front by front, rank by rank and bit
    for bit; so do `fast_nondominated_sort` and `crowding_distance`."""
    fronts = rank_population(got)
    reference = reference_nondominated_sort(expected)
    for front in reference:
        reference_crowding_distance(front)
    assert [places(got, f) for f in fronts] == [places(expected, f) for f in reference]
    assert [(i.rank, repr(i.crowding)) for i in got] == [
        (i.rank, repr(i.crowding)) for i in expected
    ]
    for member in got:
        member.rank = member.crowding = None
    sorted_fronts = fast_nondominated_sort(got)
    assert [places(got, f) for f in sorted_fronts] == [places(expected, f) for f in reference]
    for front in sorted_fronts:
        crowding_distance(front)
    assert [(i.rank, repr(i.crowding)) for i in got] == [
        (i.rank, repr(i.crowding)) for i in expected
    ]


class TestCopyHeavyPools:
    """Sorting and crowding work per distinct point; pools full of copies,
    as elitism makes them, must still match the reference member by
    member."""

    def test_elitist_shaped_pools(self):
        rng = random.Random(2003)
        for _ in range(60):
            size = rng.randint(50, 400)
            span = rng.choice([5, 40, 1000])
            points = [
                (rng.randint(0, span), rng.randint(0, span) * 0.1)
                for _ in range(rng.randint(3, 30))
            ]
            # a few points hold most members, as in a merged elitist pool
            weights = [rng.random() ** 3 for _ in points]
            layout = rng.choices(range(len(points)), weights, k=size)
            assert_ranked_as_reference(*copies_of(points, layout))

    @given(
        st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
        st.lists(st.integers(0, 40), min_size=6, max_size=6, unique=True),
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 40)), max_size=4),
        st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=60),
    )
    def test_any_layout_of_copies(self, flowtimes, energies, others, picks):
        # a front of up to six points and a few more anywhere; a pick names
        # a point for a new member, or an earlier member to list again
        front = zip(sorted(flowtimes), sorted(energies, reverse=True))
        points = [(ft, en * 0.1) for ft, en in [*front, *others]]
        layout = []
        for again, k in picks:
            layout.append(~(k % len(layout)) if again and layout else k % len(points))
        assert_ranked_as_reference(*copies_of(points, layout))

    @pytest.mark.parametrize("dominated", [False, True], ids=["one-front", "two-fronts"])
    def test_copy_groups_at_each_place_in_a_front(self, dominated):
        # one front of five points with fractional energies, plus a point
        # it dominates; each place of the front holds 1, 2, 3 or 4 copies
        points = [(1, 9.3), (2, 7.1), (4, 4.4), (6, 2.9), (9, 0.7), (10, 9.9)]
        rng = random.Random(42)
        for counts in itertools.product([1, 2, 3, 4], repeat=3):
            first, inside, last = counts
            layout = [0] * first + [2] * inside + [4] * last + [1, 3]
            layout += [5] * (2 if dominated else 0)
            rng.shuffle(layout)
            assert_ranked_as_reference(*copies_of(points, layout))

    def test_front_of_one_point(self):
        got, expected = copies_of([(3, 2.5), (4, 7.0)], [0, 0, 0, 0, 0, 1, 1, 1])
        assert_ranked_as_reference(got, expected)
        assert [i.crowding for i in got[:5]] == [math.inf, 0.0, 0.0, 0.0, math.inf]
        assert [i.crowding for i in got[5:]] == [math.inf, 0.0, math.inf]

    def test_one_member_listed_twice(self):
        # the same object at an end, inside and across a group, and in a
        # dominated front
        points = [(1, 5.5), (2, 3.3), (3, 2.2), (5, 1.1), (6, 6.6)]
        for layout in (
            [0, 1, 2, 3, ~1, 4],
            [1, 1, 0, ~0, 2, 3, ~0, 4, ~7],
            [2, 1, 2, ~0, 3, 0, ~2, ~5],
            [4, 4, ~0, 3, 1],
        ):
            assert_ranked_as_reference(*copies_of(points, layout))

    @pytest.mark.parametrize("layout", [[], [0], [0, 0], [0, 1], [1, 0], [0, ~0]])
    def test_pools_of_at_most_two(self, layout):
        got, expected = copies_of([(1, 2.5), (2, 0.5)], layout)
        assert_ranked_as_reference(got, expected)
        assert all(i.crowding == math.inf for i in got)


class TestCrowdingDistance:
    def test_three_point_front(self):
        front = pop_from([(1, 3), (2, 2), (3, 1)])
        crowding_distance(front)
        assert front[0].crowding == math.inf
        assert front[1].crowding == 4.0
        assert front[2].crowding == math.inf

    @pytest.mark.parametrize("points", [
        [(1, 3), (2, 2), (3, 3)],  # a later point dominated
        [(1, 3), (1, 4), (2, 1)],  # equal flowtime, higher energy
        [(2, 2), (2, 2), (1, 1)],  # a copied point dominated
    ])
    def test_refuses_more_than_one_front(self, points):
        front = pop_from(points)
        with pytest.raises(ValueError, match="one front"):
            crowding_distance(front)

    def test_singleton_and_pair_are_boundary(self):
        for points in ([(5, 5)], [(1, 2), (2, 1)]):
            front = pop_from(points)
            crowding_distance(front)
            assert all(i.crowding == math.inf for i in front)

    def test_scaling_one_objective(self):
        front = pop_from([(10, 3), (20, 2), (30, 1)])
        crowding_distance(front)
        assert front[1].crowding == 22.0  # |30-10| + |1-3|

    @given(st.integers(2, 9))
    def test_scaling_flowtime_scales_its_contribution(self, c):
        # interior members: flowtime contribution scales by c, energy part fixed
        points = [(1, 6), (2, 4), (3, 3), (5, 1)]
        scaled = pop_from([(ft * c, ec) for ft, ec in points])
        crowding_distance(scaled)
        for k in (1, 2):
            ft_gap = points[k + 1][0] - points[k - 1][0]
            ec_gap = abs(points[k + 1][1] - points[k - 1][1])
            assert scaled[k].crowding == pytest.approx(c * ft_gap + ec_gap)

    def test_scaling_preserves_front_membership(self):
        rng = random.Random(11)
        points = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(30)]
        pop_a = pop_from(points)
        pop_b = pop_from([(ft * 7, ec) for ft, ec in points])
        fast_nondominated_sort(pop_a)
        fast_nondominated_sort(pop_b)
        assert [i.rank for i in pop_a] == [i.rank for i in pop_b]


def test_rank_population_assigns_everything():
    rng = random.Random(3)
    pop = pop_from([(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(25)])
    fronts = rank_population(pop)
    assert sum(len(f) for f in fronts) == 25
    assert all(i.rank is not None and i.crowding is not None for i in pop)
