import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from greenflowshop import localsearch
from greenflowshop.instance import Instance
from greenflowshop.localsearch import (
    NEIGHBORHOOD_OPS,
    insert_job,
    neighbour,
    op_neighborhood,
    op_reversion,
    op_swap,
    reverse_window,
    swap_positions,
    vnd_explore,
)
from greenflowshop.objectives import Objectives, evaluate, simulate_oracle
from greenflowshop.pareto import Individual, crowding_distance, dominates, fast_nondominated_sort
from greenflowshop.seeding import Draws
from support import (
    NUMPY_NEIGHBORHOOD_OPS,
    assert_same_position,
    enumerate_front,
    random_instance,
    reference_vnd_explore,
)

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


def _proposed(op, perm, draws):
    """`op`'s neighbours of `perm` as `(k, neighbour)` pairs."""
    return [neighbour(perm, move) for move in op(perm, draws)]


class TestOperators:
    def test_swap_returns_two(self):
        out = _proposed(op_swap, (0, 1, 2, 3), Draws(0))
        assert len(out) == 2
        for _, p in out:
            assert sorted(p) == [0, 1, 2, 3]

    def test_reversion_returns_two(self):
        out = _proposed(op_reversion, (0, 1, 2, 3, 4), Draws(0))
        assert len(out) == 2
        for _, p in out:
            assert sorted(p) == [0, 1, 2, 3, 4]

    def test_neighborhood_returns_ten(self):
        out = _proposed(op_neighborhood, (0, 1, 2), Draws(0))
        assert len(out) == 10
        for _, p in out:
            assert sorted(p) == [0, 1, 2]

    def test_single_job_degenerate(self):
        rng = Draws(0)
        assert op_swap((0,), rng) == (0, 0)
        assert op_reversion((0,), rng) == (0, 0)
        assert op_neighborhood((0,), rng) == [0] * 10
        assert neighbour((0,), 0) == (1, (0,))  # k = n: nothing to price
        assert rng.integers(2**31) == Draws(0).integers(2**31)  # nothing was drawn

    def test_closure_over_many_applications(self):
        rng = Draws(42)
        base = tuple(range(8))
        for _ in range(500):
            for op in NEIGHBORHOOD_OPS:
                for _, out in _proposed(op, base, rng):
                    assert sorted(out) == list(range(8))

    def test_swap_changes_exactly_two_positions(self):
        rng = Draws(1)
        base = tuple(range(6))
        for _ in range(50):
            for _, out in _proposed(op_swap, base, rng):
                assert sum(a != b for a, b in zip(base, out)) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 20, 50])
    def test_replayed_draws_match_numpy(self, n):
        # each operator proposes what its numpy-drawing copy in `support`
        # proposes, and leaves its draws on the same half-word
        py = random.Random(n)
        live, draws = np.random.default_rng(n), Draws(n)
        for _ in range(300):
            perm = tuple(py.sample(range(n), n))
            a = py.randrange(3)
            perms = tuple(p for _, p in _proposed(NEIGHBORHOOD_OPS[a], perm, draws))
            assert perms == NUMPY_NEIGHBORHOOD_OPS[a](perm, live)
        assert_same_position(draws, live)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 50])
    def test_k_is_the_first_changed_position(self, n):
        # the descent resumes each neighbour's pricing at its `k`, so `k`
        # must be exactly where it first leaves the incumbent (n if nowhere)
        py = random.Random(n)
        for seed in range(40):
            draws = Draws(seed)
            perm = tuple(py.sample(range(n), n))
            for op in NEIGHBORHOOD_OPS:
                for k, out in _proposed(op, perm, draws):
                    first = next((i for i, (a, b) in enumerate(zip(perm, out)) if a != b), n)
                    assert k == first

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_a_move_names_one_neighbour_of_any_incumbent(self, n):
        # the memo keys an incumbent's neighbours by move: a swap of i and j
        # is one move whichever comes first, distinct swaps and reversals
        # are distinct moves, the operators' moves never collide, and each
        # names the same change of every incumbent; its `k` is exactly where
        # that change first leaves the incumbent, checked for every move
        made = {op: {} for op in NEIGHBORHOOD_OPS}  # move -> change of range(n)
        draws, py = Draws(n), random.Random(n)
        base = tuple(range(n))
        for _ in range(400):
            perm = tuple(py.sample(range(n), n))
            for op in NEIGHBORHOOD_OPS:
                for move in op(perm, draws):
                    _, change = neighbour(base, move)
                    assert made[op].setdefault(move, change) == change
                    k, other = neighbour(perm, move)
                    assert other == tuple(perm[i] for i in change)
                    assert other[:k] == perm[:k]
                    assert k == next(i for i, (a, b) in enumerate(zip(perm, other)) if a != b)
        swaps = {frozenset(i for i in range(n) if change[i] != i)
                 for change in made[op_swap].values()}
        assert len(swaps) == len(made[op_swap]) == n * (n - 1) // 2
        assert len(set(made[op_reversion].values())) == len(made[op_reversion])
        assert len(made[op_reversion]) == n * (n - 1) // 2
        assert len(made[op_neighborhood]) == n * (n - 1)
        moves = [set(made[op]) for op in NEIGHBORHOOD_OPS]
        assert sum(map(len, moves)) == len(set().union(*moves))

    def test_neighborhood_moves_distinct_when_possible(self):
        # 4 jobs allow 12 distinct (src, dst) moves, so the ten picks differ
        rng = Draws(3)
        base = (0, 1, 2, 3)
        for _ in range(20):
            out = op_neighborhood(base, rng)
            assert len(out) == len(set(out)) == 10


class TestVnd:
    def test_two_job_instance_finds_dominant_order(self):
        start = Individual((0, 1), evaluate(TOY, (0, 1)))
        best = vnd_explore(start, TOY, 15, Draws(0))[0]
        assert best.obj == (18, 40.0)
        assert best.perm == (1, 0)

    def test_single_job_returns_start(self):
        inst = Instance.from_matrix([[4]], [800])
        start = Individual((0,), evaluate(inst, (0,)))
        best = vnd_explore(start, inst, 15, Draws(0))[0]
        assert best.perm == (0,)
        assert best.obj == start.obj

    def test_zero_budget_returns_input(self):
        start = Individual((0, 1), evaluate(TOY, (0, 1)))
        best = vnd_explore(start, TOY, 0, Draws(0))[0]
        assert best.perm == start.perm
        assert best.obj == start.obj

    def test_output_contract_on_random_starts(self):
        rng_py = random.Random(8)
        draws = Draws(8)
        for _ in range(60):
            inst = random_instance(rng_py, 3, rng_py.randint(1, 3))
            perm = tuple(rng_py.sample(range(3), 3))
            start = Individual(perm, evaluate(inst, perm))
            best = vnd_explore(start, inst, 15, draws)[0]
            assert best.perm == start.perm or dominates(best.obj, start.obj)
            assert not dominates(start.obj, best.obj)

    def test_pareto_start_never_worsened(self):
        rng_py = random.Random(9)
        draws = Draws(9)
        inst = random_instance(rng_py, 3, 3)
        _, front = enumerate_front(inst)
        for perm, obj in front.items():
            start = Individual(perm, obj)
            best = vnd_explore(start, inst, 15, draws)[0]
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
            vnd_explore(Individual(perm, obj), inst, 15,
                        Draws(11))
        assert sorts == []

    def test_start_never_returned_or_marked(self, monkeypatch):
        # the caller finds pool slots by `id`, so the descent must hand back
        # new objects and leave the start's rank and crowding alone, also
        # on a walk that ranks a pool and improves (start (0, 1) of TOY)
        sorts = []
        real_sort = localsearch.fast_nondominated_sort
        monkeypatch.setattr(localsearch, "fast_nondominated_sort",
                            lambda pool: sorts.append(pool) or real_sort(pool))
        for perm, improves in (((0, 1), True), ((1, 0), False)):
            start = Individual(perm, evaluate(TOY, perm), rank=2, crowding=1.5)
            sorts.clear()
            best, archive = vnd_explore(start, TOY, 15, Draws(0))
            assert dominates(best.obj, start.obj) == bool(sorts) == improves
            assert (start.rank, start.crowding) == (2, 1.5)
            assert best is not start
            assert all(ind is not start and ind is not best for ind in archive)

    def test_prefix_built_only_at_a_store_miss(self, monkeypatch):
        # a walk whose every move is already in the memo builds and prices
        # nothing and builds no states, and walks as it does with an empty
        # memo; a memo another walk filled in part answers some passes
        # and recentres before any states are built, and changes no walk
        rng_py = random.Random(12)
        inst = random_instance(rng_py, 5, 3)
        perm = tuple(rng_py.sample(range(5), 5))
        start = Individual(perm, evaluate(inst, perm))
        shared = {}
        for seed in range(12):  # seeds 6 and 11 recentre before a miss, then miss
            walks = []
            for memo in ({}, shared):
                got = vnd_explore(start, inst, 15, Draws(seed), memo=memo)
                walks.append((got[0].perm, got[0].obj, [(i.perm, i.obj) for i in got[1]]))
            assert walks[0] == walks[1]
        assert dominates(walks[0][1], start.obj)  # the walk recentres
        calls = []
        for name in ("neighbour", "evaluate", "_schedule"):
            monkeypatch.setattr(localsearch, name, lambda *a, name=name: calls.append(name))
        got = vnd_explore(start, inst, 15, Draws(seed), memo=shared)
        assert calls == []
        assert (got[0].perm, got[0].obj, [(i.perm, i.obj) for i in got[1]]) == walks[0]

    def test_warm_memo_builds_and_prices_nothing(self, monkeypatch):
        # descents from one start that share a memo resolve each
        # (incumbent, move) pair once; replayed over the warm memo they
        # build no neighbour, price none and build no states, and walk,
        # harvest and leave their draws as the cold runs did, which walk
        # as descents given no memo do
        rng_py = random.Random(14)
        inst = random_instance(rng_py, 6, 3)
        perm = tuple(rng_py.sample(range(6), 6))
        start = Individual(perm, evaluate(inst, perm))

        def walks(**memo):
            out = []
            for seed in range(10):
                draws = Draws(seed)
                best, archive = vnd_explore(start, inst, 15, draws, **memo)
                out.append((best.perm, best.obj, [(i.perm, i.obj) for i in archive],
                            [draws.integers(2**32) for _ in range(3)]))
            return out

        memo = {}
        cold = walks(memo=memo)
        assert cold == walks()
        assert len(memo) > 1  # the walks recentre
        assert any(entry == () for moves in memo.values() for entry in moves.values())
        calls = []
        for name in ("neighbour", "evaluate", "_schedule"):
            monkeypatch.setattr(localsearch, name, lambda *a, name=name: calls.append(name))
        assert walks(memo=memo) == cold
        assert calls == []

    @pytest.mark.parametrize("perm, message", [
        ((0, 0), "bijection"), ((0,), "length"), ((0, 1, 2), "length"),
    ], ids=["repeat", "short", "long"])
    @pytest.mark.parametrize("store", [None, "full"])
    def test_start_not_a_permutation_is_refused_before_any_draw(self, perm, message, store):
        # the states of a non-permutation would misprice every neighbour;
        # the check runs even when the memo resolves every move of the start
        # (a move's code is below (n + 1)**2, so its number below 3 * that)
        memo = None if store is None else {
            perm: dict.fromkeys(range(3 * (len(perm) + 1) ** 2), ())}
        draws = Draws(13)
        with pytest.raises(ValueError, match=message):
            vnd_explore(Individual(perm, evaluate(TOY, (0, 1))), TOY, 15, draws,
                        memo=memo)
        fresh = Draws(13)
        assert [draws.integers(2**31) for _ in range(4)] == [
            fresh.integers(2**31) for _ in range(4)]

    def test_explore_archive_mutually_nondominated(self):
        rng_py = random.Random(10)
        rng = Draws(10)
        inst = random_instance(rng_py, 5, 3)
        perm = tuple(rng_py.sample(range(5), 5))
        start = Individual(perm, evaluate(inst, perm))
        best, archive = vnd_explore(start, inst, 15, rng)
        objs = [ind.obj for ind in archive]
        assert len(set(objs)) == len(objs)
        for a, b in itertools.combinations(objs, 2):
            assert not dominates(a, b) and not dominates(b, a)
        assert any(ind.obj == best.obj for ind in archive)

    @pytest.mark.parametrize("shop", ["three-job", "table3"])
    def test_objectives_built_only_for_kept_neighbours(self, shop, table3, monkeypatch):
        # a neighbour is priced as a plain pair; only one the descent keeps
        # gets an `Objectives`, once, shared by its memo entry, its pool slot
        # and the archive, so a dropped neighbour or a memo hit builds none,
        # and every `Individual` the descent returns carries an `Objectives`
        if shop == "table3":
            inst = table3
        else:
            inst = Instance.from_matrix([[2, 0, 7], [0, 0, 1], [4, 3, 0]], [900, 700, 1400])
        built = []

        def counted(*args):
            built.append(Objectives(*args))
            return built[-1]

        monkeypatch.setattr(localsearch, "Objectives", counted)
        py, memo = random.Random(inst.n_jobs), {}
        for seed in range(6):
            perm = tuple(py.sample(range(inst.n_jobs), inst.n_jobs))
            start = Individual(perm, evaluate(inst, perm))
            for _ in range(2):  # the second descent answers from the memo
                best, archive = vnd_explore(start, inst, 15, Draws(seed), memo=memo)
                assert all(type(ind.obj) is Objectives for ind in (best, *archive))
        entries = [entry for moves in memo.values() for entry in moves.values()]
        kept = [entry[0] for entry in entries if entry]
        assert len(built) == len(kept) < len(entries)  # some neighbour was dropped
        assert {id(obj) for obj in built} == {id(obj) for obj in kept}


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
    """Given no memo, and twice with one shared memo (the second run
    resolves every move from it), the descent walks as the reference does,
    and leaves its draws on the half-word where the reference's numpy
    draws left theirs.  Every memo entry of an incumbent's move holds the
    move's neighbour and its true objectives, or is dropped exactly when
    the incumbent's true objectives weakly dominate them."""
    start = Individual(perm, evaluate(instance, perm))
    ref_rng = np.random.default_rng(seed)
    ref_best, ref_archive = reference_vnd_explore(start, instance, max_iters, ref_rng)
    ref_state = ref_rng.bit_generator.state
    memo = {}
    for store in ({}, {"memo": memo}, {"memo": memo}):
        draws = Draws(seed)
        best, archive = vnd_explore(start, instance, max_iters, draws, **store)
        assert (best.perm, best.obj) == (ref_best.perm, ref_best.obj)
        assert [(i.perm, i.obj) for i in archive] == [(i.perm, i.obj) for i in ref_archive]
        ref_rng.bit_generator.state = ref_state
        assert_same_position(draws, ref_rng)
    for incumbent, moves in memo.items():
        held = simulate_oracle(instance, incumbent)
        for move, entry in moves.items():
            k, other = neighbour(incumbent, move)
            oracle = simulate_oracle(instance, other)
            covered = held.flowtime <= oracle.flowtime and held.energy <= oracle.energy
            assert (entry == ()) == covered
            if entry:
                obj, got, at = entry
                assert (at, got) == (k, other)
                assert type(obj) is Objectives
                assert obj == evaluate(instance, other)
                assert (obj.flowtime, repr(obj.energy)) == (oracle.flowtime, repr(oracle.energy))


class TestAgainstReference:
    """The descent must walk exactly as the always-rank, full-evaluation
    reference in `support` does with numpy's own draws: same incumbent,
    same archive in the same order, and the generator left in the same
    state, with or without a shared memo of resolved moves."""

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
        # at three jobs descents from one start propose the same moves of
        # the same incumbents; with a shared memo, only an (incumbent, move)
        # pair's first proposal is evaluated, and each one it prices is kept
        calls = _priced_moves(monkeypatch)
        inst = Instance.from_matrix([[2, 0, 7], [0, 0, 1], [4, 3, 0]], [900, 700, 1400])
        start = Individual((0, 1, 2), evaluate(inst, (0, 1, 2)))
        for seed in range(3):
            vnd_explore(start, inst, 15, Draws(seed))
        unshared, calls[:] = len(calls), []
        memo = {}
        for seed in range(3):
            vnd_explore(start, inst, 15, Draws(seed), memo=memo)
        resolved = [(incumbent, move) for incumbent, moves in memo.items() for move in moves]
        assert len(calls) == len(set(calls)) == len(resolved) < unshared
        assert set(calls) == set(resolved)

    def test_one_descent_prices_each_move_once(self, monkeypatch):
        # at three jobs one pass can propose a move twice; a descent given
        # no memo still prices each (incumbent, move) pair it proposes once
        proposed, ops = [], localsearch.NEIGHBORHOOD_OPS

        def recorded(op):
            def propose(perm, draws):
                out = op(perm, draws)
                proposed.extend((perm, move) for move in out)
                return out
            return propose

        monkeypatch.setattr(localsearch, "NEIGHBORHOOD_OPS", tuple(map(recorded, ops)))
        calls = _priced_moves(monkeypatch)
        inst = Instance.from_matrix([[2, 0, 7], [0, 0, 1], [4, 3, 0]], [900, 700, 1400])
        start = Individual((0, 1, 2), evaluate(inst, (0, 1, 2)))
        for seed in range(3):
            proposed.clear()
            calls.clear()
            vnd_explore(start, inst, 15, Draws(seed))
            assert len(set(proposed)) < len(proposed)
            assert len(calls) == len(set(calls)) == len(set(proposed))

    def test_matches_reference_on_random_shops(self):
        rng = random.Random(31)
        for case in range(160):
            n, m = rng.randint(1, 12), rng.randint(1, 5)
            times = [[rng.choice((0, rng.randint(1, 30))) for _ in range(m)] for _ in range(n)]
            inst = Instance.from_matrix(times, [rng.randint(700, 1500) for _ in range(m)])
            _same_descent(inst, tuple(rng.sample(range(n), n)), case % 16, case)


def _priced_moves(monkeypatch):
    """Patch the descent so that each neighbour it prices appends its
    (incumbent, move) pair to the returned list."""
    calls, built, build, price = [], [], localsearch.neighbour, localsearch.evaluate

    def counted_neighbour(perm, move):
        built.append((perm, move))
        return build(perm, move)

    def counted_evaluate(pricer, perm, *args):
        assert build(*built[-1])[1] == perm
        calls.append(built[-1])
        return price(pricer, perm, *args)

    monkeypatch.setattr(localsearch, "neighbour", counted_neighbour)
    monkeypatch.setattr(localsearch, "evaluate", counted_evaluate)
    return calls


def _crowded_pick(pool):
    """The index of the member `vnd_explore` recentres on in a pool of
    `(objectives, perm, k)`: the rank-1 member of largest crowding, the
    first on ties."""
    ranked = [Individual(perm, obj) for obj, perm, _ in pool]
    top = crowding_distance(fast_nondominated_sort(ranked)[0])
    return ranked.index(max(top, key=lambda ind: ind.crowding))


@st.composite
def beaten_incumbents(draw):
    """A pool of `(objectives, perm, k)` on a small grid, so that points tie
    in one objective or repeat outright, and an incumbent that a member
    strictly dominates."""
    member = st.tuples(st.integers(0, 6), st.integers(0, 6), st.sampled_from([(0, 1), (1, 0)]),
                       st.integers(0, 2))
    pool = [(Objectives(ft, float(en)), perm, k)
            for ft, en, perm, k in draw(st.lists(member, min_size=1, max_size=12))]
    better = draw(st.sampled_from(pool))[0]
    gap = draw(st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 3)]))
    return pool, Objectives(better.flowtime + gap[0], better.energy + gap[1])


class TestDropLemma:
    """A pass that recentres picks the same member whether or not its pool
    holds the neighbours that the incumbent weakly dominates, which is why
    `vnd_explore` drops them."""

    @given(beaten_incumbents())
    # a trade-off member, worse than the incumbent in flowtime alone, is
    # the pick: a filter that also dropped it would pick (4, 4.0)
    @example(([(Objectives(4, 4.0), (0, 1), 0), (Objectives(3, 9.0), (0, 1), 1),
               (Objectives(6, 2.0), (1, 0), 0), (Objectives(7, 7.0), (1, 0), 2)],
              Objectives(5, 5.0)))
    def test_dropping_what_the_incumbent_weakly_dominates_keeps_the_pick(self, case):
        pool, (bft, ben) = case
        kept = [i for i, (obj, _, _) in enumerate(pool)
                if not (obj.flowtime >= bft and obj.energy >= ben)]
        assert kept[_crowded_pick([pool[i] for i in kept])] == _crowded_pick(pool)
