import functools
import hashlib
import itertools
import math
import random
from collections import Counter, defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from greenflowshop import localsearch, nsga2, seeding
from greenflowshop.instance import (
    Instance,
    check_permutation,
    generate_instance,
    load_table3,
    taillard_instance,
)
from greenflowshop.nsga2 import (
    RunConfig,
    _ox_child,
    _select_next,
    evolve,
    generations,
    init_population,
    order_crossover,
    swap_mutation,
    tournament_select,
)
from greenflowshop.objectives import Objectives, evaluate
from greenflowshop.pareto import (
    Individual,
    dominates,
    fast_nondominated_sort,
    rank_population,
    unique_sorted,
)
from greenflowshop.seeding import STREAM_INIT, STREAM_LOCAL, STREAM_VARIATION, Draws
from support import (
    enumerate_front,
    naive_dominates,
    reference_crowding_distance,
    reference_nondominated_sort,
    reference_ox_child,
)

TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


def ind(ft, ec, perm=(0, 1)):
    return Individual(perm, Objectives(ft, float(ec)))


class _FixedCuts:
    """`Draws` stand-in handing out scripted crossover cut points."""

    def __init__(self, lo, hi):
        self.pair = (lo, hi)

    def choice(self, n, k):
        return list(self.pair)


class TestRunConfig:
    def test_defaults_match_tuned_parameters(self):
        cfg = RunConfig()
        assert (cfg.pop_size, cfg.generations) == (200, 50)
        assert (cfg.p_crossover, cfg.p_mutation) == (0.6, 0.05)
        assert cfg.ls_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pop_size": 1},
            {"p_crossover": 1.5},
            {"p_mutation": -0.1},
            {"generations": -1},
            {"kappa": 0.0},
            {"kappa": -1.0},
            {"kappa": math.nan},
            {"kappa": math.inf},
            {"kappa": -math.inf},
            {"pop_size": 4.0},
            {"generations": 1.5},
            {"generations": True},
            {"seed": 1.5},
            {"seed": np.int64(3)},
            {"seed": False},
            {"ls_enabled": "off"},
            {"ls_enabled": 1},
            {"p_crossover": True},
            {"kappa": True},
            {"p_mutation": "0.1"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RunConfig(**kwargs)


class TestInitPopulation:
    def test_reproducible_and_valid(self, table3):
        cfg = RunConfig(pop_size=4, seed=5)
        a = init_population(table3, cfg)
        b = init_population(table3, cfg)
        assert [i.perm for i in a] == [i.perm for i in b]
        for member in a:
            check_permutation(member.perm, table3.n_jobs)
            assert member.obj == evaluate(table3, member.perm)

    def test_single_job(self):
        inst = Instance.from_matrix([[2]], [700])
        pop = init_population(inst, RunConfig(pop_size=6, seed=0))
        assert all(i.perm == (0,) for i in pop)

    def test_full_size(self, table3):
        pop = init_population(table3, RunConfig(pop_size=200, seed=1))
        assert len(pop) == 200


class TestTournament:
    def test_lower_rank_wins(self):
        a, b = ind(1, 1), ind(2, 2)
        a.rank, b.rank = 1, 2
        a.crowding = b.crowding = 1.0
        pop = [a, b]
        rng = Draws(0)
        for _ in range(10):
            assert tournament_select(pop, rng) is a

    def test_crowding_breaks_tie(self):
        a, b = ind(1, 2), ind(2, 1)
        a.rank = b.rank = 1
        a.crowding, b.crowding = math.inf, 4.0
        pop = [a, b]
        rng = Draws(0)
        for _ in range(10):
            assert tournament_select(pop, rng) is a

    @pytest.mark.parametrize("size", [2, 5])
    def test_full_tie_keeps_first_draw(self, size):
        # equal rank and crowding: the winner is the first member drawn,
        # read off a twin `Draws` on the same seed
        pop = [ind(k, size - k) for k in range(size)]
        for member in pop:
            member.rank, member.crowding = 1, 4.0
        draws, twin = Draws(5), Draws(5)
        for _ in range(30):
            first, _ = twin.choice(size, 2)
            assert tournament_select(pop, draws) is pop[first]

    def test_closure_on_two_members(self):
        a, b = ind(1, 1), ind(2, 2)
        a.rank = b.rank = 1
        a.crowding = b.crowding = 1.0
        pop = [a, b]
        rng = Draws(1)
        for _ in range(20):
            assert tournament_select(pop, rng) in pop


class TestOrderCrossover:
    def test_identical_parents_fixed_point(self):
        rng = Draws(0)
        p = (3, 1, 4, 0, 2)
        for _ in range(20):
            ca, cb = order_crossover(p, p, rng)
            assert ca == p and cb == p

    def test_closure(self):
        rng = Draws(7)
        py = random.Random(7)
        for _ in range(200):
            n = py.randint(2, 9)
            pa = tuple(py.sample(range(n), n))
            pb = tuple(py.sample(range(n), n))
            ca, cb = order_crossover(pa, pb, rng)
            assert sorted(ca) == list(range(n))
            assert sorted(cb) == list(range(n))

    def test_two_job_cut_trace(self):
        # keep slot 0 from the first parent, refill the rest from the second
        ca, cb = order_crossover((1, 2), (2, 1), _FixedCuts(0, 1))
        assert ca == (1, 2)
        assert cb == (2, 1)

    def test_segment_kept_in_place(self):
        ca, _ = order_crossover((1, 2, 3, 4, 5), (5, 4, 3, 2, 1), _FixedCuts(2, 4))
        assert ca[2:4] == (3, 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            order_crossover((0, 1), (0, 1, 2), Draws(0))

    def test_child_matches_reference_for_every_cut_pair(self):
        # Renaming the jobs renames the child alike, so an identity keeper
        # against every donor covers every parent pair up to 6 jobs.
        def cases():
            for n in range(1, 7):
                for donor in itertools.permutations(range(n)):
                    yield tuple(range(n)), donor
            rng = random.Random(8)
            for n in (7, 8):
                for _ in range(300):
                    yield tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))

        for keeper, donor in cases():
            n = len(keeper)
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    assert _ox_child(keeper, donor, lo, hi) == reference_ox_child(
                        keeper, donor, lo, hi
                    )


class TestSwapMutation:
    def test_preserves_jobs(self):
        rng = Draws(0)
        base = tuple(range(7))
        for _ in range(100):
            out = swap_mutation(base, rng)
            assert sorted(out) == list(range(7))
            assert sum(a != b for a, b in zip(base, out)) == 2

    def test_single_job_identity(self):
        assert swap_mutation((0,), Draws(0)) == (0,)


def elite_retention(parents, offspring):
    """The survivor selection `evolve` runs on parents plus offspring."""
    return _select_next(rank_population(parents + offspring), len(parents))


class TestEliteRetention:
    def test_dominated_offspring_discarded(self):
        parents = [ind(1, 1), ind(2, 1)]
        offspring = [ind(5, 5), ind(6, 6)]
        kept = elite_retention(parents, offspring)
        assert set(map(id, kept)) == set(map(id, parents))

    def test_dominating_offspring_take_over(self):
        parents = [ind(5, 5), ind(6, 6)]
        offspring = [ind(1, 1), ind(2, 1)]
        kept = elite_retention(parents, offspring)
        assert set(map(id, kept)) == set(map(id, offspring))

    def test_partial_front_truncated_by_crowding(self):
        # merged rank-1 holds three chain points with crowding (inf, 4, inf);
        # only the two boundary members survive at population size 2
        parents = [ind(1, 3), ind(2, 2)]
        offspring = [ind(3, 1), ind(9, 9)]
        kept = elite_retention(parents, offspring)
        objs = sorted((i.obj.flowtime, i.obj.energy) for i in kept)
        assert objs == [(1, 3.0), (3, 1.0)]

    def test_output_size(self):
        rng = random.Random(1)
        parents = [ind(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(8)]
        offspring = [ind(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(8)]
        assert len(elite_retention(parents, offspring)) == 8

    def test_oversized_first_front_recrowded_in_kept_order(self):
        # one front of seven (crowding inf, 5, 5, 6, 6, 6, inf) and a point
        # it dominates; four survive, by descending crowding, stable on ties
        points = [(1, 9), (2, 7), (3, 6), (4, 4), (6, 3), (7, 1), (9, 0), (10, 10)]
        pool = [ind(ft, ec) for ft, ec in points]
        fronts = rank_population(pool)
        assert [len(front) for front in fronts] == [7, 1]
        kept = _select_next(fronts, 4)
        assert [pool.index(i) for i in kept] == [0, 6, 3, 4]
        assert [(i.rank, i.crowding) for i in kept] == [
            (1, math.inf), (1, math.inf), (1, 11.0), (1, 9.0)
        ]
        assert [(i.rank, i.crowding) for i in kept] == _fresh_ranking(kept)


    @pytest.mark.parametrize("size", [3, 5, 8, 12])
    def test_front_of_copies_truncated_as_reference(self, monkeypatch, size):
        # an elitist pool: rank 1 holds copies of four points, more than fit;
        # the survivors, their order and their crowding bits are those the
        # reference sort and crowding give, and a fresh ranking's
        points = [(1, 9.5), (3, 6.25), (4, 2.5), (8, 1.0), (9, 9.0), (12, 3.0)]
        rng = random.Random(size)
        layout = [rng.choice([0, 1, 1, 2, 2, 2, 3, 4, 5]) for _ in range(2 * size)]
        pool = [ind(*points[k]) for k in layout]
        twin = [ind(*points[k]) for k in layout]
        kept = _select_next(rank_population(pool), size)
        assert sum(i.rank == 1 for i in pool) > size
        fronts = reference_nondominated_sort(twin)
        for front in fronts:
            reference_crowding_distance(front)
        monkeypatch.setattr(nsga2, "crowding_distance", reference_crowding_distance)
        expected = _select_next(fronts, size)
        assert [pool.index(i) for i in kept] == [twin.index(i) for i in expected]
        assert [(i.rank, repr(i.crowding)) for i in kept] == [
            (i.rank, repr(i.crowding)) for i in expected
        ]
        assert [(i.rank, i.crowding) for i in kept] == _fresh_ranking(kept)


def _fresh_ranking(pop):
    """(rank, crowding) of each member when copies of `pop` are ranked anew."""
    copies = [Individual(i.perm, i.obj) for i in pop]
    rank_population(copies)
    return [(c.rank, c.crowding) for c in copies]


class TestSurvivorsKeepTheirRanks:
    """Survivors are not ranked again: dropping whole worse fronts changes no
    rank and no full front's crowding, and the truncated front is crowded
    anew as kept.  Every generation's population must read exactly what a
    fresh `rank_population` over it gives."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("ls_enabled", [True, False], ids=["descent", "ga-only"])
    def test_population_reads_a_fresh_ranking(self, table3, seed, ls_enabled):
        truncated = []
        config = RunConfig(pop_size=15, generations=6, seed=seed, ls_enabled=ls_enabled)
        for _, merged, pop in generations(table3, config):
            assert [(i.rank, i.crowding) for i in pop] == _fresh_ranking(pop)
            worst = max(i.rank for i in pop)
            truncated.append(
                sum(i.rank == worst for i in merged) > sum(i.rank == worst for i in pop)
            )
        # generation 0 is its own pool, so it truncates nothing
        assert len(truncated) == 7 and not truncated[0] and any(truncated)


class TestEvolve:
    def test_two_job_instance_exact_front(self):
        front = evolve(TOY, RunConfig(pop_size=4, generations=3, seed=2))
        assert [(i.obj.flowtime, i.obj.energy) for i in front] == [(18, 40.0)]
        assert front[0].perm == (1, 0)

    def test_zero_generations_returns_initial_front(self, table3):
        cfg = RunConfig(pop_size=12, generations=0, seed=4)
        front = evolve(table3, cfg)
        pop = init_population(table3, cfg)
        expected = {
            i.obj for i in fast_nondominated_sort(pop)[0]
        }
        assert {i.obj for i in front} == expected

        # the stream yields generations 0..G, and `evolve` returns the last
        # population's rank-1 members
        for config in (cfg, replace(cfg, generations=3)):
            seen = []
            for gen, pool, pop in generations(table3, config):
                if gen == 0:
                    assert pool is pop
                assert len(pop) == config.pop_size
                seen.append(gen)
            assert seen == list(range(config.generations + 1))
            last = unique_sorted(i for i in pop if i.rank == 1)
            assert _front_fingerprint(evolve(table3, config)) == _front_fingerprint(last)

    def test_bit_level_determinism(self, table3):
        cfg = RunConfig(pop_size=20, generations=6, seed=9)
        a = evolve(table3, cfg)
        b = evolve(table3, cfg)
        assert [(i.perm, i.obj) for i in a] == [(i.perm, i.obj) for i in b]

    def test_front_is_deduplicated_and_sorted(self, table3):
        front = evolve(table3, RunConfig(pop_size=16, generations=5, seed=3))
        objs = [(i.obj.flowtime, i.obj.energy) for i in front]
        assert objs == sorted(objs)
        assert len(set(objs)) == len(objs)

    def test_permutations_valid_throughout(self, table3):
        seen = []
        for gen, merged, pop in generations(table3, RunConfig(pop_size=10, generations=4, seed=6)):
            for member in merged + pop:
                check_permutation(member.perm, table3.n_jobs)
            seen.append(gen)
        assert seen == [0, 1, 2, 3, 4]

    def test_retained_rank1_nondominated_in_merged_pool(self, table3):
        for _, merged, pop in generations(table3, RunConfig(pop_size=10, generations=4, seed=7)):
            pool_objs = [m.obj for m in merged]
            for member in pop:
                if member.rank == 1:
                    assert not any(dominates(o, member.obj) for o in pool_objs)

    def test_matches_exhaustive_front_on_three_jobs(self):
        rng = random.Random(12)
        inst = Instance.from_matrix(
            [[rng.randint(1, 99) for _ in range(3)] for _ in range(3)],
            [rng.randint(700, 1500) for _ in range(3)],
        )
        _, exact = enumerate_front(inst)
        front = evolve(inst, RunConfig(pop_size=12, generations=10, seed=1))
        assert {i.obj for i in front} == set(exact.values())

    def test_ls_off_runs(self, table3):
        front = evolve(table3, RunConfig(pop_size=10, generations=3, seed=2,
                                         ls_enabled=False))
        assert front


@functools.cache
def _exact_front(n_machines):
    return enumerate_front(generate_instance(8, n_machines, 1))


class TestExactFrontRecall:
    """A default solve of a generated 8-job shop returns its exact front,
    found by pricing all 40,320 permutations: every point and no other.
    The descent carries this; without it, solver seed 0 finds only 3 of
    the 11 points on 8x5 and 5 of the 8 on 8x10."""

    @pytest.mark.parametrize("n_machines, seed", [(5, 0), (5, 1), (10, 0), (10, 1)])
    def test_default_solve_returns_the_exact_front(self, n_machines, seed):
        objs, exact = _exact_front(n_machines)
        assert len(set(exact.values())) == {5: 11, 10: 8}[n_machines]
        front = evolve(generate_instance(8, n_machines, 1), RunConfig(seed=seed))
        assert {member.obj for member in front} == set(exact.values())
        assert all(objs[member.perm] == member.obj for member in front)

    def test_sorted_filter_matches_the_all_pairs_scan(self):
        # with times of 0-2 minutes (every other shop) and powers of 1-3,
        # equal points, which dominate nothing, are common
        rng = random.Random(21)
        for n in range(1, 7):
            for top in (2, 99):
                times = [[rng.randint(0, top) for _ in range(3)] for _ in range(n)]
                inst = Instance.from_matrix(times, [rng.randint(1, 3) for _ in range(3)])
                objs, front = enumerate_front(inst)
                points = set(objs.values())
                naive = {perm: obj for perm, obj in objs.items()
                         if not any(naive_dominates(other, obj) for other in points)}
                assert list(front.items()) == list(naive.items())


def _front_fingerprint(front) -> str:
    digest = hashlib.sha256()
    for member in front:
        triple = (member.perm, member.obj.flowtime, repr(member.obj.energy))
        digest.update(repr(triple).encode())
    return digest.hexdigest()


class TestSeededFronts:
    """Fixed-seed fronts pinned byte for byte (permutation, flowtime and the
    energy's repr): a speed-up of any layer must leave these unchanged."""

    @pytest.mark.parametrize("instance, config, expected", [
        pytest.param(
            load_table3, RunConfig(pop_size=20, generations=5, seed=7),
            "ceaa7a37a9f7f7d355cab9b15a09715d88736b3ed32e39dbc62c10100bb511fa",
            id="table3-descent",
        ),
        pytest.param(
            lambda: taillard_instance(20, 5, 1),
            RunConfig(pop_size=30, generations=10, seed=7, ls_enabled=False),
            "beb17272f1805a881b6b6e114686878ab1926ed40a47c582ae61171c920cca56",
            id="ta20x5-1-ga-only",
        ),
        pytest.param(
            lambda: generate_instance(50, 10, 3),
            RunConfig(pop_size=8, generations=2, seed=7),
            "8a56209540ed09f053be9eabad6c259f54c983dde51a4b3d11c56c07d0ab0222",
            id="random-50x10-descent",
        ),
        pytest.param(
            # long enough for descent starts to repeat across generations
            load_table3, RunConfig(pop_size=40, generations=30, seed=7),
            "1eb315f59a00c43e1e3eda12700e2d507b38e4d2c1ecf1347c4d7493ee919d85",
            id="table3-descent-long",
        ),
    ])
    def test_front_fingerprint(self, instance, config, expected):
        assert _front_fingerprint(evolve(instance(), config)) == expected


class _RawOnly:
    """A PCG64 stand-in with the raw bit stream only: calling a `Generator`
    method, or building a `Generator` on it, fails.  `made` counts the
    streams built, by the first entry of their spawn key (None for none)."""

    made: Counter = Counter()
    pcg64 = seeding.PCG64  # the real one, bound before any test patches it

    def __init__(self, sequence):
        self.random_raw = self.pcg64(sequence).random_raw
        _RawOnly.made[sequence.spawn_key[0] if sequence.spawn_key else None] += 1


class TestRawStreamOnly:
    """Every seeded draw in `src/` reads the raw stream alone."""

    @pytest.fixture(autouse=True)
    def raw_only(self, monkeypatch):
        monkeypatch.setattr(_RawOnly, "made", Counter())
        monkeypatch.setattr(seeding, "PCG64", _RawOnly)

    def test_evolve_calls_no_generator_method(self, table3, monkeypatch):
        front = evolve(table3, RunConfig())
        assert _RawOnly.made == {STREAM_INIT: 1, STREAM_VARIATION: 50, STREAM_LOCAL: 50}
        monkeypatch.undo()
        assert _front_fingerprint(front) == _front_fingerprint(evolve(table3, RunConfig()))

    def test_generate_calls_no_generator_method(self, monkeypatch):
        instance = generate_instance(60, 20, 3)
        assert _RawOnly.made == {None: 1}
        monkeypatch.undo()
        assert instance == generate_instance(60, 20, 3)


class TestPricedOnce:
    """Offspring equal to a population member or an earlier sibling reuse
    its objectives, so a permutation reaches `evaluate` once among one
    generation's offspring.  Descents from a start that began more than one
    descent in the previous generation too share one memo of the moves
    they resolved, also with that generation's descents from the start,
    and the start keeps that memo for as long as it keeps repeating."""

    def test_no_repeat_reaches_evaluate(self, table3, monkeypatch):
        gens = []  # one record per generation
        starts = []  # the start of the descent under way
        memos = {}  # id(memo) -> memo, holding each store alive
        built = []  # the (incumbent, move) pair of each neighbour built
        explore, build = nsga2.vnd_explore, localsearch.neighbour
        offspring_eval, descent_eval = nsga2.evaluate, localsearch.evaluate

        def counted_offspring_eval(instance, perm, *args):
            if gens:  # init_population evaluates before the first generation
                gens[-1].offspring.append(perm)
            return offspring_eval(instance, perm, *args)

        def counted_explore(start, *args, memo=None):
            gens[-1].descents[start.perm] += 1
            gens[-1].stored[start.perm].add(None if memo is None else id(memo))
            if memo is not None:
                memos[id(memo)] = memo
            starts.append(start.perm)
            try:
                return explore(start, *args, memo=memo)
            finally:
                starts.pop()

        def counted_neighbour(perm, move):
            built.append((perm, move))
            return build(perm, move)

        def counted_descent_eval(price, perm, *args):
            assert build(*built[-1])[1] == perm
            gens[-1].priced[starts[-1]].append(built[-1])
            return descent_eval(price, perm, *args)

        monkeypatch.setattr(nsga2, "evaluate", counted_offspring_eval)
        monkeypatch.setattr(nsga2, "vnd_explore", counted_explore)
        monkeypatch.setattr(localsearch, "neighbour", counted_neighbour)
        monkeypatch.setattr(localsearch, "evaluate", counted_descent_eval)
        config = RunConfig(pop_size=20, generations=10, seed=7)
        for gen, _, pop in generations(table3, config):
            if gen < config.generations:  # the next generation breeds from `pop`
                gens.append(SimpleNamespace(
                    pop={m.perm for m in pop}, offspring=[], descents=Counter(),
                    stored=defaultdict(set), priced=defaultdict(list),
                ))

        assert len(gens) == 10
        stored_starts = carried = 0
        previous_repeated, previous, seen = set(), {}, set()
        for gen in gens:
            assert not gen.pop.intersection(gen.offspring)
            assert len(set(gen.offspring)) == len(gen.offspring)
            repeated = {perm for perm, count in gen.descents.items() if count > 1}
            # a store from a start's second consecutive repeated generation on,
            # one memo shared by all of that generation's descents from it
            returning = repeated & previous_repeated
            for perm, stored in gen.stored.items():
                assert len(stored) == 1 and (None not in stored) == (perm in returning)
            for perm in returning:
                (store,) = gen.stored[perm]
                pairs = gen.priced[perm]
                assert len(set(pairs)) == len(pairs)
                if perm in previous:  # the start keeps its memo
                    assert store == previous[perm][0]
                    assert not previous[perm][1].intersection(pairs)
                    carried += 1
                else:  # a new memo
                    assert store not in seen
                seen.add(store)
            stored_starts += len(returning)
            previous_repeated = repeated
            previous = {perm: (*gen.stored[perm], set(gen.priced[perm])) for perm in returning}
        # the run must exercise both sharing within and carrying across generations
        assert stored_starts > 0 and carried > 0
