import hashlib
import math
import random
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from greenflowshop import localsearch, nsga2
from greenflowshop.instance import (
    Instance,
    check_permutation,
    generate_instance,
    load_table3,
    taillard_instance,
)
from greenflowshop.nsga2 import (
    RunConfig,
    elite_retention,
    evolve,
    init_population,
    order_crossover,
    swap_mutation,
    tournament_select,
)
from greenflowshop.objectives import Objectives, evaluate
from greenflowshop.pareto import Individual, dominates, fast_nondominated_sort
from support import enumerate_front

TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


def ind(ft, ec, perm=(0, 1)):
    return Individual(perm, Objectives(ft, float(ec)))


class _FixedCuts:
    """rng stand-in handing out scripted crossover cut points."""

    def __init__(self, lo, hi):
        self.pair = (lo, hi)

    def choice(self, n, size, replace):
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
            {"ls_front_cap": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
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
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert tournament_select(pop, rng) is a

    def test_crowding_breaks_tie(self):
        a, b = ind(1, 2), ind(2, 1)
        a.rank = b.rank = 1
        a.crowding, b.crowding = math.inf, 4.0
        pop = [a, b]
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert tournament_select(pop, rng) is a

    def test_closure_on_two_members(self):
        a, b = ind(1, 1), ind(2, 2)
        a.rank = b.rank = 1
        a.crowding = b.crowding = 1.0
        pop = [a, b]
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert tournament_select(pop, rng) in pop


class TestOrderCrossover:
    def test_identical_parents_fixed_point(self):
        rng = np.random.default_rng(0)
        p = (3, 1, 4, 0, 2)
        for _ in range(20):
            ca, cb = order_crossover(p, p, rng)
            assert ca == p and cb == p

    def test_closure(self):
        rng = np.random.default_rng(7)
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
            order_crossover((0, 1), (0, 1, 2), np.random.default_rng(0))


class TestSwapMutation:
    def test_preserves_jobs(self):
        rng = np.random.default_rng(0)
        base = tuple(range(7))
        for _ in range(100):
            out = swap_mutation(base, rng)
            assert sorted(out) == list(range(7))
            assert sum(a != b for a, b in zip(base, out)) == 2

    def test_single_job_identity(self):
        assert swap_mutation((0,), np.random.default_rng(0)) == (0,)


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

    def test_bit_level_determinism(self, table3):
        cfg = RunConfig(pop_size=20, generations=6, seed=9, ls_front_cap=8)
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

        def check(gen, merged, pop):
            for member in merged + pop:
                check_permutation(member.perm, table3.n_jobs)
            seen.append(gen)

        evolve(table3, RunConfig(pop_size=10, generations=4, seed=6),
               on_generation=check)
        assert seen == [1, 2, 3, 4]

    def test_retained_rank1_nondominated_in_merged_pool(self, table3):
        def check(gen, merged, pop):
            pool_objs = [m.obj for m in merged]
            for member in pop:
                if member.rank == 1:
                    assert not any(dominates(o, member.obj) for o in pool_objs)

        evolve(table3, RunConfig(pop_size=10, generations=4, seed=7),
               on_generation=check)

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

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_kappa_not_positive_and_finite(self, kappa):
        def no_work(*args):
            raise AssertionError("solver work started")

        with pytest.raises(ValueError, match="kappa"):
            evolve(TOY, RunConfig(pop_size=4, generations=1), kappa=kappa,
                   on_generation=no_work)


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


class TestPricedOnce:
    """Offspring equal to a population member or an earlier sibling reuse
    its objectives, so a permutation reaches `evaluate` once among one
    generation's offspring.  Descents from a start that began more than one
    descent in the previous generation too share the neighbours they
    priced, also with that generation's descents from the start."""

    def test_no_repeat_reaches_evaluate(self, table3, monkeypatch):
        gens = []  # one record per generation
        starts = []  # the start of the descent under way
        make_offspring, explore = nsga2._make_offspring, nsga2.vnd_explore
        offspring_eval, descent_eval = nsga2.evaluate, localsearch.evaluate

        def counted_offspring(instance, pop, *args):
            gens.append(SimpleNamespace(
                pop={m.perm for m in pop}, offspring=[], descents=Counter(),
                stored=defaultdict(set), priced=defaultdict(list),
            ))
            return make_offspring(instance, pop, *args)

        def counted_offspring_eval(instance, perm, *args):
            if gens:  # init_population evaluates before the first generation
                gens[-1].offspring.append(perm)
            return offspring_eval(instance, perm, *args)

        def counted_explore(start, *args, priced=None):
            gens[-1].descents[start.perm] += 1
            gens[-1].stored[start.perm].add(priced is not None)
            starts.append(start.perm)
            try:
                return explore(start, *args, priced=priced)
            finally:
                starts.pop()

        def counted_descent_eval(instance, perm, *args):
            gens[-1].priced[starts[-1]].append(perm)
            return descent_eval(instance, perm, *args)

        monkeypatch.setattr(nsga2, "_make_offspring", counted_offspring)
        monkeypatch.setattr(nsga2, "evaluate", counted_offspring_eval)
        monkeypatch.setattr(nsga2, "vnd_explore", counted_explore)
        monkeypatch.setattr(localsearch, "evaluate", counted_descent_eval)
        evolve(table3, RunConfig(pop_size=20, generations=10, seed=7))

        assert len(gens) == 10
        stored_starts = carried = 0
        previous_repeated, previous = set(), {}
        for gen in gens:
            assert not gen.pop.intersection(gen.offspring)
            assert len(set(gen.offspring)) == len(gen.offspring)
            repeated = {perm for perm, count in gen.descents.items() if count > 1}
            # a store from a start's second consecutive repeated generation on
            returning = repeated & previous_repeated
            for perm, stored in gen.stored.items():
                assert stored == {perm in returning}
            for perm in returning:
                priced = gen.priced[perm]
                assert len(set(priced)) == len(priced)
                assert not previous.get(perm, set()).intersection(priced)
                carried += perm in previous
            stored_starts += len(returning)
            previous_repeated = repeated
            previous = {perm: set(gen.priced[perm]) for perm in returning}
        # the run must exercise both sharing within and carrying across generations
        assert stored_starts > 0 and carried > 0
