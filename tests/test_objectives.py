import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenflowshop import localsearch
from greenflowshop.instance import Instance
from greenflowshop.localsearch import (
    NEIGHBORHOOD_OPS,
    insert_job,
    neighbour,
    reverse_window,
    swap_positions,
    vnd_explore,
)
from greenflowshop.objectives import DEFAULT_KAPPA, evaluate, simulate_oracle
from greenflowshop.pareto import Individual
from greenflowshop.seeding import Draws
from support import random_instance, reference_states

TOY = Instance.from_matrix([[3, 4], [2, 5]], [600, 1200])


class TestWorkedExample:
    """2 jobs x 2 machines, powers (600, 1200): values derived by hand from
    the completion/standby recurrences and confirmed by the event simulation.
    Job 1 first completes at (3, 7) and (5, 12); job 2 first completes at
    (2, 7) and (5, 11)."""

    def test_standby_job1_first(self):
        # machine 2 waits 3 minutes for the first job; kappa 1 keeps power-minutes
        assert evaluate(TOY, (0, 1), kappa=1.0).energy == 3 * 1200

    def test_standby_job2_first(self):
        assert evaluate(TOY, (1, 0), kappa=1.0).energy == 2 * 1200

    def test_flowtimes(self):
        assert evaluate(TOY, (0, 1)).flowtime == 7 + 12
        assert evaluate(TOY, (1, 0)).flowtime == 7 + 11

    def test_energies_exact(self):
        assert evaluate(TOY, (0, 1)).energy == 60.0
        assert evaluate(TOY, (1, 0)).energy == 40.0

    def test_evaluate_pairs_exact(self):
        assert evaluate(TOY, (0, 1)) == (19, 60.0)
        assert evaluate(TOY, (1, 0)) == (18, 40.0)

    def test_oracle_agrees(self):
        assert simulate_oracle(TOY, (0, 1)) == (19, 60.0)
        assert simulate_oracle(TOY, (1, 0)) == (18, 40.0)


class TestBaseCases:
    def test_single_cell(self):
        inst = Instance.from_matrix([[5]], [900])
        assert evaluate(inst, (0,)) == (5, 0.0)
        assert simulate_oracle(inst, (0,)) == (5, 0.0)

    @given(st.lists(st.integers(1, 50), min_size=3, max_size=3))
    def test_single_machine_telescopes(self, times):
        a, b, c = times
        inst = Instance.from_matrix([[a], [b], [c]], [1000])
        obj = evaluate(inst, (0, 1, 2))
        assert obj.flowtime == 3 * a + 2 * b + c
        assert obj.energy == 0.0

    def test_machine_one_never_waits(self):
        # so its power rating never enters the energy
        for inst, perm in _random_cases():
            powers = (inst.fixed_power[0] * 7 + 1, *inst.fixed_power[1:])
            changed = Instance.from_matrix(inst.proc_time, powers)
            assert evaluate(changed, perm) == evaluate(inst, perm)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(TOY, (0, 1, 2))
        with pytest.raises(ValueError):
            evaluate(TOY, (0, 0))


def _random_cases():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        inst = random_instance(rng, n, m)
        perm = tuple(rng.sample(range(n), n))
        yield inst, perm


@st.composite
def shops(draw):
    """A shop of up to 6 jobs and 5 machines (zero times allowed) and one
    of its permutations.  Some shops also draw times near 2^44 to 2^58 and
    `int` powers of 2^53 or more, where doubles stop being exact; powers
    stay as drawn, so `int` ones reach the kernel as `int`s."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    time = st.integers(0, 99)
    power = st.integers(1, 1500) | st.floats(0.5, 5000.0)
    if draw(st.booleans()):
        time |= st.integers(2**44, 2**58)
        power |= st.integers(2**53, 2**62)
    times = draw(st.lists(st.tuples(*[time] * m), min_size=n, max_size=n))
    powers = draw(st.tuples(*[power] * m))
    perm = draw(st.permutations(range(n)))
    return Instance(n, m, tuple(times), powers), tuple(perm)


class TestInvariants:
    def test_flowtime_bounds(self):
        for inst, perm in _random_cases():
            assert evaluate(inst, perm).flowtime >= sum(inst.proc_time[j][-1] for j in perm)

    @given(shops(), st.sampled_from([DEFAULT_KAPPA, 1.0, 0.37]))
    def test_oracle_agrees_exactly(self, shop, kappa):
        inst, perm = shop
        got, expected = evaluate(inst, perm, kappa), simulate_oracle(inst, perm, kappa)
        assert got.flowtime == expected.flowtime
        assert repr(got.energy) == repr(expected.energy)

    def test_oracle_equivalence(self):
        for inst, perm in _random_cases():
            a = evaluate(inst, perm)
            b = simulate_oracle(inst, perm)
            assert a.flowtime == b.flowtime
            assert a.energy == pytest.approx(b.energy, rel=1e-9)

    def test_relabeling_symmetry(self):
        # renaming jobs (and permuting matrix rows to match) changes nothing
        rng = random.Random(5)
        for _ in range(40):
            n, m = rng.randint(2, 6), rng.randint(1, 4)
            inst = random_instance(rng, n, m)
            relabel = list(range(n))
            rng.shuffle(relabel)  # relabel[old] = new
            rows = [None] * n
            for old, new in enumerate(relabel):
                rows[new] = inst.proc_time[old]
            relabeled = Instance.from_matrix(rows, inst.fixed_power)
            perm = tuple(rng.sample(range(n), n))
            mapped = tuple(relabel[j] for j in perm)
            assert evaluate(inst, perm) == evaluate(relabeled, mapped)

    def test_power_scaling_scales_energy_only(self):
        rng = random.Random(6)
        for _ in range(40):
            n, m = rng.randint(2, 6), rng.randint(2, 4)
            inst = random_instance(rng, n, m)
            doubled = Instance.from_matrix(
                inst.proc_time, [2 * p for p in inst.fixed_power]
            )
            perm = tuple(rng.sample(range(n), n))
            base = evaluate(inst, perm)
            scaled = evaluate(doubled, perm)
            assert scaled.flowtime == base.flowtime
            assert scaled.energy == 2 * base.energy

    def test_kappa_scales_linearly(self):
        obj_1 = evaluate(TOY, (0, 1), kappa=1.0)
        assert obj_1.energy == 3600.0
        assert evaluate(TOY, (0, 1), kappa=0.5).energy == 1800.0
        assert DEFAULT_KAPPA == pytest.approx(1 / 60)


@st.composite
def neighbour_moves(draw):
    """A shop, an incumbent, one of its neighbours and the neighbour's first
    changed position: a swap, a reversal or a reinsertion, or a neighbour
    sharing no prefix (k = 0) or all of it (k = n)."""
    inst, perm = draw(shops())
    n = inst.n_jobs
    kind = draw(st.sampled_from(["swap", "reverse", "insert", "k=0", "k=n"]))
    if kind == "k=n" or n == 1:
        return inst, perm, perm, n
    if kind == "k=0":
        other = draw(st.permutations(range(n)).filter(lambda p: p[0] != perm[0]))
        return inst, perm, tuple(other), 0
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
    if kind == "swap":
        return inst, perm, swap_positions(perm, i, j), min(i, j)
    if kind == "reverse":
        return inst, perm, reverse_window(perm, min(i, j), max(i, j) + 1), min(i, j)
    return inst, perm, insert_job(perm, i, j), min(i, j)


def _built(inst, perm, start=0, states=None):
    """`perm`'s states as the descent builds them with `localsearch._schedule`:
    from scratch, or resumed at `start` on a copy of `states`, another
    permutation's that agrees with `perm` before `start`."""
    states = [((0,) * inst.n_machines, 0)] if states is None else list(states)
    localsearch._schedule(localsearch._pricer(inst), perm, start, states)
    return states


def _descent_price(inst, perm, kappa, k, states):
    """`localsearch.evaluate` with the kernel bound to `inst`, as the
    descent calls it: a plain (flowtime, energy) pair."""
    return localsearch.evaluate(localsearch._pricer(inst), perm, kappa, k, states)


class TestPrefix:
    """The states of a permutation's prefixes are built and resumed only
    inside the descent, by `localsearch._schedule`; it prices a neighbour
    from them through `localsearch.evaluate`, which checks nothing and
    returns a plain pair, and the public `evaluate` takes them in no form."""

    @given(neighbour_moves(), st.sampled_from([DEFAULT_KAPPA, 1.0, 0.37]))
    def test_prefix_path_agrees_exactly(self, move, kappa):
        inst, incumbent, neighbour, start = move
        states = _built(inst, incumbent)
        flowtime, energy = _descent_price(inst, neighbour, kappa, start, states)
        for expected in (evaluate(inst, neighbour, kappa),
                         simulate_oracle(inst, neighbour, kappa)):
            assert flowtime == expected.flowtime
            assert repr(energy) == repr(expected.energy)
        assert _built(inst, neighbour, start, states) == _built(inst, neighbour)

    def test_states_follow_the_worked_example(self):
        # job 1 first completes at (3, 7), then job 2 at (5, 12)
        assert _built(TOY, (0, 1)) == [((0, 0), 0), ((3, 7), 7), ((5, 12), 19)]
        # resumed at 0 from (1, 0)'s states, which share only the empty prefix
        assert _built(TOY, (0, 1), 0, _built(TOY, (1, 0))) == _built(TOY, (0, 1))

    def test_prefix_does_not_skip_the_permutation_check(self):
        # (0, 0) agrees with (0, 1) before 1, and the public price still
        # checks it, from scratch, and refuses states as its base
        states = _built(TOY, (0, 1))
        with pytest.raises(ValueError, match="bijection"):
            evaluate(TOY, (0, 0))
        with pytest.raises(TypeError, match="Instance"):
            evaluate(states, (0, 0))

    def test_prefix_of_a_non_permutation_is_refused(self, monkeypatch):
        # every neighbour priced from such states would be mispriced, so the
        # descent refuses the start before it builds any
        built = []
        monkeypatch.setattr(localsearch, "_schedule", lambda *a: built.append(a))
        for perm, message in (((0, 0), "bijection"), ((1, 1), "bijection"), ((0,), "length")):
            with pytest.raises(ValueError, match=message):
                vnd_explore(Individual(perm, (19, 60.0)), TOY, 15, Draws(0))
        assert built == []

    @pytest.mark.parametrize("start", [-1, -3, 3, 10])
    def test_start_outside_the_permutation_is_refused(self, start):
        # a negative start would index the states from the end and misprice;
        # the public price has no start, and the descent's comes from a move
        with pytest.raises(TypeError):
            evaluate(TOY, (1, 0), start=start)

    @pytest.mark.parametrize("start", [1, 2])
    def test_prefix_that_disagrees_before_start_is_refused(self, start):
        # resuming (1, 0) from (0, 1)'s states would price it as (19, 60.0)
        # at start 2 instead of (18, 40.0), and build wrong states
        states = _built(TOY, (0, 1))
        with pytest.raises(TypeError):  # the old resume form
            evaluate(states, (1, 0), DEFAULT_KAPPA, start)
        assert _descent_price(TOY, (1, 0), DEFAULT_KAPPA, 0, states) == (18, 40.0)
        assert evaluate(TOY, (1, 0)) == (18, 40.0)
        assert _built(TOY, (1, 0), 0, states) == _built(TOY, (1, 0))

    def test_prefix_prices_on_its_own_instance(self):
        # the descent prices states on the one shop it built them on, and
        # the public price takes none (`other` alone gives (29, 180.0))
        other = Instance.from_matrix([[9, 1], [1, 9]], [600, 1200])
        states = _built(TOY, (0, 1))
        assert _descent_price(TOY, (0, 1), DEFAULT_KAPPA, 1, states) == (19, 60.0)
        assert evaluate(TOY, (0, 1)) == (19, 60.0)
        assert evaluate(other, (0, 1)) == (29, 180.0)
        with pytest.raises(TypeError, match="Instance"):
            evaluate(states, (0, 1))
        with pytest.raises(TypeError):
            evaluate(TOY, (0, 1), DEFAULT_KAPPA, 1)
        assert _built(TOY, (0, 1), 1, states) == states
        with pytest.raises(TypeError):
            evaluate(other, (0, 1), prefix=states, start=1)
        with pytest.raises(TypeError):
            evaluate(other, (0, 1), DEFAULT_KAPPA, states, 1)


class TestEveryMachineCount:
    """Each machine count compiles its own kernel; `shops()` draws at most
    five machines, so wider shops (and m = 1, whose row unpacks through a
    trailing comma) are pinned here."""

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 10, 20, 33])
    def test_kernel_matches_oracle_and_reference(self, m):
        rng = random.Random(m)
        for n in (1, 2, 9):
            # zero times included: about a third of the operations take none
            times = [[rng.choice((0, rng.randint(1, 99), rng.randint(1, 99)))
                      for _ in range(m)] for _ in range(n)]
            powers = [rng.uniform(0.5, 5000.0) for _ in range(m)]
            inst = Instance.from_matrix(times, powers)
            _assert_every_path_exact(inst, tuple(rng.sample(range(n), n)), Draws(m))


def _assert_bit_equal(got, expected):
    flowtime, energy = got  # an `Objectives` or the descent's plain pair
    assert type(flowtime) is int
    assert flowtime == expected.flowtime
    assert repr(energy) == repr(expected.energy)


def _assert_every_path_exact(inst, perm, draws):
    """`evaluate`, and `localsearch.evaluate` from the states
    `localsearch._schedule` builds, resumed at each move's first changed
    position, price `perm` and its neighbours exactly as the oracle does,
    and the builder makes the reference states."""
    _assert_bit_equal(evaluate(inst, perm), simulate_oracle(inst, perm))
    states = _built(inst, perm)
    assert states == reference_states(inst, perm)
    for op in NEIGHBORHOOD_OPS:
        for move in op(perm, draws):
            k, other = neighbour(perm, move)
            expected = simulate_oracle(inst, other)
            got = _descent_price(inst, other, DEFAULT_KAPPA, k, states)
            _assert_bit_equal(got, expected)
            _assert_bit_equal(evaluate(inst, other), expected)
            assert inst.n_machines > 1 or repr(got[1]) == "0.0"  # nothing is charged
            resumed = _built(inst, other, k, states)
            assert resumed == _built(inst, other)
            assert resumed == reference_states(inst, other)


def _wide_shops(kind: str, count: int = 12):
    """Shops where double arithmetic can lose the last bits: times near
    2^44 to 2^58 (kind "2^s"), so that `n_jobs * sum(machine_load)` falls
    below 2^53 at the low scales, around it in the middle and above it at
    the high ones, or 0-99 minute times with `int` powers of 2^53 or more
    (kind "int-powers").  Each comes with one permutation."""
    rng = random.Random(kind)
    for _ in range(count):
        n, m = rng.randint(1, 6), rng.randint(1, 5)
        if kind == "int-powers":
            times = [[rng.randint(0, 99) for _ in range(m)] for _ in range(n)]
            top = 2**rng.randint(53, 62)
            powers = [rng.choice((rng.randint(2**53, top), rng.randint(1, 1500)))
                      for _ in range(m)]
        else:
            scale = int(kind[2:])
            times = [[rng.choice((0, rng.randint(2**(scale - 1), 2**scale)))
                      for _ in range(m)] for _ in range(n)]
            powers = [rng.choice((rng.randint(1, 1500), rng.uniform(0.5, 5000.0)))
                      for _ in range(m)]
        inst = Instance(n, m, tuple(map(tuple, times)), tuple(powers))
        yield inst, tuple(rng.sample(range(n), n))


class TestExactDoubles:
    """The kernel adds float rows only while every completion time and
    flowtime partial sum is an integer below 2^53 and every `int` power is
    below 2^53; then its prices are the integer recurrence's to the bit.
    These shops sit on both sides of that condition."""

    @pytest.mark.parametrize("kind", [f"2^{s}" for s in range(44, 59, 2)] + ["int-powers"])
    def test_every_path_matches_the_oracle(self, kind):
        for inst, perm in _wide_shops(kind):
            _assert_every_path_exact(inst, perm, Draws(inst.n_jobs, inst.n_machines))

    def test_scales_straddle_the_condition(self):
        # the shops above include float rows and int rows
        kinds = {type(inst.kernel_times[0][0])
                 for s in range(44, 59, 2) for inst, _ in _wide_shops(f"2^{s}")}
        assert kinds == {float, int}

    @pytest.mark.parametrize("total, power, rows", [
        (2**53 - 1, 1500, float),
        (2**53, 1500, int),
        (99, 2**53 - 1, float),
        (99, 2**53, int),
        (99, 2.0**60, float),
    ])
    def test_float_rows_stop_at_2_53(self, total, power, rows):
        # one job, so n_jobs * sum(machine_load) is the sum of its times
        inst = Instance(1, 3, ((total - 7, 3, 4),), (power, power, power))
        assert all(type(t) is rows for t in inst.kernel_times[0])
        assert inst.kernel_times == inst.proc_time
        _assert_bit_equal(evaluate(inst, (0,)), simulate_oracle(inst, (0,)))
