import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenflowshop.instance import Instance
from greenflowshop.nsga2 import RunConfig
from greenflowshop.tuning import (
    FACTORS,
    L16,
    LEVELS,
    DesignRow,
    pick_best_params,
    response_table,
    response_table_csv,
    responses_csv,
    run_design,
)

from support import (
    EC_RANKS,
    EC_RESPONSES,
    EC_TABLE,
    FT_RANKS,
    FT_RESPONSES,
    FT_TABLE,
    is_orthogonal,
)


class TestBuildL16:
    def test_first_and_last_rows(self):
        assert L16[0] == DesignRow(10, 25, 0.5, 0.05)
        assert L16[15] == DesignRow(100, 200, 0.5, 0.07)

    def test_sixteen_rows_four_levels(self):
        assert len(L16) == 16
        assert FACTORS == ("gen", "pop", "crossover", "mutation")
        assert tuple(LEVELS) == FACTORS
        for f, factor in enumerate(FACTORS):
            assert sorted(set(row[f] for row in L16)) == sorted(LEVELS[factor])

    def test_orthogonality(self):
        assert is_orthogonal(L16)

    def test_broken_array_detected(self):
        assert not is_orthogonal(L16[:15] + (L16[0],))


class TestResponseTable:
    def test_flowtime_means_match_published(self):
        table = response_table(FT_RESPONSES)
        for factor, expected in FT_TABLE.items():
            for got, want in zip(table.means[factor], expected):
                assert got == pytest.approx(want, abs=0.1)

    def test_flowtime_delta_and_rank(self):
        table = response_table(FT_RESPONSES)
        assert table.delta["pop"] == pytest.approx(8.5)
        assert table.rank == FT_RANKS

    def test_energy_means_match_published(self):
        table = response_table(EC_RESPONSES)
        for factor, expected in EC_TABLE.items():
            for got, want in zip(table.means[factor], expected):
                assert got == pytest.approx(want, abs=0.5)

    def test_energy_delta_and_rank(self):
        table = response_table(EC_RESPONSES)
        assert table.delta["mutation"] == pytest.approx(127, abs=0.5)
        assert table.rank == EC_RANKS

    def test_constant_responses(self):
        table = response_table([5.0] * 16)
        assert all(d == 0 for d in table.delta.values())
        assert table.rank == {"gen": 1, "pop": 2, "crossover": 3, "mutation": 4}

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            response_table([1.0] * 15)

    def test_grand_mean_recovered_from_level_means(self):
        table = response_table(FT_RESPONSES)
        grand = sum(FT_RESPONSES) / 16
        for factor in FACTORS:
            assert sum(table.means[factor]) / 4 == pytest.approx(grand)

    @given(st.floats(-50, 50))
    def test_shift_invariance_of_delta_and_rank(self, shift):
        base = response_table(FT_RESPONSES)
        shifted = response_table([r + shift for r in FT_RESPONSES])
        for factor in FACTORS:
            assert shifted.delta[factor] == pytest.approx(base.delta[factor], abs=1e-9)
        assert shifted.rank == base.rank

    def test_csv_layout(self):
        table = response_table(FT_RESPONSES)
        lines = response_table_csv(table).strip().splitlines()
        assert lines[0] == "level,gen,pop,crossover,mutation"
        assert len(lines) == 7
        assert lines[5].startswith("delta,")
        assert lines[6] == "rank,3,1,4,2"

    def test_responses_csv_layout(self):
        lines = responses_csv(FT_RESPONSES).splitlines()
        assert lines[0] == "gen,pop,crossover,mutation,response"
        assert len(lines) == 17
        assert lines[1] == f"10,25,0.5,0.05,{FT_RESPONSES[0]!r}"
        assert lines[16] == f"100,200,0.5,0.07,{FT_RESPONSES[15]!r}"
        with pytest.raises(ValueError):
            responses_csv(FT_RESPONSES[:15])


class TestPickBestParams:
    def test_reproduces_published_selection(self):
        ft = response_table(FT_RESPONSES)
        ec = response_table(EC_RESPONSES)
        assert pick_best_params(ft, ec) == {
            "generations": 50,
            "pop_size": 200,
            "p_mutation": 0.05,
            "p_crossover": 0.6,
        }

    def test_agreeing_tables_keep_their_levels(self):
        responses = list(range(16))
        ft = response_table(responses)
        ec = response_table(responses)
        picked = pick_best_params(ft, ec)
        for key, factor in (
            ("generations", "gen"),
            ("pop_size", "pop"),
            ("p_crossover", "crossover"),
            ("p_mutation", "mutation"),
        ):
            means = ft.means[factor]
            best = LEVELS[factor][means.index(max(means))]
            assert picked[key] == pytest.approx(best)


@pytest.fixture(scope="module")
def tiny():
    return Instance.from_matrix([[4, 9], [7, 2], [3, 5], [8, 1]], [900, 1100])


class TestRunDesign:
    def test_deterministic(self, tiny):
        a = run_design(tiny, RunConfig(seed=3, ls_enabled=False))
        b = run_design(tiny, RunConfig(seed=3, ls_enabled=False))
        assert a == b
        assert len(a["flowtime"]) == 16
        assert len(a["energy"]) == 16
        assert all(r >= 0 for r in a["energy"])

    def test_energy_mode_positive(self, tiny):
        responses = run_design(tiny, RunConfig(seed=3, ls_enabled=False))
        assert len(responses["energy"]) == 16
        assert all(r >= 0 for r in responses["energy"])
