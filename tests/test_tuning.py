import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenflowshop.instance import Instance
from greenflowshop.nsga2 import RunConfig
from greenflowshop.tuning import (
    DesignRow,
    build_l16,
    pick_best_params,
    response_table,
    response_table_csv,
    run_design,
    sn_ratio,
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
        design = build_l16()
        assert design.rows[0] == DesignRow(10, 25, 0.5, 0.05)
        assert design.rows[15] == DesignRow(100, 200, 0.5, 0.07)

    def test_sixteen_rows_four_levels(self):
        design = build_l16()
        assert len(design.rows) == 16
        for f, factor in enumerate(design.factors):
            assert sorted(set(row[f] for row in design.rows)) == sorted(
                design.levels[factor]
            )

    def test_orthogonality(self):
        assert is_orthogonal(build_l16())

    def test_broken_array_detected(self):
        design = build_l16()
        broken = type(design)(
            design.factors, design.levels, design.rows[:15] + (design.rows[0],)
        )
        assert not is_orthogonal(broken)


class TestResponseTable:
    def test_flowtime_means_match_published(self):
        table = response_table(build_l16(), FT_RESPONSES)
        for factor, expected in FT_TABLE.items():
            for got, want in zip(table.means[factor], expected):
                assert got == pytest.approx(want, abs=0.1)

    def test_flowtime_delta_and_rank(self):
        table = response_table(build_l16(), FT_RESPONSES)
        assert table.delta["pop"] == pytest.approx(8.5)
        assert table.rank == FT_RANKS

    def test_energy_means_match_published(self):
        table = response_table(build_l16(), EC_RESPONSES)
        for factor, expected in EC_TABLE.items():
            for got, want in zip(table.means[factor], expected):
                assert got == pytest.approx(want, abs=0.5)

    def test_energy_delta_and_rank(self):
        table = response_table(build_l16(), EC_RESPONSES)
        assert table.delta["mutation"] == pytest.approx(127, abs=0.5)
        assert table.rank == EC_RANKS

    def test_constant_responses(self):
        table = response_table(build_l16(), [5.0] * 16)
        assert all(d == 0 for d in table.delta.values())
        assert table.rank == {"gen": 1, "pop": 2, "crossover": 3, "mutation": 4}

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            response_table(build_l16(), [1.0] * 15)

    def test_grand_mean_recovered_from_level_means(self):
        table = response_table(build_l16(), FT_RESPONSES)
        grand = sum(FT_RESPONSES) / 16
        for factor in table.factors:
            assert sum(table.means[factor]) / 4 == pytest.approx(grand)

    @given(st.floats(-50, 50))
    def test_shift_invariance_of_delta_and_rank(self, shift):
        base = response_table(build_l16(), FT_RESPONSES)
        shifted = response_table(build_l16(), [r + shift for r in FT_RESPONSES])
        for factor in base.factors:
            assert shifted.delta[factor] == pytest.approx(base.delta[factor], abs=1e-9)
        assert shifted.rank == base.rank

    def test_csv_layout(self):
        table = response_table(build_l16(), FT_RESPONSES)
        lines = response_table_csv(table).strip().splitlines()
        assert lines[0] == "level,gen,pop,crossover,mutation"
        assert len(lines) == 7
        assert lines[5].startswith("delta,")
        assert lines[6] == "rank,3,1,4,2"


class TestSnRatio:
    def test_unit_response(self):
        assert sn_ratio([1.0]) == 0.0

    def test_ten(self):
        assert sn_ratio([10.0]) == pytest.approx(-20.0)

    def test_derived_value(self):
        assert sn_ratio([912]) == pytest.approx(-10 * math.log10(912 ** 2))

    def test_mean_of_squares(self):
        assert sn_ratio([3.0, 4.0]) == pytest.approx(-10 * math.log10(12.5))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sn_ratio([1.0, 0.0])
        with pytest.raises(ValueError):
            sn_ratio([])


class TestPickBestParams:
    def test_reproduces_published_selection(self):
        ft = response_table(build_l16(), FT_RESPONSES)
        ec = response_table(build_l16(), EC_RESPONSES)
        assert pick_best_params(ft, ec) == {
            "generations": 50,
            "pop_size": 200,
            "p_mutation": 0.05,
            "p_crossover": 0.6,
        }

    def test_agreeing_tables_keep_their_levels(self):
        responses = list(range(16))
        ft = response_table(build_l16(), responses)
        ec = response_table(build_l16(), responses)
        picked = pick_best_params(ft, ec)
        for key, factor in (
            ("generations", "gen"),
            ("pop_size", "pop"),
            ("p_crossover", "crossover"),
            ("p_mutation", "mutation"),
        ):
            means = ft.means[factor]
            best = ft.levels[factor][means.index(max(means))]
            assert picked[key] == pytest.approx(best)


@pytest.fixture(scope="module")
def tiny():
    return Instance.from_matrix([[4, 9], [7, 2], [3, 5], [8, 1]], [900, 1100])


class TestRunDesign:
    def test_deterministic(self, tiny):
        base = RunConfig(ls_enabled=False)
        a = run_design(build_l16(), tiny, seed=3, base_config=base)
        b = run_design(build_l16(), tiny, seed=3, base_config=base)
        assert a == b
        assert len(a["flowtime"]) == 16
        assert len(a["energy"]) == 16
        assert all(r >= 0 for r in a["energy"])

    def test_energy_mode_positive(self, tiny):
        base = RunConfig(ls_enabled=False)
        responses = run_design(build_l16(), tiny, seed=3, base_config=base)
        assert len(responses["energy"]) == 16
        assert all(r >= 0 for r in responses["energy"])
