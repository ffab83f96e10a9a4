import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from greenflowshop.instance import (
    Instance,
    InstanceFormatError,
    TABLE9_POWERS,
    check_permutation,
    count_taillard_blocks,
    default_powers,
    format_instance,
    generate_instance,
    generate_taillard_times,
    is_taillard,
    parse_instance,
    parse_taillard,
    taillard_instance,
)

TOY_TAILLARD = """\
number of jobs, number of machines, initial seed, upper bound and lower bound :
2 2 12345 0 0
processing times :
3 2
4 5
"""

SECOND_BLOCK = """\
number of jobs, number of machines, initial seed, upper bound and lower bound :
3 2 99 0 0
processing times :
1 2 3
4 5 6
"""


class TestParseTaillard:
    def test_toy_block_transposes_to_job_major(self):
        assert parse_taillard(TOY_TAILLARD)[0] == ((3, 4), (2, 5))

    def test_two_token_header(self):
        assert parse_taillard("2 2\ntimes\n3 2\n4 5\n")[0] == ((3, 4), (2, 5))

    def test_multi_block_indexing(self):
        text = TOY_TAILLARD + SECOND_BLOCK
        assert count_taillard_blocks(text) == 2
        assert parse_taillard(text)[1] == ((1, 4), (2, 5), (3, 6))

    def test_malformed_header_reports_line(self):
        bad = "marker\n2\nprocessing times :\n3 2\n4 5\n"
        with pytest.raises(InstanceFormatError) as err:
            parse_taillard(bad)
        assert err.value.line == 2

    def test_non_integer_data_reports_line(self):
        bad = "2 2\ntimes\n3 2.5\n4 5\n"
        with pytest.raises(InstanceFormatError) as err:
            parse_taillard(bad)
        assert err.value.line == 3

    def test_data_row_with_stray_letter_reports_its_line(self):
        # block 1's last value reads "5O"; skipping the row as a marker would
        # read block 2's header as its times and blame line 8 instead
        bad = ("jobs machines seed ub lb :\n5 1 1 0 0\ntimes :\n1 2 3 4 5O\n"
               "jobs machines seed ub lb :\n5 1 1 0 0\ntimes :\n1 2 3 4 5\n")
        with pytest.raises(InstanceFormatError, match="non-integer") as err:
            parse_taillard(bad)
        assert err.value.line == 4

    def test_negative_time_reports_line(self):
        with pytest.raises(InstanceFormatError) as err:
            parse_taillard("2 2\ntimes\n3 2\n4 -5\n")
        assert err.value.line == 4

    def test_truncated_matrix(self):
        with pytest.raises(InstanceFormatError, match="truncated"):
            parse_taillard("2 2\ntimes\n3 2\n")

    def test_empty_stream(self):
        with pytest.raises(InstanceFormatError):
            parse_taillard("")

    def test_seed_field_is_not_used_for_times(self):
        # same matrix, different header seeds: identical parse results
        a = parse_taillard(TOY_TAILLARD)[0]
        b = parse_taillard(TOY_TAILLARD.replace("12345", "54321"))[0]
        assert a == b

    def test_benchmark_block_within_bounds(self):
        times = generate_taillard_times(20, 5, 873654221)
        flat = [t for row in times for t in row]
        assert len(flat) == 100
        assert all(1 <= t <= 99 for t in flat)

    def test_round_trip_through_taillard_text(self):
        times = generate_taillard_times(20, 5, 873654221)
        machine_major = [
            " ".join(str(times[i][j]) for i in range(20)) for j in range(5)
        ]
        text = (
            "number of jobs, machines, seed, ub, lb :\n"
            "20 5 873654221 1278 1232\nprocessing times :\n"
            + "\n".join(machine_major) + "\n"
        )
        assert parse_taillard(text)[0] == times


# One 5-job x 2-machine block, one machine row per line.
CANONICAL = "jobs machines :\n5 2 7 0 0\ntimes :\n1 2 3 4 5\n6 7 8 9 10\n"


class TestTaillardLayouts:
    @pytest.mark.parametrize("text", [
        "jobs machines :\n5 2 7 0 0\ntimes :\n1 2 3\n4 5\n6 7\n8 9 10\n",
        "jobs machines :\n5 2 7 0 0\ntimes :\n1 2 3 4 5 6 7 8 9 10\n",
        CANONICAL.replace("\n", "\r\n"),
    ], ids=["rows-wrapped", "rows-on-one-line", "crlf"])
    def test_layout_reads_as_canonical(self, text):
        assert count_taillard_blocks(text) == 1
        assert parse_taillard(text)[0] == parse_taillard(CANONICAL)[0]

    def test_header_right_after_last_value(self):
        text = CANONICAL + "2 2 7 0 0\n3 2\n4 5\n"
        assert count_taillard_blocks(text) == 2
        assert parse_taillard(text)[0] == parse_taillard(CANONICAL)[0]
        assert parse_taillard(text)[1] == parse_taillard("x\n2 2 7 0 0\n3 2\n4 5\n")[0]


class TestTaillardGenerator:
    def test_published_first_machine_row(self):
        # first machine of the published 20x5 benchmark, instance 1
        times = generate_taillard_times(20, 5, 873654221)
        machine1 = tuple(times[i][0] for i in range(20))
        assert machine1 == (54, 83, 15, 71, 77, 36, 53, 38, 27, 87,
                            76, 91, 14, 29, 12, 77, 32, 87, 68, 94)

    def test_taillard_instance_powers_default(self):
        inst = taillard_instance(20, 5, 1)
        assert inst.fixed_power == tuple(float(p) for p in TABLE9_POWERS[:5])

    def test_taillard_instance_index_errors(self):
        with pytest.raises(IndexError):
            taillard_instance(20, 5, 11)
        with pytest.raises(ValueError):
            taillard_instance(50, 5, 1)


class TestDefaultPowers:
    def test_first_five(self):
        assert default_powers(5) == (769, 802, 1290, 967, 1166)

    def test_single(self):
        assert default_powers(1) == (769,)

    def test_beyond_table(self):
        with pytest.raises(ValueError):
            default_powers(21)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_prefix_property(self, m):
        assert default_powers(m) == default_powers(20)[:m]


class TestGenerateInstance:
    def test_determinism(self):
        assert generate_instance(20, 5, 42) == generate_instance(20, 5, 42)

    def test_bounds_over_many_cells(self):
        inst = generate_instance(100, 100, 7)  # 10^4 cells in one draw
        assert all(1 <= t <= 99 for row in inst.proc_time for t in row)
        assert all(700 <= p <= 1500 for p in inst.fixed_power)

    def test_smallest(self):
        inst = generate_instance(1, 1, 3)
        assert inst.n_jobs == 1 and inst.n_machines == 1
        assert 1 <= inst.proc_time[0][0] <= 99

    def test_different_seeds_differ(self):
        assert generate_instance(20, 5, 1) != generate_instance(20, 5, 2)


class TestTable3:
    def test_shape(self, table3):
        assert table3.n_jobs == 15
        assert table3.n_machines == 5

    def test_first_and_last_job_rows(self, table3):
        assert table3.proc_time[0] == (3, 4, 6, 10, 3)
        assert table3.proc_time[14] == (8, 2, 10, 1, 4)

    def test_powers(self, table3):
        assert table3.fixed_power == (769.0, 802.0, 1290.0, 967.0, 1166.0)


@st.composite
def instances(draw, max_jobs=8, max_machines=5):
    n = draw(st.integers(1, max_jobs))
    m = draw(st.integers(1, max_machines))
    times = draw(
        st.lists(
            st.lists(st.integers(0, 99), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
    powers = draw(st.lists(st.integers(700, 1500), min_size=m, max_size=m))
    return Instance.from_matrix(times, powers)


class TestNativeFormat:
    @given(instances())
    def test_round_trip(self, inst):
        assert parse_instance(format_instance(inst)) == inst

    def test_double_round_trip_identical_text(self):
        inst = generate_instance(6, 3, 11)
        text = format_instance(inst)
        assert format_instance(parse_instance(text)) == text

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n2 2  # inline\n3 4\n2 5\n600 1200\n"
        inst = parse_instance(text)
        assert inst.proc_time == ((3, 4), (2, 5))
        assert inst.fixed_power == (600.0, 1200.0)

    def test_empty_file(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("# nothing\n")

    def test_wrong_row_width(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("2 2\n3 4 9\n2 5\n600 1200\n")

    def test_missing_power_row(self):
        with pytest.raises(InstanceFormatError):
            parse_instance("2 2\n3 4\n2 5\n")

    @pytest.mark.parametrize("text,line", [
        ("-1 2\n", 1), ("2 0\n\n", 1), ("1 -3\n4\n1\n", 1), ("0 2\n", 1), ("0 0\n", 1),
        ("2 x\n", 1), ("2 2 2\n3 4\n2 5\n600 1200\n", 1), ("# shop\n\n0 2\n", 3),
    ])
    def test_bad_header_rejected_on_its_line(self, text, line):
        with pytest.raises(InstanceFormatError, match=f"^line {line}: header must be"):
            parse_instance(text)

    @pytest.mark.parametrize("text,line", [
        ("1 1\n-4\n5\n", 2), ("2 2\n3 4\n2 -1\n600 1200\n", 3),
        ("# shop\n2 1\n\n-3\n4\n5\n", 4),
    ])
    def test_negative_time_rejected_on_its_job_row(self, text, line):
        with pytest.raises(InstanceFormatError, match="non-negative") as err:
            parse_instance(text)
        assert err.value.line == line

    @pytest.mark.parametrize("power", ["0", "-1", "nan", "inf", "1e400"])
    def test_bad_power_rejected_on_the_power_row(self, power):
        with pytest.raises(InstanceFormatError, match="positive and finite") as err:
            parse_instance(f"1 2\n4 6\n# powers\n600 {power}\n")
        assert err.value.line == 4


class TestInstanceValidation:
    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            Instance.from_matrix([[1]], [0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Instance.from_matrix([[-1]], [700])

    @pytest.mark.parametrize("power", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="finite"):
            Instance.from_matrix([[1]], [power])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_power_row_is_format_error(self, token):
        with pytest.raises(InstanceFormatError, match="finite"):
            parse_instance(f"1 2\n3 4\n600 {token}\n")

    @pytest.mark.parametrize("time", [
        float("nan"), float("inf"), 1.7, 2.0, True, False,
    ])
    def test_non_integer_time_rejected(self, time):
        with pytest.raises(ValueError, match="integer"):
            Instance(2, 2, ((time, 2), (3, 4)), (700.0, 800.0))

    @pytest.mark.parametrize("time", [
        float("nan"), float("inf"), float("-inf"), 1.7, -0.5, True,
    ])
    def test_from_matrix_rejects_non_integer_time(self, time):
        with pytest.raises(ValueError, match="integer"):
            Instance.from_matrix([[time, 2]], [700, 800])

    def test_from_matrix_keeps_whole_numbers(self):
        inst = Instance.from_matrix([[np.int64(3), 4.0]], [700, 800])
        assert inst.proc_time == ((3, 4),)
        assert all(type(t) is int for t in inst.proc_time[0])

    def test_machine_load_is_derived(self):
        inst = Instance.from_matrix([[3, 0], [2, 5], [4, 1]], [700, 800])
        assert inst.machine_load == (9, 6)
        same = Instance(3, 2, inst.proc_time, inst.fixed_power)
        assert same == inst and hash(same) == hash(inst)
        assert "machine_load" not in repr(inst)
        assert parse_instance(format_instance(inst)) == inst

    @pytest.mark.parametrize("n_jobs,n_machines,times", [
        (1, 1.0, ((5,),)),
        (2.0, 1, ((5,), (3,))),
        (True, 1, ((5,),)),
    ], ids=["float-machines", "float-jobs", "bool-jobs"])
    def test_shape_must_be_int(self, n_jobs, n_machines, times):
        with pytest.raises(ValueError, match="ints of at least 1"):
            Instance(n_jobs, n_machines, times, (1.0,))

    def test_power_count_mismatch(self):
        with pytest.raises(ValueError):
            Instance(1, 2, ((1, 2),), (700.0,))

    def test_immutable(self):
        inst = Instance.from_matrix([[1]], [700])
        with pytest.raises(AttributeError):
            inst.n_jobs = 2


class TestFormatChoice:
    @pytest.mark.parametrize("text", [
        TOY_TAILLARD,
        "2 2 9 0 0\n3 2\n4 5\n",
        "# comment\n\n  times:\n2 2\n3 2\n4 5\n",
    ])
    def test_taillard(self, text):
        assert is_taillard(text)

    @pytest.mark.parametrize("text", [
        "2 2\n3 4\n2 5\n600 1200\n",
        "# 2 jobs x 2 machines\n2 2\n3 4\n2 5\n600 1200\n",
        "2 2\ntimes\n3 2\n4 5\n",  # marker-less Taillard block: read as native
        "1 2 3 4 5.0\n",
        "",
    ])
    def test_native(self, text):
        assert not is_taillard(text)


# Parser fuzzing: files of random shape whose times and powers include
# negative and non-finite values, half of them with one token replaced or
# inserted from values a parser must reject and some with a line dropped;
# plus arbitrary text.
_JUNK = ("nan", "inf", "-inf", "1e400", "2.5", "-1", "0", "x", "#", "times:")
_TIMES = st.integers(-9, 99).map(str)
_POWERS = st.one_of(st.integers(-1, 1500).map(str),
                    st.sampled_from(("nan", "inf", "-inf", "1e400")))


def _corrupt(draw, rows: list[list[str]]) -> str:
    rnd = draw(st.randoms())
    if rnd.random() < 0.5:
        row = rnd.choice(rows)
        k = rnd.randint(0, len(row))
        row[k:k + 1] = [rnd.choice(_JUNK)]
    if rnd.random() < 0.25:
        del rows[rnd.randrange(len(rows))]
    return "\n".join(" ".join(row) for row in rows) + "\n"


@st.composite
def _native_texts(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[str(n), str(m)]]
    rows += [draw(st.lists(_TIMES, min_size=m, max_size=m)) for _ in range(n)]
    rows.append(draw(st.lists(_POWERS, min_size=m, max_size=m)))
    return _corrupt(draw, rows)


@st.composite
def _taillard_texts(draw):
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        header = [n, m] + ([] if draw(st.booleans()) else [7, 0, 0])
        rows += [["jobs", "machines:"], [str(v) for v in header], ["times:"]]
        rows += [draw(st.lists(_TIMES, min_size=n, max_size=n)) for _ in range(m)]
    return _corrupt(draw, rows)


_ANY_TEXT = st.one_of(
    st.text(),
    st.lists(st.lists(st.sampled_from(_JUNK + ("1", "2", "3")), max_size=6)
             .map(" ".join), max_size=10).map("\n".join),
)


def _check_native(text: str) -> None:
    try:
        inst = parse_instance(text)
    except InstanceFormatError:
        return
    assert isinstance(inst, Instance)
    assert all(0 < p < math.inf for p in inst.fixed_power)


def _check_taillard(text: str) -> None:
    try:
        times = parse_taillard(text)[0]
    except InstanceFormatError:
        return
    assert len(times) >= 1 and len(times[0]) >= 1
    # the block takes any valid powers without further errors
    assert isinstance(Instance.from_matrix(times, [1.0] * len(times[0])), Instance)


class TestParserFuzz:
    @example("1 2\n3 4\n600 nan\n")
    @given(_native_texts())
    def test_native_gives_instance_or_format_error(self, text):
        _check_native(text)

    @example("2 2\ntimes\n3 2\n4 -5\n")
    @given(_taillard_texts())
    def test_taillard_gives_block_or_format_error(self, text):
        _check_taillard(text)

    @given(_ANY_TEXT)
    def test_any_text(self, text):
        _check_native(text)
        _check_taillard(text)


class TestCheckPermutation:
    @given(st.lists(st.integers(-1, 6) | st.sampled_from([0.0, 1.0, 2.5]), max_size=6),
           st.integers(0, 6))
    @example([0, 1, 1], 3)
    @example([0, 1, 2.0], 3)
    @example([0, 1, 3], 3)
    def test_accepts_exactly_the_bijections(self, perm, n_jobs):
        # the rule as first written: right length and the same set as the jobs
        if len(perm) != n_jobs:
            message = f"permutation length {len(perm)} != {n_jobs} jobs"
        elif set(perm) != set(range(n_jobs)):
            message = "permutation is not a bijection on the job set"
        else:
            check_permutation(perm, n_jobs)
            return
        with pytest.raises(ValueError) as info:
            check_permutation(perm, n_jobs)
        assert str(info.value) == message
