"""CSV output pinned to literal text: the writers' formatting must not drift.

Every writer formats through csvio._float_fields, an array kernel that must
reproduce '%.17g' % x byte for byte; '%.17g' itself, value by value, is the
reference it is checked against."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrochain import csvio
from hydrochain.blockstats import (
    STATISTICS_HEADER,
    BlockSpec,
    default_block_width,
    statistics_row,
)
from hydrochain.csvio import _float_fields, write_columns, write_csv
from hydrochain.macropde import (
    MacroConfig,
    advance,
    uniform_state,
    work_and_dissipation,
    write_balance_csv,
)
from hydrochain.microchain import (
    ChainConfig,
    ChainState,
    run_trajectory,
    write_ledger_csv,
    write_snapshot_csv,
)
from hydrochain.schedules import RampSchedule
from hydrochain.thermo import ThermoModel

prop_settings = settings(max_examples=300, deadline=None, derandomize=True)


def read_back(path):
    """(header, float rows) of a written CSV."""
    header, *lines = path.read_text().splitlines()
    return header.split(","), [[float(tok) for tok in line.split(",")] for line in lines]


def kernel_text(values) -> bytes:
    """The kernel's fields of the values, fill dropped: ",v1,v2,..."."""
    return _float_fields(np.asarray(values, dtype=float)).tobytes().translate(None, b"\0")


def reference_text(values) -> bytes:
    return "".join("," + "%.17g" % v for v in np.asarray(values, dtype=float).tolist()).encode()


def assert_kernel_exact(values):
    values = np.asarray(values, dtype=float)
    got, want = kernel_text(values), reference_text(values)
    if got != want:
        bad = [v for v in values.tolist() if kernel_text([v]) != reference_text([v])]
        pytest.fail(f"{len(bad)} of {values.size} values misformatted, first {bad[:5]!r}")


def ulp_neighbours(base, ulps=4):
    """base and the doubles up to `ulps` steps either side of each entry."""
    out = [base]
    up = down = base
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


class TestFloatKernel:
    @prop_settings
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_floats(self, xs):
        assert_kernel_exact(xs)

    @prop_settings
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_any_bit_patterns(self, bits):
        assert_kernel_exact(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_random_bit_patterns_normals_and_log_uniform(self):
        rng = np.random.default_rng(20260101)
        assert_kernel_exact(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))
        assert_kernel_exact(rng.standard_normal(100_000))
        signs = rng.choice([-1.0, 1.0], 100_000)
        assert_kernel_exact(signs * np.exp(rng.uniform(-745.0, 709.0, 100_000)))

    def test_neighbours_of_powers_of_ten(self):
        powers = np.array([float("1e%d" % k) for k in range(-323, 309)])
        values = ulp_neighbours(powers)
        assert values.size == 9 * 632
        assert_kernel_exact(values)
        assert_kernel_exact(-values)

    def test_neighbours_of_17_digit_carries(self):
        # 9.99999999999999995e k rounds up to 1e(k+1) at 17 digits, or not
        carries = np.array([float("9.99999999999999995e%d" % k) for k in range(-323, 308)])
        values = ulp_neighbours(carries)
        assert_kernel_exact(values)
        assert_kernel_exact(-values)

    def test_neighbours_of_17_digit_midpoints(self):
        # halfway between two 17-digit decimals: the round-half-even ties
        rng = np.random.default_rng(7)
        digits = rng.integers(10**16, 10**17, 2000)
        exponents = rng.integers(-300, 300, 2000)
        mids = np.array([float("%d5e%d" % (d, e - 17)) for d, e in zip(digits, exponents)])
        assert_kernel_exact(ulp_neighbours(mids))

    def test_exact_17_digit_ties(self):
        # m / 2^j with m odd and m 5^j of 18 digits is exactly an 18-digit
        # decimal ending in 5: '%.17g' rounds the tie to even
        ties = []
        for j in range(2, 26):
            m = np.arange(-(-(10**17) // 5**j) | 1, -(-(10**17) // 5**j) + 400, 2)
            m = m[(m < 10**18 // 5**j) & (m < 2**53)]
            ties.append(m.astype(np.float64) / 2.0**j)
        ties = np.concatenate(ties)
        assert ties.size > 4000
        assert kernel_text([1000000000000000.25]) == b",1000000000000000.2"
        assert_kernel_exact(ties)
        assert_kernel_exact(-ties)

    def test_notation_switches_and_signed_zero(self):
        edges = np.array([1e-5, 1e-4, 1e16, 1e17, 0.5, 1.0, 123.0, 2.0**53, 2.0**-1074])
        values = ulp_neighbours(edges)
        assert_kernel_exact(np.concatenate([values, -values, [0.0, -0.0]]))
        assert kernel_text([0.0, -0.0, 1e-5, 1e16, 1e17]) == (
            b",0,-0,1.0000000000000001e-05,10000000000000000,1e+17"
        )
        assert kernel_text([1.0, 0.0001, 12345678901234567.0]) == b",1,0.0001,12345678901234568"


def test_write_csv_mixed_row(tmp_path):
    path = tmp_path / "mixed.csv"
    rows = [
        (True, np.True_, np.bool_(False), 3, np.int64(-7), np.float64(0.1), 1 / 3, -0.0, 1e-300),
        (False, np.uint8(255), 2**53, -(2**31), np.int32(12), 2.5, np.float32(0.5), 1e16, -1),
    ]
    write_csv(path, list("abcdefghi"), rows)
    assert path.read_text() == (
        "a,b,c,d,e,f,g,h,i\n"
        "1,1,0,3,-7,0.10000000000000001,0.33333333333333331,-0,1e-300\n"
        "0,255,9007199254740992,-2147483648,12,2.5,0.5,10000000000000000,-1\n"
    )
    # ints and bools write the '%.17g' text of their floats
    assert path.read_text() == reference_csv(list("abcdefghi"), rows)
    header, back = read_back(path)
    assert header == list("abcdefghi")
    assert back[0] == [1.0, 1.0, 0.0, 3.0, -7.0, 0.1, 1 / 3, 0.0, 1e-300]
    assert math.copysign(1.0, back[0][7]) == -1.0


def test_write_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_text() == "a,b\n"


@pytest.mark.parametrize(
    "header, columns, lengths",
    [
        (["a", "b"], [np.arange(3.0), 10 + np.arange(5.0)], "[3, 5]"),
        (["a", "b", "c"], [np.arange(3.0), np.arange(3.0)], "[3]"),
    ],
)
def test_write_columns_rejects_mismatched_lengths(tmp_path, header, columns, lengths):
    # write_columns used to write 0,11 / 1,12 / 2,13 / 10,14 for the first case
    path = tmp_path / "out.csv"
    message = f"{len(header)} header names over {len(columns)} columns of lengths {lengths}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_columns(path, header, columns)
    assert not path.exists()


@pytest.mark.parametrize("rows", [[(1.0, 2.0), (3.0,)], [(1.0, 2.0, 3.0)] * 2])
def test_write_csv_rejects_rows_off_the_header(tmp_path, rows):
    path = tmp_path / "out.csv"
    lengths = sorted({len(row) for row in rows})
    message = f"2 header names over rows of lengths {lengths}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()


def test_write_snapshot_csv(tmp_path):
    path = tmp_path / "snapshots.csv"
    snaps = [
        ChainState(np.array([1 / 3, -0.0, 1e-300]), np.array([2.5, -1e300, np.pi]), 0.0),
        ChainState(np.array([0.1, 1e16, -7.0]), np.array([5e-324, 0.0, -2 / 3]), 0.1),
        ChainState(np.array([np.nan, -np.inf, 1e300]), np.array([np.inf, 1e-5, -1e-300]), 12.5),
    ]
    write_snapshot_csv(path, snaps)
    assert path.read_text() == (
        "t,i,r,p\n"
        "0,1,0.33333333333333331,2.5\n"
        "0,2,-0,-1.0000000000000001e+300\n"
        "0,3,1e-300,3.1415926535897931\n"
        "0.10000000000000001,1,0.10000000000000001,4.9406564584124654e-324\n"
        "0.10000000000000001,2,10000000000000000,0\n"
        "0.10000000000000001,3,-7,-0.66666666666666663\n"
        "12.5,1,nan,inf\n"
        "12.5,2,-inf,1.0000000000000001e-05\n"
        "12.5,3,1.0000000000000001e+300,-1e-300\n"
    )
    header, rows = read_back(path)
    assert header == ["t", "i", "r", "p"]
    expected = [[s.t, i + 1, s.r[i], s.p[i]] for s in snaps for i in range(s.r.size)]
    assert np.array_equal(rows, expected, equal_nan=True)


def test_write_snapshot_csv_empty(tmp_path):
    path = tmp_path / "snapshots.csv"
    write_snapshot_csv(path, [])
    assert path.read_text() == "t,i,r,p\n"


def reference_csv(header, rows) -> str:
    """The text of a float table, built value by value with '%.17g'."""
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def small_pipeline():
    """A chain at N = 32, refine level 1, with 10 records, and the PDE over the
    same horizon recorded at the same times."""
    model = ThermoModel()
    horizon = 40 * ChainConfig(N=32).dt
    times = np.linspace(0.0, horizon, 10)
    config = ChainConfig(
        N=32,
        t_end=horizon,
        seed=3,
        tension_schedule=RampSchedule(0.0, 0.4, horizon),
        record_times=times,
        refine_level=1,
    )
    result = run_trajectory(config, 0.0, model)
    pde = MacroConfig(
        M=400, t_end=horizon, tension_schedule=RampSchedule(0.0, 0.4, horizon), record_times=times
    )
    traj = advance(uniform_state(pde, model.mean_strain(0.0)), pde, model)
    return result, traj


def snapshot_reference(snaps) -> str:
    rows = [(s.t, i + 1, s.r[i], s.p[i]) for s in snaps for i in range(s.r.size)]
    lines = ["t,i,r,p"] + ["%.17g,%d,%.17g,%.17g" % row for row in rows]
    return "\n".join(lines) + "\n"


class TestPipelineFiles:
    """Every float file of a small pipeline equals its value-by-value text,
    whatever the block size."""

    @pytest.mark.parametrize("budget", [csvio._BLOCK_BYTES, 1, 3000])
    def test_snapshot_file(self, tmp_path, monkeypatch, small_pipeline, budget):
        monkeypatch.setattr(csvio, "_BLOCK_BYTES", budget)
        snaps = small_pipeline[0].snapshots
        assert len(snaps) == 10
        path = tmp_path / "snapshots.csv"
        write_snapshot_csv(path, snaps)
        assert path.read_text() == snapshot_reference(snaps)

    @pytest.mark.parametrize("budget", [csvio._BLOCK_BYTES, 1])
    def test_ledger_file(self, tmp_path, monkeypatch, small_pipeline, budget):
        monkeypatch.setattr(csvio, "_BLOCK_BYTES", budget)
        ledger = small_pipeline[0].ledger
        path = tmp_path / "ledger.csv"
        write_ledger_csv(path, ledger)
        names = ("t", "E", "W", "Q_p", "Q_r", "martingale_p", "martingale_r",
                 "first_law_residual")
        header = ["t", "E", "W", "Q_p", "Q_r", "M_p", "M_r", "first_law_residual"]
        rows = zip(*(getattr(ledger, name) for name in names))
        assert path.read_text() == reference_csv(header, rows)

    @pytest.mark.parametrize("budget", [csvio._BLOCK_BYTES, 1])
    def test_balance_file(self, tmp_path, monkeypatch, small_pipeline, budget):
        monkeypatch.setattr(csvio, "_BLOCK_BYTES", budget)
        traj = small_pipeline[1]
        path = tmp_path / "balance.csv"
        write_balance_csv(path, traj)
        residual = work_and_dissipation(traj)[2]
        rows = zip(traj.t_hist, traj.F_hist, traj.W_hist, traj.D_hist, residual)
        assert path.read_text() == reference_csv(["t", "F", "W", "D", "residual"], rows)

    def test_statistics_file(self, tmp_path, small_pipeline):
        result = small_pipeline[0]
        spec = BlockSpec(default_block_width(32), 32)
        model = ThermoModel()
        rows = [statistics_row(s, spec, result.config.sigma, model) for s in result.snapshots]
        path = tmp_path / "statistics.csv"
        write_csv(path, STATISTICS_HEADER, rows)
        assert path.read_text() == reference_csv(STATISTICS_HEADER, rows)

    def test_snapshot_sizes_mixed_are_rejected(self, tmp_path, small_pipeline):
        # every record of a run holds the chain's N sites: a file of records
        # of several sizes is refused before it is opened
        snaps = small_pipeline[0].snapshots
        mixed = [
            ChainState(s.r[: 32 - 7 * (k % 3)], s.p[: 32 - 7 * (k % 3)], s.t)
            for k, s in enumerate(snaps)
        ]
        path = tmp_path / "snapshots.csv"
        with pytest.raises(ValueError, match=re.escape("unequal lengths [18, 25, 32]")):
            write_snapshot_csv(path, mixed)
        assert not path.exists()


def test_snapshot_writer_memory_is_bounded(tmp_path):
    rng = np.random.default_rng(11)
    snaps = [
        ChainState(rng.standard_normal(256), rng.standard_normal(256), 0.01 * k)
        for k in range(100)
    ]
    path = tmp_path / "snapshots.csv"
    tracemalloc.start()
    try:
        write_snapshot_csv(path, snaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_500_000
    assert peak < 4 << 20
