"""CSV output pinned to literal text: the writers' formatting must not drift."""

import math

import numpy as np

from hydrochain.csvio import read_csv, write_csv
from hydrochain.microchain import ChainState, write_snapshot_csv


def test_write_csv_mixed_row(tmp_path):
    path = tmp_path / "mixed.csv"
    row = (True, 3, np.int64(-7), np.float64(0.1), 1 / 3, -0.0, 1e-300, "2.5e-3")
    write_csv(path, list("abcdefgh"), [row])
    assert path.read_text() == (
        "a,b,c,d,e,f,g,h\n1,3,-7,0.10000000000000001,0.33333333333333331,-0,1e-300,2.5e-3\n"
    )
    header, rows = read_csv(path)
    assert header == list("abcdefgh")
    assert rows == [[1.0, 3.0, -7.0, 0.1, 1 / 3, 0.0, 1e-300, 2.5e-3]]
    assert math.copysign(1.0, rows[0][5]) == -1.0


def test_write_snapshot_csv(tmp_path):
    path = tmp_path / "snapshots.csv"
    snaps = [
        ChainState(np.array([1 / 3, -0.0, 1e-300]), np.array([2.5, -1e300, np.pi]), 0.0),
        ChainState(np.array([0.1, 1e16, -7.0]), np.array([5e-324, 0.0, -2 / 3]), 0.1),
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
    )
    header, rows = read_csv(path)
    assert header == ["t", "i", "r", "p"]
    expected = [[s.t, i + 1, s.r[i], s.p[i]] for s in snaps for i in range(3)]
    assert rows == expected
