import csv
import io
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admmflow as af
from admmflow import trajectory
from admmflow.trajectory import load_trajectory_csv

from helpers import NOT_A_NUMBER


def test_discrete_csv_schema(tmp_path, one_d_problem):
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=5)
    path = tmp_path / "run.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,t,V_gap,primal_residual,x_norm"
    assert len(lines) == 7  # header + 6 samples
    cols = load_trajectory_csv(path)
    assert np.allclose(cols["k"], np.arange(6))
    assert np.array_equal(cols["V_gap"], traj.v_gap)  # repr round-trips exactly


def test_flow_csv_schema(tmp_path, one_d_problem):
    from admmflow.flows import IntegratorConfig

    rk = af.rk4_integrate(one_d_problem, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.0, t_end=1.0))
    path = tmp_path / "flow.csv"
    rk.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,V_gap,x_norm,xdot_norm"

    acc = af.aadmm_flow_integrate(
        one_d_problem, np.array([1.0]), IntegratorConfig(h=0.1, t0=0.1, t_end=1.0, r=3.0)
    )
    path2 = tmp_path / "acc.csv"
    acc.to_csv(path2)
    header2 = path2.read_text().splitlines()[0]
    assert header2 == "t,V_gap,hamiltonian,x_norm,xdot_norm"
    cols = load_trajectory_csv(path2)
    assert len(cols["t"]) == len(acc)


def test_csv_without_state_samples(tmp_path):
    # X is optional: a trajectory without it writes no x_norm column
    t = np.linspace(1.0, 2.0, 5)
    v = 1.0 / t
    path = tmp_path / "gap.csv"
    af.Trajectory(t=t, V=v, v_gap=v).to_csv(path)
    assert path.read_text().splitlines()[0] == "t,V_gap"
    cols = load_trajectory_csv(path)
    assert set(cols) == {"t", "V_gap"}
    assert np.array_equal(cols["t"], t)
    assert np.array_equal(cols["V_gap"], v)


def test_truncation_marker_round_trip(tmp_path, one_d_problem):
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=3)
    path = tmp_path / "trunc.csv"
    traj.to_csv(path, truncation_note="diverged at t=3")
    lines = path.read_text().strip().splitlines()
    assert lines[-1].startswith("truncated")
    cols = load_trajectory_csv(path)  # marker row is skipped on load
    assert len(cols["t"]) == 4


def test_csv_deterministic(tmp_path, one_d_problem):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=5).to_csv(a)
    af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=5).to_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_norm_columns(tmp_path, one_d_problem):
    # x_norm is ||X|| per sample; a discrete run records no velocities, so its
    # CSV has no xdot_norm column
    traj = af.run_admm(one_d_problem, np.array([1.0]), rho=1.0, max_iter=2)
    traj.to_csv(tmp_path / "run.csv")
    cols = load_trajectory_csv(tmp_path / "run.csv")
    assert np.allclose(cols["x_norm"], np.abs(traj.X[:, 0]))
    assert "xdot_norm" not in cols


def test_load_empty_csv_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv"):
        load_trajectory_csv(path)


@pytest.mark.parametrize("text, fault", [
    ("\nt,V_gap\n1,2\n", "first line is blank"),
    ("t,V_gap\n1\n", "line 2: the header names 2 columns, but data row '1' has 1"),
    ("t,V_gap\n1,2\n3\n4,5\n", "line 3: the header names 2 columns, but data row '3' has 1"),
    ("t,V_gap\n1,2,3\n", "line 2: the header names 2 columns, but data row '1,2,3' has 3"),
    *NOT_A_NUMBER.values(),
], ids=["blank-first-line", "short-row", "ragged", "wide-row", *NOT_A_NUMBER])
def test_load_malformed_csv_names_the_file_and_fault(tmp_path, text, fault):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_trajectory_csv(path)
    assert str(err.value).startswith(f"{path}: ") and fault in str(err.value)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
exact_ints = st.integers(min_value=-(2**53), max_value=2**53)  # exact as float64


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=12),
    kinds=st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=4),
    data=st.data(),
)
def test_write_columns_csv_round_trip(n_rows, kinds, data):
    # every cell comes back exactly, across several row chunks
    columns = []
    for j, kind in enumerate(kinds):
        cells = data.draw(st.lists(finite_floats if kind == "float" else exact_ints,
                                   min_size=n_rows, max_size=n_rows))
        columns.append((f"c{j}", np.array(cells, dtype=float if kind == "float" else np.int64)))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(trajectory, "CSV_CHUNK_ROWS", 5):
        path = os.path.join(tmp, "cols.csv")
        trajectory.write_columns_csv(path, columns)
        loaded = load_trajectory_csv(path)
    assert list(loaded) == [name for name, _ in columns]
    for name, values in columns:
        assert np.array_equal(loaded[name], values.astype(float))


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.integers(min_value=1, max_value=12),
    kinds=st.lists(st.sampled_from(["float", "int", "bool"]), min_size=1, max_size=4),
    note=st.none() | st.text(max_size=8),
    data=st.data(),
)
def test_write_columns_csv_matches_csv_writer(n_rows, kinds, note, data):
    # numeric rows are joined directly: the bytes must be those of csv.writer
    # writing the repr/str cells, header and trailer included
    draw = {"float": st.floats(), "int": exact_ints, "bool": st.booleans()}
    dtypes = {"float": float, "int": np.int64, "bool": bool}
    columns = [(f"c{j}", np.array(data.draw(st.lists(draw[kind], min_size=n_rows,
                                                         max_size=n_rows)), dtype=dtypes[kind]))
               for j, kind in enumerate(kinds)]
    trailer = None if note is None else ["truncated", note] + [""] * (len(columns) - 2)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    cell = {"float": repr, "int": str, "bool": lambda v: str(int(v))}
    writer.writerows(zip(*([cell[kind](v) for v in values.tolist()]
                           for kind, (_, values) in zip(kinds, columns))))
    if trailer is not None:
        writer.writerow(trailer)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(trajectory, "CSV_CHUNK_ROWS", 5):
        path = os.path.join(tmp, "cols.csv")
        trajectory.write_columns_csv(path, columns, trailer)
        with open(path, "rb") as fh:
            assert fh.read() == ref.getvalue().encode("utf-8")
