"""Time-stamped solver and flow trajectories, with CSV export/import."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergenceError
from .problem import _row_norms

__all__ = ["Trajectory", "load_trajectory_csv"]

TRUNCATION_MARKER = "truncated"

# rows formatted per chunk, so a long trajectory never exists as one text table
CSV_CHUNK_ROWS = 1024


@dataclass
class Trajectory:
    """Sequence of sampled states with per-sample objective value and gap.

    ``t`` and ``V`` are always present. Discrete runs carry ``k`` and
    ``primal_residual``; flow runs carry state samples ``X`` plus, where
    defined, velocities ``Xdot`` and the Hamiltonian, and ``terms``, a dict
    of per-sample arrays their run folded (the CSV's ``x_norm`` and
    ``xdot_norm`` among them); a run given ``x_star`` stores no X or X'.
    ``meta`` holds run parameters (method, rho, step size) and never enters
    CSVs.
    """

    t: np.ndarray
    V: np.ndarray
    v_gap: np.ndarray
    X: np.ndarray | None = None
    Xdot: np.ndarray | None = None
    hamiltonian: np.ndarray | None = None
    k: np.ndarray | None = None
    primal_residual: np.ndarray | None = None
    v_star: float | None = None
    meta: dict = field(default_factory=dict)
    terms: dict | None = None

    def __len__(self):
        return int(self.t.shape[0])

    def _columns(self):
        # Discrete schema: k,t,V_gap,primal_residual,x_norm
        # Flow schema:     t,V_gap[,hamiltonian],x_norm[,xdot_norm]
        # (each optional column is written when the trajectory carries it)
        cols = [("k", self.k), ("t", self.t), ("V_gap", self.v_gap),
                ("primal_residual", self.primal_residual), ("hamiltonian", self.hamiltonian),
                ("x_norm", self._norms("x_norm", self.X)),
                ("xdot_norm", self._norms("xdot_norm", self.Xdot))]
        return [(name, values) for name, values in cols if values is not None]

    def _norms(self, name, rows):
        """The column ``name``: the one the run's ``terms`` carry, else the
        norms of ``rows`` (X or X'); None without either."""
        if self.terms is not None and name in self.terms:
            return self.terms[name]
        return None if rows is None else _row_norms(rows)

    def to_csv(self, path, truncation_note=None, text=None):
        """Write the trajectory; floats use repr so files round-trip exactly.

        ``truncation_note`` appends a final marker row (first cell
        ``truncated``, remaining cells the note) for runs cut short.
        ``text``, a :class:`ColumnText`, takes the text of the ``t`` and
        ``V_gap`` columns, so that a later CSV of the same run (a monitor's)
        writes them again without formatting them.
        """
        cols = self._columns()
        trailer = None
        if truncation_note is not None:
            trailer = [TRUNCATION_MARKER, str(truncation_note)] + [""] * (len(cols) - 2)
        write_columns_csv(path, cols, trailer, text, record=("t", "V_gap"))


class ColumnText:
    """Text of float64 columns one run has written, for its later CSVs.

    Each entry is a column's own array (not a copy) and its cells, one
    newline-joined string per ``CSV_CHUNK_ROWS`` chunk. A table lives for
    one run: it keeps every recorded array alive.
    """

    def __init__(self):
        self._entries = []

    def find(self, values):
        """The chunk texts of a recorded column whose bits equal those of the
        float64 array ``values``, or None."""
        bits = values.view(np.uint64)
        for recorded, chunks in self._entries:
            if recorded.shape == values.shape and np.array_equal(recorded.view(np.uint64), bits):
                return chunks
        return None

    def record(self, values, chunks):
        """Keep ``values`` and its chunk texts, without a copy of either."""
        self._entries.append((values, chunks))


def write_columns_csv(path, columns, trailer=None, text=None, record=()):
    """Write ``columns``, a list of ``(name, values)`` of equal length, as CSV.

    Each column's cell format is picked once from its dtype: floats by repr
    (exact round trip), booleans as 0/1, integers and text as they print.
    Rows are formatted and written in chunks of ``CSV_CHUNK_ROWS``. When
    every column is numeric no cell needs quoting, so rows are joined with
    commas directly (the bytes ``csv.writer`` would write); other rows, the
    header and ``trailer``, an optional last row of ready-made cells, go
    through ``csv.writer``.

    With ``text``, a :class:`ColumnText`, a float64 column whose bits equal
    a recorded one's takes its recorded cells, and the columns named in
    ``record`` that found none are recorded once the file is written. The
    bytes are those of a write without ``text``.
    """
    arrays = [np.asarray(values) for _, values in columns]
    arrays = [a.view(np.uint8) if a.dtype.kind == "b" else a for a in arrays]
    formats = [repr if a.dtype.kind == "f" else str for a in arrays]
    numeric = all(a.dtype.kind in "fiu" for a in arrays)
    shared = [text is not None and a.dtype == np.float64 for a in arrays]
    found = [text.find(a) if share else None for a, share in zip(arrays, shared)]
    kept = {j: [] for j, (name, _) in enumerate(columns)
            if shared[j] and found[j] is None and name in record}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        for i, start in enumerate(range(0, len(arrays[0]), CSV_CHUNK_ROWS)):
            chunk = slice(start, start + CSV_CHUNK_ROWS)
            cells = [map(fmt, a[chunk].tolist()) if chunks is None else chunks[i].split("\n")
                     for fmt, a, chunks in zip(formats, arrays, found)]
            for j, texts in kept.items():
                cells[j] = list(cells[j])
                texts.append("\n".join(cells[j]))
            rows = zip(*cells)
            if numeric:
                fh.write("\n".join(map(",".join, rows)) + "\n")
            else:
                writer.writerows(rows)
        if trailer is not None:
            writer.writerow(trailer)
    for j, texts in kept.items():
        text.record(arrays[j], texts)


def build_trajectory(columns, n, v_star, meta):
    """Trajectory of the first ``n`` samples of preallocated ``columns``.

    ``columns`` maps :class:`Trajectory` field names (``t`` and ``V`` at
    least) to arrays with one row per sample, and ``terms`` to a dict of
    such arrays; the trajectory holds views of their first ``n`` rows, not
    copies.
    """
    cols = {name: values[:n] for name, values in columns.items() if name != "terms"}
    if "terms" in columns:
        cols["terms"] = {name: values[:n] for name, values in columns["terms"].items()}
    return Trajectory(v_gap=cols["V"] - v_star, v_star=v_star, meta=meta, **cols)


def divergence_error(label, columns, i, v_star, meta):
    """:class:`DivergenceError` of a run whose sample ``i`` is its first
    non-finite one: it carries the time of sample ``i - 1`` and the
    trajectory of samples ``0 .. i - 1`` (none when ``i`` is 0)."""
    t_last = float(columns["t"][max(i - 1, 0)])
    return DivergenceError(
        f"{label} diverged after t = {t_last:.6g}",
        t_last=t_last,
        trajectory=build_trajectory(columns, i, v_star, meta) if i > 0 else None,
    )


def _is_data_row(line):
    """False for a blank line and for the truncation marker row of
    :meth:`Trajectory.to_csv`, the rows the loader skips."""
    return bool(line.strip()) and line.split(",", 1)[0] != TRUNCATION_MARKER


def _row_fault(lines, width):
    """The first fault of the data rows among ``lines``, the lines of a file
    past its header: a row without ``width`` cells or a cell that is not a
    number, described with its file line, or None."""
    for lineno, line in enumerate(lines, 2):
        if not _is_data_row(line):
            continue
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != width:
            return (f"line {lineno}: the header names {width} columns, but data row "
                    f"{line.strip()!r} has {len(cells)}")
        for col, cell in enumerate(cells, 1):
            try:
                float(cell)
            except ValueError:
                return f"line {lineno}, column {col}: {cell.strip()!r} is not a number"
    return None


def load_trajectory_csv(path):
    """Read a trajectory CSV into a dict of float arrays keyed by column name.

    Blank lines and the ``truncated`` marker row that :meth:`Trajectory.to_csv`
    writes after a divergence are skipped; every other row is data, parsed by
    ``np.loadtxt``. A file without a header row, with a header that names a
    column twice, or with a data row that is not one number per header
    column, raises ``ValueError`` naming the file, the fault and its line in
    the file.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a trajectory CSV header")
        if not any(header):
            raise ValueError(f"{path}: the first line is blank, expected a trajectory CSV header")
        repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
        if repeated is not None:
            raise ValueError(f"{path}: line 1: the header names the column {repeated!r} twice")
        rest = fh.readlines()
    width = len(header)
    lines = [line for line in rest if _is_data_row(line)]
    try:
        # loadtxt warns on empty input; comments=None: a '#' row is data too
        data = (np.loadtxt(lines, delimiter=",", comments=None, ndmin=2) if lines
                else np.empty((0, width)))
    except ValueError as exc:  # a ragged row, or a cell that is not a number
        raise ValueError(f"{path}: {_row_fault(rest, width) or exc}") from None
    if data.shape[1] != width:
        raise ValueError(f"{path}: {_row_fault(rest, width)}")
    return {name: data[:, j] for j, name in enumerate(header)}
