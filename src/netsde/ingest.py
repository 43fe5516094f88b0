"""Loading external panel data into sample paths.

A panel is a CSV with a timestamp column followed by one column per
series.  Values can be missing; the loader marks them NaN and records
nothing else about them.  complete_cases removes series (or rows) with
missing entries and to_sample_path turns a clean, evenly spaced panel
into a SamplePath, optionally in logs or log-differences.

The CSV codec (parse_panel_csv, panel_to_csv, and the path CSVs of
netsde.simulate through it) reads each cell with float() and writes it
with repr(), which hold the GIL, so a second thread cannot share the
work.  A table of SPLIT_MIN_CELLS cells or more is done in two
processes instead: this one takes the first half of the rows and one
os.fork()ed child the second, whose result comes back through an
os.pipe, raw float64 rows or encoded text read straight into the
result.  Both halves run the same row function, so the values, the
text and the ParseError (message and line; of two bad lines the
earlier one) are what one process gives.  Smaller tables stay in one
process, since a fork costs more than their halves save, and so does
every table while a second Python thread is alive, or where os.fork is
missing.  The child ends with os._exit; the parent always reaps it,
kills it first if its own half raised, and parses or formats the
child's half itself if the child delivered nothing.
"""
from __future__ import annotations

import json
import math
import os
import signal
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath

DEFAULT_MISSING_MARKERS = ("", "NA", "NaN", "nan", "null")
# Tables of fewer cells are parsed and formatted in one process.  A fork
# and its pipe cost 12-20 ms (2-vCPU Xeon) and a cell 0.5-1.1 us, so a
# split pays from about 60k cells; 200k leaves room for a slower fork.
SPLIT_MIN_CELLS = 200_000
# the header before a child's payload: the payload's row or byte count,
# or -k when a k-byte JSON [message, line] of a ParseError follows
_COUNT = struct.Struct("<q")
# the relative deviation from the inferred spacing that to_sample_path allows
SPACING_RTOL = 1e-6


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class NonMonotoneTimestampsError(IngestError):
    pass


class EmptyPanelError(IngestError):
    pass


class IrregularSpacingError(IngestError):
    pass


class MissingValuesError(IngestError):
    pass


class LogDomainError(IngestError):
    pass


@dataclass(frozen=True)
class PanelData:
    """Timestamped multivariate observations; missing entries are NaN."""

    timestamps: np.ndarray
    series_names: tuple[str, ...]
    values: np.ndarray
    timestamp_label: str = "t"
    dropped_series: tuple[str, ...] = ()

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "series_names", tuple(self.series_names))
        if t.ndim != 1:
            raise IngestError(f"timestamps must be a vector, got shape {t.shape}")
        if v.shape != (t.shape[0], len(self.series_names)):
            raise IngestError(
                f"values have shape {v.shape}, expected "
                f"({t.shape[0]}, {len(self.series_names)})")
        if t.shape[0] == 0 or len(self.series_names) == 0:
            raise EmptyPanelError("panel has no rows or no series")
        if np.any(~np.isfinite(t)):
            raise IngestError("timestamps must be finite")
        if t.shape[0] > 1 and np.any(np.diff(t) <= 0):
            raise NonMonotoneTimestampsError(
                "timestamps must be strictly increasing")

    @property
    def n_rows(self) -> int:
        return self.timestamps.shape[0]

    @property
    def n_series(self) -> int:
        return len(self.series_names)

    @property
    def inferred_delta(self) -> float | None:
        """Most common timestamp spacing; None for a single-row panel."""
        if self.n_rows < 2:
            return None
        diffs = np.diff(self.timestamps)
        rounded = np.round(diffs, 12)
        values, counts = np.unique(rounded, return_counts=True)
        return float(values[np.argmax(counts)])

    def missing_mask(self) -> np.ndarray:
        return ~np.isfinite(self.values)


def _reads_as_number(marker: str) -> bool:
    try:
        return float(marker) == float(marker)
    except ValueError:
        return False


def parse_panel_csv(text: str,
                    missing_markers=DEFAULT_MISSING_MARKERS) -> PanelData:
    """Parse panel CSV text: header row, timestamp column first.

    Cells may be padded with whitespace; a cell that strips to one of the
    missing markers reads as NaN.  Errors name the file line, blank lines
    included.  A table of SPLIT_MIN_CELLS cells or more is parsed in two
    processes, with the values and errors of one (module docstring).
    """
    markers = frozenset(missing_markers)
    # A row is first read with float() alone, which ignores padding and
    # fails on every non-numeric marker; only a row that fails is stripped
    # and read cell by cell.  A marker that reads as a number (say -999)
    # would pass float() padded, so with one every row is stripped.
    strip_all = any(_reads_as_number(m) for m in markers)
    lines = text.splitlines()
    header_line = next((lineno for lineno, ln in enumerate(lines, start=1)
                        if ln.strip() != ""), None)
    if header_line is None:
        raise EmptyPanelError("no content")
    header = [cell.strip() for cell in lines[header_line - 1].split(",")]
    if len(header) < 2:
        raise ParseError("header needs a timestamp column and at least one series",
                         line=header_line)
    names = tuple(header[1:])
    n_cols = len(header)
    body = lines[header_line:]

    def parse(part, first):
        return _parse_rows(part, first, n_cols, names, markers, strip_all)

    if _split(len(body) * n_cols):
        table = _parse_in_two(parse, body, header_line + 1, n_cols)
    else:
        table = np.array(parse(body, header_line + 1), dtype=float)
    if table.shape[0] == 0:
        raise EmptyPanelError("panel has a header but no data rows")
    return PanelData(timestamps=table[:, 0].copy(), series_names=names,
                     values=np.ascontiguousarray(table[:, 1:]),
                     timestamp_label=header[0])


def _parse_rows(lines, first, n_cols, names, markers, strip_all) -> list:
    """[timestamp, values...] of each non-blank line; lines[0] is file line
    `first`.  Raises ParseError for the first bad line."""
    rows = []
    for lineno, ln in enumerate(lines, start=first):
        if ln.strip() == "":
            continue
        cells = ln.split(",")
        if len(cells) != n_cols:
            raise ParseError(f"row has {len(cells)} fields, expected {n_cols} "
                             "columns", line=lineno)
        if strip_all:
            rows.append(_parse_stripped_row(cells, markers, names, lineno))
            continue
        try:
            rows.append(list(map(float, cells)))
        except ValueError:
            rows.append(_parse_stripped_row(cells, markers, names, lineno))
    return rows


def _parse_stripped_row(cells, markers, names, lineno) -> list[float]:
    """[timestamp, values...] of a row whose cells are stripped first;
    markers read as NaN.  Raises ParseError for the first cell that is
    neither a number nor a marker."""
    cells = [cell.strip() for cell in cells]
    try:
        row = [float(cells[0])]
    except ValueError:
        raise ParseError(
            f"timestamp {cells[0]!r} is not numeric", line=lineno) from None
    for name, cell in zip(names, cells[1:]):
        try:
            row.append(float("nan") if cell in markers else float(cell))
        except ValueError:
            raise ParseError(f"value {cell!r} in column {name!r} is not numeric",
                             line=lineno) from None
    return row


def _parse_in_two(parse, body, first, n_cols) -> np.ndarray:
    """The table parse(body, first) gives, the first half of the lines
    parsed here and the second in a forked child.  The child sends raw
    float64 rows, read straight into the result."""
    mid = len(body) // 2

    def theirs():
        return parse(body[mid:], first + mid)

    def send():
        table = np.array(theirs(), dtype=float).reshape(-1, n_cols)
        return len(table), table

    with _child(send) as stream:
        mine = parse(body[:mid], first)
        count = _receive_count(stream)
        if count is not None:
            table = np.empty((len(mine) + count, n_cols))
            if mine:
                table[:len(mine)] = mine
            if _read_into(stream, table[len(mine):]):
                return table
    # the child delivered nothing: its half is parsed here
    return np.array(mine + theirs(), dtype=float)


def load_panel_csv(file_path: str,
                   missing_markers=DEFAULT_MISSING_MARKERS) -> PanelData:
    with open(file_path, "r", encoding="utf-8") as fh:
        return parse_panel_csv(fh.read(), missing_markers=missing_markers)


def panel_to_csv(panel: PanelData) -> str:
    """CSV text, missing values as empty cells; floats via repr, so a parse
    round trip is bit exact.  A table of SPLIT_MIN_CELLS cells or more is
    formatted in two processes, to the text of one (module docstring)."""
    table = np.column_stack([panel.timestamps, panel.values])
    gaps = panel.missing_mask().any(axis=1)
    header = ",".join([panel.timestamp_label, *panel.series_names])
    if not _split(table.size):
        return "\n".join([header, *_format_rows(table, gaps), ""])
    mid = len(table) // 2

    def theirs():
        return "\n".join([*_format_rows(table[mid:], gaps[mid:]), ""])

    def send():
        data = theirs().encode("utf-8")
        return len(data), data

    with _child(send) as stream:
        mine = _format_rows(table[:mid], gaps[:mid])
        count = _receive_count(stream)
        data = bytearray(count or 0)
        received = count is not None and _read_into(stream, data)
    # a child that delivered nothing has its half formatted here
    rest = data.decode("utf-8") if received else theirs()
    del data
    return "\n".join([header, *mine, rest])


def _format_rows(table: np.ndarray, gaps: np.ndarray) -> list[str]:
    """One line per row of table, floats via repr; the rows that gaps flags
    are written again cell by cell, a non-finite value as an empty cell."""
    rows = table.tolist()
    lines = [",".join(map(repr, row)) for row in rows]
    for i in np.flatnonzero(gaps):
        lines[i] = ",".join(repr(v) if math.isfinite(v) else "" for v in rows[i])
    return lines


# ---------------------------------------------------------------------------
# the second process of a split table


def _split(n_cells: int) -> bool:
    """Whether a table of n_cells cells is parsed or formatted in two
    processes: only a large one, and never beside a second Python thread,
    since a forked child inherits the locks that thread holds with no
    thread to release them."""
    return (n_cells >= SPLIT_MIN_CELLS and hasattr(os, "fork")
            and threading.active_count() == 1)


@contextmanager
def _child(send):
    """Fork a child that writes send()'s (count, payload) to a pipe after a
    count header, or a ParseError's message and line after a negative
    one, and yield the pipe's read end.  The child always ends with
    os._exit, so it runs no atexit hook and flushes no buffer of this
    process.  The parent kills the child if the block raises, and always
    reaps it."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                try:
                    count, payload = send()
                except ParseError as exc:
                    record = json.dumps([exc.message, exc.line]).encode("utf-8")
                    out.write(_COUNT.pack(-len(record)) + record)
                else:
                    out.write(_COUNT.pack(count))
                    out.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb", buffering=0) as stream:
            yield stream
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)


def _receive_count(stream) -> int | None:
    """The count the child sent, or None if it sent nothing whole; raises
    the ParseError it sent instead."""
    head = bytearray(_COUNT.size)
    if not _read_into(stream, head):
        return None
    (count,) = _COUNT.unpack(head)
    if count >= 0:
        return count
    record = bytearray(-count)
    if not _read_into(stream, record):
        return None
    message, line = json.loads(record)
    raise ParseError(message, line)


def _read_into(stream, buffer) -> bool:
    """Fill buffer from stream; False if the stream ends first."""
    view = memoryview(buffer)
    if view.nbytes == 0:
        return True
    view = view.cast("B")
    while view:
        n = stream.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def complete_cases(panel: PanelData, axis: str = "series") -> PanelData:
    """Drop series (default) or rows containing missing values.

    Dropping series keeps the time grid intact, which is what to_sample_path
    needs; dropped names are recorded on the result.  Dropping rows keeps
    every series but can break even spacing.
    """
    missing = panel.missing_mask()
    if axis == "series":
        keep = ~missing.any(axis=0)
        if not keep.any():
            raise EmptyPanelError("every series has missing values")
        dropped = tuple(name for name, k in zip(panel.series_names, keep) if not k)
        return PanelData(
            timestamps=panel.timestamps,
            series_names=tuple(n for n, k in zip(panel.series_names, keep) if k),
            values=panel.values[:, keep],
            timestamp_label=panel.timestamp_label,
            dropped_series=panel.dropped_series + dropped)
    if axis == "rows":
        keep = ~missing.any(axis=1)
        if not keep.any():
            raise EmptyPanelError("every row has missing values")
        return PanelData(timestamps=panel.timestamps[keep],
                         series_names=panel.series_names,
                         values=panel.values[keep],
                         timestamp_label=panel.timestamp_label,
                         dropped_series=panel.dropped_series)
    raise IngestError(f"unknown axis {axis!r}")


def to_sample_path(panel: PanelData, transform: str = "levels",
                   delta: float | None = None) -> SamplePath:
    """Turn a complete, evenly spaced panel into a SamplePath.

    transform "levels" keeps values as they are, "log" takes logs (every
    value must be positive), and "diff_log" uses consecutive log
    differences as the path states, which shortens the path by one row.
    delta defaults to the panel's inferred spacing.

    Raises:
        MissingValuesError: if any value is missing.
        IrregularSpacingError: if some spacing deviates from the inferred
            one by more than SPACING_RTOL in relative terms.
        LogDomainError: for non-positive values under a log transform.
    """
    if panel.missing_mask().any():
        raise MissingValuesError(
            "panel has missing values; run complete_cases first")
    if panel.n_rows < 2:
        raise IngestError("need at least two rows to form a path")
    step = panel.inferred_delta
    diffs = np.diff(panel.timestamps)
    if np.any(np.abs(diffs - step) > SPACING_RTOL * abs(step)):
        raise IrregularSpacingError(
            f"spacing varies from {diffs.min():.6g} to {diffs.max():.6g}; "
            "resample the panel first")
    if delta is None:
        delta = step
    if not 0 < delta < np.inf:
        raise IngestError(f"delta must be positive and finite, got {delta}")

    if transform == "levels":
        data = panel.values.copy()
    elif transform in ("log", "diff_log"):
        if np.any(panel.values <= 0):
            raise LogDomainError("log transform needs strictly positive values")
        data = np.log(panel.values)
        if transform == "diff_log":
            data = np.diff(data, axis=0)
    else:
        raise IngestError(f"unknown transform {transform!r}")
    return SamplePath(delta=float(delta), data=data, seed=None)
