"""Loading external panel data into sample paths.

A panel is a CSV with a timestamp column followed by one column per
series.  Values can be missing; the loader marks them NaN and records
nothing else about them.  complete_cases removes series (or rows) with
missing entries and to_sample_path turns a clean, evenly spaced panel
into a SamplePath, optionally in logs or log-differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simulate import SamplePath

DEFAULT_MISSING_MARKERS = ("", "NA", "NaN", "nan", "null")


class IngestError(ValueError):
    pass


class ParseError(IngestError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
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


def parse_panel_csv(text: str,
                    missing_markers=DEFAULT_MISSING_MARKERS) -> PanelData:
    """Parse panel CSV text: header row, timestamp column first."""
    markers = set(missing_markers)
    # blank lines are skipped but still counted, so errors name the file line
    lines = ((lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() != "")
    header_line, first = next(lines, (None, None))
    if first is None:
        raise EmptyPanelError("no content")
    header = [cell.strip() for cell in first.split(",")]
    if len(header) < 2:
        raise ParseError("header needs a timestamp column and at least one series",
                         line=header_line)
    names = tuple(header[1:])
    n_cols = len(header)
    timestamps = []
    rows = []
    for lineno, ln in lines:
        cells = [cell.strip() for cell in ln.split(",")]
        if len(cells) != n_cols:
            raise ParseError(
                f"expected {n_cols} columns, found {len(cells)}", line=lineno)
        try:
            timestamps.append(float(cells[0]))
        except ValueError:
            raise ParseError(
                f"timestamp {cells[0]!r} is not numeric", line=lineno) from None
        row = np.empty(n_cols - 1)
        for k, cell in enumerate(cells[1:]):
            if cell in markers:
                row[k] = np.nan
            else:
                try:
                    row[k] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"value {cell!r} in column {names[k]!r} is not numeric",
                        line=lineno) from None
        rows.append(row)
    if not rows:
        raise EmptyPanelError("panel has a header but no data rows")
    return PanelData(timestamps=np.asarray(timestamps),
                     series_names=names, values=np.vstack(rows),
                     timestamp_label=header[0])


def load_panel_csv(file_path: str,
                   missing_markers=DEFAULT_MISSING_MARKERS) -> PanelData:
    with open(file_path, "r", encoding="utf-8") as fh:
        return parse_panel_csv(fh.read(), missing_markers=missing_markers)


def panel_to_csv(panel: PanelData) -> str:
    """CSV text; floats via repr, so a parse round trip is bit exact."""
    lines = [",".join([panel.timestamp_label, *panel.series_names])]
    for i in range(panel.n_rows):
        cells = [repr(float(panel.timestamps[i]))]
        for v in panel.values[i]:
            cells.append("" if not np.isfinite(v) else repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_panel_csv(panel: PanelData, file_path: str) -> None:
    with open(file_path, "w", encoding="utf-8") as fh:
        fh.write(panel_to_csv(panel))


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
                   delta: float | None = None,
                   spacing_rtol: float = 1e-6) -> SamplePath:
    """Turn a complete, evenly spaced panel into a SamplePath.

    transform "levels" keeps values as they are, "log" takes logs (every
    value must be positive), and "diff_log" uses consecutive log
    differences as the path states, which shortens the path by one row.
    delta defaults to the panel's inferred spacing.

    Raises:
        MissingValuesError: if any value is missing.
        IrregularSpacingError: if some spacing deviates from the inferred
            one by more than spacing_rtol in relative terms.
        LogDomainError: for non-positive values under a log transform.
    """
    if panel.missing_mask().any():
        raise MissingValuesError(
            "panel has missing values; run complete_cases first")
    if panel.n_rows < 2:
        raise IngestError("need at least two rows to form a path")
    step = panel.inferred_delta
    diffs = np.diff(panel.timestamps)
    if np.any(np.abs(diffs - step) > spacing_rtol * abs(step)):
        raise IrregularSpacingError(
            f"spacing varies from {diffs.min():.6g} to {diffs.max():.6g}; "
            "resample the panel first")
    if delta is None:
        delta = step
    if delta <= 0:
        raise IngestError(f"delta must be positive, got {delta}")

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
