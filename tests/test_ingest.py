import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsde import ingest
from netsde.ingest import (EmptyPanelError, IngestError,
                           IrregularSpacingError, LogDomainError,
                           MissingValuesError, NonMonotoneTimestampsError,
                           PanelData, ParseError, complete_cases,
                           load_panel_csv, panel_to_csv, parse_panel_csv,
                           to_sample_path)


def awkward_panel():
    values = np.array([[0.1, 1.0 / 3.0, 2.0],
                       [1e-17, np.nan, -5.5],
                       [7.25, 123456.789, np.nan]])
    return PanelData(timestamps=np.array([0.0, 0.25, 0.5]),
                     series_names=("a", "b", "c"), values=values,
                     timestamp_label="time")


def test_csv_round_trip_is_bit_exact(tmp_path):
    panel = awkward_panel()
    back = parse_panel_csv(panel_to_csv(panel))
    assert np.array_equal(back.timestamps, panel.timestamps)
    assert np.array_equal(back.values, panel.values, equal_nan=True)
    assert back.series_names == panel.series_names
    assert back.timestamp_label == "time"

    path = tmp_path / "panel.csv"
    path.write_text(panel_to_csv(panel), encoding="utf-8")
    again = load_panel_csv(str(path))
    assert np.array_equal(again.values, panel.values, equal_nan=True)


def test_missing_markers():
    text = "t,x,y\n0,1,NA\n1,NaN,2\n2,null,nan\n3,,4\n"
    panel = parse_panel_csv(text)
    assert np.array_equal(panel.missing_mask(),
                          [[False, True], [True, False],
                           [True, True], [True, False]])

    custom = parse_panel_csv("t,x\n0,-999\n1,2\n", missing_markers=("-999",))
    assert np.isnan(custom.values[0, 0]) and custom.values[1, 0] == 2.0
    with pytest.raises(ParseError):
        parse_panel_csv("t,x\n0,NA\n", missing_markers=("-999",))


def test_padded_markers_read_as_missing():
    panel = parse_panel_csv("t,a,b\n0, NA ,1.0\n1,2.0,\tnull\n2, 3.0 ,  \n")
    assert np.array_equal(panel.missing_mask(),
                          [[True, False], [False, True], [False, True]])
    assert panel.values[1, 0] == 2.0 and panel.values[2, 0] == 3.0
    # a marker that reads as a number is matched after stripping too
    custom = parse_panel_csv("t,x\n0, -999\n1,2\n", missing_markers=("-999",))
    assert np.isnan(custom.values[0, 0]) and custom.values[1, 0] == 2.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_panel_csv("t,x\n0,1\noops,2\n")
    assert exc.value.line == 3 and "not numeric" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_panel_csv("t,x\n0,1,9\n")
    assert exc.value.line == 2 and "columns" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_panel_csv("t,x\n0,abc\n")
    assert exc.value.line == 2 and "'abc'" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_panel_csv("justonecolumn\n0\n")
    assert exc.value.line == 1

    # blank lines count, inside the data and before the header
    with pytest.raises(ParseError) as exc:
        parse_panel_csv("t,a,b\n0,1,2\n\n1,2,3\n2,x,4\n")
    assert exc.value.line == 5 and "'x'" in str(exc.value)
    assert str(exc.value).startswith("line 5:")

    with pytest.raises(ParseError) as exc:
        parse_panel_csv("\nt,a\n0,1\n1,oops\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError) as exc:
        parse_panel_csv("\n  \njustonecolumn\n0\n")
    assert exc.value.line == 3

    with pytest.raises(EmptyPanelError):
        parse_panel_csv("")
    with pytest.raises(EmptyPanelError):
        parse_panel_csv("t,x\n")


def test_panel_validation():
    with pytest.raises(NonMonotoneTimestampsError):
        PanelData(timestamps=[0.0, 1.0, 1.0], series_names=("x",),
                  values=np.zeros((3, 1)))
    with pytest.raises(IngestError):
        PanelData(timestamps=[0.0, 1.0], series_names=("x",),
                  values=np.zeros((3, 1)))
    with pytest.raises(IngestError):
        PanelData(timestamps=[0.0, np.inf], series_names=("x",),
                  values=np.zeros((2, 1)))
    with pytest.raises(EmptyPanelError):
        PanelData(timestamps=np.zeros(0), series_names=("x",),
                  values=np.zeros((0, 1)))


def test_inferred_delta_is_the_modal_spacing():
    panel = PanelData(timestamps=[0.0, 1.0, 2.0, 2.5],
                      series_names=("x",), values=np.zeros((4, 1)))
    assert panel.inferred_delta == 1.0
    pair = PanelData(timestamps=[0.0, 0.5], series_names=("x",),
                     values=np.zeros((2, 1)))
    assert pair.inferred_delta == 0.5
    single = PanelData(timestamps=[3.0], series_names=("x",),
                       values=np.zeros((1, 1)))
    assert single.inferred_delta is None


def test_complete_cases():
    panel = awkward_panel()
    by_series = complete_cases(panel)
    assert by_series.series_names == ("a",)
    assert by_series.dropped_series == ("b", "c")
    assert np.array_equal(by_series.values, panel.values[:, :1])
    # dropping again is a no-op but keeps the record
    again = complete_cases(by_series)
    assert again.dropped_series == ("b", "c")

    by_rows = complete_cases(panel, axis="rows")
    assert by_rows.n_rows == 1
    assert np.array_equal(by_rows.values, panel.values[:1])

    all_bad = PanelData(timestamps=[0.0, 1.0], series_names=("x",),
                        values=np.array([[np.nan], [1.0]]))
    with pytest.raises(EmptyPanelError):
        complete_cases(all_bad)
    with pytest.raises(IngestError):
        complete_cases(panel, axis="columns")


def clean_panel():
    values = np.array([[1.0, 2.0], [1.5, 2.5], [2.25, 3.0], [3.0, 4.5]])
    return PanelData(timestamps=np.array([0.0, 0.5, 1.0, 1.5]),
                     series_names=("x", "y"), values=values)


def test_to_sample_path_levels_and_delta():
    panel = clean_panel()
    path = to_sample_path(panel)
    assert path.delta == 0.5
    assert np.array_equal(path.data, panel.values)
    assert path.seed is None

    forced = to_sample_path(panel, delta=0.01)
    assert forced.delta == 0.01

    jitter = PanelData(timestamps=[0.0, 1.0, 2.0 + 1e-9],
                       series_names=("x",), values=np.ones((3, 1)))
    assert to_sample_path(jitter).delta == 1.0


def test_to_sample_path_transforms():
    panel = clean_panel()
    logs = to_sample_path(panel, transform="log")
    assert np.array_equal(logs.data, np.log(panel.values))

    diffs = to_sample_path(panel, transform="diff_log")
    assert diffs.data.shape == (3, 2)
    assert np.array_equal(diffs.data, np.diff(np.log(panel.values), axis=0))

    with_zero = PanelData(timestamps=[0.0, 1.0], series_names=("x",),
                          values=np.array([[0.0], [1.0]]))
    with pytest.raises(LogDomainError):
        to_sample_path(with_zero, transform="log")
    with pytest.raises(IngestError):
        to_sample_path(panel, transform="sqrt")


def test_to_sample_path_guards():
    with pytest.raises(MissingValuesError):
        to_sample_path(awkward_panel())
    uneven = PanelData(timestamps=[0.0, 1.0, 2.0, 4.0],
                       series_names=("x",), values=np.ones((4, 1)))
    with pytest.raises(IrregularSpacingError):
        to_sample_path(uneven)
    panel = clean_panel()
    with pytest.raises(IngestError):
        to_sample_path(panel, delta=-1.0)
    single = PanelData(timestamps=[0.0], series_names=("x",),
                       values=np.ones((1, 1)))
    with pytest.raises(IngestError):
        to_sample_path(single)


# ---------------------------------------------------------------------------
# the two-process codec: SPLIT_MIN_CELLS is lowered so that small tables split


class Forks:
    """Counts the calls to os.fork, which it passes on."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._fork = os.fork
        monkeypatch.setattr(os, "fork", self)

    def __call__(self):
        self.count += 1
        return self._fork()


def in_one_process(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "SPLIT_MIN_CELLS", float("inf"))
        return fn(*args, **kwargs)


def in_two_processes(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "SPLIT_MIN_CELLS", 1)
        forks = Forks(mp)
        try:
            return fn(*args, **kwargs)
        finally:
            assert forks.count == 1


def outcome(fn, *args, **kwargs):
    """fn's result, or its IngestError as (type, message, line)."""
    try:
        return fn(*args, **kwargs)
    except IngestError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def same_panel(a, b) -> bool:
    """Bit for bit, NaN payloads included."""
    return (a.timestamps.tobytes() == b.timestamps.tobytes()
            and a.values.tobytes() == b.values.tobytes()
            and a.values.shape == b.values.shape
            and a.series_names == b.series_names
            and a.timestamp_label == b.timestamp_label)


PADDING = st.sampled_from(["", " ", "\t", "  "])
NUMBERS = st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.sampled_from(
    ["1e-17", "-0.0", "3", "2.5E+3"])


@st.composite
def panel_texts(draw):
    """CSV text with padded cells, gaps spelled as markers, blank lines and
    (when the markers hold -999, which reads as a number) strip_all rows;
    sometimes with bad cells.  Returns (text, markers, bad file lines)."""
    markers = draw(st.sampled_from([ingest.DEFAULT_MISSING_MARKERS,
                                    ("", "NA", "-999")]))
    n_series = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 12))
    lines = ["t," + ",".join(f"s{j}" for j in range(n_series))]
    bad = []
    for i in range(n_rows):
        while draw(st.integers(0, 4)) == 4:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        cells = [draw(PADDING) + repr(float(i)) + draw(PADDING)]
        for _ in range(n_series):
            cell = draw(st.sampled_from(markers) | NUMBERS)
            cells.append(draw(PADDING) + cell + draw(PADDING))
        if draw(st.integers(0, 9)) == 9:
            cells[draw(st.integers(0, n_series))] = "oops"
            bad.append(len(lines) + 1)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", markers, bad


@settings(max_examples=60, deadline=None)
@given(case=panel_texts())
def test_split_parse_matches_one_process(case):
    text, markers, bad = case
    one = outcome(in_one_process, parse_panel_csv, text, missing_markers=markers)
    two = outcome(in_two_processes, parse_panel_csv, text,
                  missing_markers=markers)
    if bad:
        # the first bad line in file order, whichever half holds it
        assert one[0] is ParseError and one[2] == bad[0]
        assert two == one
    else:
        assert same_panel(two, one)
        assert in_two_processes(panel_to_csv, one) \
            == in_one_process(panel_to_csv, one)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=False),
                                min_size=3, max_size=3), min_size=1, max_size=20),
       label=st.sampled_from(["t", "time", "zeit_µs"]))
def test_split_writer_matches_one_process(values, label):
    values = np.array(values)
    panel = PanelData(timestamps=np.arange(len(values)) * 0.25,
                      series_names=("a", "b", "c"), values=values,
                      timestamp_label=label)
    text = in_two_processes(panel_to_csv, panel)
    assert text == in_one_process(panel_to_csv, panel)
    assert same_panel(in_two_processes(parse_panel_csv, text),
                      parse_panel_csv(text))


SPLIT_TEXT = "t,a,b\n0,1,2\n1,2,3\n\n2,3,4\n3,4,5\n4,5,6\n"
# the body is lines 2-7 of the file; the child parses lines 5-7


@pytest.mark.parametrize("bad_lines,reported", [
    ((6,), 6),       # the child's half only
    ((7, 5), 5),     # two in the child's half
    ((3, 6), 3),     # one in each half: the parent's is earlier
])
def test_split_parse_reports_the_first_bad_line(bad_lines, reported):
    lines = SPLIT_TEXT.split("\n")
    for lineno in bad_lines:
        lines[lineno - 1] = lines[lineno - 1].replace(",", ",x", 1)
    text = "\n".join(lines)
    with pytest.raises(ParseError) as one:
        in_one_process(parse_panel_csv, text)
    with pytest.raises(ParseError) as two:
        in_two_processes(parse_panel_csv, text)
    assert two.value.line == one.value.line == reported
    assert str(two.value) == str(one.value)
    assert two.value.message == one.value.message


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text", [
    SPLIT_TEXT,                                   # success
    SPLIT_TEXT.replace("3,4,5", "3,4,?"),         # the child's half raises
    SPLIT_TEXT.replace("1,2,3", "1,?,3"),         # the parent's half raises
])
def test_split_parse_leaves_no_child(text):
    try:
        in_two_processes(parse_panel_csv, text)
    except ParseError:
        pass
    assert_no_child()


def test_split_redoes_what_the_child_did_not_deliver(monkeypatch):
    parent = os.getpid()
    parse_rows, format_rows = ingest._parse_rows, ingest._format_rows

    def dies_in_the_child(fn):
        def run(*args):
            if os.getpid() != parent:
                os._exit(3)
            return fn(*args)
        return run

    monkeypatch.setattr(ingest, "_parse_rows", dies_in_the_child(parse_rows))
    monkeypatch.setattr(ingest, "_format_rows", dies_in_the_child(format_rows))
    panel = in_two_processes(parse_panel_csv, SPLIT_TEXT)
    assert same_panel(panel, in_one_process(parse_panel_csv, SPLIT_TEXT))
    assert in_two_processes(panel_to_csv, panel) \
        == in_one_process(panel_to_csv, panel)
    assert_no_child()


def test_codec_stays_in_process_beside_a_thread(monkeypatch):
    def fork():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(ingest, "SPLIT_MIN_CELLS", 1)
    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        panel = parse_panel_csv(SPLIT_TEXT)
        text = panel_to_csv(panel)
    finally:
        stop.set()
        worker.join()
    assert text == ("t,a,b\n0.0,1.0,2.0\n1.0,2.0,3.0\n2.0,3.0,4.0\n"
                    "3.0,4.0,5.0\n4.0,5.0,6.0\n")
