import numpy as np
import pytest

from netsde.ingest import (EmptyPanelError, IngestError,
                           IrregularSpacingError, LogDomainError,
                           MissingValuesError, NonMonotoneTimestampsError,
                           PanelData, ParseError, complete_cases,
                           load_panel_csv, panel_to_csv, parse_panel_csv,
                           save_panel_csv, to_sample_path)


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
    save_panel_csv(panel, str(path))
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
