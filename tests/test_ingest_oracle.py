"""The columnar CSV reader against the row-by-row oracle in reference_ingest.py.

On every CSV the two readers must give panels equal field by field (dtypes,
series, code maps and warnings included) or the same ``DataError`` text.  The
columnar reader differs on purpose in three places, each asserted on its own:
a row without a cell for a column the reader uses is a ``DataError`` (the
oracle raised ``IndexError``), the file is read as UTF-8 with an optional
byte-order mark, and only a first gap of 1, 28-31 or 365-366 days infers a
frequency (the oracle filed every other gap as daily, monthly or yearly).

``treecast evaluate``'s value reader is checked against its old row loop in
the same way: on the files the old loop read correctly, the same dict.
"""

import csv
import dataclasses
import io
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ingest
from treecast.bundle import read_value_csv
from treecast.data import CALENDAR_NAMES, PanelDataset, TimeSeries, derive_calendar, ingest_csv
from treecast.errors import DataError

COLUMNS = ("series_id", "timestamp", "value", "price", "kind", "extra")
SIDS = ("a", "b", " c", "d ", "e e")
STEPS = {
    "daily": lambda d, k: d + timedelta(days=k),
    "weekly": lambda d, k: d + timedelta(weeks=k),
    "monthly": lambda d, k: date(d.year + (d.month - 1 + k) // 12, (d.month - 1 + k) % 12 + 1, 1),
    "yearly": lambda d, k: date(d.year + k, d.month, d.day),
}
# cells that float() or date.fromisoformat treat unlike a plain decimal or ISO date
BAD_NUMBERS = ("", " ", "nan", "NaN", "inf", "-inf", "1e400", "abc", "1_000", " 2.5 ", "0x1")
BAD_STAMPS = ("", "2020-13-01", "notadate", "2020-1-1", "20240101", " 2021-03 ", "2020-02-30")
BLANK_ROWS = ([], [""], ["   "], ["", "", ""], [" ", "\t"])


def _stamp(draw, d):
    forms = [d.isoformat(), f"  {d.isoformat()} ", d.strftime("%Y%m%d")]
    if d.day == 1:
        forms.append(d.strftime("%Y-%m"))
    return draw(st.sampled_from(forms))


def _number(draw):
    x = draw(st.floats(-1e6, 1e6, allow_nan=False))
    return draw(st.sampled_from([repr(x), f" {x:g} ", f"{int(x):_d}"]))


@st.composite
def panel_csvs(draw):
    """A CSV of 1-4 series in random column and row order, with or without
    faults, plus the schema and frozen code maps it is read with."""
    header = draw(st.permutations(COLUMNS))
    frequency = draw(st.sampled_from(sorted(STEPS)))
    start = draw(st.dates(date(1899, 1, 1), date(2100, 12, 1))).replace(day=1)
    rows = []
    for sid in draw(st.lists(st.sampled_from(SIDS), min_size=1, max_size=4, unique=True)):
        for k in range(draw(st.integers(1, 6))):
            cells = {"series_id": sid, "timestamp": _stamp(draw, STEPS[frequency](start, k)),
                     "value": _number(draw), "price": _number(draw),
                     "kind": draw(st.sampled_from(["x", "y", " z", "x "])),
                     "extra": draw(st.sampled_from(["", "?", "1,5"]))}
            rows.append([cells[c] for c in header])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["number", "stamp", "duplicate", "short", "blank"]))
        if fault == "number":
            j = header.index(draw(st.sampled_from(["value", "price"])))
            rows[i] = rows[i][:j] + [draw(st.sampled_from(BAD_NUMBERS))] + rows[i][j + 1:]
        elif fault == "stamp":
            j = header.index("timestamp")
            rows[i] = rows[i][:j] + [draw(st.sampled_from(BAD_STAMPS))] + rows[i][j + 1:]
        elif fault == "duplicate":
            rows.append(list(rows[i]))
        elif fault == "short":
            rows[i] = rows[i][:draw(st.integers(1, len(header) - 1))]
        else:
            rows.insert(i, list(draw(st.sampled_from(BLANK_ROWS))))
    rows = draw(st.permutations(rows))
    schema = {"numeric": ["price"] if draw(st.booleans()) else [],
              "categorical": ["kind"] if draw(st.booleans()) else []}
    if draw(st.booleans()):
        schema["frequency"] = "monthly"
    code_maps = draw(st.sampled_from([None, {}, {"kind": {"x": 0, "z": 1}}]))
    text = "\n".join([",".join(header)] + [",".join(f'"{c}"' if "," in c else c for c in r)
                                           for r in rows])
    return text + "\n", schema, code_maps


def read(reader, path, schema, code_maps):
    """(panel, DataError text, warning messages) of one reader on one file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            panel, error = reader(path, schema, code_maps), None
        except DataError as exc:
            panel, error = None, str(exc)
    return panel, error, [str(w.message) for w in caught]


def assert_panels_equal(a: PanelDataset, b: PanelDataset):
    for f in dataclasses.fields(PanelDataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        elif f.name in ("cat", "num"):
            assert list(x) == list(y), f.name
            for name in x:
                assert x[name].dtype == y[name].dtype, (f.name, name)
                assert np.array_equal(x[name], y[name]), (f.name, name)
        else:
            assert x == y, f.name


def first_gap(panel):
    return next(((s.timestamps[1] - s.timestamps[0]).days for s in panel.series if len(s) >= 2),
                None)


@settings(max_examples=150, deadline=None)
@given(panel_csvs())
def test_columnar_reader_matches_row_reader(tmp_path_factory, case):
    text, schema, code_maps = case
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_text(text)
    panel, error, warned = read(ingest_csv, str(path), schema, code_maps)
    try:
        old_panel, old_error, old_warned = read(reference_ingest.ingest_csv, str(path), schema,
                                                code_maps)
    except IndexError:
        # a short row: the row reader failed on the cell the new one names
        assert error is not None and "no cell for column" in error, error
        return
    assert warned == old_warned
    gap = None if old_panel is None or "frequency" in schema else first_gap(old_panel)
    if gap is not None and not (gap == 1 or 28 <= gap <= 31 or gap in (365, 366)):
        assert panel is None
        assert error.endswith(f"first gap of {gap} days fits no supported frequency "
                              "(daily, monthly, yearly); set data.frequency"), error
        return
    assert error == old_error
    if panel is not None:
        assert_panels_equal(panel, old_panel)


def write(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return str(path)


class TestIntendedFixes:
    @pytest.mark.parametrize("short_row, column", [("a,2020-02-01", "value"),
                                                   ("a,2020-02-01,2", "price"),
                                                   ("a,2020-02-01,2,3", "kind")])
    def test_short_row_names_row_and_first_missing_column(self, tmp_path, short_row, column):
        path = write(tmp_path, "series_id,timestamp,value,price,kind\n"
                               f"a,2020-01-01,1,2,x\n{short_row}\n")
        cells = short_row.count(",") + 1
        with pytest.raises(DataError, match=rf"^row 3: no cell for column '{column}' "
                                            rf"\(the row has {cells} cells\)$"):
            ingest_csv(path, {"numeric": ["price"], "categorical": ["kind"]})

    def test_short_row_after_a_faulty_row_reports_the_earlier_row(self, tmp_path):
        path = write(tmp_path, "series_id,timestamp,value\na,2020-01-01,abc\na,2020-02-01\n")
        with pytest.raises(DataError, match="^row 2: non-numeric target 'abc'$"):
            ingest_csv(path)

    def test_row_may_lack_undeclared_trailing_columns(self, tmp_path):
        path = write(tmp_path, "series_id,timestamp,value,note\n"
                               "a,2020-01-01,1,first\na,2020-02-01,2\n")
        assert_panels_equal(ingest_csv(path), reference_ingest.ingest_csv(path))

    def test_byte_order_mark_reads_like_plain_utf8(self, tmp_path):
        text = "series_id,timestamp,value\ncafé,2020-01-01,1\ncafé,2020-02-01,2\n"
        plain = write(tmp_path, text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        panel = ingest_csv(str(bom))
        assert panel.series[0].series_id == "café"
        assert_panels_equal(panel, ingest_csv(plain))

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"series_id,timestamp,value\ncaf\xe9,2020-01-01,1\n")
        with pytest.raises(DataError, match=f"^{path}: not UTF-8 text"):
            ingest_csv(str(path))

    @pytest.mark.parametrize("gap", [2, 7, 27, 32, 62, 90, 364, 367])
    def test_unsupported_first_gap_names_series_and_gap(self, tmp_path, gap):
        rows = "".join(f"s,{date(2020, 1, 1) + timedelta(days=k * gap)},{k}\n" for k in range(3))
        path = write(tmp_path, "series_id,timestamp,value\n" + rows)
        with pytest.raises(DataError, match=f"^series 's': first gap of {gap} days .*"
                                            "set data.frequency$"):
            ingest_csv(path)

    @pytest.mark.parametrize("gap, frequency", [(1, "daily"), (28, "monthly"), (31, "monthly"),
                                                (365, "yearly"), (366, "yearly")])
    def test_supported_first_gap(self, tmp_path, gap, frequency):
        rows = f"s,2020-02-01,1\ns,{date(2020, 2, 1) + timedelta(days=gap)},2\n"
        path = write(tmp_path, "series_id,timestamp,value\n" + rows)
        assert ingest_csv(path).frequency == frequency

    def test_declared_frequency_overrides_inference(self, tmp_path):
        rows = "".join(f"s,{date(2020, 1, 2) + timedelta(weeks=k)},{k}\n" for k in range(3))
        path = write(tmp_path, "series_id,timestamp,value\n" + rows)
        assert ingest_csv(path, {"frequency": "daily"}).frequency == "daily"


# ASCII, so the old reader's locale encoding reads the file as UTF-8 does
ID_TEXT = st.text(st.sampled_from('ab, "x1-'), min_size=1, max_size=6).filter(
    lambda sid: sid == sid.strip())


@st.composite
def value_csvs(draw):
    """A series_id,timestamp,value CSV that the old reader reads correctly:
    unique keys, ISO dates, finite values, shuffled rows, blank lines, and
    ids that need quoting but have no edge whitespace."""
    keys = draw(st.lists(st.tuples(ID_TEXT, st.dates(date(1, 1, 1), date(9999, 12, 31))),
                         min_size=1, max_size=12, unique=True))
    rows = [[sid, d.isoformat(), draw(st.sampled_from([repr(x), f" {x:g} ", f"{x:.17e}"]))]
            for sid, d in keys for x in [draw(st.floats(allow_nan=False, allow_infinity=False))]]
    rows += [list(draw(st.sampled_from(BLANK_ROWS))) for _ in range(draw(st.integers(0, 3)))]
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [["series_id", "timestamp", "value"], *draw(st.permutations(rows))])
    return buf.getvalue()


@settings(max_examples=60, deadline=None)
@given(value_csvs())
def test_value_reader_matches_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = read_value_csv(str(path)), reference_ingest.read_value_csv(str(path))
    assert list(got) == sorted(want)
    assert [v.hex() for v in got.values()] == [want[k].hex() for k in got]


LEAP_AND_EARLY = [date(1, 1, 1), date(4, 2, 29), date(1600, 2, 29), date(1899, 12, 31),
                  date(1900, 2, 28), date(1900, 3, 1), date(1968, 2, 29), date(1969, 12, 31),
                  date(1970, 1, 1), date(2000, 2, 29), date(9999, 12, 31)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.dates(), max_size=6), min_size=1, max_size=4))
@example([LEAP_AND_EARLY, LEAP_AND_EARLY[::-1]])
def test_calendar_matches_per_row_loop(stamps):
    series = [TimeSeries(f"s{i}", tuple(s)) for i, s in enumerate(stamps)]
    panel = PanelDataset.build(series, np.zeros(sum(map(len, stamps))), "daily")
    loop = reference_ingest.derive_calendar(panel)
    fresh = derive_calendar(panel)
    for name in (*CALENDAR_NAMES, "time_index"):
        got, want = getattr(fresh, name), getattr(loop, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
