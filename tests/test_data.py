from datetime import date

import numpy as np
import pytest

from treecast.baselines import classical_decompose
from treecast.data import (RESERVED_CODE, PanelDataset, TimeSeries, attach_summary,
                           derive_calendar, future_panel, ingest_csv, summarize_series)
from treecast.datasets import synthetic_panel
from treecast.errors import DataError
from treecast.targets import TargetSpec

from conftest import drop_last, make_panel


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestIngest:
    def test_air_passengers_shape(self, air_full):
        assert air_full.n_series == 1
        assert len(air_full.series[0]) == 144
        assert air_full.frequency == "monthly"

    def test_empty_file_is_error(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            ingest_csv(str(tmp_path / "nope.csv"))

    def test_header_only_is_error(self, tmp_path):
        path = write_csv(tmp_path, "series_id,timestamp,value\n")
        with pytest.raises(DataError, match="no data rows"):
            ingest_csv(path)

    def test_two_series_lengths(self, tmp_path):
        rows = ["series_id,timestamp,value"]
        for i in range(3):
            rows.append(f"a,2020-0{i+1}-01,{i}")
        for i in range(5):
            rows.append(f"b,2020-0{i+1}-01,{i * 2}")
        ds = ingest_csv(write_csv(tmp_path, "\n".join(rows)))
        assert ds.n_series == 2
        assert sorted(len(s) for s in ds.series) == [3, 5]

    def test_malformed_timestamp_names_row(self, tmp_path):
        path = write_csv(
            tmp_path, "series_id,timestamp,value\na,2020-01-01,1\na,notadate,2\n"
        )
        with pytest.raises(DataError, match="row 3.*notadate"):
            ingest_csv(path)

    def test_duplicate_key(self, tmp_path):
        path = write_csv(
            tmp_path, "series_id,timestamp,value\na,2020-01-01,1\na,2020-01-01,2\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(path)

    def test_non_numeric_target(self, tmp_path):
        path = write_csv(tmp_path, "series_id,timestamp,value\na,2020-01-01,abc\n")
        with pytest.raises(DataError, match="non-numeric"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("frozen", [False, True])
    def test_non_finite_feature_names_row_and_column(self, tmp_path, cell, frozen):
        path = write_csv(
            tmp_path,
            f"series_id,timestamp,value,price\na,2020-01-01,1,2.5\na,2020-02-01,2,{cell}\n",
        )
        code_maps = {} if frozen else None  # forecast ingest freezes the code maps
        with pytest.raises(DataError, match=f"row 3: non-finite value '{cell}' in column 'price'"):
            ingest_csv(path, {"numeric": ["price"]}, code_maps=code_maps)

    def test_missing_target_rejected(self, tmp_path):
        path = write_csv(tmp_path, "series_id,timestamp,value\na,2020-01-01,\n")
        with pytest.raises(DataError, match="missing target"):
            ingest_csv(path)

    def test_rows_sorted_by_series_and_time(self, tmp_path):
        path = write_csv(
            tmp_path,
            "series_id,timestamp,value\nb,2020-02-01,4\na,2020-02-01,2\n"
            "a,2020-01-01,1\nb,2020-01-01,3\n",
        )
        ds = ingest_csv(path)
        assert [s.series_id for s in ds.series] == ["a", "b"]
        assert list(ds.y) == [1.0, 2.0, 3.0, 4.0]

    def test_categorical_codes_dense_and_frozen(self, tmp_path):
        path = write_csv(
            tmp_path,
            "series_id,timestamp,value,kind\na,2020-01-01,1,x\na,2020-02-01,2,z\n"
            "a,2020-03-01,3,y\n",
        )
        ds = ingest_csv(path, {"categorical": ["kind"]})
        assert ds.code_maps["kind"] == {"x": 0, "y": 1, "z": 2}
        assert list(ds.cat["kind"]) == [0, 2, 1]

    def test_unseen_category_reserved_code(self, tmp_path):
        path = write_csv(
            tmp_path, "series_id,timestamp,value,kind\na,2020-01-01,1,NEW\n"
        )
        with pytest.warns(UserWarning, match="unseen category"):
            ds = ingest_csv(path, {"categorical": ["kind"]}, code_maps={"kind": {"x": 0}})
        assert ds.cat["kind"][0] == RESERVED_CODE


class TestCalendar:
    def test_monthly_stamp(self, tmp_path):
        ds = ingest_csv(write_csv(tmp_path, "series_id,timestamp,value\na,1949-01,112\n"))
        assert ds.month[0] == 1 and ds.quarter[0] == 1 and ds.year[0] == 1949

    def test_time_index_runs_per_series(self):
        ds = make_panel({"a": np.arange(12.0)})
        assert list(ds.time_index) == list(range(12))

    def test_day_of_week_monday_zero(self):
        ds = make_panel({"a": [1.0, 2.0]}, frequency="daily", start=date(2015, 7, 31))
        assert ds.day_of_week[0] == 4  # Friday

    def test_pure_function_of_timestamps(self):
        ds = make_panel({"a": np.arange(24.0)})
        again = derive_calendar(ds)
        for field in ("month", "quarter", "year", "day_of_week", "time_index"):
            assert np.array_equal(getattr(ds, field), getattr(again, field))


def lag_design(ds, p):
    """(rows with p lags, lags) of the AR(p) target on ``ds``."""
    return TargetSpec("ar", p=p).target.design(ds)


class TestLags:
    def test_small_example(self):
        valid, lags = lag_design(make_panel({"a": [1.0, 2.0, 3.0, 4.0]}), 2)
        assert not valid[0] and not valid[1]
        assert list(lags[2]) == [2.0, 1.0]
        assert list(lags[3]) == [3.0, 2.0]

    def test_series_equal_to_p_excluded(self):
        with pytest.warns(UserWarning, match="excluded"):
            valid, _ = lag_design(make_panel({"a": [1.0, 2.0, 3.0]}), 3)
        assert not valid.any()

    def test_air_passengers_usable_rows(self, air_full):
        valid, _ = lag_design(air_full, 12)
        assert int(valid.sum()) == 132

    def test_lag_consistency_invariant(self):
        rng = np.random.default_rng(5)
        ds = make_panel({"a": rng.uniform(1, 9, 30), "b": rng.uniform(1, 9, 17)})
        valid, lags = lag_design(ds, 3)
        for i in range(ds.n_series):
            rows = ds.rows_of(i)
            vals = ds.y[rows]
            for t in range(len(rows)):
                if not valid[rows[t]]:
                    continue
                for j in range(1, 4):
                    assert lags[rows[t], j - 1] == vals[t - j]


class TestSummary:
    def test_constant_series_conventions(self):
        stats = summarize_series(make_panel({"a": np.ones(30)}))["a"]
        assert stats["f_std"] == 0.0
        assert stats["f_acf1"] == 0.0

    def test_mean(self):
        stats = summarize_series(make_panel({"a": [1.0, 2.0, 3.0, 4.0]}))["a"]
        assert stats["f_mean"] == pytest.approx(2.5)

    def test_seasonal_strength_of_pure_sine(self):
        # oracle: the variance-ratio definition applied to the decomposition
        t = np.arange(60)
        y = 10 + np.sin(2 * np.pi * t / 12)
        trend, seas, rem = classical_decompose(y, 12)
        ok = ~np.isnan(trend)
        expected = 1 - np.var(rem[ok]) / np.var(seas[ok] + rem[ok])
        assert 0.9 < expected <= 1.0
        stats = summarize_series(make_panel({"a": y}))["a"]
        assert stats["f_seasonal_strength"] == pytest.approx(expected)
        assert 0.9 < stats["f_seasonal_strength"] <= 1.0

    def test_broadcast_constant_per_series(self):
        ds = attach_summary(make_panel({"a": np.arange(30.0) + 1, "b": np.arange(30.0) + 5}))
        for i in range(2):
            rows = ds.rows_of(i)
            assert len(set(ds.num["f_mean"][rows])) == 1

    def test_too_short_series(self):
        with pytest.raises(DataError, match="too short"):
            summarize_series(make_panel({"a": [1.0]}))


class TestDropLast:
    def test_zero_keeps_every_row(self):
        ds = synthetic_panel(25, 200)
        out = drop_last(ds, 0)
        assert out.n_rows == ds.n_rows == 5000
        assert [len(s) for s in out.series] == [len(s) for s in ds.series]
        assert np.array_equal(out.y, ds.y)

    def test_negative_is_error(self):
        with pytest.raises(ValueError, match="h >= 0"):
            drop_last(make_panel({"a": np.arange(10.0)}), -1)

    def test_drops_each_series_tail(self):
        out = drop_last(make_panel({"a": np.arange(10.0), "b": np.arange(12.0) + 50}), 3)
        assert [len(s) for s in out.series] == [7, 9]
        assert np.array_equal(out.y, np.concatenate([np.arange(7.0), np.arange(9.0) + 50]))


class TestFuturePanel:
    def test_continues_from_true_end(self):
        ds = make_panel({"a": np.arange(10.0) + 1, "b": np.arange(12.0) + 1})
        fut = future_panel(ds, 3)
        # series "a" ends at month 10 (2000-10-01); forecasts start next month
        assert fut.series[0].timestamps[0] == date(2000, 11, 1)
        assert fut.series[1].timestamps[0] == date(2001, 1, 1)
        assert list(fut.time_index[fut.rows_of(0)]) == [10, 11, 12]
        assert list(fut.time_index[fut.rows_of(1)]) == [12, 13, 14]

    @pytest.mark.parametrize("frequency, last, h", [("daily", date(9999, 12, 29), 3),
                                                    ("monthly", date(9999, 11, 1), 2),
                                                    ("yearly", date(9999, 3, 1), 1)])
    def test_past_year_9999_is_data_error(self, frequency, last, h):
        """The first series whose stamps would leave the calendar is named,
        with its last stamp; one step fewer still fits."""
        series = [TimeSeries("a", (date(2000, 1, 1),)), TimeSeries("b", (last,)),
                  TimeSeries("c", (last,))]
        ds = PanelDataset.build(series, np.ones(3), frequency)
        if h > 1:
            assert future_panel(ds, h - 1).n_rows == 3 * (h - 1)
        with pytest.raises(DataError, match=rf"^series 'b': a horizon of {h} from its last "
                                            rf"stamp {last.isoformat()} runs past the year 9999$"):
            future_panel(ds, h)
