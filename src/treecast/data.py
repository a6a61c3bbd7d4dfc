"""Panel time-series ingestion and feature preparation.

A :class:`PanelDataset` keeps one row per observation, sorted by
(series_id, timestamp), with flat numpy arrays for the target, calendar
features and categorical codes; series may differ in length, and every row
is observed.  What a target derives from the rows, such as the
autoregressive lag design or the smoothing kinds' (T, S) grid, the target
builds itself.  Every panel is made by :meth:`PanelDataset.build`, and every
panel derived from another (shortened or future rows) by one row gather,
:meth:`PanelDataset.take`.
:func:`read_sorted_rows` reads and checks a CSV whole columns at a time, for
:func:`ingest_csv` and for the value files that ``treecast evaluate`` scores,
and :func:`derive_calendar` computes calendar features from the date ordinals.
All operations are pure: they return a new dataset and never mutate their
input, so they are safe to call from multiple threads.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from itertools import compress

import numpy as np

from .errors import DataError

CALENDAR_NAMES = ("month", "quarter", "year", "day_of_week")
FREQUENCIES = ("monthly", "daily", "yearly")

# acf of a constant series is undefined; we report 0 by convention
SUMMARY_NAMES = ("f_mean", "f_std", "f_trend_strength", "f_seasonal_strength", "f_acf1")

RESERVED_CODE = -1  # categorical code for categories unseen at training time


@dataclass(frozen=True)
class TimeSeries:
    """One identified series and its strictly increasing dates."""

    series_id: str
    timestamps: tuple

    def __len__(self):
        return len(self.timestamps)


@dataclass(frozen=True)
class PanelDataset:
    """Aligned panel of series with per-observation feature rows.

    Rows of one series are contiguous, in the order of ``series``, one per
    timestamp; a series ends, and its forecasts start, at its last row.

    Build a panel with :meth:`build`; derive one from another with
    :meth:`take`.
    """

    series: tuple
    series_idx: np.ndarray          # (N,) int, position into `series`
    y: np.ndarray                   # (N,) float
    frequency: str
    month: np.ndarray | None = None
    quarter: np.ndarray | None = None
    year: np.ndarray | None = None
    day_of_week: np.ndarray | None = None
    time_index: np.ndarray | None = None
    cat: dict = field(default_factory=dict)      # name -> (N,) int codes
    num: dict = field(default_factory=dict)      # name -> (N,) float
    code_maps: dict = field(default_factory=dict)

    @classmethod
    def build(cls, series, y, frequency: str, cat=None, num=None,
              code_maps=None) -> "PanelDataset":
        """Panel over ``series`` whose rows hold ``y`` series after series.

        Derives ``series_idx`` from the series lengths, coerces the dtypes
        and attaches the calendar features.
        """
        y = np.asarray(y, dtype=np.float64)
        ds = cls(
            series=tuple(series),
            series_idx=np.repeat(np.arange(len(series), dtype=np.int64),
                                 [len(s) for s in series]),
            y=y,
            frequency=frequency,
            cat={c: np.asarray(v, dtype=np.int64) for c, v in (cat or {}).items()},
            num={c: np.asarray(v, dtype=np.float64) for c, v in (num or {}).items()},
            code_maps=code_maps or {},
        )
        return derive_calendar(ds)

    def take(self, series, rows, y=None) -> "PanelDataset":
        """Panel over ``series`` whose row j copies the cells of row ``rows[j]``.

        ``y`` is gathered from ``rows`` too unless given; calendar features
        are derived afresh from the new timestamps.
        """
        return PanelDataset.build(
            series,
            self.y[rows] if y is None else y,
            self.frequency,
            cat={c: v[rows] for c, v in self.cat.items()},
            num={c: v[rows] for c, v in self.num.items()},
            code_maps=self.code_maps,
        )

    @property
    def n_rows(self):
        return len(self.y)

    @property
    def n_series(self):
        return len(self.series)

    def rows_of(self, i: int) -> np.ndarray:
        """Indices of the rows belonging to series i (contiguous)."""
        return np.nonzero(self.series_idx == i)[0]

    def timestamps_flat(self):
        return [ts for s in self.series for ts in s.timestamps]


def _parse_date(text: str) -> date:
    """ISO-8601 date, or YYYY-MM for the first of that month; ValueError otherwise."""
    t = text.strip()
    if len(t) == 7 and t[4] == "-":  # YYYY-MM, monthly shorthand
        t = t + "-01"
    return date.fromisoformat(t)


def read_sorted_rows(path, num_cols=(), cat_cols=()):
    """Read and check a CSV with series_id, timestamp and value columns.

    The file is UTF-8, with or without a byte-order mark; columns may come in
    any order, and blank rows are skipped.  Stamps are ISO-8601 dates or
    YYYY-MM; values and the ``num_cols`` cells are finite decimals.  Short
    rows and duplicate (series_id, timestamp) keys are rejected too, and
    :func:`_raise_row_fault` names the first faulty row in file order.

    Returns ``(series, order, y, nums, cells)``: the TimeSeries sorted by
    (series_id, timestamp) and the data rows in that order; the values, the
    ``num_cols`` arrays and the raw cells by column, in file order.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    with fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})")
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}")
        if not rows:
            raise DataError(f"{path}: empty file")
        header = [c.strip() for c in rows.pop(0)]
        for required in ("series_id", "timestamp", "value"):
            if required not in header:
                raise DataError(f"{path}: missing required column {required!r}")
        col = {name: header.index(name) for name in header}
        missing = [c for c in cat_cols + num_cols if c not in col]
        if missing:
            raise DataError(f"{path}: declared feature columns not in file: {missing}")

    used = ("series_id", "timestamp", "value", *num_cols, *cat_cols)
    data = list(compress(rows, map(str.strip, map("".join, rows))))  # skip blank rows
    if not data:
        raise DataError(f"{path}: no data rows")
    try:
        if min(map(len, data)) <= max(map(col.get, used)):
            raise ValueError("short row")
        columns = list(zip(*data))  # as long as the shortest row, which has every used cell
        cells = {c: columns[col[c]] for c in used}
        stamp_text, stamp_code = _factorize(cells["timestamp"])
        stamp_dates = [_parse_date(t) for t in stamp_text]
        y, *nums = (np.fromiter(map(float, cells[c]), np.float64, len(data))
                    for c in ("value", *num_cols))
        if not all(np.isfinite(v).all() for v in (y, *nums)):
            raise ValueError("non-finite cell")
    except ValueError:
        _raise_row_fault(rows, col, num_cols, cat_cols)
        raise

    names, sid_code = _factorize(list(map(str.strip, cells["series_id"])))
    ordinal = np.array([d.toordinal() for d in stamp_dates])[stamp_code]
    order = np.lexsort((ordinal, sid_code))
    sid_code, ordinal = sid_code[order], ordinal[order]
    stamps = [stamp_dates[k] for k in stamp_code[order].tolist()]
    same_series = sid_code[1:] == sid_code[:-1]
    dup = np.flatnonzero(same_series & (ordinal[1:] == ordinal[:-1]))
    if dup.size:
        sid, ts = names[sid_code[dup[0] + 1]], stamps[dup[0] + 1]
        raise DataError(f"duplicate (series_id, timestamp) key: ({sid!r}, {ts.isoformat()})")
    bounds = [0, *(np.flatnonzero(~same_series) + 1), len(order)]
    series = tuple(TimeSeries(names[sid_code[a]], tuple(stamps[a:b]))
                   for a, b in zip(bounds, bounds[1:]))
    return series, order, y, nums, cells


def ingest_csv(path, schema: dict | None = None, code_maps: dict | None = None) -> PanelDataset:
    """Read a panel CSV (see :func:`read_sorted_rows`) into a PanelDataset.

    ``schema`` declares the columns beyond series_id, timestamp and value:
    ``{"categorical": [...], "numeric": [...], "frequency": "monthly"}``;
    undeclared extras are ignored, and rows may lack them.  An undeclared
    frequency is inferred from the first gap.  When ``code_maps`` is given
    (forecast time), the categorical encoding is frozen: unseen categories
    map to the reserved code with a warning.
    """
    schema = dict(schema or {})
    cat_cols = list(schema.get("categorical", []))
    num_cols = list(schema.get("numeric", []))
    series, order, y, nums, cells = read_sorted_rows(path, num_cols, cat_cols)

    levels = {c: _factorize(list(map(str.strip, cells[c]))) for c in cat_cols}
    if code_maps is None:
        # frozen ordinal code maps; codes are dense and start at 0
        code_maps = {c: {lev: i for i, lev in enumerate(levs)} for c, (levs, _) in levels.items()}

    def encode(col, value):
        code = code_maps.get(col, {}).get(value)
        if code is None:
            warnings.warn(f"unseen category {value!r} in column {col!r}; using reserved code")
            return RESERVED_CODE
        return code

    cat = {}
    for c in cat_cols:
        levs, codes = levels[c]
        cat[c] = np.array([encode(c, lev) for lev in levs], dtype=np.int64)[codes[order]]
    return PanelDataset.build(
        series, y[order], schema.get("frequency") or _infer_frequency(series),
        cat=cat, num={c: v[order] for c, v in zip(num_cols, nums)}, code_maps=code_maps,
    )


def _factorize(values):
    """Sorted distinct values, and the position of each value among them."""
    levels = sorted(set(values))
    code = {v: i for i, v in enumerate(levels)}
    return levels, np.fromiter(map(code.__getitem__, values), np.int64, len(values))


def _raise_row_fault(rows, col: dict, num_cols: list, cat_cols: list):
    """Raise the DataError of the first faulty data row, in file order.

    A row's cells are checked in reading order: series_id, timestamp, value,
    then the declared numeric and categorical columns.
    """
    for row_no, row in enumerate(rows, start=2):
        if not row or all(not c.strip() for c in row):
            continue

        def cell(name):
            if col[name] >= len(row):
                raise DataError(f"row {row_no}: no cell for column {name!r} "
                                f"(the row has {len(row)} cells)")
            return row[col[name]]

        sid = cell("series_id").strip()
        try:
            _parse_date(cell("timestamp"))
        except ValueError:
            raise DataError(f"row {row_no}: malformed timestamp {cell('timestamp')!r} "
                            "(expected ISO-8601 date)")
        raw_val = cell("value").strip()
        if raw_val == "":
            raise DataError(f"row {row_no}: missing target value for series {sid!r}")
        try:
            val = float(raw_val)
        except ValueError:
            raise DataError(f"row {row_no}: non-numeric target {raw_val!r}")
        if not math.isfinite(val):
            raise DataError(f"row {row_no}: non-finite target {raw_val!r}")
        for c in num_cols:
            try:
                val = float(cell(c))
            except ValueError:
                raise DataError(f"row {row_no}: non-numeric value {cell(c)!r} in column {c!r}")
            if not math.isfinite(val):
                raise DataError(f"row {row_no}: non-finite value {cell(c)!r} in column {c!r}")
        for c in cat_cols:
            cell(c)


def _infer_frequency(series) -> str:
    """Frequency from the first gap of the first series with two rows."""
    for s in series:
        if len(s) >= 2:
            gap = (s.timestamps[1] - s.timestamps[0]).days
            if gap == 1:
                return "daily"
            if 28 <= gap <= 31:
                return "monthly"
            if gap in (365, 366):
                return "yearly"
            raise DataError(
                f"series {s.series_id!r}: first gap of {gap} days fits no supported frequency "
                f"(daily, monthly, yearly); set data.frequency")
    return "monthly"


def derive_calendar(ds: PanelDataset) -> PanelDataset:
    """Attach month/quarter/year/day_of_week/time_index to every row.

    Pure function of the timestamps, vectorized over their ordinals (day 1 is
    Monday 0001-01-01); time_index restarts at 0 per series.
    """
    ordinal = np.fromiter(map(date.toordinal, ds.timestamps_flat()), np.int64)
    day = np.datetime64("0001-01-01") + (ordinal - 1).astype("timedelta64[D]")
    months = day.astype("datetime64[M]").astype(np.int64)  # months since 1970-01
    month = months % 12 + 1
    starts = np.cumsum([0, *map(len, ds.series)])[:-1]
    return replace(
        ds,
        month=month,
        quarter=(month - 1) // 3 + 1,
        year=months // 12 + 1970,
        day_of_week=(ordinal - 1) % 7,
        time_index=np.arange(len(ordinal)) - starts[ds.series_idx],
    )


def _next_timestamp(ts: date, frequency: str) -> date:
    if frequency == "daily":
        return ts + timedelta(days=1)
    if frequency == "monthly":
        y, m = divmod(ts.month, 12)
        return date(ts.year + y, m + 1, 1)
    if frequency == "yearly":
        try:
            return ts.replace(year=ts.year + 1)
        except ValueError:  # 29 February: the month's last day a year later
            return ts.replace(year=ts.year + 1, day=28)
    raise ValueError(f"unknown frequency {frequency!r}")


def extend_timestamps(last: date, frequency: str, h: int) -> list:
    out = []
    ts = last
    for _ in range(h):
        ts = _next_timestamp(ts, frequency)
        out.append(ts)
    return out


def _acf1(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 2:
        return 0.0
    c = x - x.mean()
    denom = float(np.dot(c, c))
    if denom <= 0.0:
        return 0.0
    return float(np.dot(c[1:], c[:-1]) / denom)


def _strengths(values: np.ndarray, m: int):
    """Trend/seasonal strength as 1 - Var(remainder)/Var(component+remainder)."""
    from .baselines import classical_decompose

    if m < 2 or len(values) < 2 * m + 1:
        return 0.0, 0.0
    trend, seasonal, remainder = classical_decompose(values, m)
    ok = ~np.isnan(trend)
    r = remainder[ok]
    tr = trend[ok]
    se = seasonal[ok]
    var_r = float(np.var(r))
    vt = float(np.var(tr + r))
    vs = float(np.var(se + r))
    trend_strength = max(0.0, 1.0 - var_r / vt) if vt > 0 else 0.0
    seas_strength = max(0.0, 1.0 - var_r / vs) if vs > 0 else 0.0
    return trend_strength, seas_strength


def seasonal_period(frequency: str) -> int:
    return {"monthly": 12, "daily": 7, "yearly": 1}[frequency]


def summarize_series(ds: PanelDataset) -> dict:
    """Five per-series summary statistics.

    Returns {series_id: {name: value}}; use :func:`attach_summary` to
    broadcast them onto the feature rows.
    """
    m = seasonal_period(ds.frequency)
    out = {}
    for i, s in enumerate(ds.series):
        vals = ds.y[ds.rows_of(i)]
        if len(vals) < 2:
            raise DataError(f"series {s.series_id!r} too short to summarize")
        trend_strength, seas_strength = _strengths(vals, m)
        out[s.series_id] = {
            "f_mean": float(np.mean(vals)),
            "f_std": float(np.std(vals)),
            "f_trend_strength": trend_strength,
            "f_seasonal_strength": seas_strength,
            "f_acf1": _acf1(vals),
        }
    return out


def attach_summary(ds: PanelDataset) -> PanelDataset:
    """Broadcast summary statistics to the rows of each series."""
    stats = summarize_series(ds)
    table = np.array([[stats[s.series_id][name] for name in SUMMARY_NAMES] for s in ds.series])
    at_rows = table.T[:, ds.series_idx]  # (5, N): one gather for every statistic
    return replace(ds, num={**ds.num, **dict(zip(SUMMARY_NAMES, at_rows))})


def future_panel(ds: PanelDataset, h: int) -> PanelDataset:
    """Feature rows for the h periods following each series' last row.

    Timestamps continue from the last stamp, time_index keeps counting, and
    categorical/numeric covariates carry over from the last row.  Target
    values are placeholders.  A stamp past the calendar's end (year 9999)
    is a data error naming the series and its last stamp.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    series = []
    for s in ds.series:
        last = s.timestamps[-1]
        try:
            stamps = extend_timestamps(last, ds.frequency, h)
        except (ValueError, OverflowError):
            raise DataError(f"series {s.series_id!r}: a horizon of {h} from its last stamp "
                            f"{last.isoformat()} runs past the year 9999") from None
        series.append(TimeSeries(s.series_id, tuple(stamps)))
    lengths = np.array([len(s) for s in ds.series])
    out = ds.take(series, np.repeat(np.cumsum(lengths) - 1, h), y=np.zeros(len(series) * h))
    return replace(out, time_index=(lengths[:, None] + np.arange(h)).ravel())


@dataclass(frozen=True)
class FeatureSet:
    """Dense feature matrix plus its schema, in a frozen column order."""

    X: np.ndarray                     # (N, F) float64; categorical columns hold codes
    names: tuple                      # column names
    kinds: tuple                      # "num" | "cat" per column

    @property
    def n_features(self):
        return len(self.names)


def feature_matrix(
    ds: PanelDataset,
    calendar=("month", "quarter", "year", "day_of_week"),
    include_time: bool = False,
) -> FeatureSet:
    """Assemble the model feature matrix.

    Raw time_index is excluded unless ``include_time`` is set (needed only by
    the trend+Fourier target, whose basis is an explicit function of t).
    Column order: calendar, time, categoricals (sorted), numerics (sorted).
    """
    cols, names, kinds = [], [], []
    cal = {
        "month": ds.month,
        "quarter": ds.quarter,
        "year": ds.year,
        "day_of_week": ds.day_of_week,
    }
    for name in calendar:
        if name not in cal:
            raise ValueError(f"unknown calendar feature {name!r}")
        cols.append(cal[name].astype(np.float64))
        names.append(name)
        kinds.append("num")
    if include_time:
        cols.append(ds.time_index.astype(np.float64))
        names.append("time_index")
        kinds.append("num")
    for name in sorted(ds.cat):
        cols.append(ds.cat[name].astype(np.float64))
        names.append(name)
        kinds.append("cat")
    for name in sorted(ds.num):
        cols.append(ds.num[name])
        names.append(name)
        kinds.append("num")
    X = np.column_stack(cols) if cols else np.zeros((ds.n_rows, 0))
    return FeatureSet(X=X, names=tuple(names), kinds=tuple(kinds))
