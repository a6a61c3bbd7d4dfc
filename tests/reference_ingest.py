"""Row-by-row CSV reader and calendar loop: the oracle for ``treecast.data``.

This is the reader ``treecast.data.ingest_csv`` replaced, kept verbatim: one
Python loop over the rows, one ``date.fromisoformat`` per cell, a sort of
tuple records, and ``derive_calendar`` as a loop over every timestamp.
``tests/test_ingest_oracle.py`` requires the columnar reader to give a
field-equal panel or the same ``DataError`` text on every CSV, except where
the columnar reader deliberately differs: it reads UTF-8 with an optional
byte-order mark, rejects short rows with a ``DataError`` instead of an
``IndexError``, and infers a frequency only from a first gap of 1, 28-31 or
365-366 days.

``read_value_csv`` is the reader ``treecast evaluate`` used for its forecast,
actuals and reference files before it read them through
``treecast.data.read_sorted_rows``, also kept verbatim; on the files it read
correctly, ``treecast.bundle.read_value_csv`` must return the same dict.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import replace
from datetime import date

import numpy as np

from treecast.data import RESERVED_CODE, PanelDataset, TimeSeries
from treecast.errors import DataError


def _parse_date(text: str, row_no: int) -> date:
    t = text.strip()
    if len(t) == 7 and t[4] == "-":  # YYYY-MM, monthly shorthand
        t = t + "-01"
    try:
        return date.fromisoformat(t)
    except ValueError:
        raise DataError(f"row {row_no}: malformed timestamp {text!r} (expected ISO-8601 date)")


def ingest_csv(path, schema: dict | None = None, code_maps: dict | None = None) -> PanelDataset:
    """Read a panel CSV into a PanelDataset.

    Required columns: series_id, timestamp (ISO-8601 date), value (decimal).
    ``schema`` declares the remaining columns: ``{"categorical": [...],
    "numeric": [...], "frequency": "monthly"}``; undeclared extras are
    ignored.  Rows are sorted by (series_id, timestamp); duplicates,
    missing targets and non-finite numeric cells are rejected.

    When ``code_maps`` is given (forecast time), the categorical encoding is
    frozen: unseen categories map to the reserved code with a warning.
    """
    schema = dict(schema or {})
    cat_cols = list(schema.get("categorical", []))
    num_cols = list(schema.get("numeric", []))

    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file")
        header = [c.strip() for c in header]
        for required in ("series_id", "timestamp", "value"):
            if required not in header:
                raise DataError(f"{path}: missing required column {required!r}")
        col = {name: header.index(name) for name in header}
        missing = [c for c in cat_cols + num_cols if c not in col]
        if missing:
            raise DataError(f"{path}: declared feature columns not in file: {missing}")

        records = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            sid = row[col["series_id"]].strip()
            ts = _parse_date(row[col["timestamp"]], row_no)
            raw_val = row[col["value"]].strip()
            if raw_val == "":
                raise DataError(f"row {row_no}: missing target value for series {sid!r}")
            try:
                val = float(raw_val)
            except ValueError:
                raise DataError(f"row {row_no}: non-numeric target {raw_val!r}")
            if not math.isfinite(val):
                raise DataError(f"row {row_no}: non-finite target {raw_val!r}")
            nums = []
            for c in num_cols:
                try:
                    nums.append(float(row[col[c]]))
                except ValueError:
                    raise DataError(f"row {row_no}: non-numeric value {row[col[c]]!r} in column {c!r}")
                if not math.isfinite(nums[-1]):
                    raise DataError(f"row {row_no}: non-finite value {row[col[c]]!r} in column {c!r}")
            records.append((sid, ts, val, *(row[col[c]].strip() for c in cat_cols), *nums))

    if not records:
        raise DataError(f"{path}: no data rows")

    records.sort(key=lambda r: (r[0], r[1]))
    # one tuple per column: series_id, timestamp, value, categoricals, numerics
    columns = list(zip(*records))
    cat_columns = columns[3:3 + len(cat_cols)]
    num_columns = columns[3 + len(cat_cols):]
    sids, stamps = (np.array(values, dtype=object) for values in columns[:2])
    same_series = sids[1:] == sids[:-1]
    dup = np.flatnonzero(same_series & (stamps[1:] == stamps[:-1]))
    if dup.size:
        sid, ts = records[dup[0] + 1][:2]
        raise DataError(f"duplicate (series_id, timestamp) key: ({sid!r}, {ts.isoformat()})")
    bounds = [0, *(np.flatnonzero(~same_series) + 1), len(records)]
    series = tuple(TimeSeries(sids[a], columns[1][a:b]) for a, b in zip(bounds, bounds[1:]))

    if code_maps is None:
        # frozen ordinal code maps; codes are dense and start at 0
        code_maps = {c: {lev: i for i, lev in enumerate(sorted(set(values)))}
                     for c, values in zip(cat_cols, cat_columns)}

    def encode(col, value):
        code = code_maps.get(col, {}).get(value)
        if code is None:
            warnings.warn(f"unseen category {value!r} in column {col!r}; using reserved code")
            return RESERVED_CODE
        return code

    cat = {}
    for c, values in zip(cat_cols, cat_columns):
        levels, inverse = np.unique(np.array(values, dtype=object), return_inverse=True)
        cat[c] = np.array([encode(c, lev) for lev in levels], dtype=np.int64)[inverse]
    return PanelDataset.build(
        series, columns[2], schema.get("frequency") or _infer_frequency(series),
        cat=cat, num=dict(zip(num_cols, num_columns)), code_maps=code_maps,
    )


def _infer_frequency(series) -> str:
    for s in series:
        if len(s) >= 2:
            delta = (s.timestamps[1] - s.timestamps[0]).days
            if delta <= 2:
                return "daily"
            if delta <= 62:
                return "monthly"
            return "yearly"
    return "monthly"


def derive_calendar(ds: PanelDataset) -> PanelDataset:
    """Attach month/quarter/year/day_of_week/time_index to every row.

    Pure function of the timestamps; time_index restarts at 0 per series.
    """
    month, quarter, year, dow, tindex = [], [], [], [], []
    for s in ds.series:
        for t, ts in enumerate(s.timestamps):
            month.append(ts.month)
            quarter.append((ts.month - 1) // 3 + 1)
            year.append(ts.year)
            dow.append(ts.weekday())  # Monday=0
            tindex.append(t)
    return replace(
        ds,
        month=np.asarray(month, dtype=np.int64),
        quarter=np.asarray(quarter, dtype=np.int64),
        year=np.asarray(year, dtype=np.int64),
        day_of_week=np.asarray(dow, dtype=np.int64),
        time_index=np.asarray(tindex, dtype=np.int64),
    )


def read_value_csv(path) -> dict:
    """{(series_id, timestamp): value} from a series_id,timestamp,value CSV."""
    out = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [c.strip() for c in next(reader, [])]
            if header[:3] != ["series_id", "timestamp", "value"]:
                raise DataError(f"{path}: expected header series_id,timestamp,value")
            for row in reader:
                if not "".join(row).strip():
                    continue
                if len(row) < 3:
                    raise DataError(f"{path}:{reader.line_num}: short row")
                try:
                    out[(row[0], row[1])] = float(row[2])
                except ValueError:
                    raise DataError(f"{path}:{reader.line_num}: non-numeric value {row[2]!r}")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}")
    return out
