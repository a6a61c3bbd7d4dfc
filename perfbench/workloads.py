"""Benchmark workloads: seeded inputs written as the CSV plus config a user supplies.

Each workload writes ``data.csv`` and ``config.yaml`` into a work directory
and keeps the last ``HOLDOUT`` steps of every series back as actuals.  The
program only ever sees the two files.  The synthetic generator lives here,
not in the package, so that a change to the package cannot change the
benchmark's inputs.

Why each workload, and which layer it stresses or bypasses:

``airline_ar12``
    The shipped ``configs/air_passengers_ar.yaml`` (hypertree AR(12),
    100 rounds, 12 ensembles, 1200 trees) on the 132 training months of the
    bundled airline series.  Split search is per-node overhead on tiny
    nodes, forecasting applies 1200 trees, and the ~3 MB indented JSON
    bundle makes save and load visible.  ``Objective.evaluate`` is a
    fraction of a percent, so smoothing and MLP changes should not move it.
``synth_ets_panel``
    40 seasonal series x 120 training months, hypertree damped
    multiplicative ETS (m=12, month and quarter features).  The per-series
    sensitivity recursion inside ``Objective.evaluate`` is most of the
    training time, so batching it across series shows here.  Trees are
    grown on two small integer features and the bundle is small.
``synth_treenet_ar24``
    The 25 x 200 row panel that ``bench-scaling`` uses (plus hold-out),
    with a categorical ``group`` and a numeric ``exposure`` of ~5000
    distinct values, AR(24), treenet defaults (d=1, hidden 128, separate
    flow).  MLP passes and argsort-bound split search over 5000 rows share
    each round; the bundle is small, so serialization changes should not
    move it.

The seed shuffles the order of the rows in the CSV.  The program sorts rows
by series and timestamp, so every seed trains the same model on the same
panel: the spread between runs of different seeds is the program's and the
host's, not the input's, and bundle size and hold-out error are the same
for every seed.

The two synthetic workloads train fewer rounds than the package default so
that one run of ``run_seconds`` holds several complete lifecycles on a
2-core machine; per-round work is unchanged.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import date
from pathlib import Path

HOLDOUT = 12
SYNTH_START = date(2000, 1, 1)
DESIGN_SEED = 7         # bench-scaling's default seed; draws the synthetic panels
CONFIG_SEED = 42        # the shipped configs' seed (treenet's projection, init, dropout)


@dataclass(frozen=True)
class Inputs:
    csv_path: Path
    config_path: Path
    holdout: dict            # {(series_id, iso timestamp): actual value}


def _month_stamps(n: int) -> list:
    out = []
    y, m = SYNTH_START.year, SYNTH_START.month
    for _ in range(n):
        out.append(date(y, m, 1).isoformat())
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return out


def seasonal_panel(n_series: int, length: int):
    """Monthly panel with trend, sine seasonality and noise.

    The same generator, draw order and seed as
    ``treecast.datasets.synthetic_panel(n_series, length, seed=DESIGN_SEED)``,
    the panel ``bench-scaling`` trains on, so every level stays well above
    zero, as multiplicative smoothing needs.  Returns
    ``[(series_id, values, group_code, exposure)]``.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(DESIGN_SEED))
    t = np.arange(length)
    out = []
    for i in range(n_series):
        base = rng.uniform(50, 150)
        slope = rng.uniform(-0.2, 0.5)
        amp = rng.uniform(5, 25)
        phase = rng.uniform(0, 2 * np.pi)
        noise = rng.normal(0, 2.0, length)
        vals = base + slope * t + amp * np.sin(2 * np.pi * t / 12 + phase) + noise
        vals = np.maximum(vals, 1.0)
        exposure = rng.uniform(0.5, 1.5, length)
        out.append((f"syn_{i:03d}", vals, i % 4, exposure))
    return out


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_config(path: Path, raw: dict):
    import yaml

    path.write_text(yaml.safe_dump(raw, sort_keys=False))


def _airline(root: Path, seed: int, work: Path) -> Inputs:
    import yaml

    with open(root / "src" / "treecast" / "bundled" / "air_passengers.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [r for r in reader if r]
    train, held = rows[:-HOLDOUT], rows[-HOLDOUT:]
    random.Random(seed).shuffle(train)
    csv_path = work / "data.csv"
    _write_csv(csv_path, header, train)
    raw = yaml.safe_load((root / "configs" / "air_passengers_ar.yaml").read_text())
    raw["data"]["path"] = str(csv_path)
    config_path = work / "config.yaml"
    _write_config(config_path, raw)
    holdout = {(r[0], r[1]): float(r[2]) for r in held}
    return Inputs(csv_path, config_path, holdout)


def _synthetic(n_series, n_train, seed, work, with_covariates, config) -> Inputs:
    stamps = _month_stamps(n_train + HOLDOUT)
    header = ["series_id", "timestamp", "value"]
    if with_covariates:
        header += ["group", "exposure"]
    rows, holdout = [], {}
    for sid, vals, group, exposure in seasonal_panel(n_series, n_train + HOLDOUT):
        for t in range(n_train):
            row = [sid, stamps[t], repr(float(vals[t]))]
            if with_covariates:
                row += [str(group), repr(float(exposure[t]))]
            rows.append(row)
        for t in range(n_train, n_train + HOLDOUT):
            holdout[(sid, stamps[t])] = float(vals[t])
    random.Random(seed).shuffle(rows)
    csv_path = work / "data.csv"
    _write_csv(csv_path, header, rows)
    raw = {"seed": CONFIG_SEED, **config}
    raw["data"] = {"path": str(csv_path), **config.get("data", {})}
    config_path = work / "config.yaml"
    _write_config(config_path, raw)
    return Inputs(csv_path, config_path, holdout)


def _ets_panel(root: Path, seed: int, work: Path) -> Inputs:
    return _synthetic(40, 120, seed, work, with_covariates=False, config={
        "features": {"calendar": ["month", "quarter"], "summary": False},
        "model": {"family": "hypertree", "target": "ets", "m": 12, "damping": "power"},
        "boosting": {"rounds": 10},
        "eval": {"horizon": HOLDOUT},
    })


def _treenet_panel(root: Path, seed: int, work: Path) -> Inputs:
    # calendar defaults (month, quarter, year, day_of_week) and no summary
    # statistics: the feature set bench-scaling trains on
    return _synthetic(25, 200, seed, work, with_covariates=True, config={
        "data": {"categorical": ["group"], "numeric": ["exposure"]},
        "features": {"summary": False},
        "model": {"family": "treenet", "target": "ar", "p": 24},
        "boosting": {"rounds": 40},
        "eval": {"horizon": HOLDOUT},
    })


WORKLOADS = {
    "airline_ar12": _airline,
    "synth_ets_panel": _ets_panel,
    "synth_treenet_ar24": _treenet_panel,
}


def generate(name: str, root: Path, seed: int, work: Path) -> Inputs:
    """Write the workload's CSV and config into ``work``; same seed, same files."""
    return WORKLOADS[name](root, seed, work)
