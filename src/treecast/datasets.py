"""Paths to the small datasets shipped with the package, plus a seeded
synthetic panel builder used by tests and the scaling benchmark."""

from datetime import date
from importlib import resources

import numpy as np

from .data import PanelDataset, TimeSeries, extend_timestamps


def bundled_path(name: str) -> str:
    ref = resources.files("treecast") / "bundled" / name
    return str(ref)


def air_passengers_path() -> str:
    """144 monthly airline passenger totals, 1949-1960."""
    return bundled_path("air_passengers.csv")


def synthetic_panel(n_series: int, length: int, seed: int = 0,
                    frequency: str = "monthly") -> PanelDataset:
    """Seasonal panel with trend and noise, built in memory.

    Deterministic for a given seed; one categorical column ("group") and one
    numeric column ("exposure") exercise both feature kinds.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    start = date(2000, 1, 1)
    stamps = [start] + extend_timestamps(start, frequency, length - 1)
    period = {"monthly": 12, "daily": 7, "yearly": 4}[frequency]

    series, values, exposure = [], [], []
    for i in range(n_series):
        base = rng.uniform(50, 150)
        slope = rng.uniform(-0.2, 0.5)
        amp = rng.uniform(5, 25)
        phase = rng.uniform(0, 2 * np.pi)
        noise = rng.normal(0, 2.0, length)
        t = np.arange(length)
        vals = base + slope * t + amp * np.sin(2 * np.pi * t / period + phase) + noise
        values.append(np.maximum(vals, 1.0))
        series.append(TimeSeries(f"syn_{i:03d}", tuple(stamps)))
        exposure.append(rng.uniform(0.5, 1.5, length))

    return PanelDataset.build(
        series, np.concatenate(values), frequency,
        cat={"group": np.repeat(np.arange(n_series) % 4, length)},
        num={"exposure": np.concatenate(exposure)},
        code_maps={"group": {str(v): v for v in range(4)}},
    )
