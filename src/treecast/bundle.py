"""Model bundle directories and atomic file IO.

A bundle holds a manifest, one JSON file per ensemble, the categorical code
map, and the training log.  Floats are serialized with their shortest
round-tripping representation, so save/load is bit-exact.  All writes go
through a temp file plus rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .baselines import (OlsArModel, fit_ols_ar, fixed_ets_forecast, grid_search_ets,
                        ols_ar_forecast)
from .boosting import TreeEnsemble
from .data import PanelDataset, future_panel
from .errors import ConfigError, DataError
from .hypertree import HyperTreeModel
from .treenet import TreeNetModel


def atomic_write_text(path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(value) -> str:
    """Shortest round-tripping text for CSV cells."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_value_csv(path) -> dict:
    """{(series_id, timestamp): value} from a series_id,timestamp,value CSV."""
    out = {}
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:3] != ["series_id", "timestamp", "value"]:
                raise DataError(f"{path}: expected header series_id,timestamp,value")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 3:
                    raise DataError(f"{path}:{line_no}: short row")
                try:
                    out[(parts[0], parts[1])] = float(parts[2])
                except ValueError:
                    raise DataError(f"{path}:{line_no}: non-numeric value {parts[2]!r}")
    except FileNotFoundError:
        raise DataError(f"file not found: {path}")
    return out


class BaselineModel:
    """Per-series OLS AR coefficients, or one global smoothing constant."""

    def __init__(self, target: str, p: int, m: int, intercept: bool,
                 per_series: dict, params: dict | None):
        self.target = target
        self.p = p
        self.m = m
        self.intercept = intercept
        self.per_series = per_series    # ar: {sid: {"coefficients": [...], "intercept": x}}
        self.params = params            # smoothing: {"alpha": c, ...}

    def to_dict(self):
        return {
            "family": "baseline",
            "target": self.target,
            "p": self.p,
            "m": self.m,
            "intercept": self.intercept,
            "per_series": self.per_series,
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["target"], d["p"], d["m"], d["intercept"],
                   d["per_series"], d["params"])


def train_baseline(ds: PanelDataset, cfg) -> BaselineModel:
    target = cfg.model.target
    spec = cfg.target_spec(ds.frequency)
    if target == "ar":
        per_series = {}
        for i, s in enumerate(ds.series):
            rows = ds.rows_of(i)
            vals = ds.y[rows][ds.mask[rows]]
            model = fit_ols_ar(vals, cfg.model.p, cfg.model.intercept)
            per_series[s.series_id] = {
                "coefficients": [float(c) for c in model.coefficients],
                "intercept": model.intercept,
            }
        return BaselineModel("ar", cfg.model.p, spec.m, cfg.model.intercept, per_series, None)
    if target in ("ets", "ets_linear"):
        if cfg.model.grid_search:
            series = [ds.y[rows][ds.mask[rows]] for rows in map(ds.rows_of, range(ds.n_series))]
            _, params = grid_search_ets(series, spec.m, cfg.eval.horizon, target)
        else:
            params = {n: cfg.model.fixed_value for n in spec.param_names}
        return BaselineModel(target, 0, spec.m, False, {}, params)
    raise ConfigError(f"baseline family does not support target {target!r}")


def forecast_baseline(model: BaselineModel, ds: PanelDataset, h: int) -> dict:
    out = {}
    fut = future_panel(ds, h)
    for i, s in enumerate(ds.series):
        rows = ds.rows_of(i)
        vals = ds.y[rows][ds.mask[rows]]
        if model.target == "ar":
            entry = model.per_series.get(s.series_id)
            if entry is None:
                raise DataError(f"baseline has no coefficients for series {s.series_id!r}")
            ols = OlsArModel(np.asarray(entry["coefficients"]), entry["intercept"], 0.0)
            fc = ols_ar_forecast(ols, vals, h)
        else:
            fc = fixed_ets_forecast(vals, model.params, model.m, h, model.target)
        out[s.series_id] = (fc, list(fut.series[i].timestamps))
    return out


# --------------------------------------------------------------------------
# bundle directories
# --------------------------------------------------------------------------

def _dumps(obj) -> str:
    # indentation would force json's pure-Python encoder; compact output
    # takes the C encoder and carries no whitespace
    return json.dumps(obj, separators=(",", ":"))


def save_bundle(path, model, log=None, config_echo=None, code_maps=None, seed=None):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    d = model.to_dict()
    family = d["family"]
    manifest = {k: v for k, v in d.items() if k not in ("ensembles",)}
    manifest["seed"] = seed
    manifest["config"] = config_echo or {}
    if family == "hypertree":
        names = model.spec.param_names
        manifest["ensemble_files"] = [
            f"ensemble_{j:02d}_{names[j]}.json" for j in range(len(d["ensembles"]))
        ]
    elif family == "treenet":
        manifest["ensemble_files"] = [
            f"embed_{j:02d}.json" for j in range(len(d["ensembles"]))
        ]
    atomic_write_text(path / "manifest.json", _dumps(manifest))
    for fname, ens in zip(manifest.get("ensemble_files", []), d.get("ensembles", [])):
        atomic_write_text(path / fname, _dumps(ens))
    atomic_write_text(path / "code_map.json", _dumps(code_maps or {}))
    if log is not None:
        write_csv(path / "training_log.csv", ("round", "loss", "seconds"),
                  [(r, loss, f"{sec:.3f}") for r, loss, sec in log.rows])
        if log.notes:
            atomic_write_text(path / "training_notes.txt", "\n".join(log.notes) + "\n")


_FAMILIES = {"baseline": BaselineModel, "hypertree": HyperTreeModel, "treenet": TreeNetModel}


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise DataError(f"bundle file missing: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})")


def load_bundle(path):
    path = Path(path)
    mpath = path / "manifest.json"
    if not mpath.is_file():
        raise DataError(f"not a model bundle (no manifest.json): {path}")
    manifest = _read_json(mpath)
    try:
        cls = _FAMILIES.get(manifest["family"])
        if cls is None:
            raise DataError(f"unknown bundle family {manifest['family']!r}")
        files = manifest.get("ensemble_files", [])
        full = dict(manifest)
        full["ensembles"] = [_read_json(path / fname) for fname in files]
    except (KeyError, TypeError, ValueError) as exc:
        raise _field_error(mpath, exc)
    try:
        model = cls.from_dict(full)
    except (KeyError, TypeError, ValueError) as exc:
        # the model decodes its ensembles itself; decode each file again to
        # name the one at fault, else the fault is in the manifest
        for fname, ens in zip(files, full["ensembles"]):
            try:
                TreeEnsemble.from_dict(ens)
            except (KeyError, TypeError, ValueError) as ens_exc:
                raise _field_error(path / fname, ens_exc)
        raise _field_error(mpath, exc)
    code_maps = _read_json(path / "code_map.json")
    return model, manifest, code_maps


def _field_error(path: Path, exc: Exception) -> DataError:
    if isinstance(exc, KeyError):
        return DataError(f"{path}: missing field {exc}")
    return DataError(f"{path}: invalid field: {exc}")

