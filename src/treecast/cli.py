"""Command-line entry point.

Commands: train, forecast, evaluate, decompose, bench-scaling, export.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import baselines, hypertree, treenet
from . import bundle as bundle_io
from .config import SCHEMA, RunConfig, config_from_dict, load_config
from .data import PanelDataset, attach_summary, future_panel, ingest_csv
from .datasets import bundled_path, synthetic_panel
from .errors import ConfigError, DataError, NumericError, SchemaError
from .metrics import aggregate, series_metrics
from .targets import TargetSpec

PARAMETER_HEADER = ("series_id", "timestamp", "parameter_name", "value", "phase")


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except (DataError, SchemaError) as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(3)
        except NumericError as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(4)

    return wrapper


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def prepare_dataset(cfg: RunConfig, path: str | None = None,
                    code_maps: dict | None = None) -> PanelDataset:
    data_path = path or cfg.data.path
    if not data_path:
        raise ConfigError("data.path: required")
    if data_path.startswith("bundled:"):
        data_path = bundled_path(data_path.split(":", 1)[1])
    ds = ingest_csv(data_path, cfg.data.schema(), code_maps=code_maps)
    if cfg.features.summary:
        ds = attach_summary(ds)
    return cfg.target_spec(ds.frequency).target.prepare(ds)


def _config_echo(cfg: RunConfig) -> dict:
    """The effective configuration in file layout, as bundles record it."""
    echo = {"seed": cfg.seed}
    for section, schema in SCHEMA.items():
        obj = getattr(cfg, section)
        echo[section] = {key: getattr(obj, fld.attr) for key, fld in schema.items()}
    return echo


def _train_family(cfg: RunConfig, ds: PanelDataset):
    """(model, training log) of the configured family; a baseline has no log."""
    if cfg.model.family == "baseline":
        return baselines.train_baseline(ds, cfg), None
    spec = cfg.target_spec(ds.frequency)
    if cfg.model.family == "hypertree":
        return hypertree.train(ds, spec, cfg.boosting, cfg.recipe())
    return treenet.train(ds, spec, cfg.boosting, cfg.net, cfg.seed, cfg.recipe())


def train_from_config(cfg: RunConfig, out_dir):
    ds = prepare_dataset(cfg)
    model, log = _train_family(cfg, ds)
    bundle_io.save_bundle(out_dir, model, log, _config_echo(cfg), ds.code_maps, cfg.seed)
    return model, log


def _dataset_for_bundle(manifest, code_maps, data_path):
    cfg = config_from_dict(manifest.get("config", {}))
    return cfg, prepare_dataset(cfg, path=data_path, code_maps=code_maps)


def forecast_rows(model, manifest, ds, h, average=False):
    if manifest["family"] == "baseline":
        fc, future = baselines.forecast_baseline(model, ds, h)
    else:
        fc, future = hypertree.forecast(model, ds, h, average=average)
    return [(s.series_id, ts.isoformat(), val)
            for s, row in zip(future, fc.tolist()) for ts, val in zip(s.timestamps, row)]


@click.group()
def main():
    """Forecasting with boosted trees that parameterize time-series models."""


@main.command("train")
@click.argument("config_path", type=click.Path())
@click.option("--out", default="bundle", show_default=True, help="Bundle directory.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
              help="Override a config field (dotted path).")
@_exit_codes
def cmd_train(config_path, out, overrides):
    """Train the configured model and write a bundle directory."""
    cfg = load_config(config_path, _parse_overrides(overrides))
    _, log = train_from_config(cfg, out)
    if log is not None and log.rows:
        click.echo(f"trained {cfg.model.family}-{cfg.model.target}: "
                   f"{len(log.rows)} rounds, final loss {log.rows[-1][1]:.6g}")
    else:
        click.echo(f"trained {cfg.model.family}-{cfg.model.target}")
    click.echo(f"bundle written to {out}")


@main.command("forecast")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--data", "data_path", default=None, type=click.Path(),
              help="Panel CSV; defaults to the training data path.")
@click.option("--horizon", "-h", "horizon", default=None, type=int)
@click.option("--out", default="forecast.csv", show_default=True)
@_exit_codes
def cmd_forecast(bundle_dir, data_path, horizon, out):
    """Forecast h steps past each series' end; writes series_id,timestamp,value."""
    model, manifest, code_maps = bundle_io.load_bundle(bundle_dir)
    cfg, ds = _dataset_for_bundle(manifest, code_maps, data_path)
    h = horizon if horizon is not None else cfg.eval.horizon
    if h < 1:
        raise ConfigError("horizon: must be >= 1")
    rows = forecast_rows(model, manifest, ds, h, average=cfg.eval.average_parameters)
    bundle_io.write_csv(out, ("series_id", "timestamp", "value"), rows)
    click.echo(f"wrote {len(rows)} forecast rows to {out}")


@main.command("evaluate")
@click.option("--forecast", "forecast_path", required=True, type=click.Path())
@click.option("--actuals", "actuals_path", required=True, type=click.Path())
@click.option("--reference", "reference_path", default=None, type=click.Path(),
              help="Reference forecast CSV enabling the scaled error column.")
@click.option("--out", default="report.csv", show_default=True)
@click.option("--dataset", default="dataset", show_default=True)
@click.option("--model", "model_name", default="model", show_default=True)
@click.option("--runtime-minutes", default=0.0, type=float, show_default=True)
@_exit_codes
def cmd_evaluate(forecast_path, actuals_path, reference_path, out, dataset,
                 model_name, runtime_minutes):
    """Score a forecast CSV against actuals; per-series rows plus a MEAN row."""
    tables = []
    for label, path in (("forecast", forecast_path), ("actuals", actuals_path),
                        ("reference", reference_path)):
        try:
            tables.append(bundle_io.read_value_csv(path) if path else None)
        except DataError as exc:
            raise DataError(f"{label}: {exc}")
    fc, actual, ref = tables

    for label, table in (("actuals", actual), ("reference", ref)):
        missing = [] if table is None else [k for k in fc if k not in table]
        if missing:
            lines = "\n  ".join(f"{sid} @ {ts}" for sid, ts in sorted(missing)[:20])
            raise DataError(f"forecast keys missing from {label}:\n  {lines}")

    by_series: dict = {}
    for (sid, ts), val in sorted(fc.items()):
        by_series.setdefault(sid, []).append((ts, val))
    per_series = {}
    for sid, pairs in by_series.items():
        y = np.array([actual[(sid, ts)] for ts, _ in pairs])
        f = np.array([v for _, v in pairs])
        r = np.array([ref[(sid, ts)] for ts, _ in pairs]) if ref is not None else None
        per_series[sid] = series_metrics(y, f, r)
    mean_row = aggregate(per_series)

    names = ["MAPE", "sMAPE", "WAPE", "RMSE", "MAE"] + (["MASE"] if ref is not None else [])
    header = ("dataset", "model", "series_id") + tuple(names) + ("runtime_minutes",)
    rows = []
    for sid in sorted(per_series):
        rows.append((dataset, model_name, sid) + tuple(per_series[sid][n] for n in names) + ("",))
    rows.append((dataset, model_name, "MEAN")
                + tuple(mean_row[n] for n in names) + (f"{runtime_minutes:.2f}",))
    bundle_io.write_csv(out, header, rows)
    summary = ", ".join(f"{n}={mean_row[n]:.3f}" for n in names)
    click.echo(f"mean over {len(per_series)} series: {summary}")


@main.command("decompose")
@click.argument("config_path", type=click.Path())
@click.option("--out", default="decomposition", show_default=True, help="Output directory.")
@click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE")
@_exit_codes
def cmd_decompose(config_path, out, overrides):
    """Train the trend+Fourier target and export components, parameters and
    per-parameter feature importances for the training rows."""
    cfg = load_config(config_path, _parse_overrides(overrides))
    if cfg.model.target != "stl":
        raise ConfigError("decompose requires model.target = stl")
    ds = prepare_dataset(cfg)
    model, _ = _train_family(cfg, ds)
    spec = model.spec

    from .targets import stl_components

    values = model.parameters(ds)
    trend, seas, fitted = stl_components(values, ds.time_index, spec)
    stamps = ds.timestamps_flat()
    sids = [ds.series[i].series_id for i in ds.series_idx]

    out = Path(out)
    bundle_io.write_csv(
        out / "components.csv",
        ("series_id", "timestamp", "trend", "seasonal", "fitted"),
        [(sids[i], stamps[i].isoformat(), trend[i], seas[i], fitted[i])
         for i in range(ds.n_rows)],
    )
    names = spec.param_names
    bundle_io.write_csv(out / "parameters.csv", PARAMETER_HEADER,
                        panel_rows(ds, names, values, "train"))
    rows = []
    if hasattr(model, "gain_importances"):
        for j, imp in enumerate(model.gain_importances()):
            for fid in sorted(imp):
                rows.append((names[j], model.feature_names[fid], imp[fid]))
    bundle_io.write_csv(out / "importances.csv",
                        ("parameter_name", "feature", "total_gain"), rows)
    click.echo(f"wrote components/parameters/importances to {out}")


@main.command("bench-scaling")
@click.argument("config_path", type=click.Path(), required=False)
@click.option("--p-list", default="1,6,12,24", show_default=True)
@click.option("--n-rows", default=5000, show_default=True, type=click.IntRange(min=1))
@click.option("--iterations", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--repeats", default=3, show_default=True, type=click.IntRange(min=1))
@click.option("--out", default="scaling.csv", show_default=True)
@click.option("--seed", default=7, show_default=True)
@_exit_codes
def cmd_bench_scaling(config_path, p_list, n_rows, iterations, repeats, out, seed):
    """Median per-iteration runtime of both families as the parameter count
    grows, normalized to P=1 per family."""
    cfg = load_config(config_path) if config_path else config_from_dict({})
    try:
        p_values = [int(x) for x in p_list.split(",")]
    except ValueError:
        raise ConfigError(f"--p-list must be comma-separated integers, got {p_list!r}")
    if min(p_values) < 1:
        raise ConfigError(f"--p-list: every P must be >= 1, got {p_list!r}")
    rows = run_scaling_benchmark(cfg, p_values, n_rows, iterations, seed, repeats)
    bundle_io.write_csv(out, ("P", "family", "median_seconds_per_iter", "relative"), rows)
    for r in rows:
        click.echo(f"P={r[0]:>3} {r[1]:<10} {r[2]:.4f}s relative={r[3]:.2f}")


def run_scaling_benchmark(cfg: RunConfig, p_values, n_rows, iterations, seed,
                          repeats: int = 3):
    """Time training iterations of both families on one fixed synthetic panel.

    Each measurement is the median per-iteration wall time of one training
    run; runs are repeated interleaved and the minimum median kept, which
    discards scheduler contention on shared machines.  BLAS is pinned to one
    thread while timing so matmul thread scheduling cannot skew the larger
    parameter counts.  A small warm-up run precedes the timed ones.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:  # measurement hygiene only; results stay valid
        from contextlib import nullcontext

        def threadpool_limits(limits):
            return nullcontext()

    length = 200
    n_series = int(np.ceil(n_rows / length))
    ds = synthetic_panel(n_series, length, seed=seed)

    def one_run(family, P, rounds):
        spec = TargetSpec(kind="ar", p=P)
        bcfg = dataclasses.replace(cfg.boosting, rounds=rounds)
        if family == "hypertree":
            _, log = hypertree.train(ds, spec, bcfg, cfg.recipe())
        else:
            _, log = treenet.train(ds, spec, bcfg, cfg.net, seed, cfg.recipe())
        per_iter = np.diff([0.0] + [r[2] for r in log.rows])
        return float(np.median(per_iter))

    results = []
    with threadpool_limits(limits=1):
        for family in ("hypertree", "treenet"):
            one_run(family, p_values[0], max(2, iterations // 4))  # warm-up
            # interleave the repeats so a contention burst cannot bias one P only
            samples = {P: [] for P in p_values}
            for _ in range(repeats):
                for P in p_values:
                    samples[P].append(one_run(family, P, iterations))
            times = {P: min(samples[P]) for P in p_values}
            for P in p_values:
                results.append((P, family, times[P], times[P] / times[p_values[0]]))
    return results


@main.command("export")
@click.option("--bundle", "bundle_dir", required=True, type=click.Path())
@click.option("--data", "data_path", default=None, type=click.Path())
@click.option("--what", type=click.Choice(["parameters", "embeddings"]), required=True)
@click.option("--horizon", default=None, type=int)
@click.option("--out", default=None, help="Output CSV (defaults to <what>.csv).")
@_exit_codes
def cmd_export(bundle_dir, data_path, what, horizon, out):
    """Export per-row parameters or tree embeddings for the training rows and
    the forecast horizon, flagged by phase."""
    model, manifest, code_maps = bundle_io.load_bundle(bundle_dir)
    if manifest["family"] == "baseline":
        raise ConfigError("export requires a tree-based model bundle")
    if what == "embeddings" and manifest["family"] != "treenet":
        raise ConfigError("embeddings are only available from a treenet bundle")
    cfg, ds = _dataset_for_bundle(manifest, code_maps, data_path)
    h = horizon if horizon is not None else cfg.eval.horizon
    if h < 1:
        raise ConfigError("horizon: must be >= 1")
    out = out or f"{what}.csv"
    rows = export_rows(model, ds, h, what)
    header = PARAMETER_HEADER if what == "parameters" else (
        "series_id", "timestamp", "dim", "value", "phase")
    bundle_io.write_csv(out, header, rows)
    click.echo(f"wrote {len(rows)} rows to {out}")


def panel_rows(panel: PanelDataset, names, values, phase: str):
    """One row per panel row and column j of ``values``, in that order:
    (series_id, timestamp, names[j], value, phase)."""
    stamps = panel.timestamps_flat()
    sids = [panel.series[i].series_id for i in panel.series_idx]
    return [(sids[i], stamps[i].isoformat(), name, values[i, j], phase)
            for i in range(panel.n_rows) for j, name in enumerate(names)]


def export_rows(model, ds: PanelDataset, h: int, what: str):
    rows = []
    for phase, panel in (("train", ds), ("forecast", future_panel(ds, h))):
        if what == "parameters":
            names, values = model.spec.param_names, model.parameters(panel)
        else:
            fs = model.recipe.build(panel)
            model.check_schema(fs.names)
            values = model.embeddings(fs.X)
            names = range(values.shape[1])
        rows += panel_rows(panel, names, values, phase)
    return rows


if __name__ == "__main__":
    main()
