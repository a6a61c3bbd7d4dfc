"""One benchmark child: set up a workload, then run CSV-to-forecast lifecycles.

``run.py`` starts this file in a fresh process for every measurement and
reads the JSON object it prints as its last line.

``--mode setup``  times child start to the point where training would begin
                  (imports, input generation, ``prepare_dataset``) and exits.
``--mode run``    does the same set-up, then runs lifecycles closed-loop, one
                  at a time, until ``--seconds`` would be exceeded.  A
                  lifecycle is what ``treecast train`` followed by
                  ``treecast forecast`` does: train, save the bundle, load it,
                  prepare the data with the frozen code maps, forecast and
                  write the CSV.  With ``--trace 1`` untraced and traced
                  lifecycles alternate, and the traced ones give the
                  per-layer metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# one BLAS thread, set before numpy loads: unpinned matmuls make the
# treenet rounds depend on machine load
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import treecast  # noqa: E402
from treecast import bundle, cli, hypertree, treenet  # noqa: E402
from treecast.config import config_from_dict, load_config  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_LIFECYCLES = 2        # the determinism check compares two lifecycles
WAPE_LIMIT = 50.0         # % ; a hold-out error above this is a broken forecast
FORECAST_HEADER = ("series_id", "timestamp", "value")
CYCLE_S = 1.5             # time the save-load-forecast cycle repeats per lifecycle


class Gate:
    """Attempted/failed bookkeeping; a failure is recorded, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, what: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def bundle_stats(path: Path):
    """(total bytes, file count, digest); the digest skips the training log,
    whose seconds column is wall time."""
    h = hashlib.sha256()
    total = files = 0
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        total += f.stat().st_size
        files += 1
        if f.name != "training_log.csv":
            h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return total, files, h.hexdigest()


class Lifecycles:
    """The workload's inputs, set up once, and the lifecycles run on them."""

    def __init__(self, args, gate: Gate):
        if Path(treecast.__file__).resolve().parent != (SRC / "treecast").resolve():
            raise SystemExit(f"treecast imported from {treecast.__file__}, not {SRC}")
        self.gate = gate
        # one fixed directory: the data path is echoed into the bundle, and
        # children run one at a time and must write identical bundles
        self.work = Path(args.work_root) / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()
        self.inputs = workloads.generate(args.workload, ROOT, args.seed, self.work)
        self.cfg = load_config(str(self.inputs.config_path))
        self.ds = cli.prepare_dataset(self.cfg)
        self.spec = self.cfg.target_spec(self.ds.frequency)
        self.echo = cli._config_echo(self.cfg)
        self.first = None          # (bundle digest, forecast text) of the first lifecycle

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def _train(self, ds):
        cfg = self.cfg
        if cfg.model.family == "hypertree":
            return hypertree.train(ds, self.spec, cfg.boosting, cfg.recipe())
        return treenet.train(ds, self.spec, cfg.boosting, cfg.net, cfg.seed, cfg.recipe())

    def once(self, tracer=None) -> dict:
        """One lifecycle; returns its timings and the trained model.

        Train, then save, load and forecast in turn, as ``treecast train``
        and ``treecast forecast`` would.  Untraced, the save-load-forecast
        cycle repeats until it has taken ``CYCLE_S``, so that each of the
        short steps is sampled many times, interleaved, at many moments of
        the run; training runs once.  Traced, every step runs once, so that
        call counts follow from the config.
        """
        out_dir = self.work / "bundle"
        fc_path = self.work / "forecast.csv"
        rec = {"save_s": [], "load_s": [], "forecast_s": []}
        clock = time.perf_counter
        shutil.rmtree(out_dir, ignore_errors=True)
        with _span(tracer, "bench.lifecycle"):
            ds = self.ds
            if tracer is not None:
                # the traced run also covers the data preparation `treecast train` does
                with _span(tracer, "bench.prepare"):
                    ds = cli.prepare_dataset(self.cfg)
            t0 = clock()
            with _span(tracer, "bench.train"):
                model, log = self._train(ds)
            rec["train_s"] = clock() - t0
            cycle_end = t0 + rec["train_s"] + (CYCLE_S if tracer is None else 0.0)
            while True:
                shutil.rmtree(out_dir, ignore_errors=True)
                t0 = clock()
                with _span(tracer, "bench.save"):
                    bundle.save_bundle(out_dir, model, log, self.echo, ds.code_maps,
                                       self.cfg.seed)
                rec["save_s"].append(clock() - t0)
                t0 = clock()
                with _span(tracer, "bench.load"):
                    loaded, manifest, code_maps = bundle.load_bundle(out_dir)
                rec["load_s"].append(clock() - t0)
                t0 = clock()
                with _span(tracer, "bench.forecast"):
                    fcfg = config_from_dict(manifest.get("config", {}))
                    fds = cli.prepare_dataset(fcfg, code_maps=code_maps)
                    rows = cli.forecast_rows(loaded, manifest, fds, fcfg.eval.horizon,
                                             average=fcfg.eval.average_parameters)
                    bundle.write_csv(fc_path, FORECAST_HEADER, rows)
                rec["forecast_s"].append(clock() - t0)
                if clock() >= cycle_end:
                    break
        rec["lifecycle_s"] = rec["train_s"] + sum(
            statistics.median(rec[k]) for k in ("save_s", "load_s", "forecast_s"))
        seconds = [r[2] for r in log.rows]
        rec["round_ms"] = [1000.0 * (b - a) for a, b in zip([0.0] + seconds, seconds)]
        rec["model"], rec["loaded"], rec["manifest"], rec["fds"] = model, loaded, manifest, fds
        rec["out_dir"], rec["fc_path"] = out_dir, fc_path
        return rec

    def verify(self, rec, full: bool) -> dict:
        """Correctness checks on one lifecycle; returns its scored metrics."""
        gate = self.gate
        bundle_bytes, files, digest = bundle_stats(rec["out_dir"])
        text = rec["fc_path"].read_text()
        fc = bundle.read_value_csv(rec["fc_path"])
        n_rows = text.count("\n") - 1
        holdout = self.inputs.holdout
        gate.check("one forecast row per series per horizon step",
                   n_rows == len(fc) and set(fc) == set(holdout),
                   f"{n_rows} rows, {len(set(fc) & set(holdout))} of {len(holdout)} keys")
        gate.check("forecasts finite", all(math.isfinite(v) for v in fc.values()))
        if self.first is None:
            self.first = (digest, text)
        else:
            gate.check("same seed gives the same bundle", digest == self.first[0])
            gate.check("same seed gives the same forecast", text == self.first[1])
        if full:
            # the reloaded bundle must predict exactly what the trained model does
            model, loaded, fds = rec["model"], rec["loaded"], rec["fds"]
            h = self.cfg.eval.horizon
            same = (cli.forecast_rows(model, rec["manifest"], fds, h)
                    == cli.forecast_rows(loaded, rec["manifest"], fds, h))
            X = model.recipe.build(self.ds).X
            for a, b in zip(model.predict_parameters(X), loaded.predict_parameters(X)):
                same = same and np.array_equal(a, b)
            gate.check("reloaded bundle predicts bit for bit like the trained model", same)
        by_series: dict = {}
        for (sid, ts), actual in holdout.items():
            by_series.setdefault(sid, []).append((actual, fc.get((sid, ts), math.nan)))
        wapes = []
        for pairs in by_series.values():
            y, f = np.array(pairs).T
            wapes.append(100.0 * float(np.sum(np.abs(y - f)) / np.sum(np.abs(y))))
        wape = float(np.mean(wapes))
        gate.check("hold-out WAPE below limit", math.isfinite(wape) and wape < WAPE_LIMIT,
                   f"{wape!r} %")
        return {"bundle_bytes": bundle_bytes, "bundle_files": files, "holdout_wape": wape}


def expected_calls(cfg, spec):
    """({(span, phase or None): calls} one lifecycle must make, ensembles)."""
    rounds = cfg.boosting.rounds
    hyper = cfg.model.family == "hypertree"
    n_ens = spec.param_count if hyper else cfg.net.d
    exp = {
        ("boosting.boost_round", "bench.train"): rounds * n_ens,
        ("boosting.tree_values", "bench.train"): rounds * n_ens,
        # hypertree: once before the first round and once per round;
        # treenet (separate flow): a training-mode and an eval-mode pass per round
        ("targets.evaluate", "bench.train"): rounds + 1 if hyper else 2 * rounds,
        (f"{cfg.model.family}.train", None): 1,
        ("hypertree.forecast", None): 1,
        ("data.prepare_dataset", None): 2,
        ("data.ingest_csv", None): 2,
        ("bundle.save_bundle", None): 1,
        ("bundle.to_dict", None): 1,
        ("bundle.load_bundle", None): 1,
        ("bundle.from_dict", None): 1,
    }
    if not hyper:
        exp.update({
            ("treenet.mlp_forward", "bench.train"): 2 * rounds,
            ("treenet.mlp_backward", "bench.train"): rounds,
            ("treenet.adam_step", "bench.train"): rounds,
            ("treenet.embedding_grad_hess", "bench.train"): rounds,
            ("treenet.mlp_directional", "bench.train"): rounds * n_ens,
        })
    return exp, n_ens


def traced_checks(gate: Gate, tracer, summary, lc: Lifecycles):
    for problem in summary.problems:
        gate.check("span accounting", False, problem)
    gate.check("self times plus unattributed time add up to the root span",
               not summary.problems)
    exp, n_ens = expected_calls(lc.cfg, lc.spec)
    for (name, phase), want in exp.items():
        got = summary.calls(name, phase)
        gate.check(f"{name} calls{' in ' + phase if phase else ''}", got == want,
                   f"expected {want}, traced {got} (bindings patched: "
                   f"{tracer.bindings.get(name, 0)})")
    predicts = (summary.calls("hypertree.predict_parameters")
                + summary.calls("treenet.predict_parameters"))
    gate.check("boosting.predict calls = ensembles x predict_parameters calls",
               summary.calls("boosting.predict") == n_ens * predicts,
               f"{summary.calls('boosting.predict')} vs {n_ens} x {predicts}")
    for name, *_ in tracing.FUNCTIONS + tracing.METHODS:
        gate.check(f"{name} bound", tracer.bindings.get(name, 0) > 0)


def median(values):
    return statistics.median(values) if values else math.nan


def measure(args, lc: Lifecycles, gate: Gate) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    plain, traced, walls, layer_runs = [], [], [], []
    needed = MIN_LIFECYCLES * (2 if tracer is not None else 1)
    while True:
        use_trace = tracer is not None and len(walls) % 2 == 1
        t_begin = time.perf_counter()
        gate.attempted += 1     # the lifecycle itself is one operation
        try:
            if use_trace:
                tracer.reset()
                tracer.install()
                try:
                    rec = lc.once(tracer)
                finally:
                    tracer.uninstall()
            else:
                rec = lc.once()
            rec.update(lc.verify(rec, full=not plain and not traced))
        except Exception as exc:  # recorded as a failed operation; the run goes on
            traceback.print_exc(file=sys.stderr)
            gate.failures.append(f"lifecycle raised {type(exc).__name__}: {exc}")
            rec = None
        if rec is not None and use_trace:
            summary = tracing.Summary(tracer)
            traced_checks(gate, tracer, summary, lc)
            layers = tracing.layer_metrics(summary)
            layers.update(tracing.tree_counts(rec["model"], lc.cfg.boosting.max_depth))
            layers["bundle.files"] = rec["bundle_files"]
            layer_runs.append(layers)
            traced.append(rec)
        elif rec is not None:
            plain.append(rec)
        if rec is not None:
            for key in ("model", "loaded", "manifest", "fds", "out_dir", "fc_path"):
                del rec[key]
        walls.append(time.perf_counter() - t_begin)
        elapsed = time.perf_counter() - start
        if len(walls) >= needed and elapsed + median(walls) > args.seconds:
            break

    out = {"lifecycles": plain}
    if tracer is not None:
        layers = {}
        for name in layer_runs[0] if layer_runs else ():
            vals = [lr[name] for lr in layer_runs]
            if tracing.is_count(name):
                gate.check(f"{name} repeats exactly across traced lifecycles",
                           len(set(vals)) == 1, f"{vals}")
                layers[name] = vals[0]
            else:
                layers[name] = median(vals)
        layers["trace.overhead_ratio"] = (median([r["train_s"] for r in traced])
                                          / median([r["train_s"] for r in plain]))
        out["layers"] = layers
        out["traced_lifecycles"] = len(traced)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), default="run")
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before this process started")
    p.add_argument("--work-root", required=True)
    args = p.parse_args(argv)

    gate = Gate()
    lc = Lifecycles(args, gate)
    result = {"setup_s": time.monotonic() - args.t0}
    try:
        if args.mode == "run":
            result.update(measure(args, lc, gate))
            result["env"] = environment()
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            if lc.first is not None:
                digest, text = lc.first
                result["outputs"] = [digest, hashlib.sha256(text.encode()).hexdigest()]
    finally:
        lc.close()
    result["attempted"] = gate.attempted
    result["failures"] = gate.failures
    print(json.dumps(result))


if __name__ == "__main__":
    main()
