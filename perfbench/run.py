"""treecast benchmark: the CSV-to-forecast lifecycle, end to end and per layer.

    python3 perfbench/run.py --workload airline_ar12 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout (``src/treecast`` next to this
directory); nothing needs installing.  Workloads are listed in
``workloads.py`` with the reason each exists; the metric names, units and
regression bounds are in ``BENCHMARK.json`` at the checkout root.

With ``--trace 0`` the command alternates ``SETUP_PROBES`` children that
only set up with ``SEGMENTS`` children that each run lifecycles
closed-loop, one caller and one operation at a time, for an equal share of
``--seconds``.  With ``--trace 1`` one child alternates untraced and traced
lifecycles for ``--seconds`` and reports the per-layer metrics and the
tracing overhead.  Every child pins BLAS to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every operation and correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SEGMENTS = 3            # measuring children of one --trace 0 run
SETUP_PROBES = 3        # set-up-only children before each measuring child
DEADLINE_S = 170.0      # the whole command, children included


def fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def child(args, mode: str, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--mode", mode, "--work-root", str(WORK_ROOT)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail(f"out of time before the {mode} child started")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} child did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def end_to_end(setup, res) -> tuple:
    """({metric: value}, {metric: sample count}) from the children's results.

    On a shared host the program runs at two speeds, as other tenants load
    the machine or not, and the share of time spent at each varies from
    one run to the next: a median follows that share.  Timings other than
    ``setup_s`` and ``round_ms.p50`` are therefore the 90th percentile of
    their samples in the run, which reads the loaded speed that every run
    sees some of.  ``setup_s`` is the median of the set-up probes spread
    through the run.
    """
    lcs = res["lifecycles"]
    pooled = {k: [x for lc in lcs for x in lc[k]]
              for k in ("round_ms", "save_s", "load_s", "forecast_s")}
    rounds = pooled["round_ms"]
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "setup_s": statistics.median(setup),
        "train_s": p90([lc["train_s"] for lc in lcs]),
        "round_ms.p50": statistics.median(rounds),
        "round_ms.p90": p90(rounds),
        "save_s": p90(pooled["save_s"]),
        "load_s": p90(pooled["load_s"]),
        "forecast_s": p90(pooled["forecast_s"]),
        "lifecycle_s": p90([lc["lifecycle_s"] for lc in lcs]),
        "bundle_bytes": statistics.median(lc["bundle_bytes"] for lc in lcs),
        "peak_rss_mb": res["peak_rss_mb"],
        "holdout_wape": statistics.median(lc["holdout_wape"] for lc in lcs),
        "pass_ratio": 1.0 - failed / attempted,
    }
    counts = {k: len(lcs) for k in values}
    counts.update({k: len(v) for k, v in pooled.items() if k in values})
    counts.update({"setup_s": len(setup), "round_ms.p50": len(rounds),
                   "round_ms.p90": len(rounds), "peak_rss_mb": res["children"],
                   "pass_ratio": attempted})
    return values, counts


def merge(results: list) -> dict:
    """One result from the measuring children's; checks that every child
    wrote the same bundle and forecast."""
    res = {"lifecycles": [lc for r in results for lc in r["lifecycles"]],
           "attempted": sum(r["attempted"] for r in results),
           "failures": [msg for r in results for msg in r["failures"]],
           "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
           "children": len(results),
           "env": results[0]["env"]}
    for r in results[1:]:
        res["attempted"] += 1
        if r.get("outputs") != results[0].get("outputs"):
            res["failures"].append("same seed gives the same bundle and forecast in every "
                                   f"child: {r.get('outputs')} vs {results[0].get('outputs')}")
    return res


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "treecast" / "__init__.py").is_file():
        fail(f"no treecast sources at {ROOT / 'src' / 'treecast'}", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}", 2)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    if args.seconds < 1:
        fail("--seconds must be >= 1", 2)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    WORK_ROOT.mkdir(exist_ok=True)
    try:
        if args.trace:
            res = child(args, "run", args.seconds, deadline)
        else:
            # set-up probes are spread through the run, between the measuring
            # children, so that no one stretch of host load decides setup_s
            setup, results = [], []
            for _ in range(SEGMENTS):
                for _ in range(SETUP_PROBES):
                    setup.append(child(args, "setup", 0.0, deadline)["setup_s"])
                results.append(child(args, "run", args.seconds / SEGMENTS, deadline))
                setup.append(results[-1]["setup_s"])
            res = merge(results)
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    res["failed"] = len(res["failures"])
    if not res["lifecycles"] or (args.trace and not res["traced_lifecycles"]):
        fail("no lifecycle completed:\n  " + "\n  ".join(res["failures"]))

    env = dict(res["env"], commit=git_commit())
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        values = dict(res["layers"])
        counts = {k: res["traced_lifecycles"] for k in values}
    else:
        values, counts = end_to_end(setup, res)
    print(f"lifecycles: {len(res['lifecycles'])} untraced"
          + (f", {res['traced_lifecycles']} traced" if args.trace else ""))
    print(f"fail_ratio {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']!r}")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    print(f"{'metric':<34} {'value':>18}  {'unit':<6} samples")
    for name, value in values.items():
        print(f"{name:<34} {value:>18.6f}  {wanted.get(name, '?'):<6} {counts[name]}")

    if set(wanted) != set(values):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(wanted) - set(values))}, "
             f"unknown {sorted(set(values) - set(wanted))}")
    bad = [k for k, v in values.items() if not math.isfinite(v)]
    if bad:
        fail(f"no measured value for {bad}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": wanted[name]} for name in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
