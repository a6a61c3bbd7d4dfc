"""Per-layer spans recorded from outside the program.

A traced lifecycle wraps the public functions and methods of each treecast
module, records one span per call (name, start, end, parent) in memory and
restores the originals afterwards.  Module-level functions are replaced at
every import site that binds them (``hypertree`` and ``treenet`` both do
``from .boosting import tree_values``), found by identity across all loaded
``treecast`` modules.  The child checks the call counts against the counts
the config implies, so a binding that was missed fails loudly instead of
reading as zero.

Span names are ``<module>.<function>`` of the layer the call belongs to;
``data.prepare_dataset`` is ``treecast.cli.prepare_dataset``, the entry of
the data layer that ``treecast train`` and ``treecast forecast`` both call,
and ``bundle.to_dict``/``bundle.from_dict`` are the model (de)serializers
that ``save_bundle``/``load_bundle`` call.  The benchmark's own phases are
spans named ``bench.*``; their self time is the time no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

ROOT_SPAN = "bench.lifecycle"
PHASES = ("bench.prepare", "bench.train", "bench.save", "bench.load", "bench.forecast")

# (span name, defining module, attribute)
FUNCTIONS = (
    ("boosting.tree_values", "treecast.boosting", "tree_values"),
    ("treenet.embedding_grad_hess", "treecast.treenet", "embedding_grad_hess"),
    ("treenet.train", "treecast.treenet", "train"),
    ("hypertree.train", "treecast.hypertree", "train"),
    ("hypertree.forecast", "treecast.hypertree", "forecast"),
    ("bundle.save_bundle", "treecast.bundle", "save_bundle"),
    ("bundle.load_bundle", "treecast.bundle", "load_bundle"),
    ("bundle.write_csv", "treecast.bundle", "write_csv"),
    ("data.ingest_csv", "treecast.data", "ingest_csv"),
    ("data.prepare_dataset", "treecast.cli", "prepare_dataset"),
    ("data.feature_matrix", "treecast.data", "feature_matrix"),
    ("data.future_panel", "treecast.data", "future_panel"),
)

# (span name, defining module, class, attribute)
METHODS = (
    ("boosting.boost_round", "treecast.boosting", "TreeEnsemble", "boost_round"),
    ("boosting.predict", "treecast.boosting", "TreeEnsemble", "predict"),
    ("targets.evaluate", "treecast.targets", "Objective", "evaluate"),
    ("targets.local_fitted_jacobian", "treecast.targets", "Objective", "local_fitted_jacobian"),
    ("treenet.mlp_forward", "treecast.treenet", "Mlp", "forward"),
    ("treenet.mlp_backward", "treecast.treenet", "Mlp", "backward"),
    ("treenet.mlp_directional", "treecast.treenet", "Mlp", "directional"),
    ("treenet.adam_step", "treecast.treenet", "Mlp", "adam_step"),
    ("treenet.predict_parameters", "treecast.treenet", "TreeNetModel", "predict_parameters"),
    ("hypertree.predict_parameters", "treecast.hypertree", "HyperTreeModel", "predict_parameters"),
    ("bundle.to_dict", "treecast.hypertree", "HyperTreeModel", "to_dict"),
    ("bundle.to_dict", "treecast.treenet", "TreeNetModel", "to_dict"),
    ("bundle.from_dict", "treecast.hypertree", "HyperTreeModel", "from_dict"),
    ("bundle.from_dict", "treecast.treenet", "TreeNetModel", "from_dict"),
)

# metrics that are counts of work: they must repeat exactly across lifecycles
COUNT_METRICS = ("boosting.splits", "boosting.leaves", "boosting.scan_useful_ratio",
                 "bundle.files")


class TraceError(RuntimeError):
    """The program no longer has a name the tracer wraps, or spans do not add up."""


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self._stack: list = []
        self._undo: list = []
        self.bindings: dict = {}    # span name -> number of attributes replaced

    # -- recording ------------------------------------------------------

    def _open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def reset(self):
        if self._stack:
            raise TraceError("reset with open spans")
        self.names, self.parents, self.starts, self.ends = [], [], [], []

    # -- patching -------------------------------------------------------

    def _replace(self, owner, attr, new, name):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
        self.bindings[name] = self.bindings.get(name, 0) + 1

    def install(self):
        """Wrap every traced name; raises TraceError if one is missing."""
        if self._undo:
            raise TraceError("tracer already installed")
        self.bindings = {}
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "treecast" or key.startswith("treecast."))]
            for name, modname, attr in FUNCTIONS:
                orig = getattr(importlib.import_module(modname), attr, None)
                if not callable(orig):
                    raise TraceError(f"{modname}.{attr} not found")
                wrapped = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, key, wrapped, name)
            for name, modname, clsname, attr in METHODS:
                cls = getattr(importlib.import_module(modname), clsname, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    raise TraceError(f"{modname}.{clsname}.{attr} not found")
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._replace(cls, attr, new, name)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Summary:
    """Calls, inclusive and self time per span name, for one traced lifecycle.

    Self time is a span's duration minus the time its child spans cover.
    ``problems`` lists every accounting check that failed: spans left open,
    a child outside its parent, more or fewer than one root, or self times
    that do not add up to the root span.
    """

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.problems: list = []
        if tr._stack or any(e is None for e in tr.ends):
            self.problems.append("spans left open")
            self.stats, self.phase_calls = {}, {}
            self.root_s = self.unattributed_s = 0.0
            return
        dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        covered = [0.0] * n
        phase = [None] * n
        roots = []
        for i in range(n):
            p = tr.parents[i]
            if p < 0:
                roots.append(i)
            else:
                covered[p] += dur[i]
                if tr.starts[i] < tr.starts[p] or tr.ends[i] > tr.ends[p]:
                    self.problems.append(f"span {tr.names[i]} outside its parent {tr.names[p]}")
                phase[i] = phase[p]
            if tr.names[i] in PHASES:
                phase[i] = tr.names[i]
        if len(roots) != 1 or tr.names[roots[0]] != ROOT_SPAN:
            self.problems.append(f"expected one {ROOT_SPAN} root, got "
                                 f"{[tr.names[r] for r in roots]}")
        self_s = [dur[i] - covered[i] for i in range(n)]
        self.root_s = sum(dur[r] for r in roots)
        total_self = sum(self_s)
        if abs(total_self - self.root_s) > 1e-6 + 1e-9 * self.root_s:
            self.problems.append(f"self times sum to {total_self!r} s, root span is "
                                 f"{self.root_s!r} s")
        self.stats: dict = {}
        self.phase_calls: dict = {}
        for i in range(n):
            st = self.stats.setdefault(tr.names[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
            st["calls"] += 1
            st["s"] += dur[i]
            st["self_s"] += self_s[i]
            key = (tr.names[i], phase[i])
            self.phase_calls[key] = self.phase_calls.get(key, 0) + 1
        self.unattributed_s = sum(self_s[i] for i in range(n) if tr.names[i].startswith("bench."))

    def stat(self, name, key):
        return self.stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})[key]

    def calls(self, name, phase=None) -> int:
        """Calls of ``name``, all of them or only those under one phase span."""
        if phase is None:
            return self.stat(name, "calls")
        return self.phase_calls.get((name, phase), 0)


def tree_counts(model, max_depth: int) -> dict:
    """Splits, leaves and split-search yield over every tree of a trained model.

    A node was scanned for a split when it sits above ``max_depth``; the
    useful ratio is splits found over nodes scanned.
    """
    from treecast.boosting import Leaf, Split

    splits = leaves = scanned = 0
    stack = [(tree, 0) for ens in model.ensembles for tree in ens.trees]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Split):
            splits += 1
            scanned += 1
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        elif isinstance(node, Leaf):
            leaves += 1
            scanned += depth < max_depth
        else:
            raise TraceError(f"unknown tree node type {type(node).__name__}")
    return {"boosting.splits": splits, "boosting.leaves": leaves,
            "boosting.scan_useful_ratio": splits / scanned if scanned else 0.0}


def layer_metrics(summary: Summary) -> dict:
    """The per-layer metrics one traced lifecycle gives, named
    ``<module>.<function>.<stat>``."""
    out = {}

    def put(span, *keys):
        for key in keys:
            out[f"{span}.{key}"] = summary.stat(span, key)

    put("boosting.boost_round", "calls", "s", "self_s")
    put("boosting.tree_values", "calls", "s")
    put("boosting.predict", "calls", "s")
    put("targets.evaluate", "calls", "s")
    calls = summary.stat("targets.evaluate", "calls")
    out["targets.evaluate.ms_per_call"] = (
        1000.0 * summary.stat("targets.evaluate", "s") / calls if calls else 0.0)
    put("targets.local_fitted_jacobian", "s")
    for fn in ("mlp_forward", "mlp_backward", "mlp_directional", "adam_step",
               "embedding_grad_hess"):
        put(f"treenet.{fn}", "s")
    put("treenet.train", "self_s")
    put("hypertree.train", "self_s")
    put("hypertree.forecast", "s")
    put("hypertree.predict_parameters", "s")
    for fn in ("save_bundle", "to_dict", "load_bundle", "from_dict", "write_csv"):
        put(f"bundle.{fn}", "s")
    for fn in ("ingest_csv", "prepare_dataset", "feature_matrix", "future_panel"):
        put(f"data.{fn}", "s")
    out["trace.unattributed_s"] = summary.unattributed_s
    out["trace.root_s"] = summary.root_s
    return out


def is_count(metric: str) -> bool:
    return metric.endswith(".calls") or metric in COUNT_METRICS
