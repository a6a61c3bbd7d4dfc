"""Model bundle directories and atomic file IO; nothing else.

A bundle holds a manifest, one JSON file per ensemble, the categorical code
map, and the training log.  ``_FAMILIES`` maps a manifest's family to the
model class that decodes it; the models themselves live in ``hypertree``,
``treenet`` and ``baselines``.  Floats are serialized with their shortest
round-tripping representation, so save/load is bit-exact.  All writes go
through a temp file plus rename.  Saving and loading suspend the cyclic
garbage collector (see ``_without_cyclic_gc``).
"""

from __future__ import annotations

import functools
import gc
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .baselines import BaselineModel
from .boosting import TreeEnsemble
from .errors import DataError
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


# --------------------------------------------------------------------------
# bundle directories
# --------------------------------------------------------------------------

def _without_cyclic_gc(fn):
    """Make ``fn`` run with the cyclic garbage collector suspended.

    A bundle's trees are tens of thousands of dicts and nodes that all stay
    alive until the call returns, so a collection during the call frees
    nothing, yet a full one walks every live object.  Whether one falls
    inside a save or load would depend on what the process allocated
    before.  The collector's state is restored on return, also when it was
    off to begin with.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return wrapper


def _dumps(obj) -> str:
    # indentation would force json's pure-Python encoder; compact output
    # takes the C encoder and carries no whitespace
    return json.dumps(obj, separators=(",", ":"))


@_without_cyclic_gc
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


@_without_cyclic_gc
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

