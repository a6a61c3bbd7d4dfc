"""One-vs-all trainer: one boosted ensemble per target-model parameter.

Each round evaluates the target model once, takes the per-parameter
gradients/Hessians of the loss with respect to the raw parameters, and
grows one tree per parameter against that shared start-of-round state
(synchronous updates).  Prediction for parameter j is
base_raw[j] + ensembles[j](x), chained through the link.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .boosting import (BoostConfig, SplitMatrix, TreeEnsemble, distinct_rows, predict_distinct,
                       tree_values)
from .data import PanelDataset, TimeSeries, feature_matrix, future_panel
from .errors import NumericError, SchemaError
from .targets import Objective, TargetSpec


@dataclass
class FeatureRecipe:
    """How the model feature matrix is assembled from a panel."""

    calendar: tuple = ("month", "quarter", "year", "day_of_week")
    include_time: bool = False

    def build(self, ds: PanelDataset):
        return feature_matrix(ds, calendar=self.calendar, include_time=self.include_time)

    def to_dict(self):
        return {"calendar": list(self.calendar), "include_time": self.include_time}

    @classmethod
    def from_dict(cls, d):
        return cls(calendar=tuple(d["calendar"]), include_time=d["include_time"])


@dataclass
class TrainLog:
    rows: list = field(default_factory=list)  # (round, mean_loss, seconds)
    notes: list = field(default_factory=list)

    def append(self, rnd, loss, seconds):
        self.rows.append((rnd, loss, seconds))

    @property
    def losses(self):
        return [r[1] for r in self.rows]


class HyperTreeModel:
    def __init__(self, spec: TargetSpec, ensembles, base_raw, recipe: FeatureRecipe,
                 feature_names, feature_kinds):
        self.spec = spec
        self.ensembles = ensembles
        self.base_raw = np.asarray(base_raw, dtype=np.float64)
        self.recipe = recipe
        self.feature_names = tuple(feature_names)
        self.feature_kinds = tuple(feature_kinds)

    def check_schema(self, names):
        if tuple(names) != self.feature_names:
            raise SchemaError(
                f"feature schema mismatch: model has {self.feature_names}, data has {tuple(names)}"
            )

    def predict_parameters(self, X: np.ndarray):
        """(raw, linked values), both (N, P).  Each ensemble and the
        elementwise link run once per distinct row of X (compared byte for
        byte), and the values are gathered back to every row."""
        values, inverse = predict_distinct(self.ensembles, X)
        raw = self.base_raw + values
        return raw[inverse], self.spec.target.link(raw)[inverse]

    def parameters(self, ds: PanelDataset) -> np.ndarray:
        """(N, P) linked parameters of the panel's rows."""
        fs = self.recipe.build(ds)
        self.check_schema(fs.names)
        return self.predict_parameters(fs.X)[1]

    def gain_importances(self) -> list:
        return [ens.gain_importances() for ens in self.ensembles]

    def to_dict(self) -> dict:
        return {
            "family": "hypertree",
            "spec": self.spec.to_dict(),
            "base_raw": [float(b) for b in self.base_raw],
            "recipe": self.recipe.to_dict(),
            "feature_names": list(self.feature_names),
            "feature_kinds": list(self.feature_kinds),
            "ensembles": [e.to_dict() for e in self.ensembles],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HyperTreeModel":
        return cls(
            TargetSpec.from_dict(d["spec"]),
            [TreeEnsemble.from_dict(e) for e in d["ensembles"]],
            np.asarray(d["base_raw"], dtype=np.float64),
            FeatureRecipe.from_dict(d["recipe"]),
            d["feature_names"],
            d["feature_kinds"],
        )


def train(ds: PanelDataset, spec: TargetSpec, config: BoostConfig,
          recipe: FeatureRecipe | None = None) -> tuple[HyperTreeModel, TrainLog]:
    """Fit one ensemble per parameter by Newton boosting on the target loss."""
    recipe = recipe or FeatureRecipe()
    fs = recipe.build(ds)
    matrix = SplitMatrix(fs.X, fs.kinds)  # shared by every tree of the fit
    rows, inverse = distinct_rows(fs.X)   # each new tree is evaluated on these
    objective = Objective(ds, spec)
    P = spec.param_count
    base = spec.target.base(ds)
    ensembles = [TreeEnsemble(config, base=0.0, n_features=fs.n_features) for _ in range(P)]
    raw = np.tile(base, (ds.n_rows, 1))
    counts = objective.weight.astype(np.float64)
    log = TrainLog()

    t0 = time.perf_counter()
    loss, g, h, _ = objective.evaluate(raw)
    for rnd in range(1, config.rounds + 1):
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at round {rnd}")
        for j in range(P):
            tree = ensembles[j].boost_round(matrix, g[:, j], h[:, j], counts, log.notes)
            raw[:, j] += config.learning_rate * tree_values(tree, rows)[inverse]
        loss, g, h, _ = objective.evaluate(raw)
        log.append(rnd, loss / objective.n_weight, time.perf_counter() - t0)

    model = HyperTreeModel(spec, ensembles, base, recipe, fs.names, fs.kinds)
    return model, log


def average_parameters(values: np.ndarray) -> np.ndarray:
    """Replace per-step parameters (..., h, P) with their horizon mean
    (held constant)."""
    return np.broadcast_to(values.mean(axis=-2, keepdims=True), values.shape)


def forecast(model, ds: PanelDataset, h: int, average: bool = False):
    """(S, h) forecasts of every series from any parameter-producing model,
    and the series' h future timestamps as ``TimeSeries``.

    ``model`` needs ``spec`` and ``parameters(ds)``, which the
    per-parameter, the embedding-decoder and the baseline models provide.
    With ``average`` the horizon's parameters are averaged and held constant
    (the CLI allows this for autoregressive targets only).
    """
    if h == 0:
        return np.empty((ds.n_series, 0)), tuple(TimeSeries(s.series_id, ()) for s in ds.series)
    target = model.spec.target
    fut = future_panel(ds, h)
    S = ds.n_series
    values = model.parameters(fut).reshape(S, h, -1)
    if average:
        values = average_parameters(values)
    state = target.forecast_state(model, ds)
    return target.forecast(values, ds, fut.time_index.reshape(S, h), state), fut.series
