"""One-vs-all trainer: one boosted ensemble per target-model parameter.

Each round evaluates the target model once, takes the per-parameter
gradients/Hessians of the loss with respect to the raw parameters, and
grows one tree per parameter on them in one ``boosting.Booster`` round
(synchronous updates); the booster starts at base_raw, so its outputs are
the raw parameters base_raw[j] + ensembles[j](x), chained through the link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .boosting import BoostConfig, Booster, TreeEnsemble, predict_distinct
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
    start: float = field(default_factory=perf_counter, init=False)  # the round clock starts here

    def append(self, rnd, loss):
        self.rows.append((rnd, loss, perf_counter() - self.start))


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
        model = cls(
            TargetSpec.from_dict(d["spec"]),
            [TreeEnsemble.from_dict(e) for e in d["ensembles"]],
            np.asarray(d["base_raw"], dtype=np.float64),
            FeatureRecipe.from_dict(d["recipe"]),
            d["feature_names"],
            d["feature_kinds"],
        )
        P = model.spec.param_count
        check_ensembles(model.ensembles, P, model.feature_names)
        check_shape("base_raw", model.base_raw, (P,))
        return model


def check_ensembles(ensembles, count, feature_names):
    """A decoded model's ensembles agree with the rest of it: ``count`` of
    them, each on the features ``feature_names`` lists; else ValueError."""
    if len(ensembles) != count:
        raise ValueError(f"ensemble_files lists {len(ensembles)} ensembles, "
                         f"the model implies {count}")
    for j, ens in enumerate(ensembles):
        if ens.n_features != len(feature_names):
            raise ValueError(f"ensemble {j} has n_features {ens.n_features}, "
                             f"feature_names lists {len(feature_names)}")


def check_shape(name, value, shape):
    """ValueError unless array ``value`` has ``shape`` (None: it is None)."""
    got = None if value is None else np.shape(value)
    if got != shape:
        raise ValueError(f"{name} has shape {got}, the model implies {shape}")


def train(ds: PanelDataset, spec: TargetSpec, config: BoostConfig,
          recipe: FeatureRecipe | None = None) -> tuple[HyperTreeModel, TrainLog]:
    """Fit one ensemble per parameter by Newton boosting on the target loss."""
    recipe = recipe or FeatureRecipe()
    fs = recipe.build(ds)
    objective = Objective(ds, spec)
    base = spec.target.base(ds)
    booster = Booster(fs, config, objective.weight, base)
    log = TrainLog()

    loss, g, h, _ = objective.evaluate(booster.outputs())
    for rnd in range(1, config.rounds + 1):
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at round {rnd}")
        booster.round(g, h, log.notes)
        loss, g, h, _ = objective.evaluate(booster.outputs())
        log.append(rnd, loss / objective.n_weight)

    model = HyperTreeModel(spec, booster.ensembles, base, recipe, fs.names, fs.kinds)
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
