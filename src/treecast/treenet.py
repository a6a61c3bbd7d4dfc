"""Hybrid model: tree ensembles emit low-dimensional embeddings, a fixed
random projection expands them, and a shallow MLP decodes them into the
target-model parameters.

The projection matrix is sampled once from a standard Normal and frozen for
the model's lifetime.  Each MLP operation (forward, backward, directional
derivative, Adam step) is one pass over plain numpy arrays.  Training is
joint and full-batch (no batching); one round body serves both gradient
flows: a training-mode forward pass and the network gradient, then
"separate" (default) takes the network step and recomputes the loss in eval
mode, while "shared" keeps the training-mode pass and its dropout mask for
both updates.  The tree step is one ``boosting.Booster`` round on the loss
gradients with respect to the embeddings, which are the booster's outputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Literal, get_args

import numpy as np

from .boosting import BoostConfig, Booster, TreeEnsemble, floor_hessian, predict_distinct
from .data import PanelDataset
from .errors import NumericError
from .hypertree import FeatureRecipe, HyperTreeModel, TrainLog, check_ensembles, check_shape
from .targets import Objective, TargetSpec


Flow = Literal["separate", "shared"]
Encoder = Literal["trees", "features"]


@dataclass
class NetConfig:
    d: int = 1
    k: int | None = None
    hidden: int = 128
    dropout: float = 0.1
    lr: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    flow: Flow = "separate"
    use_projection: bool = True
    encoder: Encoder = "trees"

    def __post_init__(self):
        # training branches on flow and encoder: an unknown value would
        # quietly take the other branch
        for name, allowed in (("flow", Flow), ("encoder", Encoder)):
            if getattr(self, name) not in get_args(allowed):
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")

    def dims(self, n_params, n_features):
        """(d, k): the embedding width (the feature count under the features
        encoder) and the width of the network's input."""
        d = self.d if self.encoder == "trees" else n_features
        return d, (self.k or n_params) if self.use_projection else d


class Mlp:
    """linear(k -> hidden) -> ReLU -> linear(hidden -> P) -> dropout.

    Dropout acts on the output layer and only in training mode (inverted
    scaling).  Weights and biases start uniform with fan-in scaling and are
    kept in (in, out) orientation so every matmul output is C-contiguous.
    A forward pass returns its output and a cache ``(z, r, drop_scale)``:
    the input, the ReLU output and the dropout scale (None in eval mode).
    Every pass allocates its own arrays, so any number of caches may be
    live at once.
    """

    def __init__(self, k, hidden, out, rng: np.random.Generator):
        s1 = 1.0 / math.sqrt(k)
        s2 = 1.0 / math.sqrt(hidden)
        self.W1 = rng.uniform(-s1, s1, size=(k, hidden))
        self.b1 = rng.uniform(-s1, s1, size=hidden)
        self.W2 = rng.uniform(-s2, s2, size=(hidden, out))
        self.b2 = rng.uniform(-s2, s2, size=out)
        self._adam = None

    def forward(self, z, dropout=0.0, rng=None):
        """Returns (output, cache); pass dropout > 0 only in training mode."""
        r = z @ self.W1
        r += self.b1
        np.maximum(r, 0.0, out=r)
        o = r @ self.W2
        o += self.b2
        drop_scale = None
        if dropout > 0.0:
            keep = (rng.random(o.shape) >= dropout).astype(np.float64)
            drop_scale = keep / (1.0 - dropout)
            o *= drop_scale
        return o, (z, r, drop_scale)

    def backward(self, cache, upstream):
        """Gradients of the scalar loss w.r.t. weights, given dL/d(output).

        The ReLU mask is ``r > 0``, which equals ``a > 0`` on the
        pre-activation ``a`` for every value, NaN included.
        """
        z, r, drop_scale = cache
        do = upstream if drop_scale is None else upstream * drop_scale
        da = (do @ self.W2.T) * (r > 0)
        return z.T @ da, da.sum(axis=0), r.T @ do, do.sum(axis=0)

    def directional(self, cache, dz):
        """d(output)/d(epsilon) for an input perturbation z + eps*dz per row.

        dz is a (k,) direction shared by all rows; returns (N, P).
        """
        _, r, drop_scale = cache
        do = ((r > 0) * (dz @ self.W1)) @ self.W2
        if drop_scale is not None:
            do *= drop_scale
        return do

    def adam_step(self, grads, lr, betas=(0.9, 0.999), eps=1e-8):
        params = [self.W1, self.b1, self.W2, self.b2]
        if self._adam is None:
            self._adam = {
                "m": [np.zeros_like(p) for p in params],
                "v": [np.zeros_like(p) for p in params],
                "t": 0,
            }
        st = self._adam
        st["t"] += 1
        b1, b2 = betas
        for p, gr, m, v in zip(params, grads, st["m"], st["v"]):
            m *= b1
            m += (1 - b1) * gr
            v *= b2
            v += (1 - b2) * gr * gr
            mhat = m / (1 - b1 ** st["t"])
            vhat = v / (1 - b2 ** st["t"])
            p -= lr * mhat / (np.sqrt(vhat) + eps)

    def to_dict(self):
        return {
            "W1": self.W1.tolist(), "b1": self.b1.tolist(),
            "W2": self.W2.tolist(), "b2": self.b2.tolist(),
        }

    def load_weights(self, d):
        self.W1 = np.asarray(d["W1"], dtype=np.float64)
        self.b1 = np.asarray(d["b1"], dtype=np.float64)
        self.W2 = np.asarray(d["W2"], dtype=np.float64)
        self.b2 = np.asarray(d["b2"], dtype=np.float64)


class TreeNetModel:
    def __init__(self, spec: TargetSpec, ensembles, projection, mlp, net_cfg: NetConfig,
                 recipe: FeatureRecipe, feature_names, feature_kinds, seed,
                 feat_center=None, feat_scale=None):
        self.spec = spec
        self.ensembles = ensembles          # one per embedding dimension
        self.projection = projection        # (k, d) or None
        self.mlp = mlp
        self.net_cfg = net_cfg
        self.recipe = recipe
        self.feature_names = tuple(feature_names)
        self.feature_kinds = tuple(feature_kinds)
        self.seed = seed
        self.feat_center = feat_center      # feature-encoder mode only
        self.feat_scale = feat_scale

    check_schema = HyperTreeModel.check_schema
    parameters = HyperTreeModel.parameters

    def embeddings(self, X: np.ndarray) -> np.ndarray:
        """(N, d) embeddings.  The trees run once per distinct row of X
        (compared byte for byte) and their values are gathered back to
        every row; the MLP that decodes them runs on every row."""
        if self.net_cfg.encoder == "features":
            return (X - self.feat_center) / self.feat_scale
        values, inverse = predict_distinct(self.ensembles, X)
        return values[inverse]

    def project(self, E: np.ndarray) -> np.ndarray:
        return E @ self.projection.T if self.projection is not None else E

    def forward(self, X, training=False, rng=None):
        """(embeddings, raw parameters); dropout active only when training."""
        E = self.embeddings(X)
        z = self.project(E)
        dropout = self.net_cfg.dropout if training else 0.0
        o, cache = self.mlp.forward(z, dropout=dropout, rng=rng)
        return E, o, cache

    def predict_parameters(self, X: np.ndarray):
        _, raw, _ = self.forward(X, training=False)
        return raw, self.spec.target.link(raw)

    def to_dict(self):
        return {
            "family": "treenet",
            "spec": self.spec.to_dict(),
            "net": asdict(self.net_cfg),
            "recipe": self.recipe.to_dict(),
            "feature_names": list(self.feature_names),
            "feature_kinds": list(self.feature_kinds),
            "seed": self.seed,
            "projection": None if self.projection is None else self.projection.tolist(),
            "mlp": self.mlp.to_dict(),
            "ensembles": [e.to_dict() for e in self.ensembles],
            "feat_center": None if self.feat_center is None else self.feat_center.tolist(),
            "feat_scale": None if self.feat_scale is None else self.feat_scale.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        spec = TargetSpec.from_dict(d["spec"])
        net_cfg = NetConfig(**d["net"])
        mlp = Mlp(1, 1, 1, np.random.default_rng(0))
        mlp.load_weights(d["mlp"])
        model = cls(
            spec,
            [TreeEnsemble.from_dict(e) for e in d["ensembles"]],
            None if d["projection"] is None else np.asarray(d["projection"], dtype=np.float64),
            mlp,
            net_cfg,
            FeatureRecipe.from_dict(d["recipe"]),
            d["feature_names"],
            d["feature_kinds"],
            d["seed"],
            None if d["feat_center"] is None else np.asarray(d["feat_center"]),
            None if d["feat_scale"] is None else np.asarray(d["feat_scale"]),
        )
        P, hidden = spec.param_count, net_cfg.hidden
        d_emb, k = net_cfg.dims(P, len(model.feature_names))
        trees = net_cfg.encoder == "trees"
        check_ensembles(model.ensembles, d_emb if trees else 0, model.feature_names)
        check_shape("projection", model.projection, (k, d_emb) if net_cfg.use_projection else None)
        for name, shape in (("W1", (k, hidden)), ("b1", (hidden,)), ("W2", (hidden, P)),
                            ("b2", (P,))):
            check_shape(f"mlp.{name}", getattr(mlp, name), shape)
        for name in ("feat_center", "feat_scale"):
            check_shape(name, getattr(model, name), None if trees else (d_emb,))
        return model


def embedding_grad_hess(model: TreeNetModel, objective: Objective, cache,
                        raw, g_theta, h_theta):
    """Loss derivatives with respect to each tree embedding coordinate.

    Gradient is the exact chain rule through the (frozen) MLP, projection and
    target model.  Curvature is Gauss-Newton: through the fitted values when
    the target is row-local, otherwise transported from the per-parameter
    curvature; floored at HESS_FLOOR on contributing rows.
    """
    d = len(model.ensembles)
    N = raw.shape[0]
    ge = np.zeros((N, d))
    he = np.zeros((N, d))
    slopes = model.spec.target.slope(raw)
    basis = objective.local_fitted_jacobian(raw)
    if basis is not None:
        basis = basis * slopes
    w = objective.weight
    for j in range(d):
        if model.projection is not None:
            dz = model.projection[:, j]
        else:
            dz = np.zeros(d)
            dz[j] = 1.0
        dthetadE = model.mlp.directional(cache, dz)  # (N, P), raw scale
        ge[:, j] = np.einsum("np,np->n", g_theta, dthetadE)
        if basis is not None:
            dy = np.einsum("np,np->n", basis, dthetadE)
            he[:, j] = 2.0 * dy * dy
        else:
            he[:, j] = np.einsum("np,np->n", h_theta, dthetadE * dthetadE)
    return np.where(w[:, None], ge, 0.0), floor_hessian(he, w)


def train(ds: PanelDataset, spec: TargetSpec, boost_cfg: BoostConfig,
          net_cfg: NetConfig, seed: int = 0,
          recipe: FeatureRecipe | None = None) -> tuple[TreeNetModel, TrainLog]:
    """Joint full-batch training of trees and network; the module docstring
    gives the round body of each gradient flow."""
    recipe = recipe or FeatureRecipe()
    fs = recipe.build(ds)
    objective = Objective(ds, spec)
    P = spec.param_count
    trees = net_cfg.encoder == "trees"
    separate = net_cfg.flow == "separate"
    d, k = net_cfg.dims(P, fs.n_features)

    root = np.random.SeedSequence(seed)
    ss_proj, ss_mlp, ss_drop = root.spawn(3)
    projection = None
    if net_cfg.use_projection:
        projection = np.random.default_rng(ss_proj).standard_normal((k, d))
    mlp = Mlp(k, net_cfg.hidden, P, np.random.default_rng(ss_mlp))
    drop_rng = np.random.default_rng(ss_drop)

    feat_center = feat_scale = None
    if trees:
        booster = Booster(fs, boost_cfg, objective.weight, np.zeros(d))
        E = booster.outputs()
    else:
        feat_center = fs.X.mean(axis=0)
        feat_scale = np.where(fs.X.std(axis=0) > 0, fs.X.std(axis=0), 1.0)
        E = (fs.X - feat_center) / feat_scale

    model = TreeNetModel(spec, booster.ensembles if trees else [], projection, mlp, net_cfg,
                         recipe, fs.names, fs.kinds, seed, feat_center, feat_scale)
    n_w = objective.n_weight
    log = TrainLog()

    for it in range(1, boost_cfg.rounds + 1):
        z = model.project(E)
        o, cache = mlp.forward(z, dropout=net_cfg.dropout, rng=drop_rng)
        loss, g_theta, h_theta, _ = objective.evaluate(o)
        if separate and not math.isfinite(loss):
            raise NumericError(f"non-finite network loss at iteration {it}")
        grads = mlp.backward(cache, g_theta / n_w)
        if separate:
            mlp.adam_step(grads, net_cfg.lr, net_cfg.betas)
            o, cache = mlp.forward(z)
            loss, g_theta, h_theta, _ = objective.evaluate(o)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at iteration {it}")
        if trees:
            ge, he = embedding_grad_hess(model, objective, cache, o, g_theta, h_theta)
        if not separate:
            mlp.adam_step(grads, net_cfg.lr, net_cfg.betas)
        if trees:
            booster.round(ge, he, log.notes)
            E = booster.outputs()
        log.append(it, loss / n_w)
    return model, log
