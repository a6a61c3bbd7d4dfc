"""Run configuration: YAML file, validation, ablation switches, overrides.

Precedence: defaults < config file < --set command-line overrides; ablation
switches are applied last since each one rewrites exactly one field, and
validation checks the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from . import baselines
from .data import CALENDAR_NAMES, FREQUENCIES, seasonal_period
from .errors import ConfigError
from .hypertree import BoostConfig, FeatureRecipe
from .targets import KINDS, TargetSpec
from .treenet import NetConfig

FAMILIES = ("hypertree", "treenet", "baseline")

ABLATIONS = {
    "a1": "net.d = 5 (wider tree embeddings)",
    "a2": "boosting.linear_leaves = false",
    "a3": "net.hidden = 256",
    "a4": "net.use_projection = false",
    "a5": "model.p = ceil(2p/3) (shorter lag window)",
    "a6": "features.summary = false",
    "a7": "net.encoder = features (network only, trees bypassed)",
    "a8": "model.target = direct (no target model)",
    "a9": "two-stage leaf-index pipeline (not supported)",
    "a10": "net.flow = shared",
    "a11": "eval.average_parameters = true",
}


@dataclass
class DataConfig:
    path: str = ""
    frequency: str | None = None
    categorical: list = field(default_factory=list)
    numeric: list = field(default_factory=list)

    def schema(self) -> dict:
        out = {"categorical": self.categorical, "numeric": self.numeric}
        if self.frequency:
            out["frequency"] = self.frequency
        return out


@dataclass
class FeaturesConfig:
    calendar: list = field(default_factory=lambda: list(CALENDAR_NAMES))
    summary: bool = True


@dataclass
class ModelConfig:
    family: str = "hypertree"
    target: str = "ar"
    p: int = 12
    m: int | None = None          # seasonal period; defaults by frequency
    n_season: int = 1
    period: int = 12
    penalty: float = 1.0
    damping: str = "power"
    grid_search: bool = False     # baseline smoothing only
    fixed_value: float = 0.3
    intercept: bool = False       # baseline AR only


@dataclass
class EvalConfig:
    horizon: int = 12
    reference_path: str = ""
    average_parameters: bool = False


@dataclass
class RunConfig:
    seed: int = 42
    data: DataConfig = field(default_factory=DataConfig)
    features: FeaturesConfig = field(default_factory=FeaturesConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    boosting: BoostConfig = field(default_factory=BoostConfig)
    net: NetConfig = field(default_factory=NetConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    ablations: dict = field(default_factory=dict)

    def target_spec(self, frequency: str) -> TargetSpec:
        m = self.model.m
        if m is None:
            m = seasonal_period(frequency)
        return TargetSpec(
            kind=self.model.target,
            p=self.model.p,
            m=m,
            n_season=self.model.n_season,
            period=self.model.period,
            penalty=self.model.penalty,
            damping=self.model.damping,
        )

    def recipe(self) -> FeatureRecipe:
        return FeatureRecipe(
            calendar=tuple(self.features.calendar),
            include_time=KINDS[self.model.target].time_feature,
        )


SECTION_FIELDS = {  # file layout; also the order of a bundle's config echo
    "data": ("path", "frequency", "categorical", "numeric"),
    "features": ("calendar", "summary"),
    "model": ("family", "target", "p", "m", "n_season", "period", "penalty",
              "damping", "grid_search", "fixed_value", "intercept"),
    "boosting": ("rounds", "learning_rate", "lambda", "max_depth", "min_leaf",
                 "linear_leaves", "linear_ridge"),
    "net": ("d", "k", "hidden", "dropout", "lr", "betas", "flow", "use_projection",
            "encoder"),
    "eval": ("horizon", "reference_path", "average_parameters"),
}


# numeric fields by type; ``None`` is allowed where marked optional.
# model.fixed_value has its own check (baseline smoothing only).
INT_FIELDS = (("model", "p"), ("model", "n_season"), ("model", "period"),
              ("boosting", "rounds"), ("boosting", "max_depth"), ("boosting", "min_leaf"),
              ("net", "d"), ("net", "hidden"), ("eval", "horizon"))
OPTIONAL_INT_FIELDS = (("model", "m"), ("net", "k"))
FLOAT_FIELDS = (("model", "penalty"), ("boosting", "learning_rate"), ("boosting", "lambda"),
                ("boosting", "linear_ridge"), ("net", "dropout"), ("net", "lr"))


def field_attr(section: str, key: str) -> str:
    """Attribute holding a config field (``lambda`` is a Python keyword)."""
    return "lam" if (section, key) == ("boosting", "lambda") else key


def _apply_section(obj, section, raw, errors):
    for key, value in raw.items():
        if key not in SECTION_FIELDS[section]:
            errors.append(f"{section}.{key}: unknown field")
            continue
        attr = field_attr(section, key)
        if attr == "betas" and isinstance(value, list):
            value = tuple(value)
        setattr(obj, attr, value)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(raw, overrides)


def config_from_dict(raw: dict, overrides: dict | None = None) -> RunConfig:
    raw = dict(raw)
    for dotted, value in (overrides or {}).items():
        _set_dotted(raw, dotted, value)

    cfg = RunConfig()
    errors: list = []
    for section in ("data", "features", "model", "eval"):
        block = raw.pop(section, {})
        if block is None:
            block = {}
        if not isinstance(block, dict):
            errors.append(f"{section}: must be a mapping")
            continue
        _apply_section(getattr(cfg, section), section, block, errors)
    for section, ctor in (("boosting", BoostConfig), ("net", NetConfig)):
        block = raw.pop(section, {}) or {}
        if not isinstance(block, dict):
            errors.append(f"{section}: must be a mapping")
            continue
        obj = ctor()
        _apply_section(obj, section, block, errors)
        setattr(cfg, section, obj)
    if "seed" in raw:
        cfg.seed = raw.pop("seed")
    ablations = raw.pop("ablations", {}) or {}
    if not isinstance(ablations, dict):
        errors.append("ablations: must be a mapping")
        ablations = {}
    cfg.ablations = ablations
    for leftover in raw:
        errors.append(f"{leftover}: unknown section")

    apply_ablations(cfg)
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(sorted(errors)))
    return cfg


def _set_dotted(raw: dict, dotted: str, value):
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override {dotted}: {part} is not a section")
    node[parts[-1]] = yaml.safe_load(value) if isinstance(value, str) else value


def _typed_numbers(cfg: RunConfig, errors: list) -> set:
    """Names of the numeric fields whose value has the field's type; an
    error for each other one."""
    typed = set()
    for fields, integer, optional in ((INT_FIELDS, True, False),
                                      (OPTIONAL_INT_FIELDS, True, True),
                                      (FLOAT_FIELDS, False, False)):
        for section, key in fields:
            value = getattr(getattr(cfg, section), field_attr(section, key))
            name = f"{section}.{key}"
            if _is_int(value) if integer else _is_number(value):
                typed.add(name)
            elif not (optional and value is None):
                errors.append(f"{name}: must be {'an integer' if integer else 'a number'}")
    return typed


def _validate(cfg: RunConfig) -> list:
    errors = []
    typed = _typed_numbers(cfg, errors)
    if not _is_int(cfg.seed):
        errors.append("seed: must be an integer")
    if cfg.model.family not in FAMILIES:
        errors.append(f"model.family: must be one of {FAMILIES}")
    if cfg.model.target not in KINDS:
        errors.append(f"model.target: must be one of {tuple(KINDS)}")
    if cfg.model.target == "ar" and "model.p" in typed and cfg.model.p < 1:
        errors.append("model.p: must be >= 1 for the ar target")
    if cfg.model.family == "baseline":
        if cfg.model.target not in baselines.TARGETS:
            errors.append(f"model.target: the baseline family supports {baselines.TARGETS}")
        elif cfg.model.target != "ar" and not _in_unit(cfg.model.fixed_value):
            errors.append("model.fixed_value: must be in (0, 1] for a smoothing baseline")
    if cfg.eval.average_parameters and cfg.model.target != "ar":
        errors.append("eval.average_parameters: applies to the ar target only")
    if cfg.model.damping not in ("power", "cumprod"):
        errors.append("model.damping: must be power or cumprod")
    if cfg.data.frequency and cfg.data.frequency not in FREQUENCIES:
        errors.append(f"data.frequency: must be one of {FREQUENCIES}")
    for name in cfg.features.calendar:
        if name not in CALENDAR_NAMES:
            errors.append(f"features.calendar: unknown feature {name!r}")
    ranges = (
        ("eval.horizon", lambda: cfg.eval.horizon >= 1, ">= 1"),
        ("boosting.rounds", lambda: cfg.boosting.rounds >= 0, ">= 0"),
        ("boosting.learning_rate", lambda: 0 < cfg.boosting.learning_rate <= 1, "in (0, 1]"),
        ("boosting.lambda", lambda: cfg.boosting.lam >= 0, ">= 0"),
        ("boosting.max_depth", lambda: cfg.boosting.max_depth >= 0, ">= 0"),
        ("boosting.min_leaf", lambda: cfg.boosting.min_leaf >= 1, ">= 1"),
        ("net.d", lambda: cfg.net.d >= 1, ">= 1"),
        ("net.dropout", lambda: 0 <= cfg.net.dropout < 1, "in [0, 1)"),
    )
    for name, in_range, must in ranges:
        if name in typed and not in_range():
            errors.append(f"{name}: must be {must}")
    if not (isinstance(cfg.net.betas, (list, tuple)) and len(cfg.net.betas) == 2
            and all(_is_number(b) for b in cfg.net.betas)):
        errors.append("net.betas: must be a pair of numbers")
    if cfg.net.flow not in ("separate", "shared"):
        errors.append("net.flow: must be separate or shared")
    if cfg.net.encoder not in ("trees", "features"):
        errors.append("net.encoder: must be trees or features")
    for key, value in cfg.ablations.items():
        if key not in ABLATIONS:
            errors.append(f"ablations.{key}: unknown switch (a1..a11)")
        elif not isinstance(value, bool):
            errors.append(f"ablations.{key}: must be a boolean")
    if cfg.ablations.get("a9"):
        errors.append("ablations.a9: the two-stage leaf-index pipeline is not supported")
    return errors


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _in_unit(value) -> bool:
    """A number in (0, 1]."""
    return _is_number(value) and 0 < value <= 1


def apply_ablations(cfg: RunConfig) -> RunConfig:
    ab = cfg.ablations
    if ab.get("a1"):
        cfg.net.d = 5
    if ab.get("a2"):
        cfg.boosting.linear_leaves = False
    if ab.get("a3"):
        cfg.net.hidden = 256
    if ab.get("a4"):
        cfg.net.use_projection = False
    if ab.get("a5") and _is_int(cfg.model.p):  # a mistyped p is reported by validation
        cfg.model.p = max(1, math.ceil(2 * cfg.model.p / 3))
    if ab.get("a6"):
        cfg.features.summary = False
    if ab.get("a7"):
        cfg.net.encoder = "features"
    if ab.get("a8"):
        cfg.model.target = "direct"
    if ab.get("a10"):
        cfg.net.flow = "shared"
    if ab.get("a11"):
        cfg.eval.average_parameters = True
    return cfg
