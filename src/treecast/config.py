"""Run configuration: YAML file, validation, ablation switches, overrides.

Each section of a config file is a dataclass, and its fields are the one
place where a field's name, order, type and allowed values are written.
``SCHEMA`` is derived from them once, at import: the field's annotation is
its type (``int`` excludes bool, ``float`` accepts an int, a tuple field
takes a list from the file), a ``Literal`` lists the allowed values, and a
``key`` in the field's metadata names it in the file where the attribute
name cannot.  The file layout (``SECTION_FIELDS``), the type check of every
field and a bundle's config echo all read ``SCHEMA``.

Precedence: defaults < config file < --set command-line overrides; ablation
switches are applied last since each one rewrites exactly one field, and
validation checks the result: every field's type, then the ranges and the
rules that span fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import Callable, Literal, NamedTuple, Union, get_args, get_origin, get_type_hints

import yaml

from . import baselines
from .boosting import BoostConfig
from .data import CALENDAR_NAMES, FREQUENCIES, seasonal_period
from .errors import ConfigError
from .hypertree import FeatureRecipe
from .targets import KINDS, Damping, TargetSpec
from .treenet import NetConfig

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
    frequency: Literal[FREQUENCIES] | None = None    # None: inferred from the stamps
    categorical: list[str] = field(default_factory=list)
    numeric: list[str] = field(default_factory=list)

    def schema(self) -> dict:
        out = {"categorical": self.categorical, "numeric": self.numeric}
        if self.frequency:
            out["frequency"] = self.frequency
        return out


@dataclass
class FeaturesConfig:
    calendar: list[str] = field(default_factory=lambda: list(CALENDAR_NAMES))
    summary: bool = True


@dataclass
class ModelConfig:
    family: Literal["hypertree", "treenet", "baseline"] = "hypertree"
    target: str = "ar"            # a key of targets.KINDS
    p: int = 12
    m: int | None = None          # seasonal period; defaults by frequency
    n_season: int = 1
    period: int = 12
    penalty: float = 1.0
    damping: Damping = "power"
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


class ConfigField(NamedTuple):
    name: str                     # section.key, as errors name it
    attr: str                     # attribute on the section object
    check: Callable               # value -> whether it has the field's type
    must: str                     # what the type is, for the error message
    is_tuple: bool                # a list from the file becomes a tuple


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_SCALARS = {  # annotation: (check, one value, several values)
    bool: (lambda v: isinstance(v, bool), "a boolean", "booleans"),
    int: (_is_int, "an integer", "integers"),
    float: (_is_number, "a number", "numbers"),
    str: (lambda v: isinstance(v, str), "a string", "strings"),
}


def _type_check(hint) -> tuple:
    """(check, description) of a field type annotation."""
    origin, args = get_origin(hint), get_args(hint)
    if hint in _SCALARS:
        return _SCALARS[hint][:2]
    if origin is Literal:
        return (lambda v: v in args), f"one of {args}"
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        check, must = _type_check(next(a for a in args if a is not type(None)))
        return (lambda v: v is None or check(v)), f"{must} or null"
    if origin is list and args[0] in _SCALARS:
        check, _, many = _SCALARS[args[0]]
        return (lambda v: isinstance(v, list) and all(map(check, v))), f"a list of {many}"
    if origin is tuple and len(args) == 2 and args[0] is args[1] and args[0] in _SCALARS:
        check, _, many = _SCALARS[args[0]]
        return ((lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(check, v))),
                f"a pair of {many}")
    raise TypeError(f"config field type {hint!r} has no check")


def _section_schema(section: str, cls) -> dict:
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        key = f.metadata.get("key", f.name)
        hint = hints[f.name]
        out[key] = ConfigField(f"{section}.{key}", f.name, *_type_check(hint),
                               get_origin(hint) is tuple)
    return out


# {section: {key: ConfigField}} in file order, from RunConfig's section dataclasses
SCHEMA = {name: _section_schema(name, hint)
          for name, hint in get_type_hints(RunConfig).items() if is_dataclass(hint)}
SECTION_FIELDS = {section: tuple(schema) for section, schema in SCHEMA.items()}


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
    for section, schema in SCHEMA.items():
        block = raw.pop(section, None)
        if block is None:
            block = {}
        if not isinstance(block, dict):
            errors.append(f"{section}: must be a mapping")
            continue
        obj = getattr(cfg, section)
        for key, value in block.items():
            fld = schema.get(key)
            if fld is None:
                errors.append(f"{section}.{key}: unknown field")
                continue
            if fld.is_tuple and isinstance(value, list):
                value = tuple(value)
            setattr(obj, fld.attr, value)
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


def _validate(cfg: RunConfig) -> list:
    errors = []
    typed = set()  # names of the fields whose value has the field's type
    for section, schema in SCHEMA.items():
        obj = getattr(cfg, section)
        for fld in schema.values():
            if fld.check(getattr(obj, fld.attr)):
                typed.add(fld.name)
            else:
                errors.append(f"{fld.name}: must be {fld.must}")
    if not _is_int(cfg.seed):
        errors.append("seed: must be an integer")
    if "model.target" in typed and cfg.model.target not in KINDS:
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
    if "features.calendar" in typed:
        for name in cfg.features.calendar:
            if name not in CALENDAR_NAMES:
                errors.append(f"features.calendar: unknown feature {name!r}")
    ranges = (
        ("eval.horizon", lambda: cfg.eval.horizon >= 1, ">= 1"),
        ("boosting.rounds", lambda: cfg.boosting.rounds >= 0, ">= 0"),
        ("boosting.learning_rate", lambda: 0 < cfg.boosting.learning_rate <= 1, "in (0, 1]"),
        ("boosting.lambda", lambda: 0 <= cfg.boosting.lam < math.inf, ">= 0 and finite"),
        ("boosting.max_depth", lambda: cfg.boosting.max_depth >= 0, ">= 0"),
        ("boosting.min_leaf", lambda: cfg.boosting.min_leaf >= 1, ">= 1"),
        ("boosting.linear_ridge", lambda: 0 <= cfg.boosting.linear_ridge < math.inf,
         ">= 0 and finite"),
        ("model.m", lambda: cfg.model.m is None or cfg.model.m >= 1, ">= 1"),
        ("model.period", lambda: cfg.model.period >= 1, ">= 1"),
        ("model.n_season", lambda: cfg.model.n_season >= 0, ">= 0"),
        ("model.penalty", lambda: 0 <= cfg.model.penalty < math.inf, ">= 0 and finite"),
        ("net.d", lambda: cfg.net.d >= 1, ">= 1"),
        ("net.k", lambda: cfg.net.k is None or cfg.net.k >= 1, ">= 1"),
        ("net.hidden", lambda: cfg.net.hidden >= 1, ">= 1"),
        ("net.dropout", lambda: 0 <= cfg.net.dropout < 1, "in [0, 1)"),
        ("net.lr", lambda: 0 < cfg.net.lr < math.inf, "> 0 and finite"),
        ("net.betas", lambda: all(0 <= b < 1 for b in cfg.net.betas), "two numbers in [0, 1)"),
    )
    for name, in_range, must in ranges:
        if name in typed and not in_range():
            errors.append(f"{name}: must be {must}")
    for key, value in cfg.ablations.items():
        if key not in ABLATIONS:
            errors.append(f"ablations.{key}: unknown switch (a1..a11)")
        elif not isinstance(value, bool):
            errors.append(f"ablations.{key}: must be a boolean")
    if cfg.ablations.get("a9"):
        errors.append("ablations.a9: the two-stage leaf-index pipeline is not supported")
    return errors


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
