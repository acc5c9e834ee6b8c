"""Run configuration: one JSON document covering every knob.

Every hyperparameter is declared once, here; each estimator reads its own
section. Unspecified keys take the defaults below; unknown keys are
rejected so a typo cannot silently fall back to a default, and a loaded
value must have its field's type and lie in its range.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import UsageError

# CLI model tokens -> canonical kind names.
MODEL_ALIASES = {
    "bilstm": "bilstm",
    "rf": "random_forest",
    "random_forest": "random_forest",
    "gbm": "gbm",
    "lgbt": "leafwise_gbm",
    "leafwise_gbm": "leafwise_gbm",
}
MODEL_KINDS = ("bilstm", "random_forest", "gbm", "leafwise_gbm")


class _Section:
    """Range checks shared by the sections: the fields named in `_positive`
    must be greater than zero (so not NaN, which JSON input may carry), each
    (field, least) pair in `_at_least` must be at least `least`, and each
    (field, most) pair in `_at_most` at most `most`. Every count and size
    has such a cap, far above its default, so that a huge value is refused
    at load rather than failing inside a fit (an int64 overflow, an array
    too large to allocate). Messages begin with the field name."""

    _positive = ()
    _at_least = ()
    _at_most = ()

    def __post_init__(self):
        for name in self._positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name, least in self._at_least:
            if not getattr(self, name) >= least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        for name, most in self._at_most:
            if not getattr(self, name) <= most:
                raise ValueError(f"{name} must be at most {most}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class FeatureSection(_Section):
    _positive = ("sequence_length", "tabular_terms")
    _at_least = (("max_tokens", 3),)  # PAD, OOV and one token
    _at_most = (("max_tokens", 10_000_000), ("sequence_length", 10_000),
                ("tabular_terms", 100_000))

    max_tokens: int = 10000
    sequence_length: int = 256
    tabular_terms: int = 500


@dataclass(frozen=True)
class BilstmSection(_Section):
    _positive = ("embedding_dim", "hidden_units", "dense_units")
    _at_most = (("embedding_dim", 4096), ("hidden_units", 4096), ("dense_units", 4096))

    embedding_dim: int = 32
    hidden_units: int = 64
    dense_units: int = 64


@dataclass(frozen=True)
class TrainSection(_Section):
    _positive = ("max_epochs", "batch_size", "learning_rate", "eps", "patience")
    _at_most = (("max_epochs", 10_000), ("batch_size", 1_000_000), ("patience", 10_000))

    max_epochs: int = 25
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 2

    def __post_init__(self):
        super().__post_init__()
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        if self.patience >= self.max_epochs:
            raise ValueError(
                f"patience must be smaller than max_epochs, got {self.patience} >= {self.max_epochs}"
            )


@dataclass(frozen=True)
class RandomForestSection(_Section):
    _positive = ("n_trees", "max_depth", "min_samples_leaf")
    _at_most = (("n_trees", 100_000), ("max_depth", 200), ("min_samples_leaf", 10_000_000))

    n_trees: int = 100
    max_depth: int = 25
    min_samples_leaf: int = 1
    bootstrap: bool = True


@dataclass(frozen=True)
class GbmSection(_Section):
    _positive = ("max_depth", "min_samples_leaf")
    _at_most = (("n_rounds", 100_000), ("max_depth", 200), ("min_samples_leaf", 10_000_000))

    n_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 3
    min_samples_leaf: int = 1


@dataclass(frozen=True)
class LeafwiseSection(_Section):
    _positive = ("min_samples_leaf",)
    _at_least = (("max_leaves", 2), ("n_bins", 2))  # a tree that can split
    _at_most = (("n_rounds", 100_000), ("max_leaves", 100_000), ("n_bins", 1_000_000),
                ("min_samples_leaf", 10_000_000))

    n_rounds: int = 100
    learning_rate: float = 0.1
    max_leaves: int = 31
    n_bins: int = 255
    min_samples_leaf: int = 20


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    model: str = "bilstm"
    threshold: float = 0.5
    features: FeatureSection = field(default_factory=FeatureSection)
    bilstm: BilstmSection = field(default_factory=BilstmSection)
    train: TrainSection = field(default_factory=TrainSection)
    random_forest: RandomForestSection = field(default_factory=RandomForestSection)
    gbm: GbmSection = field(default_factory=GbmSection)
    leafwise_gbm: LeafwiseSection = field(default_factory=LeafwiseSection)

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold!r}")

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _has_type(value, kind) -> bool:
    """JSON typing of a field: a bool is not an int, and an int is a float."""
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _build_section(cls, data: dict, path: str):
    known = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(repr(path + k) for k in unknown)}")
    kwargs = {}
    for name, value in data.items():
        kind = known[name]
        if dataclasses.is_dataclass(kind):
            if not isinstance(value, dict):
                raise UsageError(f"config key {path + name!r} must be an object")
            kwargs[name] = _build_section(kind, value, f"{path}{name}.")
        elif not _has_type(value, kind):
            raise UsageError(f"config key {path + name!r} must be {kind.__name__}, got {value!r}")
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the range checks' messages begin with the field name
        name, _, reason = str(exc).partition(" ")
        raise UsageError(f"config key {path + name!r} {reason}") from exc


def config_from_dict(data: dict) -> RunConfig:
    cfg = _build_section(RunConfig, data, "")
    if cfg.model not in MODEL_ALIASES:
        raise UsageError(
            f"unknown model {cfg.model!r}; choose one of bilstm, rf, gbm, lgbt"
        )
    return cfg.replace(model=MODEL_ALIASES[cfg.model])


def load_config(path) -> RunConfig:
    try:
        with open(path, "rb") as fh:
            data = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # deep nesting
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return config_from_dict(data)
