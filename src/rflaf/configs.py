"""Typed configs of the CLI modes: a frozen dataclass per mode and section.

parse builds one from JSON; every invalid config raises ConfigError naming
the key before the mode samples anything.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing
from dataclasses import dataclass, field
from typing import Annotated, Literal

from . import basis, data, kernel, model, optim
from .basis import MAX_ROWS

# Field types with the range the parser enforces: a lower bound, and an upper one for every count.
Seed = Annotated[int, 0]
Count = Annotated[int, 1, MAX_ROWS]
NonNegative = Annotated[float, 0.0]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _value(tp, v, key: str, where: str):
    """The JSON value v as field type tp, or ConfigError naming the key."""
    what = f"key '{key}' in {where}"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return parse(tp, v, f"{where}: {key}")
    if origin in (typing.Union, types.UnionType):  # `T | None`: the key may be left out, not set to null
        return _value(args[0], v, key, where)
    if origin is Annotated:
        v = _value(args[0], v, key, where)
        if v < args[1]:
            raise ConfigError(f"{what} must be >= {args[1]}, got {v!r}")
        if len(args) > 2 and v > args[2]:
            raise ConfigError(f"{what} must be <= {args[2]}, got {v!r}")
        return v
    if origin is Literal:
        if v not in args:
            raise ConfigError(f"{what} must be one of {', '.join(args)}, got {v!r}")
        return v
    if origin is tuple:
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(v, list) or not v or n not in (None, len(v)):
            raise ConfigError(f"{what} must be a list of {n or 'one or more'} values, got {v!r}")
        return tuple(_value(args[0], x, key, where) for x in v)
    if tp is float and type(v) in (int, float) and abs(v) <= sys.float_info.max:  # finite, and no int overflows
        return float(v)
    if type(v) is tp and tp is not float and (tp is not int or -(2**63) <= v < 2**63):  # int64; a bool is no int
        return v
    kind = {float: "a finite number", int: "an integer in the int64 range"}.get(tp, tp.__name__)
    raise ConfigError(f"{what} must be {kind}, got {v!r}")


def parse(cls, raw, where: str):
    """Build the config dataclass cls from a JSON object.

    Keys are the init fields of cls and their types its annotations; a field
    without a default is required.  __post_init__ checks and the domain
    constructors they call raise ValueError, reported as ConfigError.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    for key in raw:
        if key not in fields:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key, f in fields.items():
        if key not in raw and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required key '{key}' in {where}")
    values = {key: _value(hints[key], v, key, where) for key, v in raw.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _derive(config, **values) -> None:
    """Store values derived in __post_init__ on a frozen config."""
    for name, value in values.items():
        object.__setattr__(config, name, value)


@dataclass(frozen=True)
class KernelVerifyConfig:
    seed: Seed
    trials: Count = 20
    samples: Annotated[int, 2, MAX_ROWS] = 1_000_000
    dims: tuple[Count, ...] = (2, 5)
    centers: tuple[float, ...] = (0.0, 1.0)
    widths: tuple[float, ...] = (0.5, 1.0)
    rbfs: tuple[kernel.RbfParams, ...] = field(init=False)  # centers x widths

    def __post_init__(self):
        jobs = len(self.dims) * len(self.centers) * len(self.widths) * self.trials
        _check(jobs <= MAX_ROWS, f"trials x dims x centers x widths must be at most {MAX_ROWS} jobs, got {jobs}")
        _derive(self, rbfs=tuple(kernel.RbfParams(c, h) for c in self.centers for h in self.widths))


def _series_finite(params: kernel.RbfParams, n_terms: int) -> bool:
    """Whether kernel_taylor at r = 1 and kernel_rot at r = -1 and 1, the ends of taylor-verify's grid, are doubles.

    The series' coefficients are nonnegative and the closed form's square root
    and exponent are smallest at the ends, so no value inside is larger.  Past
    the doubles the arithmetic raises: OverflowError (c^2, 1 + h^2 or a
    coefficient) or ZeroDivisionError ((1 + h^2)^2 - 1 is 0 below h ~ 1e-8).
    """
    try:
        values = [kernel.kernel_taylor(1.0, params, n_terms), *(kernel.kernel_rot(r, params) for r in (-1.0, 1.0))]
    except ArithmeticError:
        return False
    return all(map(math.isfinite, values))


@dataclass(frozen=True)
class SeriesSection:
    widths: tuple[float, ...] = (0.5, 1.0)
    centers: tuple[float, ...] = (0.0, 1.0, 2.0)
    n_terms: Count = 80
    grid_points: Count = 101
    tol: NonNegative = 1e-8
    rbfs: tuple[kernel.RbfParams, ...] = field(init=False)  # widths x centers

    def __post_init__(self):
        rbfs = tuple(kernel.RbfParams(c, h) for h in self.widths for c in self.centers)
        bad = [(p.center, p.width) for p in rbfs if not _series_finite(p, self.n_terms)]
        _check(not bad, f"centers x widths entries (c, h) {bad} leave the series or the closed form no double at r = +-1")
        _derive(self, rbfs=rbfs)


@dataclass(frozen=True)
class TaylorVerifyConfig:
    # p up to -log of the least normal double keeps the seed e^-p of every y^(n) a normal double
    p_values: tuple[Annotated[float, 0.0, -math.log(sys.float_info.min)], ...] = (0.0, 0.5, 1.0, 2.0, 5.0)
    # every derivative up to order 171 is a double at every p (kernel.taylor_derivs); y^(172) at p = 0 is not
    n_max: Annotated[int, 2, 171] = 16
    series: SeriesSection = field(default_factory=SeriesSection)


@dataclass(frozen=True)
class RateStudyConfig:
    seed: Seed
    m_values: tuple[Count, ...] = (32, 64, 128, 256, 512, 1024, 2048)
    trials: Count = 10
    test_points: Count = 2000
    ref_samples: Annotated[int, 2, MAX_ROWS] = 1_000_000  # the reference's cross-check draws: a standard error needs two
    rbf: kernel.RbfParams = field(default_factory=lambda: kernel.RbfParams(1.0, 1.0))
    b1: tuple[float, ...] = (1.0, 0.0)
    b2: tuple[float, ...] = (0.0, 1.0)
    slope_range: tuple[float, float] = (-0.65, -0.35)

    def __post_init__(self):
        _check(len(set(self.m_values)) >= 2, f"m_values must hold two distinct widths, got {list(self.m_values)}")
        banks = self.trials * len(self.m_values)
        _check(banks <= MAX_ROWS, f"trials x m_values must be at most {MAX_ROWS} banks, got {banks}")
        _check(len(self.b1) == len(self.b2), "b1 and b2 must have equal length")
        lo, hi = self.slope_range
        _check(lo <= hi, f"slope_range must be [lo, hi] with lo <= hi, got {[lo, hi]}")


@dataclass(frozen=True)
class TargetSection:
    sigma: Literal[data.SIGMA_KINDS]
    b1: tuple[float, ...]
    b2: tuple[float, ...]
    mc_samples: Annotated[int, 1000, MAX_ROWS] = data.TargetSpec.mc_samples
    seed: Seed | None = None  # the mode's default seed when left out

    def spec(self, default_seed: int) -> data.TargetSpec:
        seed = default_seed if self.seed is None else self.seed
        return data.TargetSpec(sigma_kind=self.sigma, b1=self.b1, b2=self.b2, mc_samples=self.mc_samples, seed=seed)


@dataclass(frozen=True)
class DataSection:
    n: Annotated[int, 2, MAX_ROWS]
    dim: int
    test_fraction: float = 0.2

    def __post_init__(self):
        data.holdout_size(self.n, self.test_fraction)


@dataclass(frozen=True)
class ModelSection:
    n_features: Count
    n_basis: Count
    support: tuple[float, float] = (-2.0, 2.0)
    width: float | None = None  # two grid spacings when left out
    grid: basis.ActivationGrid = field(init=False)

    def __post_init__(self):
        lo, hi = self.support
        width = 2.0 * (hi - lo) / self.n_basis if self.width is None else self.width
        _derive(self, grid=basis.ActivationGrid(lo, hi, self.n_basis, width))


@dataclass(frozen=True)
class TrainCompareConfig:
    seed: Seed
    target: TargetSection
    data: DataSection
    model: ModelSection
    train: optim.TrainConfig = field(default_factory=optim.TrainConfig)
    baselines: tuple[Literal[tuple(model.BASELINE_ACTIVATIONS)], ...] = ("relu", "tanh", "rbf1", "rbf2")
    mse_ratio_max: float = 0.5
    activation_grid_points: Annotated[int, 2, MAX_ROWS] = 401
    min_activation_correlation: float = 0.9
    spec: data.TargetSpec = field(init=False)

    def __post_init__(self):
        spec = self.target.spec(default_seed=self.seed)
        _check(self.data.dim == spec.dim, f"data dim {self.data.dim} does not match len(target b1) = {spec.dim}")
        _check(len(set(self.baselines)) == len(self.baselines), f"baselines must differ, got {list(self.baselines)}")
        _derive(self, spec=spec)


@dataclass(frozen=True)
class ExportActivationConfig:
    checkpoint: str
    grid_points: Annotated[int, 2, MAX_ROWS] = 401
    target: TargetSection | None = None
    min_activation_correlation: float | None = None  # checked only against a target
    spec: data.TargetSpec | None = field(init=False)

    def __post_init__(self):
        if self.target is None:
            _check(self.min_activation_correlation is None, "min_activation_correlation needs a target")
        _derive(self, spec=None if self.target is None else self.target.spec(default_seed=0))


@dataclass(frozen=True)
class BoundsConfig:
    width: float
    n_basis: int
    n_features: int
    delta: float
    sigma_sup: float
    support_len: float
    radius: float
    epsilon: float | None = None  # with lipschitz_sigma: the approximation schedule
    lipschitz_sigma: float | None = None
    report: basis.BoundsReport = field(init=False)
    schedule: tuple[float, float] | None = field(init=False)  # (h_max, spacing_max)

    def __post_init__(self):
        report = basis.theory_bounds(
            self.width, self.n_basis, self.n_features, self.delta, self.sigma_sup, self.support_len, self.radius
        )
        _check((self.epsilon is None) == (self.lipschitz_sigma is None), "give epsilon and lipschitz_sigma together")
        schedule = None
        if self.epsilon is not None:
            schedule = basis.approximation_schedule(
                self.epsilon, self.lipschitz_sigma, self.radius, self.sigma_sup, self.support_len
            )
        _derive(self, report=report, schedule=schedule)
