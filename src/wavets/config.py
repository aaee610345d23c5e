"""The JSON run config: one field table per section, one implementation.

A run config is an object with the sections model, train, data and
metrics, plus an optional output directory out. Each section, and the
run config itself (RunConfig), is a dataclass whose fields are declared
with spec(): the kind each value is read as, the bound it must meet and
its default, stated once. Section reads every field strictly
(read_field), a nested section by its own table, reports every bound
failure at once (problems) and writes the fields back in declaration
order (to_dict). The only checks written by hand relate two fields
(cross_problems). Beside them, SplitSection.borders turns the split into
the rows where the series is cut. No other module knows the format or
the split rule; data.read_text reads the file and data.json_object
parses it.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, ClassVar, NamedTuple

from .data import json_object, read_text
from .errors import ConfigError
from .wdt import gain_bound_problem

TRANSFORM_KINDS = ("wdt", "dwt", "dft")


class Bound(NamedTuple):
    """A condition on one value and the words that name it in a message."""

    text: str
    holds: Callable[[Any], bool]


AT_LEAST_0 = Bound(">= 0", lambda v: v >= 0)
AT_LEAST_1 = Bound(">= 1", lambda v: v >= 1)
# Written so that NaN, which fails every comparison, and inf fail it too.
FINITE_POSITIVE = Bound("finite and > 0", lambda v: math.isfinite(v) and v > 0)
OPEN_UNIT = Bound("in (0, 1)", lambda v: 0.0 < v < 1.0)
NON_EMPTY = Bound("non-empty", bool)


def one_of(choices: tuple[str, ...]) -> Bound:
    return Bound(f"one of {choices}", lambda v: v in choices)


def power_of_two_text(exponent: int) -> str:
    """2^exponent in digits while it is short; past that as the power, whose
    digits could pass Python's limit on int-to-str conversion."""
    return str(2**exponent) if exponent < 64 else f"2^{exponent}"


def _strict_value(value, kind: type, name: str):
    if kind is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{name} must be a string, got {value!r}")
    if kind is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if kind is int:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def read_field(doc: dict, key: str, kind: type, section: str, default=MISSING, many=False):
    """Read one config entry as kind (int, float, bool or str), or with
    many=True a list of them as a tuple.

    Integers are JSON integers or floats without a fraction (32.0, never
    32.7). Floats also take numeric strings such as "nan", which the
    bounds then name. No bool counts as a number, a bool field takes only
    true or false, and a string field only a JSON string. A missing or
    null entry gives the default.
    """
    name = f"{section}.{key}"
    value = doc.get(key)
    if value is None:
        if default is MISSING:
            raise ConfigError(f"{name} is required")
        return default
    if not many:
        return _strict_value(value, kind, name)
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list, got {value!r}")
    return tuple(_strict_value(v, kind, f"{name}[{i}]") for i, v in enumerate(value))


def _is_section(kind) -> bool:
    return isinstance(kind, type) and issubclass(kind, Section)


def spec(kind, bound: Bound | None = None, default=MISSING, many=False, when=None):
    """Declare a Section field: read as kind (a list of kind with many=True,
    held as a tuple), each value checked against bound, required unless a
    default is given. With when=(name, value) the field is checked and
    written only while field name equals value. A nested section's
    default, unless given as None, is its own defaults."""
    metadata = {"kind": kind, "bound": bound, "many": many, "when": when}
    if _is_section(kind) and default is MISSING:
        return field(default_factory=kind, metadata=metadata)
    return field(default=default, metadata=metadata)


class Section:
    """Parse, check and serialise for a dataclass whose fields are declared
    with spec(); messages name a field as "<section>.<field>"."""

    section: ClassVar[str]

    @classmethod
    def from_dict(cls, doc) -> Section:
        if not isinstance(doc, dict):
            raise ConfigError(f"config section {cls.section} must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown {cls.section} keys: {', '.join(unknown)}")
        values = {}
        for f in fields(cls):
            kind, many = f.metadata["kind"], f.metadata["many"]
            if _is_section(kind):
                # An absent section reads as {} unless its default is None;
                # one present but null is malformed.
                if f.name not in doc and f.default is None:
                    values[f.name] = None
                else:
                    values[f.name] = kind.from_dict(doc.get(f.name, {}))
            else:
                values[f.name] = read_field(doc, f.name, kind, cls.section, f.default, many)
        return cls(**values)

    def _active_fields(self) -> list:
        """The fields in declaration order, less those whose when= fails."""
        return [
            f
            for f in fields(self)
            if f.metadata["when"] is None
            or getattr(self, f.metadata["when"][0]) == f.metadata["when"][1]
        ]

    def to_dict(self) -> dict:
        doc = {}
        for f in self._active_fields():
            value = getattr(self, f.name)
            if isinstance(value, Section):
                value = value.to_dict()
            elif f.metadata["many"] and value is not None:
                value = list(value)
            doc[f.name] = value
        return doc

    def problems(self) -> list[str]:
        """All validation failures at once; empty list means valid."""
        out = []
        for f in self._active_fields():
            value, bound = getattr(self, f.name), f.metadata["bound"]
            if isinstance(value, Section):
                out += value.problems()
            elif bound is not None and value is not None:
                name = f"{self.section}.{f.name}"
                if f.metadata["many"]:
                    items = [(f"{name}[{i}]", v) for i, v in enumerate(value)]
                else:
                    items = [(name, value)]
                out += [
                    f"{label} must be {bound.text}, got {v!r}"
                    for label, v in items
                    if not bound.holds(v)
                ]
        return out + self.cross_problems()

    def cross_problems(self) -> list[str]:
        """Failures of the checks that relate two fields; none by default."""
        return []

    def ensure_valid(self) -> None:
        probs = self.problems()
        if probs:
            raise ConfigError("; ".join(probs))


@dataclass
class ModelConfig(Section):
    section = "model"

    # The required fields are the model's sizes (sizes()).
    lookback: int = spec(int, AT_LEAST_1)
    horizon: int = spec(int, AT_LEAST_1)
    channels: int = spec(int, AT_LEAST_1)
    branches: int = spec(int, AT_LEAST_1)
    levels: int = spec(int, AT_LEAST_1)
    transform_kind: str = spec(str, one_of(TRANSFORM_KINDS), "wdt")
    # Zero would divide a constant window by a zero std.
    std_epsilon: float = spec(float, FINITE_POSITIVE, 1e-5)
    seed: int = spec(int, AT_LEAST_0, 0)
    branch_orders: tuple[int, ...] | None = spec(int, AT_LEAST_0, None, many=True)

    def cross_problems(self) -> list[str]:
        out = []
        if self.transform_kind in ("wdt", "dwt") and self.levels >= 1:
            for label, length in (
                ("lookback", self.lookback),
                ("lookback+horizon", self.lookback + self.horizon),
            ):
                # 2^levels divides length iff length has at least levels
                # trailing zero bits; a huge levels' power would not fit in
                # memory.
                if length and (length & -length).bit_length() <= self.levels:
                    out.append(
                        f"{label} = {length} must be divisible by "
                        f"2^levels = {power_of_two_text(self.levels)}"
                    )
        if self.transform_kind == "wdt" and self.levels >= 1:
            # The largest of effective_orders(), N for the default 1..N,
            # without listing a huge N.
            orders = self.branch_orders if self.branch_orders is not None else [self.branches]
            if problem := gain_bound_problem(max(orders, default=0), self.levels):
                out.append(problem)
        if self.branch_orders is not None and len(self.branch_orders) != self.branches:
            out.append(
                f"branch_orders has {len(self.branch_orders)} entries "
                f"for {self.branches} branches"
            )
        return out

    def sizes(self) -> dict[str, int]:
        """The model's shape by name: the fields every model section gives."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.default is MISSING}

    def effective_orders(self) -> list[int]:
        """Derivative order per branch: 1..N by default, all 0 for dwt."""
        if self.transform_kind == "dwt":
            return [0] * self.branches
        if self.branch_orders is not None:
            return list(self.branch_orders)
        return list(range(1, self.branches + 1))


@dataclass
class TrainConfig(Section):
    section = "train"

    learning_rate: float = spec(float, FINITE_POSITIVE, 1e-3)
    batch_size: int = spec(int, AT_LEAST_1, 32)
    max_epochs: int = spec(int, AT_LEAST_1, 50)
    patience: int = spec(int, AT_LEAST_1, 3)
    adam_beta1: float = spec(float, OPEN_UNIT, 0.9)
    adam_beta2: float = spec(float, OPEN_UNIT, 0.999)
    adam_epsilon: float = spec(float, FINITE_POSITIVE, 1e-8)
    grad_clip: float | None = spec(float, FINITE_POSITIVE, None)
    seed: int = spec(int, AT_LEAST_0, 0)


# Hourly ETT convention: 12/4/4 months of 30 days at 24 samples per day;
# rows beyond the last border are unused.
ETT_HOURLY_BORDERS = (8640, 11520, 14400)


@dataclass
class SplitSection(Section):
    """How the series is cut into train/val/test: by ratios, or at the
    fixed hourly ETT borders."""

    section = "data.split"

    kind: str = spec(str, one_of(("ratio", "ett_hourly")), "ratio")
    ratios: tuple[float, float, float] = spec(
        float, FINITE_POSITIVE, (0.7, 0.1, 0.2), many=True, when=("kind", "ratio")
    )

    def cross_problems(self) -> list[str]:
        if self.kind != "ratio":
            return []
        if len(self.ratios) != 3:
            return ["data.split.ratios must have three entries"]
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            return ["data.split.ratios must sum to 1"]
        return []

    def borders(self, length: int) -> tuple[int, int, int]:
        """The rows (train_end, val_end, test_end) at which a series of
        length rows is cut: ETT_HOURLY_BORDERS for ett_hourly, else
        floor(T*r0), that plus floor(T*r1), and T, so the three ratio
        parts partition the series exactly."""
        if self.kind == "ett_hourly":
            return ETT_HOURLY_BORDERS
        train_end = int(length * self.ratios[0])
        return train_end, train_end + int(length * self.ratios[1]), length


@dataclass
class DataSection(Section):
    """Where the series lives and how it is split into train/val/test."""

    section = "data"

    csv: str = spec(str, NON_EMPTY)
    split: SplitSection = spec(SplitSection)
    stride: int = spec(int, AT_LEAST_1, 1)
    standardize: bool = spec(bool, default=True)


@dataclass
class MetricsSection(Section):
    section = "metrics"

    mode: str = spec(str, one_of(("long", "short")), "long")
    period: int = spec(int, AT_LEAST_1, 1)


@dataclass
class RunConfig(Section):
    """Everything one training or evaluation run needs."""

    section = "config"

    model: ModelConfig = spec(ModelConfig)
    train: TrainConfig = spec(TrainConfig)
    data: DataSection | None = spec(DataSection, default=None)
    metrics: MetricsSection = spec(MetricsSection)
    out: str | None = spec(str, default=None)

    def cross_problems(self) -> list[str]:
        # The seasonal-naive reference copies the last period of each lookback.
        if self.metrics.mode == "short" and self.metrics.period > self.model.lookback:
            return [
                f"metrics.period = {self.metrics.period} must be at most "
                f"model.lookback = {self.model.lookback} in short mode"
            ]
        return []

    def ensure_valid(self, need_data: bool) -> None:
        missing = ["config is missing the data section"] if need_data and self.data is None else []
        if problems := self.problems() + missing:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        # Without out, and without data when absent, so the file is the
        # same whichever directory a run writes to.
        return {k: v for k, v in super().to_dict().items() if k != "out" and v is not None}


def _resolve_path(base: Path, value: str, name: str) -> str:
    # The OS takes no NUL in a path; Path and open() would raise ValueError.
    if "\0" in value:
        raise ConfigError(f"{name} must not contain a NUL character, got {value!r}")
    path = Path(value)
    try:
        os.fsencode(value)
        return str(path if path.is_absolute() else (base / path).resolve())
    # UnicodeEncodeError: a path the file system's encoding cannot hold,
    # absolute or relative.
    except ValueError as exc:
        raise ConfigError(f"cannot resolve {name} {value!r}: {exc}") from exc


def load_run_config(path: str) -> RunConfig:
    """Parse a JSON run config; relative paths resolve against its directory."""
    doc = json_object(read_text(path, "config ", ConfigError), f"config {path}", ConfigError)
    run = RunConfig.from_dict(doc)
    base = Path(path).resolve().parent
    if run.data is not None and run.data.csv:
        run.data.csv = _resolve_path(base, run.data.csv, "data.csv")
    run.out = _resolve_path(base, run.out, "config.out") if run.out else None
    return run
