"""Config field kinds and the one converter that reads every config value.

A field is declared once as a ``Kind`` with its range and default; ``convert``
turns a JSON value into the field's value or raises a ``SchemaError`` naming
the field.  Parameter bags declare their fields with ``declared`` and run
``check_fields`` on construction, so Python callers get the same checks.
Null stands for a field's default only where that default is null.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np


class SchemaError(ValueError):
    """A config value that is not of its field's kind; ``path`` names the field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def check_object(d, path: str):
    if not isinstance(d, dict):
        raise SchemaError(path, f"expected an object, got {type(d).__name__}")


def check_keys(d: dict, allowed: set[str], path: str):
    check_object(d, path)
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(path, f"unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def require(d: dict, key: str, path: str):
    check_object(d, path)
    if key not in d:
        raise SchemaError(path, f"missing required key {key!r}")
    return d[key]


@dataclass(frozen=True)
class Kind:
    """What one field holds; a ``MISSING`` default makes the field required.

    ``name`` is ``int``, ``number`` (finite), ``schedule``, ``point``, ``enum``,
    ``numbers`` or ``object``.  ``lo`` bounds an int, a number or each entry of
    ``numbers`` from below (``strict``: excluded), ``hi`` from above
    (included); ``choices`` are an enum's names, ``at_least`` the least
    length of ``numbers`` and ``of`` the dataclass, or dict of kinds, of an
    object.
    """

    name: str
    default: object = field(default_factory=lambda: MISSING)  # a plain MISSING is no default
    lo: float | None = None
    strict: bool = False
    hi: float | None = None
    choices: tuple = ()
    at_least: int = 1
    of: object = None


POINT = Kind("point", None)  # an optional point of the problem's dimension
RADIUS = Kind("number", None, lo=0.0, strict=True)  # bounds a set with no bounding box


def declared(kind: Kind, **metadata):
    """A dataclass field of ``kind``; ``key`` names its config key, None for no key."""
    return field(default=kind.default, metadata={"kind": kind, **metadata})


def config_keys(cls) -> dict:
    """The config key of each declared field of ``cls`` that a config sets -> field name."""
    return {f.metadata.get("key", f.name): f.name for f in fields(cls)
            if "kind" in f.metadata and f.metadata.get("key", f.name)}


def check_fields(obj):
    """Convert every declared field of the dataclass ``obj`` in place, by its kind."""
    for f in fields(obj):
        if "kind" in f.metadata:
            path = f.metadata.get("key") or f.name
            object.__setattr__(obj, f.name, convert(f.metadata["kind"], getattr(obj, f.name), path))


def read(kinds: dict, spec, path: str, dim: int | None = None) -> dict:
    """The object ``spec`` by ``kinds``, absent keys at their default.

    A bad value is reported before an unread key.
    """
    check_object(spec, path)
    out = {}
    for key, kind in kinds.items():
        if key in spec:
            out[key] = convert(kind, spec[key], f"{path}.{key}", dim)
        elif kind.default is MISSING:
            raise SchemaError(path, f"missing required key {key!r}")
        else:
            out[key] = kind.default
    check_keys(spec, set(kinds), path)
    return out


def _finite(value, path: str) -> float:
    """``value`` as a float: a finite JSON number, never a boolean or a string."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else None
    except OverflowError:  # an int too large for a float
        x = None
    if x is None or not math.isfinite(x):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return x


def _bounded(x, kind: Kind, path: str):
    if kind.lo is not None and not (x > kind.lo if kind.strict else x >= kind.lo):
        raise SchemaError(path, f"must be {'>' if kind.strict else '>='} {kind.lo:g}, got {x}")
    if kind.hi is not None and not x <= kind.hi:
        raise SchemaError(path, f"must be <= {kind.hi}, got {x}")
    return x


def convert(kind: Kind, value, path: str, dim: int | None = None):
    """``value`` as a value of ``kind``, or a SchemaError at ``path``; ``dim`` sizes a point."""
    if value is None and kind.default is None:
        return None
    if kind.name == "int":
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                           or isinstance(value, float) and value.is_integer()):
            raise SchemaError(path, f"expected an integer, got {value!r}")
        return _bounded(int(value), kind, path)
    if kind.name == "number":
        return _bounded(_finite(value, path), kind, path)
    if kind.name == "numbers":
        if not isinstance(value, list) or len(value) < kind.at_least:
            raise SchemaError(path, f"expected a list of at least {kind.at_least} numbers, "
                                    f"got {value!r}")
        return [_bounded(_finite(v, f"{path}[{i}]"), kind, f"{path}[{i}]")
                for i, v in enumerate(value)]
    if kind.name == "enum":
        if not isinstance(value, str) or value not in kind.choices:
            raise SchemaError(path, f"unknown {value!r}; expected one of {list(kind.choices)}")
        return value
    if kind.name == "point":
        coords = value if isinstance(value, list) else [value]
        if dim is not None and len(coords) != dim:
            raise SchemaError(path, f"dimension mismatch: expected {dim}, got {len(coords)}")
        return np.array([_finite(v, f"{path}[{i}]") for i, v in enumerate(coords)])
    if kind.name == "schedule":
        return Schedule.from_spec(value, path)
    if isinstance(kind.of, dict):
        return read(kind.of, value, path, dim)
    if isinstance(value, kind.of):
        return value
    keys = config_keys(kind.of)
    check_keys(value, set(keys), path)
    try:
        return kind.of(**{keys[key]: v for key, v in value.items()})
    except SchemaError as e:
        raise SchemaError(f"{path}.{e.path}", e.message) from e


@dataclass(frozen=True)
class Schedule:
    """Scalar sequence, every value ``> 0``: constant, 1/(k+1)-scaled, or a list."""

    kind: str
    value: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "inv_k", "list"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "list" and not self.values:
            raise ValueError("a list schedule needs at least one value")
        if not all(v > 0 for v in (self.values if self.kind == "list" else (self.value,))):
            raise ValueError("schedule values must be positive")

    def at(self, k: int) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "inv_k":
            return self.value / (k + 1)
        return self.values[min(k, len(self.values) - 1)]

    @staticmethod
    def constant(v: float) -> "Schedule":
        return Schedule("constant", float(v))

    @staticmethod
    def inv_k(scale: float) -> "Schedule":
        return Schedule("inv_k", float(scale))

    @staticmethod
    def explicit(vals) -> "Schedule":
        return Schedule("list", 0.0, tuple(float(v) for v in vals))

    @staticmethod
    def from_spec(spec, path: str = "schedule") -> "Schedule":
        """A number (a constant), ``{kind, value}`` or ``{"kind": "list", values}``."""
        if isinstance(spec, Schedule):
            return spec
        number = not isinstance(spec, dict)  # a constant, its value read at ``path`` itself
        if number:
            spec = {"kind": "constant", "value": spec}
        key = "values" if require(spec, "kind", path) == "list" else "value"
        check_keys(spec, {"kind", key}, path)
        value = convert(Kind("numbers" if key == "values" else "number"), require(spec, key, path),
                        path if number else f"{path}.{key}")
        try:
            return Schedule.explicit(value) if key == "values" else Schedule(spec["kind"], value)
        except ValueError as e:
            raise SchemaError(path, f"bad schedule: {e}") from e
