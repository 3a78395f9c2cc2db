"""JSON codec shared by the config dataclasses.

A config's JSON keys are its field names.  Before the dataclass is built,
each value is checked against its field's annotation: int takes an
integer (not a bool), float any number (stored unchanged), str a string,
tuple[X, ...] a list of X, `X | None` also null, dict an object, list an
array, and a nested config an object.  A field without a default is a
required key.  A mismatch raises the class's `error` naming the key.

A field declared with `bounded` carries its range, which every config
checks when it is built (from JSON, by `dataclasses.replace` or directly),
element by element for a tuple: "<field> must be <range>, got <value>".
A class's own `__post_init__` calls this one, then its cross-field rules.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import types
import typing

from .errors import ContractError, FormatError, InputError

_JSON_NAMES = {int: "integer", float: "number", str: "string",
               dict: "object", list: "array"}


@dataclasses.dataclass(frozen=True)
class Range:
    """lo to hi, each end closed or open; NaN lies in no range.  `text`
    names the range in messages, by default as its interval."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False
    text: str = ""

    def __contains__(self, v) -> bool:
        return (self.lo < v if self.open_lo else self.lo <= v) and \
            (v < self.hi if self.open_hi else v <= self.hi)

    def __str__(self) -> str:
        return self.text or f"in {'[('[self.open_lo]}{self.lo}, " \
                            f"{self.hi}{'])'[self.open_hi]}"

    def check(self, name: str, value, error) -> None:
        if value not in self:
            raise error(f"{name} must be {self}, got {reprlib.repr(value)}")


# the ranges several configs share.  The optimizer, the losses and the
# margin head compute in float32, so "finite" means finite there
F32_MAX = 3.4028234663852886e38  # float(numpy.finfo(numpy.float32).max)
F32_POSITIVE = Range(0, F32_MAX, open_lo=True, text="finite and > 0")
F32_NON_NEGATIVE = Range(0, F32_MAX, text="finite and >= 0")
UNIT = Range(0, 1, open_hi=True)
SEED = Range(0, 2 ** 64 - 1)  # rng.Stream takes 64 bits
MAX_COUNT = 2 ** 31 - 1  # iterations, epochs and the clips of a batch


def bounded(default, lo, hi=None, open_lo=False, open_hi=False):
    """A dataclass field whose values lie in [lo, hi], or in Range lo;
    default dataclasses.MISSING makes it required.  None is in range."""
    span = lo if isinstance(lo, Range) else Range(lo, hi, open_lo, open_hi)
    return dataclasses.field(default=default, metadata={"range": span})


def read_json_object(path) -> dict:
    """Load a JSON file whose top level must be an object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        # bad JSON, bytes that are not UTF-8, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return doc


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


@functools.cache
def ranges(cls) -> tuple:
    """(field name, Range) of each bounded field of config class cls."""
    return tuple((f.name, f.metadata["range"]) for f in dataclasses.fields(cls)
                 if "range" in f.metadata)


def _fits(value, tp) -> bool:
    return not isinstance(value, bool) and \
        isinstance(value, (int, float) if tp is float else tp)


class JsonConfig:
    """Mixin giving a config dataclass its JSON form.

    `error` is raised for a bad document; a problem inside a nested config
    is re-raised as the outer class's `error`.
    """

    error = InputError

    def __post_init__(self):
        for name, span in ranges(type(self)):
            value = getattr(self, name)
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None:
                    span.check(name, v, self.error)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**cls._parse_fields(d))

    @classmethod
    def _parse_fields(cls, d) -> dict:
        """Type-checked constructor arguments for the keys present in d."""
        if not isinstance(d, dict):
            raise cls.error(
                f"{cls.__name__} must be a JSON object, got {reprlib.repr(d)}")
        field_types = _field_types(cls)
        extra = set(d) - set(field_types)
        if extra:
            raise cls.error(f"unknown {cls.__name__} keys: {sorted(extra)}")
        missing = [f.name for f in dataclasses.fields(cls)
                   if f.name not in d and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise cls.error(f"missing {cls.__name__} keys: {missing}")
        return {key: cls._parse_value(key, value, field_types[key])
                for key, value in d.items()}

    @classmethod
    def _parse_value(cls, key: str, value, tp):
        optional = typing.get_origin(tp) in (typing.Union, types.UnionType)
        if optional:
            if value is None:
                return None
            (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        if isinstance(tp, type) and issubclass(tp, JsonConfig):
            try:
                return tp.from_dict(value)
            except (ContractError, FormatError, InputError) as exc:
                raise cls.error(f"{key}: {exc}") from exc
        if typing.get_origin(tp) is tuple:
            elem = typing.get_args(tp)[0]
            if isinstance(value, (list, tuple)) and \
                    all(_fits(v, elem) for v in value):
                return tuple(value)
            want = f"list of {_JSON_NAMES[elem]}s"
        elif _fits(value, tp):
            return value
        else:
            want = _JSON_NAMES[tp]
        if optional:
            want += " or null"
        raise cls.error(f"{key}: expected {want}, got {reprlib.repr(value)}")
