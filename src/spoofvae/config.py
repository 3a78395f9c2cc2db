"""JSON codec shared by the config dataclasses.

A config's JSON keys are its field names.  Before the dataclass is built,
each value is checked against its field's annotation: int takes an
integer (not a bool), float any number (stored unchanged), str a string,
tuple[X, ...] a list of X, `X | None` also null, dict an object, list an
array, and a nested config an object.  A field without a default is a
required key.  A mismatch raises the class's `error` naming the key.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import reprlib
import types
import typing

from .errors import ContractError, InputError

_JSON_NAMES = {int: "integer", float: "number", str: "string",
               dict: "object", list: "array"}


def read_json_object(path) -> dict:
    """Load a JSON file whose top level must be an object."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return doc


@functools.cache
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _fits(value, tp) -> bool:
    return not isinstance(value, bool) and \
        isinstance(value, (int, float) if tp is float else tp)


class JsonConfig:
    """Mixin giving a config dataclass its JSON form.

    `error` is raised for a bad document; a problem inside a nested config
    is re-raised as the outer class's `error`.
    """

    error = InputError

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
            except (ContractError, InputError) as exc:
                raise cls.error(f"bad {key} in config: {exc}") from exc
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
