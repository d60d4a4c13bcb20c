"""One JSON codec for every declarative serving spec.

Every spec — :class:`~repro.serving.spec.ClusterSpec` and everything it
nests — is a frozen dataclass subclassing :class:`Spec`, which owns one
decision: how a spec maps to JSON-shaped data.  Four rules:

* :meth:`Spec.to_dict` converts fields recursively: a nested spec
  becomes its dict, a tuple a list, a mapping a dict, and a
  :class:`Tagged` union member (a fault event) ``{"kind": ..., **fields}``;
* :meth:`Spec.from_dict` rejects an unknown or missing key with a
  :class:`~repro.utils.errors.ConfigError` naming the class;
* nested specs are resolved in exactly one place, :func:`coerce`, which
  :meth:`Spec.__post_init__` applies to every :func:`nested` field — so
  constructors take spec instances and their mapping form alike;
* :meth:`Spec.from_json` accepts JSON text (an object) or a file path.

Value checks stay in each spec's own ``__post_init__``; a spec with
:func:`nested` fields calls ``super().__post_init__()`` first.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import MISSING, Field, field, fields
from functools import lru_cache
from pathlib import Path
from typing import Any, ClassVar, Dict, Tuple, Union

from ..utils.errors import ConfigError

__all__ = ["Spec", "Tagged", "Kinds", "nested", "coerce"]

_NESTED = "spec"


def nested(spec: Union[type, "Kinds"], *, many: bool = False, **kwargs: Any):
    """A dataclass field holding a nested spec (a tuple of them if ``many``).

    ``spec`` is a :class:`Spec` subclass or a :class:`Kinds` registry.
    The default is ``()`` for ``many`` fields and ``None`` otherwise;
    ``default``/``default_factory`` override it (``default=MISSING``
    makes the field required).
    """
    if "default_factory" not in kwargs:
        kwargs.setdefault("default", () if many else None)
    return field(metadata={_NESTED: (spec, many)}, **kwargs)


@lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Field, ...]:
    return fields(cls)


def coerce(spec: Union[type, "Kinds"], value: Any) -> Any:
    """``value`` as a ``spec``: instances and ``None`` pass, anything else decodes."""
    members = tuple(spec.values()) if isinstance(spec, Kinds) else spec
    if value is None or isinstance(value, members):
        return value
    return spec.from_dict(value)


class Spec:
    """Base of the frozen spec dataclasses: the JSON codec lives here."""

    def __post_init__(self) -> None:
        for spec_field in _fields(type(self)):
            if _NESTED not in spec_field.metadata:
                continue
            spec, many = spec_field.metadata[_NESTED]
            value = getattr(self, spec_field.name)
            if many:
                value = tuple(coerce(spec, item) for item in value)
            else:
                value = coerce(spec, value)
            object.__setattr__(self, spec_field.name, value)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: _encode(getattr(self, f.name)) for f in _fields(type(self))}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        if not isinstance(data, Mapping):
            raise ConfigError(f"{cls.__name__} needs a mapping, got {type(data).__name__}")
        known = {f.name for f in _fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} keys {sorted(unknown)}; known fields: {sorted(known)}"
            )
        missing = [
            f.name
            for f in _fields(cls)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data
        ]
        if missing:
            raise ConfigError(f"{cls.__name__} needs keys {missing}")
        return cls(**data)

    @classmethod
    def from_json(cls, source: Union[str, Path]):
        """Load from JSON text or from the path of a JSON file.

        Text whose first non-space character is ``{`` or ``[`` is JSON;
        anything else names a file.  Malformed JSON, or a value that is
        not an object, raises :class:`ConfigError` naming the class.
        """
        text = str(source)
        if not text.lstrip().startswith(("{", "[")):
            text = Path(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cls.__name__}: invalid JSON ({exc})") from None
        return cls.from_dict(data)


class Tagged(Spec):
    """A tagged-union member: its dict form leads with the class ``kind``."""

    kind: ClassVar[str]

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **super().to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        if isinstance(data, Mapping) and data.get("kind") == cls.kind:
            data = {key: value for key, value in data.items() if key != "kind"}
        return super().from_dict(data)


class Kinds(dict):
    """A ``{kind: class}`` registry of :class:`Tagged` specs of one family."""

    def __init__(self, family: str, *members: type) -> None:
        super().__init__((member.kind, member) for member in members)
        self.family = family

    def from_dict(self, data: Mapping[str, Any]) -> Tagged:
        """Decode ``data`` into the member class its ``"kind"`` names."""
        kind = data.get("kind") if isinstance(data, Mapping) else None
        if not isinstance(kind, str) or kind not in self:
            raise ConfigError(
                f"unknown {self.family} kind {kind!r}; available: {sorted(self)}"
            )
        return self[kind].from_dict(data)


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value
