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

Each scalar field declares its kind and bound once, through
:func:`number`, :func:`integer`, :func:`flag` or :func:`text`, and
:meth:`Spec.__post_init__` checks every such field: a bad value raises
``ConfigError("<Class>.<field> must be ..., got <value!r>")``.  Values
are stored as given.  Registry-name lookups and cross-field rules stay
in each spec's own ``__post_init__``, which calls
``super().__post_init__()`` first.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import MISSING, Field, dataclass, field, fields
from functools import lru_cache
from numbers import Integral, Real
from pathlib import Path
from typing import Any, ClassVar, Dict, Optional, Tuple, Union

from ..utils.errors import ConfigError

__all__ = [
    "Spec", "Tagged", "Kinds", "nested", "coerce", "check_field",
    "number", "integer", "flag", "text",
]

_NESTED = "spec"
_CHECK = "check"


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


@dataclass(frozen=True)
class _Rule:
    """A scalar field's accepted type, its name in messages, and its bound."""

    kind: type  # Real, Integral, bool or str
    noun: str
    optional: bool
    gt: Optional[float] = None
    ge: Optional[float] = None
    le: Optional[float] = None
    nonempty: bool = False

    def admits(self, value: Any) -> bool:
        if value is None:
            return self.optional
        # A bool is an int to Python; only bool fields take one.
        if isinstance(value, bool) != (self.kind is bool) or not isinstance(value, self.kind):
            return False
        if self.kind is str:
            return bool(value) or not self.nonempty
        if self.kind is Real and not math.isfinite(value):
            return False
        return (
            (self.gt is None or value > self.gt)
            and (self.ge is None or value >= self.ge)
            and (self.le is None or value <= self.le)
        )

    def describe(self) -> str:
        words = self.noun
        if self.le is not None:
            low = f"[{self.ge:g}" if self.ge is not None else f"({self.gt:g}"
            words += f" in {low}, {self.le:g}]"
        elif self.gt is not None:
            words += f" > {self.gt:g}"
        elif self.ge is not None:
            words += f" >= {self.ge:g}"
        return words + (" or None" if self.optional else "")

    def check(self, owner: str, name: str, value: Any) -> None:
        if not self.admits(value):
            raise ConfigError(f"{owner}.{name} must be {self.describe()}, got {value!r}")


def _scalar(kind: type, noun: str, default: Any, **bound: Any):
    rule = _Rule(kind, noun, optional=default is None, **bound)
    return field(default=default, metadata={_CHECK: rule})


def number(default: Any = MISSING, *, gt=None, ge=None, le=None):
    """A finite real field (ints pass, bools do not) bounded by ``gt``/``ge``/``le``.

    ``le`` is an upper bound over a ``gt`` or ``ge`` lower one.
    Like every scalar helper, a ``None`` default makes ``None`` valid;
    no default makes the field required.
    """
    return _scalar(Real, "a finite number", default, gt=gt, ge=ge, le=le)


def integer(default: Any = MISSING, *, ge=None):
    """An ``int`` field (no bools, no floats), at least ``ge`` if given."""
    return _scalar(Integral, "an integer", default, ge=ge)


def flag(default: Any = MISSING):
    """A ``bool`` field: only ``True`` or ``False``."""
    return _scalar(bool, "a bool", default)


def text(default: Any = MISSING, *, nonempty: bool = False):
    """A ``str`` field, non-empty if ``nonempty``."""
    noun = "a non-empty string" if nonempty else "a string"
    return _scalar(str, noun, default, nonempty=nonempty)


@lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Field, ...]:
    return fields(cls)


def check_field(spec: type, name: str, value: Any) -> None:
    """Apply the rule ``spec`` declares for field ``name`` to ``value``."""
    rule = next(f.metadata[_CHECK] for f in _fields(spec) if f.name == name)
    rule.check(spec.__name__, name, value)


def coerce(spec: Union[type, "Kinds"], value: Any) -> Any:
    """``value`` as a ``spec``: instances and ``None`` pass, anything else decodes."""
    members = tuple(spec.values()) if isinstance(spec, Kinds) else spec
    if value is None or isinstance(value, members):
        return value
    return spec.from_dict(value)


class Spec:
    """Base of the frozen spec dataclasses: the JSON codec lives here."""

    def __post_init__(self) -> None:
        owner = type(self).__name__
        for spec_field in _fields(type(self)):
            value = getattr(self, spec_field.name)
            if _CHECK in spec_field.metadata:
                spec_field.metadata[_CHECK].check(owner, spec_field.name, value)
            if _NESTED not in spec_field.metadata:
                continue
            spec, many = spec_field.metadata[_NESTED]
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
