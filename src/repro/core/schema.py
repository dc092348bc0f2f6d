"""Versioned JSON round-tripping for the wire documents.

The two wire documents are :class:`~repro.api.jobs.JobSpec` and
:class:`~repro.api.jobs.JobResult`; the flow's config dataclasses are
built from a spec (:meth:`~repro.api.jobs.JobSpec.to_flow_config`) and
never travel themselves.  The service layer (:mod:`repro.api`,
:mod:`repro.service`) needs a *stable serialized job schema*: a document a network client produced
last month must still deserialize against today's dataclasses, and a
document produced by a newer revision must degrade gracefully rather
than explode.  The rules, shared by every ``to_json``/``from_json``
pair built on this module:

* every document carries a ``schema_version`` stamp (nested
  dataclasses stamp their own sub-documents);
* **unknown keys are ignored with a warning** — a field added in a
  future revision does not break an older reader (forward
  compatibility);
* a document with a *newer* ``schema_version`` than this code warns but
  still loads whatever fields it recognizes;
* scalar fields are coerced through their annotated types (``"1500"``
  is an acceptable iteration count over the wire), and **bad values
  raise the same** ``ValueError`` **the dataclass's** ``__post_init__``
  **would raise** — deserialization never constructs a config that
  direct construction would reject.

The helpers are deliberately dumb: plain ``dataclasses.fields``
introspection, no registry, no metaclass.  A dataclass opts in by
defining::

    def to_json(self) -> dict:
        return schema.to_json_dict(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "Cls":
        return schema.from_json_dict(cls, data)
"""

from __future__ import annotations

import dataclasses
import types
import typing
import warnings
from typing import Any, Mapping, Optional

__all__ = [
    "SCHEMA_VERSION",
    "SchemaWarning",
    "to_json_dict",
    "from_json_dict",
]

#: version stamp written into every serialized config document; bump on
#: any change that an older reader could misinterpret (renames, meaning
#: changes — *additions* are covered by the unknown-key tolerance)
SCHEMA_VERSION = 1

#: reserved top-level key (never a dataclass field)
_VERSION_KEY = "schema_version"


class SchemaWarning(UserWarning):
    """A tolerated serialization mismatch (unknown key, newer version)."""


def to_json_dict(obj: Any) -> dict:
    """Serialize a dataclass to a JSON-ready dict with a version stamp.

    Nested dataclasses become nested dicts carrying their own
    ``schema_version``; tuples become lists (JSON has no tuple).
    """
    if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"to_json_dict needs a dataclass instance, got {type(obj)!r}")
    out: dict = {_VERSION_KEY: SCHEMA_VERSION}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = _encode(value)
    return out


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_json_dict(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    return value


def from_json_dict(cls: type, data: Mapping, context: Optional[str] = None) -> Any:
    """Rebuild a dataclass from :func:`to_json_dict` output.

    ``context`` names the document in warnings (default: the class
    name).  Raises ``ValueError`` for malformed documents and for field
    values the dataclass itself would reject.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"from_json_dict needs a dataclass type, got {cls!r}")
    if not isinstance(data, Mapping):
        raise ValueError(
            f"{context or cls.__name__}: expected a JSON object, got {type(data).__name__}"
        )
    context = context or cls.__name__
    version = data.get(_VERSION_KEY, SCHEMA_VERSION)
    try:
        version = int(version)
    except (TypeError, ValueError):
        raise ValueError(f"{context}: schema_version must be an integer, got {version!r}")
    if version > SCHEMA_VERSION:
        warnings.warn(
            f"{context}: document schema_version {version} is newer than "
            f"this code ({SCHEMA_VERSION}); loading the fields it recognizes",
            SchemaWarning,
            stacklevel=2,
        )

    hints = typing.get_type_hints(cls)
    known = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(k for k in data if k != _VERSION_KEY and k not in known)
    if unknown:
        warnings.warn(
            f"{context}: ignoring unknown key(s) {', '.join(unknown)} "
            "(document written by a newer revision?)",
            SchemaWarning,
            stacklevel=2,
        )
    kwargs = {}
    for name, f in known.items():
        if name not in data:
            continue  # absent field: the dataclass default applies
        kwargs[name] = _coerce(data[name], hints.get(name, Any), f"{context}.{name}")
    return cls(**kwargs)


def _unwrap_optional(hint: Any) -> tuple[bool, Any]:
    """(is_optional, inner_hint) for ``X | None`` / ``Optional[X]`` hints."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1 and len(typing.get_args(hint)) == 2:
            return True, args[0]
    return False, hint


def _coerce(value: Any, hint: Any, context: str) -> Any:
    """Coerce a decoded JSON value toward the annotated field type.

    Coercion failures raise ``ValueError`` (the contract shared with the
    dataclasses' own ``__post_init__`` validation); hints this module
    does not understand pass the value through untouched and leave
    validation to the dataclass.
    """
    optional, inner = _unwrap_optional(hint)
    if value is None:
        if optional:
            return None
        # let the dataclass decide whether None is acceptable
        return value
    if dataclasses.is_dataclass(inner):
        return from_json_dict(inner, value, context=context)
    try:
        if inner is bool:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "1", "yes"):
                    return True
                if lowered in ("false", "0", "no"):
                    return False
                raise ValueError(f"{context}: not a boolean: {value!r}")
            return bool(value)
        if inner is int:
            if isinstance(value, bool):
                raise ValueError(f"{context}: expected an integer, got {value!r}")
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{context}: expected an integer, got {value!r}")
            return int(value)
        if inner is float:
            return float(value)
        if inner is str:
            return str(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{context}: {exc}") from None
    return value
