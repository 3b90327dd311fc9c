"""Invocation-stable canonical serialization of model objects.

Sweep points, job keys and the on-disk result cache all need one thing:
two structurally equal configurations must serialize to the *same* bytes
in every interpreter invocation.  ``repr`` cannot promise that — set
iteration order follows randomized string hashing — so this walker
recurses through dataclasses and containers, sorting unordered ones, and
emits plain JSON-able structures.

``canonical_form`` returns the nested structure (useful for reports and
machine-readable dumps); ``canonical_text`` the compact JSON rendering
(useful as hash input); ``canonical_digest`` its SHA-256.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping


#: Exact leaf types, returned as they are.  Subclasses (a ``str``
#: mixin enum, ``numpy.float64``) take the general checks below.
_LEAVES = frozenset((str, int, float, bool, type(None)))

#: Per-class dataclass field names (None: not a dataclass).  Looked up
#: by exact type, so the walk pays ``dataclasses.fields`` once per class.
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}


def _field_names(kind: type) -> tuple[str, ...] | None:
    try:
        return _FIELD_NAMES[kind]
    except KeyError:
        names = (
            tuple(field.name for field in dataclasses.fields(kind))
            if dataclasses.is_dataclass(kind)
            else None
        )
        _FIELD_NAMES[kind] = names
        return names


def canonical_form(value: Any) -> Any:
    """A JSON-able canonical structure describing ``value``.

    Dataclasses become dicts tagged with the class name; enums become
    ``"ClassName.MEMBER"`` strings; sets are sorted by their members'
    canonical text; mappings are keyed by canonical text of the key.
    Unknown leaf types fall back to ``repr``.
    """
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is tuple or kind is list:
        return [canonical_form(item) for item in value]
    names = _field_names(kind)
    if names is not None:
        form: dict[str, Any] = {"__class__": kind.__name__}
        for name in names:
            form[name] = canonical_form(getattr(value, name))
        return form
    if isinstance(value, enum.Enum):
        return f"{kind.__name__}.{value.name}"
    if isinstance(value, (frozenset, set)):
        return sorted((canonical_form(item) for item in value),
                      key=_sort_key)
    if isinstance(value, Mapping):
        return {
            canonical_text(key): canonical_form(item)
            for key, item in value.items()
        }
    if isinstance(value, (tuple, list)):
        return [canonical_form(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _sort_key(form: Any) -> str:
    return json.dumps(form, sort_keys=True)


def canonical_text(value: Any) -> str:
    """The compact, sorted JSON rendering of :func:`canonical_form`."""
    return json.dumps(
        canonical_form(value), sort_keys=True, separators=(",", ":")
    )


def canonical_digest(value: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_text`."""
    return hashlib.sha256(canonical_text(value).encode("utf-8")).hexdigest()
