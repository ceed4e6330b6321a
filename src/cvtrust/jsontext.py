"""The JSON boundary: the report writer, and the type checks of config values."""

from __future__ import annotations

import json
import numbers
from json.encoder import encode_basestring_ascii

_CONTAINERS = (dict, list, tuple)


def json_value(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) writes it
    at the depth whose lines start with indent, with one C-encoder call per
    container of scalars: JSON escapes newlines in strings, so the item
    separator can carry the line breaks.  Keys of nested dicts must be
    strings; NaN and Infinity raise ValueError.
    """
    if not (isinstance(obj, _CONTAINERS) and obj):
        return json.dumps(obj, allow_nan=False)
    inner = indent + "  "
    sep = "," + inner
    is_dict = isinstance(obj, dict)
    if not any(isinstance(v, _CONTAINERS) for v in (obj.values() if is_dict else obj)):
        body = json.dumps(obj, sort_keys=True, allow_nan=False, separators=(sep, ": "))[1:-1]
    elif is_dict:
        pairs = ((encode_basestring_ascii(k), json_value(obj[k], inner)) for k in sorted(obj))
        body = sep.join(k + ": " + v for k, v in pairs)
    else:
        body = sep.join(json_value(v, inner) for v in obj)
    return ("{" if is_dict else "[") + inner + body + indent + ("}" if is_dict else "]")


def json_text(obj) -> str:
    """The text of a report: obj as strict, key-sorted JSON with a two-space indent."""
    return json_value(obj) + "\n"


def real_number(name: str, value):
    """Return value if it is a real number; a bool (JSON true or false) is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def json_list(name: str, value) -> list | tuple:
    """Return value if it is a JSON array: a list, or a tuple from a to_json_dict."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def json_object(name: str, value) -> dict:
    """Return value if it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value
