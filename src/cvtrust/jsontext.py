"""The JSON boundary: the writers' strict-JSON rule, and the type checks of config values."""

from __future__ import annotations

import json
import math
import numbers
from json.encoder import encode_basestring_ascii


def json_value(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) writes it,
    at the depth whose lines start with indent: JSON escapes every newline in a
    string, so each newline of the text is a line break to re-indent.  NaN and
    Infinity raise ValueError.
    """
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False).replace("\n", indent)


def json_text(obj) -> str:
    """The text of a report: obj as strict, key-sorted JSON with a two-space indent."""
    return json_value(obj) + "\n"


def finite_reprs(*xs: float) -> tuple[str, ...]:
    """The repr of each x, its JSON and CSV text; NaN or infinity raises json_text's ValueError."""
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"Out of range float values are not JSON compliant: {xs!r}")
    return tuple(map(repr, xs))


def json_object_template(keys, indent: str) -> str:
    """A %-template of a flat JSON object with these keys, as json_value writes
    it at the depth whose lines start with indent: one %s per value, in
    sorted key order, to be filled with each value's JSON text.
    """
    inner = indent + "  "
    slots = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in sorted(keys))
    return "{" + inner + ("," + inner).join(slots) + indent + "}"


def json_report(head: dict, key: str, item_texts: list[str]) -> str:
    """json_text({**head, key: items}) from each item's text as json_value writes it
    at indent "\n    ": the items go into json_text({**head, key: []}) at its one
    line that starts with two spaces and the quoted key, as only top-level keys do.
    """
    text = json_text({**head, key: []})
    if not item_texts:
        return text
    line = "\n  " + encode_basestring_ascii(key) + ": "
    before, after = text.split(line + "[]", 1)
    return "".join((before, line, "[\n    ", ",\n    ".join(item_texts), "\n  ]", after))


def real_number(name: str, value):
    """Return value if it is a real number; a bool (JSON true or false) is not."""
    if type(value) is float:  # the common case, spared the numbers.Real ABC check
        return value
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
