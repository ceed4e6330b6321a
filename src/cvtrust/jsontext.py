"""The JSON boundary: the writers' strict-JSON rule, and the one reader of config objects."""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Iterable
from dataclasses import MISSING, fields
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


def write_json_report(fh, head: dict, key: str, item_texts: Iterable[str]) -> None:
    """Write json_text({**head, key: items}) to fh, each item's text (as json_value
    writes it at indent "\n    ") as it comes, between the halves of json_text({**head,
    key: []}) split once at its one line that starts with two spaces and the quoted
    key, as only top-level keys do."""
    line = "\n  " + encode_basestring_ascii(key) + ": "
    opening, closing = json_text({**head, key: []}).split(line + "[]", 1)
    fh.write(opening + line)
    sep = "[\n    "
    for text in item_texts:
        fh.write(sep + text)
        sep = ",\n    "
    fh.write(("[]" if sep == "[\n    " else "\n  ]") + closing)


def json_dataclass(cls, name: str, value, **readers):
    """cls(**value) for a JSON object value, the one reader of a config object.  A key
    that is not a field of cls, or a field without a default that is not a key, is a
    TypeError "<name> has unknown key 'k'" or "<name> is missing key 'k'"; then each
    present key with a reader, in the readers' order, gets reader(key, its value).
    """
    value = json_object(name, value)
    required = {f.name: MISSING is f.default is f.default_factory for f in fields(cls)}
    unknown = [k for k in value if k not in required]
    missing = [k for k, needed in required.items() if needed and k not in value]
    if unknown or missing:
        fault = f"has unknown key {unknown[0]!r}" if unknown else f"is missing key {missing[0]!r}"
        raise TypeError(f"{name} {fault}")
    read = {key: reader(key, value[key]) for key, reader in readers.items() if key in value}
    return cls(**{**value, **read})


def json_config(cls, schema: str, kind: str, data: dict, **readers):
    """cls read by json_dataclass from the config object data, whose "schema" key, if
    given, must be schema (else ValueError "unsupported <kind> config schema ...");
    a key fault or an overflow is a ValueError "malformed <kind> config: ..."."""
    data = dict(data)
    given = data.pop("schema", schema)
    if given != schema:
        raise ValueError(f"unsupported {kind} config schema {given!r}")
    try:
        return json_dataclass(cls, "config", data, **readers)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {kind} config: {exc}") from exc


def json_dataclasses(cls, name: str, value) -> tuple:
    """A JSON array of objects as a tuple of cls, item i read by json_dataclass as name[i]."""
    return tuple(json_dataclass(cls, f"{name}[{i}]", v) for i, v in enumerate(json_list(name, value)))


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
