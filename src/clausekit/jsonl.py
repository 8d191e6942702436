"""JSON Lines output, which every engine's `render` writes under `--format json`: one object per line.

Each kind of line fills a %-format that `json_format` builds once, keys
sorted, so that it writes the bytes of `json.dumps(obj, sort_keys=True)`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as json_string
from operator import itemgetter
from typing import Callable, Mapping, Sequence


def json_format(fields: Mapping[str, int | tuple[str, Sequence[int]]], **fixed: str) -> tuple[str, Callable]:
    """The %-format of a JSON line, an object of the fields and the `fixed` strings, and the getter of the
    values its slots read, in order, from a sequence: a tuple, or a lone value alone.  A field given as a
    position takes the JSON text of the value there (an int or a list of ints as it is, a string through
    `json_string`, the JSON encoder's C escaper); one given as (text, positions) is the string text, whose
    %-directives take the values at those positions, escaped as in a JSON string but without quotes."""
    slots = {name: (json_string(s).replace("%", "%%"), ()) for name, s in fixed.items()}
    for name, field in fields.items():
        slots[name] = ("%s", (field,)) if isinstance(field, int) else (json_string(field[0]), field[1])
    keys = sorted(slots)
    format = "{" + ", ".join([f"{json_string(k)}: {slots[k][0]}" for k in keys]) + "}\n"
    return format, itemgetter(*[p for k in keys for p in slots[k][1]])
