"""JSON Lines output, which every engine's `render` writes under `--format json`: one object per line."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

# json.dumps(obj, sort_keys=True) builds an encoder per call; this one is built once
_encode = json.JSONEncoder(sort_keys=True).encode


def json_line(fields: dict) -> str:
    """The fields as one JSON object, keys sorted, and its newline."""
    return _encode(fields) + "\n"


def event_line(event: str, line: str) -> str:
    """The JSON line of an object that holds only `event` and `line`, the bytes that `json_line` gives for it."""
    return '{"event": %s, "line": %s}\n' % (encode_basestring_ascii(event), encode_basestring_ascii(line))
