"""JSON Lines output, which every engine's `render` writes under `--format json`: one object per line."""

from __future__ import annotations

import json

# json.dumps(obj, sort_keys=True) builds an encoder per call; this one is built once
_encode = json.JSONEncoder(sort_keys=True).encode


def json_line(fields: dict) -> str:
    """The fields as one JSON object, keys sorted, and its newline."""
    return _encode(fields) + "\n"
