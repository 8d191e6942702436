import json

import pytest

from clausekit.jsonl import event_line, json_line

AWKWARD = ['say "hi"', "back\\slash", "tab\there\x01\x1f", "σ ≤ τ", "\U0001d4b3 outside the BMP", "", "plain"]


@pytest.mark.parametrize("line", AWKWARD)
@pytest.mark.parametrize("event", ["lia", "result", 'q"\\\x00σ\U0001f600'])
def test_event_line_is_json_line(event, line):
    assert event_line(event, line) == json_line({"line": line, "event": event})
    assert json.loads(event_line(event, line)) == {"event": event, "line": line}
    assert event_line(event, line).isascii()
