import io
import json

import pytest

from clausekit import cdcl, cli, scl
from clausekit.jsonl import json_format, json_string

AWKWARD = ['say "hi"', "back\\slash", "tab\there\x01\x1f", "σ ≤ τ", "\U0001d4b3 outside the BMP", "", "plain"]


def reference(obj: dict) -> str:
    """The JSON line that `json.dumps` writes for obj, which shares no code with clausekit's formats."""
    return json.dumps(obj, sort_keys=True) + "\n"


@pytest.mark.parametrize("line", AWKWARD)
@pytest.mark.parametrize("event", ["lia", "result", 'q"\\\x00σ\U0001f600'])
def test_event_line_is_json_line(event, line):
    # the format of LIA's lines, resolution's derived lines and every verdict line
    format = json_format({"line": 0}, event=event)[0]
    assert format % json_string(line) == reference({"line": line, "event": event})
    assert (format % json_string(line)).isascii()


def test_fixed_values_and_text_fields():
    # fixed strings and text formats may hold `%`; a text field's directives read the values at its positions
    format, get = json_format({"n": 1, "line": ("%s of 100%% <- %d", (2, 1))}, event="100% %s", kind="%d%%")
    line = format % get((None, -3, json_string('say "hi" σ')[1:-1]))
    assert line == reference({"event": "100% %s", "kind": "%d%%", "line": 'say "hi" σ of 100% <- -3', "n": -3})


# values whose JSON texts fill any slot: ints, negative and past 64 bits, lists of ints, and strings
# that JSON escapes or that hold %-format directives
VALUES = [-7, 0, 3, 2**70, -(2**70), [], [-1, 2, -30], *AWKWARD, "100%", "%s %d %%(x)s"]


@pytest.mark.parametrize("kind", sorted(scl._FIELDS))
def test_scl_kinds_write_what_json_dumps_writes(kind):
    # each kind's format over its text line and `_FIELDS`, filled with any value's JSON text
    format, get = scl._JSON[kind]
    names = ("line", *scl._FIELDS[kind])
    for start in range(len(VALUES)):
        values = [VALUES[(start + i) % len(VALUES)] for i in range(len(names))]
        line = format % get(tuple(json.dumps(v) for v in values))
        assert line == reference({"event": "scl", "kind": kind, **dict(zip(names, values))})


def test_counter_experiment_rows_write_what_json_dumps_writes(monkeypatch):
    rows = [cli.ExperimentRow(*[VALUES[(start + i) % len(VALUES)] for i in range(5)]) for start in range(len(VALUES))]
    monkeypatch.setattr(cli, "counter_experiment", lambda n_max: rows)
    out = io.StringIO()
    assert cli.main(["--mode", "counter-experiment", "--format", "json"], out) == 10
    assert out.getvalue() == "".join(reference(row._asdict()) for row in rows)


def test_every_cdcl_kind_writes_what_json_dumps_writes():
    # CDCL's `_JSON` formats hold the text line's own format and fill it from the event: each JSON
    # line is its text line beside the event's fields, for every kind and ints of either sign; each
    # verdict line, rendered from a result after its trace, is an object of its text line alone
    cases = [(("propagate", -12, 3), {"lit": -12, "clause": 3}), (("propagate", 7, 2**70), {"lit": 7, "clause": 2**70}),
             (("decide", -1, 1), {"lit": -1, "level": 1}), (("decide", 40, 0), {"lit": 40, "level": 0}),
             (("conflict", 9), {"clause": 9}), (("forget", -41), {"clause": -41}),
             (("learn", (-3, 5, -80), 2, 41), {"lits": [-3, 5, -80], "backjump": 2, "clause": 41}),
             (("learn", (6,), 0, 42), {"lits": [6], "backjump": 0, "clause": 42})]
    # sat with atoms, sat with none and unsat; the first holds the cases as its trace
    results = [cdcl.solve([cdcl.PropClause(i, (lit,)) for i, lit in enumerate((-1, 2, -3), 1)]),
               cdcl.solve([]), cdcl.solve([cdcl.PropClause(1, ())])]
    results[0].state.events[:] = [ev for ev, _ in cases]
    results[2].state.events.clear()
    assert {ev[0] for ev, _ in cases} | {r.verdict for r in results} == set(cdcl._JSON)
    text = [line for r in results for line in "".join(cdcl.render(r, False)).splitlines()]
    assert text[len(cases):] == ["s SATISFIABLE", "v -1 2 -3 0", "s SATISFIABLE", "v 0", "s UNSATISFIABLE"]
    objects = [{"event": "cdcl", "kind": ev[0], **fields} for ev, fields in cases]
    objects += [{"event": "cdcl", "kind": kind} for kind in ("sat", "sat", "sat", "sat", "unsat")]
    assert [line for r in results for line in cdcl.render(r, True)] == [
        reference({**obj, "line": line}) for obj, line in zip(objects, text, strict=True)]
