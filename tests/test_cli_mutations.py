"""Seeded mutation runs of the CLI: edited copies of the golden inputs in every input format.

Each format's inputs are those of `tests/test_cli_golden.py`, edited one to
three times (a character deleted, inserted or replaced, a line duplicated or
deleted) by a `random.Random` seeded per format, and run through
`clausekit.cli.main`.  Every run must end with a documented exit code, never
70 (a crash); an input its parser rejects must exit with 2 and print that
parse error, which names a line; and a script that parses but does not
replay must name its failing step.  Step caps keep every run short.
"""

import io
import random
import re

import pytest

from clausekit.cli import EXIT_LIMIT, EXIT_OK, EXIT_SAT, EXIT_UNSAT, EXIT_USAGE, main
from clausekit.errors import ParseError
from clausekit.formats import parse_bound, parse_bs, parse_dimacs, parse_lia, parse_script
from test_cli_golden import FILES

RUNS = 300  # per format
LONG = 5000  # digits, more than int() converts by default
DOCUMENTED = {EXIT_OK, EXIT_LIMIT, EXIT_USAGE, EXIT_SAT, EXIT_UNSAT}
ALPHABET = "0123456789 \t\n-+*<=>()|.,:abpxyPQR"

# per format: its parser, the golden inputs it edits, and the argvs that read an edited input as {edited}
FORMATS = {
    "dimacs": (parse_dimacs, ["sat.cnf", "unsat.cnf"], [["--mode", "cdcl", "--input", "{edited}"]]),
    "bs": (parse_bs, ["learn.bs", "derive.bs"], [
        ["--mode", "scl", "--input", "{edited}", "--max-steps", "50"],
        ["--mode", "resolution", "--input", "{edited}", "--selection", "first-negative", "--max-steps", "50"],
    ]),
    "lia": (parse_lia, ["fixpoint.lia", "conflict.lia", "diverge.lia", "sat.lia"], [
        ["--mode", "lia-propagate", "--input", "{edited}", "--decide", "x>=0", "--max-steps", "50"],
        ["--mode", "lia-decide", "--input", "{edited}"],
    ]),
    "script": (parse_script, ["one-step.script", "linear2.script"], [
        ["--mode", "resolution-replay", "--counter-n", "2", "--replay", "{edited}"],
    ]),
}


def edit(rng: random.Random, text: str) -> str:
    """text after one to three random edits of a character or a line."""
    for _ in range(rng.randint(1, 3)):
        kind, at = rng.randrange(5), rng.randrange(len(text) + 1)
        if kind == 0:
            text = text[:at] + rng.choice(ALPHABET) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1:]
        elif kind == 2:
            text = text[:at] + rng.choice(ALPHABET) + text[at + 1:]
        else:
            lines = text.splitlines(keepends=True) or [""]
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [lines[i]] * (2 if kind == 3 else 0)
            text = "".join(lines)
    return text


def check_run(argv: list[str], parse, text: str, step_errors: bool, capsys) -> None:
    code = main(argv, io.StringIO())
    err = capsys.readouterr().err
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line is not None and f"line {exc.line}" in str(exc), (argv, text, exc)
        assert (code, err) == (EXIT_USAGE, f"error: {exc}\n"), (argv, text)
        return
    assert code in DOCUMENTED, (argv, text, code, err)
    if code == EXIT_USAGE:
        assert re.fullmatch(r"error: [^\n]+\n", err), (argv, text, err)
        if step_errors:
            assert err.startswith("error: step "), (argv, text, err)


def lengthen(text: str) -> str:
    """text with its first run of digits repeated to LONG digits; text without one gets a clause id of LONG digits."""
    m = re.search(r"[0-9]+", text)
    if m is None:
        return "1" * LONG + ": " + text
    return text[:m.start()] + (m.group() * LONG)[:LONG] + text[m.end():]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_edited_inputs_exit_with_a_documented_code(name, tmp_path, capsys):
    parse, inputs, argvs = FORMATS[name]
    edited = tmp_path / "edited"
    rng = random.Random(name)
    for _ in range(RUNS):
        text = edit(rng, FILES[rng.choice(inputs)])
        edited.write_text(text)
        argv = [a.replace("{edited}", str(edited)) for a in rng.choice(argvs)]
        check_run(argv, parse, text, name == "script", capsys)


def test_edited_decide_bounds_exit_with_a_documented_code(tmp_path, capsys):
    (tmp_path / "fixpoint.lia").write_text(FILES["fixpoint.lia"])
    rng = random.Random("decide")
    for _ in range(RUNS):
        bound = edit(rng, "x>=0")
        argv = ["--mode", "lia-propagate", "--input", str(tmp_path / "fixpoint.lia"), f"--decide={bound}",
                "--max-steps", "50"]
        check_run(argv, parse_bound, bound, False, capsys)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_inputs_with_a_number_too_long_for_int_exit_with_a_documented_code(name, tmp_path, capsys):
    parse, inputs, argvs = FORMATS[name]
    edited = tmp_path / "edited"
    for text in map(lengthen, (FILES[i] for i in inputs)):
        edited.write_text(text)
        for argv in argvs:
            check_run([a.replace("{edited}", str(edited)) for a in argv], parse, text, name == "script", capsys)


def test_a_decide_bound_with_a_number_too_long_for_int_exits_with_a_documented_code(tmp_path, capsys):
    (tmp_path / "fixpoint.lia").write_text(FILES["fixpoint.lia"])
    bound = lengthen("x>=0")
    argv = ["--mode", "lia-propagate", "--input", str(tmp_path / "fixpoint.lia"), f"--decide={bound}"]
    check_run(argv, parse_bound, bound, False, capsys)
