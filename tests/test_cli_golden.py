"""Golden output of every CLI mode and verdict kind: exact text, exact JSON lines, exit code.

The expected strings were recorded from the CLI and pin its output byte for
byte; a change to any trace line, verdict line or JSON field fails here.
The counter-experiment JSON rows are compared whole: they hold no timings,
so two runs with the same flags write the same bytes.
"""

import io

import pytest

from clausekit.cli import EXIT_LIMIT, EXIT_OK, EXIT_SAT, EXIT_UNSAT, main

FILES = {
    "sat.cnf": "p cnf 4 3\n1 2 3 0\n-3 4 0\n-4 1 2 0\n",
    "unsat.cnf": "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n",
    "learn.bs": "-P(a) | Q(a).\n-P(a) | -Q(a).\nP(b) | R(b).\n",
    "derive.bs": "P(a).\n-P(x) | Q(x).\n",
    "one-step.script": "2.2 Res 3.1\n",
    "linear2.script": "2.2 Res 3.1\n5.2 Res 2.1\n6.1 Res 1.1\n7.1 Res 4.1\n",
    "fixpoint.lia": "1 - 1*x - 1*y <= 0\n1*x - 1 <= 0\n1*y - 2 <= 0\n",
    "conflict.lia": "x <= 0\n-x + 1 <= 0\n",
    "diverge.lia": "x - y <= 0\ny - x + 1 <= 0\n",
    "sat.lia": "1 - 1*x - 1*y <= 0\n",
}

# name: (argv, exit code, text output, JSON output)
CASES = {
    "cdcl-sat": (
        ["--mode", "cdcl", "--input", "{dir}/sat.cnf"],
        EXIT_SAT,
        '''\
decide -1 @1
decide -2 @2
propagate 3 <- clause 1
propagate 4 <- clause 2
conflict clause 3
learn 1 2 backjump 1
decide -3 @2
decide -4 @3
s SATISFIABLE
v -1 2 -3 -4 0
''',
        r'''{"event": "cdcl", "kind": "decide", "level": 1, "line": "decide -1 @1", "lit": -1}
{"event": "cdcl", "kind": "decide", "level": 2, "line": "decide -2 @2", "lit": -2}
{"clause": 1, "event": "cdcl", "kind": "propagate", "line": "propagate 3 <- clause 1", "lit": 3}
{"clause": 2, "event": "cdcl", "kind": "propagate", "line": "propagate 4 <- clause 2", "lit": 4}
{"clause": 3, "event": "cdcl", "kind": "conflict", "line": "conflict clause 3"}
{"backjump": 1, "clause": 4, "event": "cdcl", "kind": "learn", "line": "learn 1 2 backjump 1", "lits": [1, 2]}
{"event": "cdcl", "kind": "decide", "level": 2, "line": "decide -3 @2", "lit": -3}
{"event": "cdcl", "kind": "decide", "level": 3, "line": "decide -4 @3", "lit": -4}
{"event": "cdcl", "kind": "sat", "line": "s SATISFIABLE"}
{"event": "cdcl", "kind": "sat", "line": "v -1 2 -3 -4 0"}
''',
    ),
    "cdcl-unsat": (
        ["--mode", "cdcl", "--input", "{dir}/unsat.cnf"],
        EXIT_UNSAT,
        '''\
decide -1 @1
propagate 2 <- clause 1
conflict clause 3
learn 1 backjump 0
propagate 2 <- clause 2
conflict clause 4
s UNSATISFIABLE
''',
        r'''{"event": "cdcl", "kind": "decide", "level": 1, "line": "decide -1 @1", "lit": -1}
{"clause": 1, "event": "cdcl", "kind": "propagate", "line": "propagate 2 <- clause 1", "lit": 2}
{"clause": 3, "event": "cdcl", "kind": "conflict", "line": "conflict clause 3"}
{"backjump": 0, "clause": 5, "event": "cdcl", "kind": "learn", "line": "learn 1 backjump 0", "lits": [1]}
{"clause": 2, "event": "cdcl", "kind": "propagate", "line": "propagate 2 <- clause 2", "lit": 2}
{"clause": 4, "event": "cdcl", "kind": "conflict", "line": "conflict clause 4"}
{"event": "cdcl", "kind": "unsat", "line": "s UNSATISFIABLE"}
''',
    ),
    "scl-unsat": (
        ["--mode", "scl", "--counter-n", "2"],
        EXIT_UNSAT,
        '''\
propagate P(0,0) <- clause 1 σ={}
propagate P(0,1) <- clause 2 σ={x1->0}
propagate P(1,0) <- clause 3 σ={}
propagate P(1,1) <- clause 2 σ={x1->1}
conflict clause 4 σ={}
stats propagations=4 decisions=0 trail=4
s UNSATISFIABLE
''',
        r'''{"clause": 1, "event": "scl", "kind": "propagate", "line": "propagate P(0,0) <- clause 1 \u03c3={}", "lit": "P(0,0)", "subst": "{}"}
{"clause": 2, "event": "scl", "kind": "propagate", "line": "propagate P(0,1) <- clause 2 \u03c3={x1->0}", "lit": "P(0,1)", "subst": "{x1->0}"}
{"clause": 3, "event": "scl", "kind": "propagate", "line": "propagate P(1,0) <- clause 3 \u03c3={}", "lit": "P(1,0)", "subst": "{}"}
{"clause": 2, "event": "scl", "kind": "propagate", "line": "propagate P(1,1) <- clause 2 \u03c3={x1->1}", "lit": "P(1,1)", "subst": "{x1->1}"}
{"clause": 4, "event": "scl", "kind": "conflict", "line": "conflict clause 4 \u03c3={}", "subst": "{}"}
{"event": "scl", "kind": "stats", "line": "stats propagations=4 decisions=0 trail=4"}
{"event": "result", "line": "s UNSATISFIABLE"}
''',
    ),
    "scl-sat": (
        ["--mode", "scl", "--input", "{dir}/learn.bs"],
        EXIT_SAT,
        '''\
decide P(a) @1
propagate Q(a) <- clause 1 σ={}
conflict clause 2 σ={}
learn -P(a) backjump 0
decide P(b) @1
decide Q(a) @2
decide Q(b) @3
decide R(a) @4
decide R(b) @5
stats propagations=1 decisions=6 trail=6
s SATISFIABLE
''',
        r'''{"event": "scl", "kind": "decide", "level": 1, "line": "decide P(a) @1", "lit": "P(a)"}
{"clause": 1, "event": "scl", "kind": "propagate", "line": "propagate Q(a) <- clause 1 \u03c3={}", "lit": "Q(a)", "subst": "{}"}
{"clause": 2, "event": "scl", "kind": "conflict", "line": "conflict clause 2 \u03c3={}", "subst": "{}"}
{"backjump": 0, "clause": "-P(a)", "event": "scl", "kind": "learn", "line": "learn -P(a) backjump 0"}
{"event": "scl", "kind": "decide", "level": 1, "line": "decide P(b) @1", "lit": "P(b)"}
{"event": "scl", "kind": "decide", "level": 2, "line": "decide Q(a) @2", "lit": "Q(a)"}
{"event": "scl", "kind": "decide", "level": 3, "line": "decide Q(b) @3", "lit": "Q(b)"}
{"event": "scl", "kind": "decide", "level": 4, "line": "decide R(a) @4", "lit": "R(a)"}
{"event": "scl", "kind": "decide", "level": 5, "line": "decide R(b) @5", "lit": "R(b)"}
{"event": "scl", "kind": "stats", "line": "stats propagations=1 decisions=6 trail=6"}
{"event": "result", "line": "s SATISFIABLE"}
''',
    ),
    "scl-trail-cap": (
        ["--mode", "scl", "--counter-n", "3", "--max-steps", "3"],
        EXIT_LIMIT,
        '''\
propagate P(0,0,0) <- clause 1 σ={}
propagate P(0,0,1) <- clause 2 σ={x1->0,x2->0}
propagate P(0,1,0) <- clause 3 σ={x1->0}
stats propagations=3 decisions=0 trail=3
s RESOURCE-EXCEEDED
''',
        r'''{"clause": 1, "event": "scl", "kind": "propagate", "line": "propagate P(0,0,0) <- clause 1 \u03c3={}", "lit": "P(0,0,0)", "subst": "{}"}
{"clause": 2, "event": "scl", "kind": "propagate", "line": "propagate P(0,0,1) <- clause 2 \u03c3={x1->0,x2->0}", "lit": "P(0,0,1)", "subst": "{x1->0,x2->0}"}
{"clause": 3, "event": "scl", "kind": "propagate", "line": "propagate P(0,1,0) <- clause 3 \u03c3={x1->0}", "lit": "P(0,1,0)", "subst": "{x1->0}"}
{"event": "scl", "kind": "stats", "line": "stats propagations=3 decisions=0 trail=3"}
{"event": "result", "line": "s RESOURCE-EXCEEDED"}
''',
    ),
    "scl-instance-cap": (
        ["--mode", "scl", "--counter-n", "3", "--max-instances", "2"],
        EXIT_LIMIT,
        '''\
s RESOURCE-EXCEEDED
''',
        r'''{"event": "result", "line": "s RESOURCE-EXCEEDED"}
''',
    ),
    "resolution-unsat": (
        ["--mode", "resolution", "--counter-n", "2", "--selection", "first-negative"],
        EXIT_UNSAT,
        '''\
5 : P(0,1)  [Res 1.1 2.1]
6 : P(1,0)  [Res 5.1 3.1]
7 : P(1,1)  [Res 6.1 2.1]
8 : ⊥  [Res 7.1 4.1]
Unsat
''',
        r'''{"event": "derived", "line": "5 : P(0,1)  [Res 1.1 2.1]"}
{"event": "derived", "line": "6 : P(1,0)  [Res 5.1 3.1]"}
{"event": "derived", "line": "7 : P(1,1)  [Res 6.1 2.1]"}
{"event": "derived", "line": "8 : \u22a5  [Res 7.1 4.1]"}
{"event": "result", "generated": 4, "kept": 3, "line": "Unsat"}
''',
    ),
    "resolution-saturated": (
        ["--mode", "resolution", "--input", "{dir}/derive.bs", "--selection", "first-negative"],
        EXIT_SAT,
        '''\
3 : Q(a)  [Res 1.1 2.1]
Saturated(3)
''',
        r'''{"event": "derived", "line": "3 : Q(a)  [Res 1.1 2.1]"}
{"event": "result", "generated": 1, "kept": 1, "line": "Saturated(3)"}
''',
    ),
    "resolution-limit": (
        ["--mode", "resolution", "--counter-n", "3", "--selection", "first-negative", "--max-steps", "2"],
        EXIT_LIMIT,
        '''\
6 : P(0,0,1)  [Res 1.1 2.1]
7 : P(0,1,0)  [Res 6.1 3.1]
LimitReached
''',
        r'''{"event": "derived", "line": "6 : P(0,0,1)  [Res 1.1 2.1]"}
{"event": "derived", "line": "7 : P(0,1,0)  [Res 6.1 3.1]"}
{"event": "result", "generated": 2, "kept": 2, "line": "LimitReached"}
''',
    ),
    "replay-unsat": (
        ["--mode", "resolution-replay", "--counter-n", "2", "--replay", "{dir}/linear2.script"],
        EXIT_UNSAT,
        '''\
5 : -P(0,0) | P(1,0)  [Res 2.2 3.1]
6 : -P(0,0) | P(1,1)  [Res 5.2 2.1]
7 : P(1,1)  [Res 1.1 6.1]
8 : ⊥  [Res 7.1 4.1]
Unsat
''',
        r'''{"event": "derived", "line": "5 : -P(0,0) | P(1,0)  [Res 2.2 3.1]"}
{"event": "derived", "line": "6 : -P(0,0) | P(1,1)  [Res 5.2 2.1]"}
{"event": "derived", "line": "7 : P(1,1)  [Res 1.1 6.1]"}
{"event": "derived", "line": "8 : \u22a5  [Res 7.1 4.1]"}
{"event": "result", "line": "Unsat"}
''',
    ),
    "replay-replayed": (
        ["--mode", "resolution-replay", "--counter-n", "2", "--replay", "{dir}/one-step.script"],
        EXIT_OK,
        '''\
5 : -P(0,0) | P(1,0)  [Res 2.2 3.1]
Replayed(1)
''',
        r'''{"event": "derived", "line": "5 : -P(0,0) | P(1,0)  [Res 2.2 3.1]"}
{"event": "result", "line": "Replayed(1)"}
''',
    ),
    "lia-fixpoint": (
        ["--mode", "lia-propagate", "--input", "{dir}/fixpoint.lia", "--decide", "x>=0"],
        EXIT_SAT,
        '''\
bound x >= 0 <- decision
bound x <= 1 <- ineq 2
bound y <= 2 <- ineq 3
bound y >= 0 <- ineq 1
fixpoint
''',
        r'''{"event": "lia", "line": "bound x >= 0 <- decision"}
{"event": "lia", "line": "bound x <= 1 <- ineq 2"}
{"event": "lia", "line": "bound y <= 2 <- ineq 3"}
{"event": "lia", "line": "bound y >= 0 <- ineq 1"}
{"event": "lia", "line": "fixpoint"}
''',
    ),
    "lia-conflict": (
        ["--mode", "lia-propagate", "--input", "{dir}/conflict.lia"],
        EXIT_UNSAT,
        '''\
bound x <= 0 <- ineq 1
conflict 2
''',
        r'''{"event": "lia", "line": "bound x <= 0 <- ineq 1"}
{"event": "lia", "line": "conflict 2"}
''',
    ),
    "lia-diverged": (
        ["--mode", "lia-propagate", "--input", "{dir}/diverge.lia", "--decide", "x>=0", "--max-steps", "3"],
        EXIT_LIMIT,
        '''\
bound x >= 0 <- decision
bound y >= 0 <- ineq 1
bound x >= 1 <- ineq 2
bound y >= 1 <- ineq 1
diverged steps=3
''',
        r'''{"event": "lia", "line": "bound x >= 0 <- decision"}
{"event": "lia", "line": "bound y >= 0 <- ineq 1"}
{"event": "lia", "line": "bound x >= 1 <- ineq 2"}
{"event": "lia", "line": "bound y >= 1 <- ineq 1"}
{"event": "lia", "line": "diverged steps=3"}
''',
    ),
    "lia-decide-sat": (
        ["--mode", "lia-decide", "--input", "{dir}/sat.lia"],
        EXIT_SAT,
        '''\
sat x=-1 y=2
''',
        r'''{"event": "result", "line": "sat x=-1 y=2"}
''',
    ),
    "lia-decide-unsat": (
        ["--mode", "lia-decide", "--input", "{dir}/diverge.lia"],
        EXIT_UNSAT,
        '''\
unsat
''',
        r'''{"event": "result", "line": "unsat"}
''',
    ),
    "counter-experiment": (
        ["--mode", "counter-experiment", "--counter-n", "3"],
        EXIT_SAT,
        '''\
n  scl_propagations  scl_result  resolution_generated  resolution_result
1                 2  unsat                         2  unsat
2                 4  unsat                         4  unsat
3                 8  unsat                         6  unsat
''',
        r'''{"n": 1, "resolution_generated": 2, "resolution_result": "unsat", "scl_propagations": 2, "scl_result": "unsat"}
{"n": 2, "resolution_generated": 4, "resolution_result": "unsat", "scl_propagations": 4, "scl_result": "unsat"}
{"n": 3, "resolution_generated": 6, "resolution_result": "unsat", "scl_propagations": 8, "scl_result": "unsat"}
''',
    ),
}


def run(argv: list[str], directory) -> tuple[int, str]:
    for name, text in FILES.items():
        (directory / name).write_text(text)
    out = io.StringIO()
    code = main([a.replace("{dir}", str(directory)) for a in argv], out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_text_output(name, tmp_path):
    argv, code, text, _ = CASES[name]
    assert run(argv, tmp_path) == (code, text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output(name, tmp_path):
    argv, code, _, expected = CASES[name]
    assert run(argv + ["--format", "json"], tmp_path) == (code, expected)
