"""The benchmark's checkers accept real clausekit output and reject corrupted output."""

from __future__ import annotations

import io
import random

import pytest

import checkers
import workloads
from checkers import CheckError
from clausekit import cli, formats, resolution, scl


def run(tmp_path, argv, files=()):
    for name, text in dict(files).items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    code = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv], out=out)
    return code, out.getvalue()


def replace_line(output: str, index: int, new: str | None) -> str:
    lines = output.splitlines()
    if new is None:
        del lines[index]
    else:
        lines[index] = new
    return "\n".join(lines) + "\n"


def first_index(output: str, prefix: str) -> int:
    return next(i for i, line in enumerate(output.splitlines()) if line.startswith(prefix))


def cdcl_runs(tmp_path):
    """One satisfiable and one unsatisfiable small random 3-CNF run, each with learned clauses."""
    found = {}
    rng = random.Random(7)
    while len(found) < 2:
        text = workloads.random_3cnf(rng, num_vars=20)
        code, out = run(tmp_path, ["--mode", "cdcl", "--input", "{dir}/f.cnf"], {"f.cnf": text})
        if "learn" in out:
            found.setdefault(code, (text, out))
    return found[10], found[20]


def test_cdcl_checker(tmp_path):
    (sat_text, sat_out), (unsat_text, unsat_out) = cdcl_runs(tmp_path)
    assert checkers.check_cdcl(sat_text, sat_out) == "sat"
    assert checkers.check_cdcl(unsat_text, unsat_out) == "unsat"

    model_at = first_index(sat_out, "v ")
    model = sat_out.splitlines()[model_at].split()
    flipped = " ".join(model[:1] + [str(-int(model[1]))] + model[2:])
    with pytest.raises(CheckError):
        checkers.check_cdcl(sat_text, replace_line(sat_out, model_at, flipped))

    learn_at = first_index(unsat_out, "learn")
    with pytest.raises(CheckError):  # a dropped learned clause
        checkers.check_cdcl(unsat_text, replace_line(unsat_out, learn_at, None))
    lits, backjump = unsat_out.splitlines()[learn_at][len("learn "):].split(" backjump ")
    weakened = "learn " + " ".join(lits.split()[1:] or ["1"]) + " backjump " + backjump
    with pytest.raises(CheckError):  # a learned clause that is not RUP or not asserting
        checkers.check_cdcl(unsat_text, replace_line(unsat_out, learn_at, weakened))
    with pytest.raises(CheckError):  # a wrong verdict
        checkers.check_cdcl(unsat_text, unsat_out.replace("s UNSATISFIABLE", "s SATISFIABLE\nv 0"))


def test_scl_checker_on_the_counter(tmp_path):
    unsat = workloads.counter_text(4, ("P", "0", "1"))
    sat = workloads.counter_text(4, ("Q", "a", "b"), satisfiable=True)
    _, unsat_out = run(tmp_path, ["--mode", "scl", "--input", "{dir}/c.bs"], {"c.bs": unsat})
    _, sat_out = run(tmp_path, ["--mode", "scl", "--input", "{dir}/s.bs"], {"s.bs": sat})
    assert checkers.check_scl(unsat, unsat_out, propagations=16) == "unsat"
    assert checkers.check_scl(sat, sat_out) == "sat"

    with pytest.raises(CheckError):
        checkers.check_scl(unsat, unsat_out, propagations=15)
    with pytest.raises(CheckError):  # a dropped propagation
        checkers.check_scl(unsat, replace_line(unsat_out, 3, None))
    last_prop = max(i for i, line in enumerate(sat_out.splitlines()) if line.startswith("propagate"))
    flipped = sat_out.splitlines()[last_prop].replace("propagate Q", "propagate -Q", 1)
    with pytest.raises(CheckError):  # a flipped model literal
        checkers.check_scl(sat, replace_line(sat_out, last_prop, flipped))
    with pytest.raises(CheckError):  # a wrong verdict
        checkers.check_scl(sat, sat_out.replace("s SATISFIABLE", "s UNSATISFIABLE"))


def test_counter_text_is_the_paper_family():
    for n in (1, 3, 6):
        assert formats.parse_bs(workloads.counter_text(n, ("P", "0", "1"))) == list(scl.counter_problem(n))
        assert formats.parse_script(workloads.linear_script(n)) == resolution.linear_counter_script(n)


def test_forward_chaining_decides_horn_chains(tmp_path):
    text = workloads.horn_chain_text(random.Random(3), 6)
    _, refuted = run(tmp_path, ["--mode", "scl", "--input", "{dir}/h.bs"], {"h.bs": text})
    assert checkers.forward_chaining_verdict(text) == "unsat"
    assert checkers.check_scl(text, refuted) == "unsat"
    with pytest.raises(CheckError):
        checkers.check_scl(text, refuted.replace("s UNSATISFIABLE", "s SATISFIABLE"))
    lines = text.splitlines()
    lines[-1] = lines[-1].split(":")[0] + ": -D(c05,c05,c04)."  # a goal the chain may not reach
    unreachable = "\n".join(lines) + "\n"
    code, out = run(tmp_path, ["--mode", "scl", "--input", "{dir}/u.bs"], {"u.bs": unreachable})
    verdict = checkers.forward_chaining_verdict(unreachable)
    assert checkers.check_scl(unreachable, out) == verdict == ("sat" if code == 10 else "unsat")


def test_truth_tables_decide_random_bs_sets(tmp_path):
    rng = random.Random(11)
    seen = set()
    for i in range(30):
        text = workloads.random_bs_text(rng)
        _, out = run(tmp_path, ["--mode", "resolution", "--input", "{dir}/r.bs", "--selection", "first-negative"],
                     {"r.bs": text})
        verdict = checkers.check_saturation_verdict(text, out)
        seen.add(verdict)
        wrong = "Saturated(1)" if verdict == "unsat" else "Unsat"
        with pytest.raises(CheckError):
            checkers.check_saturation_verdict(text, replace_line(out, -1, wrong))
    assert seen == {"sat", "unsat"}


def test_saturation_checks(tmp_path):
    n = 5
    counter = workloads.counter_text(n, ("P", "0", "1"))
    subset = workloads.counter_text(n, ("P", "0", "1"), satisfiable=True)
    _, refuted = run(tmp_path, ["--mode", "resolution", "--input", "{dir}/c.bs", "--selection", "first-negative"],
                     {"c.bs": counter})
    _, saturated = run(tmp_path, ["--mode", "resolution", "--input", "{dir}/s.bs", "--format", "json"],
                       {"s.bs": subset})
    _, replayed = run(tmp_path, ["--mode", "resolution-replay", "--input", "{dir}/c.bs", "--replay", "{dir}/r.script"],
                      {"r.script": workloads.linear_script(n)})
    checkers.check_refuted(refuted)
    checkers.check_zero_inference_saturation(subset, saturated)
    checkers.check_replay(replayed, 2 * n)
    with pytest.raises(CheckError):
        checkers.check_refuted(replace_line(refuted, -2, None))
    with pytest.raises(CheckError):
        checkers.check_zero_inference_saturation(subset, saturated.replace('"generated": 0', '"generated": 1'))
    with pytest.raises(CheckError):  # a dropped step
        checkers.check_replay(replace_line(replayed, 0, None), 2 * n)
    _, table = run(tmp_path, ["--mode", "counter-experiment", "--counter-n", "4"])
    checkers.check_counter_experiment(table, 4)
    with pytest.raises(CheckError):
        checkers.check_counter_experiment(table.replace(" 16 ", " 15 "), 4)


def lia_run(tmp_path, lines, decisions, max_steps):
    text = "\n".join(lines) + "\n"
    argv = ["--mode", "lia-propagate", "--input", "{dir}/s.lia", "--max-steps", str(max_steps)]
    for d in decisions:
        argv += ["--decide", d]
    return text, run(tmp_path, argv, {"s.lia": text})[1]


def test_lia_bound_recheck(tmp_path):
    witness, diverged = lia_run(tmp_path, ["1*x - 1*y <= 0", "1*y - 1*x + 1 <= 0"], ["x>=0"], 50)
    assert checkers.check_lia_propagate(witness, ["x>=0"], 50, diverged) == "diverged"
    bound_at = first_index(diverged, "bound y")
    _, var, kind, value, *rest = diverged.splitlines()[bound_at].split()
    too_tight = " ".join(["bound", var, kind, str(int(value) + 1)] + rest)
    with pytest.raises(CheckError):
        checkers.check_lia_propagate(witness, ["x>=0"], 50, replace_line(diverged, bound_at, too_tight))

    chain = ["1*v1 - 1*v2 + 1 <= 0", "1*v2 - 1*v3 + 2 <= 0"]
    _, fixpoint = lia_run(tmp_path, chain, ["v1>=0", "v3<=5"], 100)
    text, conflict = lia_run(tmp_path, chain, ["v1>=0", "v3<=2"], 100)
    assert checkers.check_lia_propagate(text, ["v1>=0", "v3<=5"], 100, fixpoint) == "fixpoint"
    assert checkers.check_lia_propagate(text, ["v1>=0", "v3<=2"], 100, conflict) == "conflict"
    with pytest.raises(CheckError):  # a fixpoint claimed before propagation ends
        checkers.check_lia_propagate(text, ["v1>=0", "v3<=5"], 100, replace_line(fixpoint, -2, None))
    with pytest.raises(CheckError):  # a conflict on an inequation the bounds satisfy
        checkers.check_lia_propagate(text, ["v1>=0", "v3<=5"], 100, replace_line(fixpoint, -1, "conflict 1"))


def test_lia_decide_recheck(tmp_path):
    sat_text = "1*x + 1*y - 2 <= 0\n"
    _, sat = run(tmp_path, ["--mode", "lia-decide", "--input", "{dir}/d.lia"], {"d.lia": sat_text})
    unsat_text = "1*x - 1*y <= 0\n1*y - 1*x + 1 <= 0\n"
    _, unsat = run(tmp_path, ["--mode", "lia-decide", "--input", "{dir}/u.lia"], {"u.lia": unsat_text})
    assert checkers.check_lia_decide(sat_text, sat) == "sat"
    assert checkers.check_lia_decide(unsat_text, unsat) == "unsat"
    with pytest.raises(CheckError):
        checkers.check_lia_decide(sat_text, "sat x=5 y=5\n")
    with pytest.raises(CheckError):  # unsat claimed for a satisfiable system
        checkers.check_lia_decide(sat_text, "unsat\n")
