import errno
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import clausekit
from clausekit.cli import (
    EXIT_CLOSED_OUTPUT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_OUTPUT_ERROR,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_USAGE,
    build_parser,
    counter_experiment,
    main,
)
from clausekit.formats import parse_bs, parse_script
from clausekit.resolution import linear_counter_script
from clausekit.scl import scl_run

DEMO_DIMACS = "p cnf 4 3\n1 2 3 0\n-3 4 0\n-4 1 2 0\n"


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


@pytest.fixture
def demo_cnf(tmp_path):
    path = tmp_path / "demo.cnf"
    path.write_text(DEMO_DIMACS)
    return str(path)


@pytest.fixture
def packaged_script(tmp_path):
    text = resources.files("clausekit").joinpath("data/counter4.script").read_text()
    path = tmp_path / "counter4.script"
    path.write_text(text)
    return str(path)


class TestCdclMode:
    def test_backjump_demo_trace_and_exit(self, demo_cnf):
        code, out = run_cli("--mode", "cdcl", "--input", demo_cnf)
        assert code == EXIT_SAT
        assert "learn 1 2 backjump 1" in out.splitlines()
        assert out.splitlines()[-2] == "s SATISFIABLE"

    def test_unsat_exit(self, tmp_path):
        path = tmp_path / "u.cnf"
        path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        code, out = run_cli("--mode", "cdcl", "--input", str(path))
        assert code == EXIT_UNSAT
        assert "s UNSATISFIABLE" in out


    def test_empty_formula_model_line(self, tmp_path):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        code, out = run_cli("--mode", "cdcl", "--input", str(path))
        assert (code, out) == (EXIT_SAT, "s SATISFIABLE\nv 0\n")
        code, out = run_cli("--mode", "cdcl", "--input", str(path), "--format", "json")
        assert code == EXIT_SAT
        assert json.loads(out.splitlines()[-1])["line"] == "v 0"

class TestSclMode:
    def test_counter_unsat(self):
        code, out = run_cli("--mode", "scl", "--counter-n", "4")
        assert code == EXIT_UNSAT
        assert "stats propagations=16 decisions=0 trail=16" in out

    def test_file_input(self, tmp_path):
        path = tmp_path / "p.bs"
        path.write_text("P(0).\n")
        code, out = run_cli("--mode", "scl", "--input", str(path))
        assert code == EXIT_SAT

    def test_resource_limit_exit(self):
        code, out = run_cli("--mode", "scl", "--counter-n", "6", "--max-steps", "3")
        assert code == EXIT_LIMIT
        assert "s RESOURCE-EXCEEDED" in out

    def test_default_trail_cap_is_the_library_default(self):
        code, out = run_cli("--mode", "scl", "--counter-n", "14")
        assert code == EXIT_UNSAT
        assert "stats propagations=16384 " in out

    def test_explicit_zero_trail_cap(self):
        code, out = run_cli("--mode", "scl", "--counter-n", "4", "--max-steps", "0")
        assert code == EXIT_LIMIT
        assert "s RESOURCE-EXCEEDED" in out

    def test_decisions_count_against_the_trail_cap(self, tmp_path):
        path = tmp_path / "p.bs"
        path.write_text("P(a) | Q(a) | R(a).\n")
        code, out = run_cli("--mode", "scl", "--input", str(path), "--max-steps", "2")
        assert code == EXIT_LIMIT
        assert out.splitlines()[-2:] == ["stats propagations=0 decisions=2 trail=2", "s RESOURCE-EXCEEDED"]
        assert len(scl_run(parse_bs(path.read_text())).state.trail) == 3

    def test_input_without_constants(self, tmp_path):
        # grounded over one fresh constant, as resolution refutes it
        path = tmp_path / "p.bs"
        path.write_text("P(x).\n-P(y).\n")
        code, out = run_cli("--mode", "scl", "--input", str(path))
        assert (code, out.splitlines()[-1]) == (EXIT_UNSAT, "s UNSATISFIABLE")
        assert run_cli("--mode", "resolution", "--input", str(path))[0] == EXIT_UNSAT


@pytest.mark.parametrize("module", ["clausekit", "clausekit.cli"])
def test_python_dash_m_entry(module):
    src = str(Path(clausekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", module, "--mode", "scl", "--counter-n", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_UNSAT
    assert "stats propagations=16 decisions=0 trail=16" in proc.stdout.splitlines()


def closed_pipe(*args):
    raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("method", ["write", "flush"])  # a short output may fail only at the flush
def test_a_closed_output_is_no_usage_error(capsys, method):
    out = type("ClosedOutput", (io.StringIO,), {method: closed_pipe})()
    assert main(["--mode", "scl", "--counter-n", "4"], out) == EXIT_CLOSED_OUTPUT
    assert capsys.readouterr() == ("", "")


def test_a_reader_that_stops_early_ends_the_run_quietly():
    # as `clausekit --mode scl --counter-n 12 | head -1`: 4,096 propagate lines outgrow the pipe's buffer
    src = str(Path(clausekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "clausekit", "--mode", "scl", "--counter-n", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"propagate ")
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (EXIT_CLOSED_OUTPUT, b"")
    proc.stderr.close()


def full_disk(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_write_is_an_output_error(capsys):
    out = type("FullOutput", (io.StringIO,), {"write": full_disk})()
    assert main(["--mode", "scl", "--counter-n", "4"], out) == EXIT_OUTPUT_ERROR
    assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails with ENOSPC")
def test_a_full_disk_is_an_output_error(tmp_path):
    # as `clausekit --mode scl --counter-n 4 > /dev/full`; an --input that does not exist is still a usage error
    src = str(Path(clausekit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    missing = tmp_path / "none.cnf"
    runs = []
    for args in (["--mode", "scl", "--counter-n", "4"], ["--mode", "cdcl", "--input", str(missing)]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "clausekit", *args], stdout=full, stderr=subprocess.PIPE,
                                  text=True, env=env, timeout=60)
        runs.append((proc.returncode, proc.stderr))
    assert runs == [
        (EXIT_OUTPUT_ERROR, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"),
        (EXIT_USAGE, f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'\n"),
    ]


class TestResolutionMode:
    def test_saturated(self, tmp_path):
        path = tmp_path / "sat.bs"
        path.write_text("P(0,0,0,0).\n-P(x1,x2,x3,0) | P(x1,x2,x3,1).\n")
        code, out = run_cli("--mode", "resolution", "--input", str(path), "--selection", "none")
        assert code == EXIT_SAT
        assert out.splitlines()[-1] == "Saturated(2)"

    def test_unsat(self):
        code, out = run_cli(
            "--mode", "resolution", "--counter-n", "4", "--selection", "first-negative"
        )
        assert code == EXIT_UNSAT
        assert out.splitlines()[-1] == "Unsat"

    def test_limit(self):
        code, out = run_cli(
            "--mode", "resolution", "--counter-n", "4",
            "--selection", "first-negative", "--max-steps", "2",
        )
        assert code == EXIT_LIMIT
        assert out.splitlines()[-1] == "LimitReached"


class TestReplayMode:
    def test_shipped_script_derivation(self, packaged_script):
        code, out = run_cli(
            "--mode", "resolution-replay", "--counter-n", "4", "--replay", packaged_script
        )
        assert code == EXIT_UNSAT
        lines = out.splitlines()
        assert lines[0] == "7 : -P(x1,x2,0,0) | P(x1,x2,1,0)  [Res 2.2 3.1]"
        assert lines[-2] == "14 : ⊥  [Res 13.1 6.1]"
        assert lines[-1] == "Unsat"

    def test_packaged_script_matches_generator(self):
        text = resources.files("clausekit").joinpath("data/counter4.script").read_text()
        assert parse_script(text) == linear_counter_script(4)

    def test_step_error_reported_as_usage(self, tmp_path):
        script = tmp_path / "bad.script"
        script.write_text("1.1 Res 6.1\n")
        code, _ = run_cli(
            "--mode", "resolution-replay", "--counter-n", "4", "--replay", str(script)
        )
        assert code == EXIT_USAGE

    def test_partial_derivation_claims_no_verdict(self, tmp_path):
        # a script that stops before the empty clause is neither a refutation nor a model
        script = tmp_path / "two.script"
        script.write_text("2.2 Res 3.1\n7.2 Res 2.1\n")
        code, out = run_cli("--mode", "resolution-replay", "--counter-n", "4", "--replay", str(script))
        assert (code, out.splitlines()[-1]) == (EXIT_OK, "Replayed(2)")


def test_help_goes_to_the_output_stream(capsys):
    out = io.StringIO()
    assert main(["--help"], out) == EXIT_OK
    assert out.getvalue().startswith("usage: clausekit") and "--counter-n" in out.getvalue()
    assert capsys.readouterr() == ("", "")


class TestLiaModes:
    def test_zero_budget_fixpoint(self, tmp_path):
        path = tmp_path / "sys.lia"
        path.write_text("x - y <= 0\ny - x + 1 <= 0\n")
        code, out = run_cli(
            "--mode", "lia-propagate", "--input", str(path), "--max-steps", "0"
        )
        assert code == EXIT_SAT
        assert out.splitlines()[-1] == "fixpoint"

    def test_divergence(self, tmp_path):
        path = tmp_path / "sys.lia"
        path.write_text("x - y <= 0\ny - x + 1 <= 0\n")
        code, out = run_cli(
            "--mode", "lia-propagate", "--input", str(path),
            "--decide", "x>=0", "--max-steps", "50",
        )
        assert code == EXIT_LIMIT
        assert out.splitlines()[-1] == "diverged steps=50"

    def test_conflict(self, tmp_path):
        path = tmp_path / "sys.lia"
        path.write_text("x <= 0\n-x + 1 <= 0\n")
        code, out = run_cli("--mode", "lia-propagate", "--input", str(path))
        assert code == EXIT_UNSAT
        assert out.splitlines()[-1] == "conflict 2"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("system, decisions, message", [
        ("x <= 10\n", ("x>=5", "x<=4"), "x <= 4 crosses x >= 5"),
        ("", ("x>=0", "x<=-1"), "x <= -1 crosses x >= 0"),
        ("y <= 3\n", ("x<=2", "y>=0", "x>3"), "x >= 4 crosses x <= 2"),
    ])
    def test_crossing_decisions_are_a_usage_error(self, tmp_path, capsys, fmt, system, decisions, message):
        # propagation reads conflicts off the inequations only, so these ran to "fixpoint" (exit 10)
        path = tmp_path / "sys.lia"
        path.write_text(system)
        argv = ["--mode", "lia-propagate", "--input", str(path), "--format", fmt]
        for d in decisions:
            argv += ["--decide", d]
        assert run_cli(*argv) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: --decide {message}\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_touching_decisions_run(self, tmp_path, fmt):
        path = tmp_path / "sys.lia"
        path.write_text("x <= 10\n")
        code, out = run_cli("--mode", "lia-propagate", "--input", str(path), "--decide", "x>=5", "--decide", "x<=5",
                            "--format", fmt)
        lines = out.splitlines() if fmt == "text" else [json.loads(line)["line"] for line in out.splitlines()]
        assert code == EXIT_SAT
        assert lines == ["bound x >= 5 <- decision", "bound x <= 5 <- decision", "fixpoint"]

    def test_decide_sat(self, tmp_path):
        path = tmp_path / "sys.lia"
        path.write_text("x <= 0\n-x <= 0\n")
        code, out = run_cli("--mode", "lia-decide", "--input", str(path))
        assert code == EXIT_SAT
        assert out.strip() == "sat x=0"

    def test_decide_unsat(self, tmp_path):
        path = tmp_path / "sys.lia"
        path.write_text("x - y <= 0\ny - x + 1 <= 0\n")
        code, out = run_cli("--mode", "lia-decide", "--input", str(path))
        assert code == EXIT_UNSAT
        assert out.strip() == "unsat"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_system(self, tmp_path, fmt):
        # no inequation: the decision is "sat" under the empty assignment, as propagation reaches a fixpoint
        path = tmp_path / "empty.lia"
        path.write_text("\n# no inequation\n\n")
        code, out = run_cli("--mode", "lia-decide", "--input", str(path), "--format", fmt)
        line = "sat" if fmt == "text" else json.dumps({"event": "result", "line": "sat"}, sort_keys=True)
        assert (code, out) == (EXIT_SAT, line + "\n")
        code, out = run_cli("--mode", "lia-propagate", "--input", str(path), "--format", fmt)
        assert code == EXIT_SAT and out.splitlines()[-1].endswith("fixpoint" if fmt == "text" else '"fixpoint"}')

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_decide_past_the_box_cap(self, tmp_path, capsys, fmt):
        # the 6-cycle's a-priori box has far more than 10**7 points
        path = tmp_path / "cycle.lia"
        path.write_text("".join(f"v{i} - v{i % 6 + 1} <= 0\n" for i in range(1, 6)) + "v6 - v1 + 1 <= 0\n")
        code, out = run_cli("--mode", "lia-decide", "--input", str(path), "--format", fmt)
        line = "limit" if fmt == "text" else json.dumps({"event": "result", "line": "limit"}, sort_keys=True)
        assert (code, out) == (EXIT_LIMIT, line + "\n")
        assert capsys.readouterr().err == ""


def _steps_taken(mode: str, out: str) -> int:
    if mode == "scl":
        return int(re.search(r" trail=(\d+)", out).group(1))
    if mode == "resolution":
        return json.loads(out.splitlines()[-1])["generated"]
    return sum("<- ineq" in line for line in out.splitlines())


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize(
    "mode, source",
    [
        ("scl", ["--input", "three.bs"]),
        ("scl", ["--counter-n", "3"]),
        ("resolution", ["--counter-n", "2", "--format", "json"]),
        ("resolution", ["--counter-n", "3", "--format", "json"]),
        ("lia-propagate", ["--input", "diverge.lia", "--decide", "x>=0"]),
    ],
)
def test_max_steps_caps_every_mode(tmp_path, capsys, mode, source, n):
    """--max-steps N allows N steps: SCL trail entries, decisions included; generated clauses; bound tightenings.

    A capped run ends like any other: exit 1 after the mode's limit verdict, and nothing on stderr.
    """
    (tmp_path / "three.bs").write_text("P(a) | Q(a) | R(a).\n")
    (tmp_path / "diverge.lia").write_text("x - y <= 0\ny - x + 1 <= 0\n")
    argv = [str(tmp_path / a) if a.endswith((".bs", ".lia")) else a for a in source]
    code, out = run_cli("--mode", mode, *argv, "--max-steps", str(n))
    assert code in (EXIT_SAT, EXIT_UNSAT, EXIT_LIMIT)
    assert _steps_taken(mode, out) <= n
    assert capsys.readouterr().err == ""
    if code == EXIT_LIMIT:
        last = out.splitlines()[-1]
        if mode == "scl":
            assert last == "s RESOURCE-EXCEEDED"
        elif mode == "resolution":
            assert json.loads(last)["line"] == "LimitReached"
        else:
            assert last == f"diverged steps={n}"


class TestUsageErrors:
    def test_missing_input(self):
        code, _ = run_cli("--mode", "cdcl")
        assert code == EXIT_USAGE

    def test_both_input_and_counter(self, demo_cnf):
        code, _ = run_cli("--mode", "scl", "--input", demo_cnf, "--counter-n", "3")
        assert code == EXIT_USAGE

    def test_replay_without_script(self):
        code, _ = run_cli("--mode", "resolution-replay", "--counter-n", "4")
        assert code == EXIT_USAGE

    def test_unknown_flag(self):
        code, _ = run_cli("--mode", "cdcl", "--bogus")
        assert code == EXIT_USAGE

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text("p cnf 1 1\nbroken\n")
        code, _ = run_cli("--mode", "cdcl", "--input", str(path))
        assert code == EXIT_USAGE

    def test_missing_file(self):
        code, _ = run_cli("--mode", "cdcl", "--input", "/nonexistent.cnf")
        assert code == EXIT_USAGE

    def test_decide_on_non_lia_mode(self, demo_cnf):
        code, _ = run_cli("--mode", "cdcl", "--input", demo_cnf, "--decide", "x>=0")
        assert code == EXIT_USAGE

    def test_heuristic_on_non_cdcl_mode(self, capsys):
        code, out = run_cli("--mode", "scl", "--counter-n", "2", "--heuristic", "lowest-positive")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --heuristic")

    def test_selection_on_non_resolution_mode(self, capsys):
        code, out = run_cli("--mode", "resolution-replay", "--counter-n", "4", "--replay", "r.script",
                            "--selection", "first-negative")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --selection")

    def test_precedence_on_non_resolution_mode(self, capsys):
        code, out = run_cli("--mode", "scl", "--counter-n", "2", "--precedence", "1>0")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --precedence")

    def test_max_instances_on_non_scl_mode(self, capsys):
        code, out = run_cli("--mode", "counter-experiment", "--counter-n", "2", "--max-instances", "5")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --max-instances")

    def test_decide_on_lia_decide(self, tmp_path, capsys):
        # decide_bounded takes no decisions: x<=0 would be ignored and "sat x=1" printed
        path = tmp_path / "s.lia"
        path.write_text("1 - 1*x <= 0\n1*x - 3 <= 0\n")
        code, out = run_cli("--mode", "lia-decide", "--input", str(path), "--decide", "x<=0")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --decide")

    def test_counter_n_on_input_only_mode(self, demo_cnf, capsys):
        code, out = run_cli("--mode", "cdcl", "--input", demo_cnf, "--counter-n", "3")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("error: --counter-n")

    def test_negative_max_steps(self, capsys):
        code, out = run_cli("--mode", "scl", "--counter-n", "2", "--max-steps", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: --max-steps must be non-negative\n"

    @pytest.mark.parametrize("argv, err", [
        (("--mode", "scl", "--counter-n", "0"), "--counter-n must be positive"),
        (("--mode", "scl", "--counter-n", "2", "--max-instances", "0"), "--max-instances must be positive"),
        (("--mode", "counter-experiment", "--counter-n", "0"), "--counter-n must be within 1..12"),
        (("--mode", "counter-experiment", "--counter-n", "13"), "--counter-n must be within 1..12"),
    ])
    def test_out_of_range_value(self, argv, err, capsys):
        code, out = run_cli(*argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: {err}\n"

    def test_replay_step_names_the_missing_literal(self, tmp_path, capsys):
        script = tmp_path / "bad.script"
        script.write_text("1.1 Res 2.3\n")
        code, out = run_cli("--mode", "resolution-replay", "--counter-n", "2", "--replay", str(script))
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == "error: step 1: clause 2 has no literal 3\n"


# the modes that read each flag, as the README lists them
FLAG_READERS = {
    "--input": {"cdcl", "scl", "resolution", "resolution-replay", "lia-propagate", "lia-decide"},
    "--counter-n": {"scl", "resolution", "resolution-replay", "counter-experiment"},
    "--selection": {"resolution"},
    "--precedence": {"resolution"},
    "--heuristic": {"cdcl"},
    "--max-steps": {"scl", "resolution", "lia-propagate"},
    "--max-instances": {"scl"},
    "--replay": {"resolution-replay"},
    "--decide": {"lia-propagate"},
}


def _mode_flag_pairs():
    actions = build_parser()._actions
    modes = next(a.choices for a in actions if a.dest == "mode")
    flags = [a.option_strings[0] for a in actions if a.dest not in ("help", "mode", "format")]
    return [(mode, flag) for mode in modes for flag in flags]


@pytest.mark.parametrize("mode, flag", _mode_flag_pairs())
def test_a_flag_the_mode_does_not_read_is_a_usage_error(tmp_path, capsys, mode, flag):
    files = {
        "p.cnf": DEMO_DIMACS,
        "p.bs": "P(0) | P(1).\n-P(0).\n-P(1).\n",
        "p.lia": "x <= 0\n-x <= 0\n",
        "p.script": "1.1 Res 2.1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name.split(".")[1]: str(tmp_path / name) for name in files}
    argv = {
        "cdcl": {"--input": path["cnf"]},
        "scl": {"--input": path["bs"]},
        "resolution": {"--input": path["bs"]},
        "resolution-replay": {"--input": path["bs"], "--replay": path["script"]},
        "lia-propagate": {"--input": path["lia"]},
        "lia-decide": {"--input": path["lia"]},
        "counter-experiment": {"--counter-n": "2"},
    }[mode]
    if flag == "--counter-n" and mode in FLAG_READERS[flag]:
        argv.pop("--input", None)  # the problem comes from exactly one of the two
    argv[flag] = {
        "--input": argv.get("--input", "/nonexistent"),
        "--counter-n": "1",
        "--selection": "first-negative",
        "--precedence": "1>0",
        "--heuristic": "lowest-positive",
        "--max-steps": "5",
        "--max-instances": "100",
        "--replay": path["script"],
        "--decide": "x>=0",
    }[flag]
    code, out = run_cli("--mode", mode, *(word for pair in argv.items() for word in pair))
    err = capsys.readouterr().err
    if mode in FLAG_READERS[flag]:
        assert code != EXIT_USAGE and err == ""
    else:
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {flag} does not apply to mode {mode}\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--mode", "scl", "--counter-n", "4"),
            ("--mode", "resolution", "--counter-n", "3", "--selection", "first-negative"),
        ],
    )
    def test_byte_identical_traces(self, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second

    def test_cdcl_trace_stable(self, demo_cnf):
        argv = ("--mode", "cdcl", "--input", demo_cnf)
        assert run_cli(*argv) == run_cli(*argv)

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys):
        # later calls reuse the parser; none may see a flag of an earlier call
        path = tmp_path / "sys.lia"
        path.write_text("x - y <= 0\ny - x + 1 <= 0\n")
        lia = ("--mode", "lia-propagate", "--input", str(path), "--max-steps", "3")
        runs = [
            lia + ("--decide", "x>=0"),
            lia,
            lia + ("--decide",),
            lia + ("--decide", "y>=2", "--decide", "x<5", "--format", "json"),
        ]

        def outcome(argv):
            code, out = run_cli(*argv)
            return code, out, capsys.readouterr().err

        fresh = []
        for argv in runs:
            build_parser.cache_clear()
            fresh.append(outcome(argv))
        build_parser.cache_clear()
        assert [outcome(argv) for argv in runs] == fresh
        assert build_parser() is build_parser()
        assert [code for code, _, _ in fresh] == [EXIT_LIMIT, EXIT_SAT, EXIT_USAGE, EXIT_LIMIT]
        assert "decision" not in fresh[1][1] and "expected one argument" in fresh[2][2]


class TestJsonFormat:
    def test_lines_are_json(self):
        code, out = run_cli("--mode", "scl", "--counter-n", "2", "--format", "json")
        assert code == EXIT_UNSAT
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["event"] == "scl"
        assert records[-1] == {"event": "result", "line": "s UNSATISFIABLE"}

    def test_experiment_json(self):
        code, out = run_cli(
            "--mode", "counter-experiment", "--counter-n", "3", "--format", "json"
        )
        assert code == EXIT_SAT
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["scl_propagations"] for r in rows] == [2, 4, 8]


class TestCounterExperiment:
    def test_rows(self):
        row = counter_experiment(4)[-1]
        assert row.n == 4
        assert row.scl_propagations == 16
        assert row.scl_result == "unsat" and row.resolution_result == "unsat"
        assert row.resolution_generated == 8

    def test_monotone_and_linear(self):
        rows = counter_experiment(8)
        scl = [r.scl_propagations for r in rows]
        res = [r.resolution_generated for r in rows]
        assert scl == [2**n for n in range(1, 9)]
        assert res == sorted(res)
        envelope = max(r.resolution_generated / r.n for r in rows[:4])
        assert all(r.resolution_generated <= (envelope + 1) * r.n for r in rows)

    def test_cap(self):
        with pytest.raises(ValueError):
            counter_experiment(13)

    def test_cli_table(self):
        code, out = run_cli("--mode", "counter-experiment", "--counter-n", "2")
        assert code == EXIT_SAT
        assert out.splitlines()[0].startswith("n  scl_propagations")


def test_precedence_flag():
    # with the default ordering the satisfiable subset saturates silently;
    # inverting the constant precedence makes the negative carry literals
    # maximal, so resolutions fire and the full set is refuted
    code, out = run_cli(
        "--mode", "resolution", "--counter-n", "2", "--selection", "none",
        "--precedence", "0>1",
    )
    assert code == EXIT_UNSAT
    assert out.splitlines()[-1] == "Unsat"
    assert len(out.splitlines()) > 1  # derived clauses were logged


def test_precedence_naming_a_symbol_twice(capsys):
    # the later position would silently rank 1 below 0
    code, out = run_cli(
        "--mode", "resolution", "--counter-n", "2", "--selection", "none",
        "--precedence", "1>0>1",
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: precedence names '1' twice\n"


def test_precedence_naming_no_symbol_of_the_problem(capsys):
    # a misspelt symbol would leave the default ordering in place without a word
    code, out = run_cli("--mode", "resolution", "--counter-n", "3", "--precedence", "Q>P")
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: precedence names 'Q', which is no symbol of the problem\n"


@pytest.mark.parametrize("precedence", ["1>>0", ">", "1>", " > 0", ""])
def test_precedence_with_an_empty_name(capsys, precedence):
    code, out = run_cli(
        "--mode", "resolution", "--counter-n", "2", "--selection", "none",
        "--precedence", precedence,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: precedence has an empty name\n"


# A random set like acceptance test 8's (its generator at seed 12): first-negative
# saturation generates 231 clauses and keeps 66.
RANDOM_BS = """\
1 : P(x1,1) | P(x1,x2) | -P(x2,1).
2 : P(1,x2) | P(x1,1) | -P(1,0).
3 : P(x2,0) | P(0,1).
4 : -P(x2,0) | -P(1,x1).
"""

# Reads the runs as JSON and first creates a number of unused variables, which
# moves every later term to another address.
DETERMINISM_RUNS = """\
import io, json, sys
from clausekit.cli import main
from clausekit.logic import Variable
padding = [Variable(f"pad{i}") for i in range(int(sys.argv[2]))]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    code = main(argv, out)
    sys.stdout.write(f"{argv}\\n{code}\\n{out.getvalue()}")
"""


def test_output_does_not_depend_on_hashing(tmp_path):
    """Terms hash by address, so no output may follow the order of a set of terms.

    Fresh interpreters with different string hash seeds and their terms at
    different addresses run the same resolution, replay and SCL cases, and
    print the same bytes.
    """
    (tmp_path / "random.bs").write_text(RANDOM_BS)
    script = "".join(f"{a}.{b} Res {c}.{d}\n" for a, b, c, d in linear_counter_script(6))
    (tmp_path / "counter6.script").write_text(script)
    saturate = ["--mode", "resolution", "--selection", "first-negative"]
    argvs = [
        [*saturate, "--counter-n", "5"],
        [*saturate, "--counter-n", "5", "--format", "json"],
        [*saturate, "--input", str(tmp_path / "random.bs")],
        ["--mode", "resolution-replay", "--counter-n", "6", "--replay", str(tmp_path / "counter6.script")],
        ["--mode", "scl", "--counter-n", "4"],
    ]
    src = str(Path(clausekit.__file__).parent.parent)
    outputs = []
    for seed, padding in (("1", "0"), ("2", "1")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", DETERMINISM_RUNS, json.dumps(argvs), padding],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"Unsat\n") == 2 and b"Saturated(" in outputs[0] and b"s UNSATISFIABLE" in outputs[0]
