"""perfbench/tracer.py still finds every name it wraps and every count it reads, so `--trace 1` runs."""

import importlib.util
import io
from pathlib import Path

import pytest

from clausekit import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


class StubClock:
    sampling_s = 0.0


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_scl_and_cdcl_runs(tmp_path):
    cnf = tmp_path / "demo.cnf"
    cnf.write_text("p cnf 4 3\n1 2 3 0\n-3 4 0\n-4 1 2 0\n")
    bs = tmp_path / "learn.bs"  # deciding P(a) makes clause 2 false at level 1
    bs.write_text("-P(a) | Q(a).\n-P(a) | -Q(a).\nP(b) | R(b).\n")
    main = cli.main
    tracer = load_tracer().Tracer(StubClock())
    tracer.install()
    try:
        assert cli.main(["--mode", "scl", "--counter-n", "4"], out=io.StringIO()) == cli.EXIT_UNSAT
        assert cli.main(["--mode", "scl", "--input", str(bs)], out=io.StringIO()) == cli.EXIT_SAT
        assert cli.main(["--mode", "cdcl", "--input", str(cnf)], out=io.StringIO()) == cli.EXIT_SAT
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert tracer.counts["scl.propagations"] == 17 and tracer.counts["scl.decisions"] == 6
    assert tracer.counts["scl.instances"] > 0 and tracer.calls["scl.classify"] > 0
    assert tracer.counts["cdcl.decide"] > 0 and tracer.counts["cdcl.sat"] == 1
    # each trail-engine layer is still reached through the name the tracer wraps
    for key in ("scl.propagate", "scl.analyze", "cdcl.propagate", "cdcl.decide", "cdcl.analyze", "cdcl.backjump"):
        assert tracer.calls[key] > 0, key
    metrics = tracer.metrics(1.0, 0, 0)
    assert metrics["scl.propagations"] == (17, "count") and metrics["cdcl.decide_ms"][0] >= 0


FILES = {
    "diverge.lia": "x - y <= 0\ny - x + 1 <= 0\n",
    "sat.lia": "1 - 1*x - 1*y <= 0\n",
    "linear2.script": "2.2 Res 3.1\n5.2 Res 2.1\n6.1 Res 1.1\n7.1 Res 4.1\n",
}


@pytest.mark.parametrize(
    "argv, code, metrics, calls",
    [
        (["--mode", "resolution", "--counter-n", "2", "--selection", "first-negative"], cli.EXIT_UNSAT,
         {"resolution.generated": 4, "resolution.kept": 3}, {"resolution.saturate": 1}),
        (["--mode", "resolution-replay", "--counter-n", "2", "--replay", "{dir}/linear2.script"], cli.EXIT_UNSAT,
         {}, {"resolution.replay": 1, "formats.parse": 1}),
        (["--mode", "lia-propagate", "--input", "{dir}/diverge.lia", "--decide", "x>=0", "--max-steps", "3"],
         cli.EXIT_LIMIT, {"lia.tightenings": 3},
         {"lia.propagate": 1, "lia.implied_bound": 6, "lia.conflict_scan": 4}),
        (["--mode", "lia-decide", "--input", "{dir}/sat.lia"], cli.EXIT_SAT, {}, {"lia.decide": 1}),
        # each row checks a linear refutation (wrapped in cli) that replays the script (wrapped in resolution)
        (["--mode", "counter-experiment", "--counter-n", "2"], cli.EXIT_SAT,
         {"scl.propagations": 6}, {"scl.run": 2, "resolution.replay": 4, "ordering.config": 2}),
    ],
)
def test_traced_runs_of_the_other_modes(tmp_path, argv, code, metrics, calls):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    tracer = load_tracer().Tracer(StubClock())
    tracer.install()
    try:
        got = cli.main([a.replace("{dir}", str(tmp_path)) for a in argv], out=io.StringIO())
    finally:
        tracer.uninstall()
    assert got == code
    measured = tracer.metrics(1.0, 0, 0)
    assert {key: measured[key][0] for key in metrics} == metrics
    assert {key: tracer.calls[key] for key in calls} == calls


def test_traced_saturation_meets_only_indexed_candidates():
    """First-negative saturation of counter 5 tests subsumption only on clauses its literal index files."""
    tracer = load_tracer().Tracer(StubClock())
    tracer.install()
    try:
        argv = ["--mode", "resolution", "--counter-n", "5", "--selection", "first-negative"]
        assert cli.main(argv, out=io.StringIO()) == cli.EXIT_UNSAT
    finally:
        tracer.uninstall()
    measured = tracer.metrics(1.0, 0, 0)
    assert (measured["resolution.generated"][0], measured["resolution.kept"][0]) == (32, 31)
    assert measured["resolution.subsumes_calls"][0] <= 2 * 31
