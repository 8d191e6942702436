"""perfbench/tracer.py still finds every name it wraps, so `perfbench/run.py --trace 1` runs."""

import importlib.util
import io
from pathlib import Path

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
    main = cli.main
    tracer = load_tracer().Tracer(StubClock())
    tracer.install()
    try:
        assert cli.main(["--mode", "scl", "--counter-n", "4"], out=io.StringIO()) == cli.EXIT_UNSAT
        assert cli.main(["--mode", "cdcl", "--input", str(cnf)], out=io.StringIO()) == cli.EXIT_SAT
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert tracer.counts["scl.propagations"] == 16 and tracer.counts["scl.decisions"] == 0
    assert tracer.counts["scl.instances"] > 0 and tracer.calls["scl.classify"] > 0
    assert tracer.counts["cdcl.decide"] > 0 and tracer.counts["cdcl.sat"] == 1
    metrics = tracer.metrics(1.0, 0, 0)
    assert metrics["scl.propagations"] == (16, "count") and metrics["cdcl.decide_ms"][0] >= 0
