"""Work budgets: the bytecode instructions of a fixed sample of benchmark verdicts, against a budget each.

`tests/instruction_counts.py` counts one warm pass of its `budgets` sample
through `clausekit.cli.main` (about 6M instructions, a few seconds), per
module, in a process of its own under PYTHONHASHSEED=0.  An instruction
count is exact, so unlike a wall-clock gate this cannot flake.  Each group's
budget is its per-module count in `work_budgets.json`, keyed by Python minor
version, since CPython's bytecode changes between minor versions.  A count
more than 1% above its budget fails with the per-module split and the
largest functions of the module that rose most; a count more
than 5% below it fails too, so that a saving is locked in by lowering the
budget.  Work done in C counts as one instruction, so a budget catches added
Python work, not every slowdown.

    python tests/test_work_budgets.py

writes the running version's budgets from this tree's `src`.
"""

import json
import sys
from pathlib import Path

import pytest

from instruction_counts import by_module, counted, over

BUDGETS = Path(__file__).with_name("work_budgets.json")
SRC = Path(__file__).resolve().parent.parent / "src"
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
UNDER = 0.05  # a count more than this share below its budget asks for the budget to be lowered
WRITER = "python tests/test_work_budgets.py"


def test_work_stays_within_its_budgets():
    budgets = json.loads(BUDGETS.read_text()).get(VERSION)
    if budgets is None:
        pytest.skip(f"no work budgets for Python {VERSION}; `{WRITER}` writes them")
    now = counted(str(SRC), "budgets")
    assert sorted(now) == sorted(budgets)
    failures = []
    for name, budget in budgets.items():
        report = over(name, budget, now[name])
        if report is not None:
            failures.append(report)
        elif sum(now[name].values()) < sum(budget.values()) * (1 - UNDER):
            failures.append(f"{name}: {sum(now[name].values())} instructions, more than {UNDER:.0%} below its "
                            f"budget of {sum(budget.values())}; lower the budget with `{WRITER}`")
    assert not failures, "\n".join(failures)


if __name__ == "__main__":
    table = json.loads(BUDGETS.read_text()) if BUDGETS.exists() else {}
    table[VERSION] = {name: by_module(functions) for name, functions in counted(str(SRC), "budgets").items()}
    BUDGETS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for name, modules in table[VERSION].items():
        print(name, sum(modules.values()))
