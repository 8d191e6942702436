"""The five benchmark workloads, generated from a seed.

A workload is a fixed list of verdicts and a number of passes over it.  A
verdict is one `clausekit.cli.main` call: its arguments, the input files it
reads, the exit codes that count as an answer, and a check of its output
against an independent computation (see checkers.py).  The same seed and run
length always give the same list, so every run does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checkers

SAT, UNSAT, LIMIT = 10, 20, 1


@dataclass
class Verdict:
    label: str
    argv: list[str]  # "{dir}/" prefixes name files in the run's input directory
    files: dict[str, str]
    exit_codes: tuple[int, ...]
    check: Callable[[str], object]

    def args_in(self, directory: str) -> list[str]:
        return [a.replace("{dir}", directory) for a in self.argv]


@dataclass
class Workload:
    verdicts: list[Verdict]
    passes: int


# Normalized seconds one pass takes (see README "Timing"); a run makes about
# --seconds of verdict time, in whole passes, and never fewer than MIN_PASSES.
PASS_SECONDS = {"random-3cnf": 3.6, "scl-counter": 1.4, "scl-sparse": 1.4, "saturation": 0.33, "lia": 3.4}
MIN_PASSES = 3
CNF_CORPUS_SEED = 4260
CNF_FORMULAS = 17


def _passes(name: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))


# ---------------------------------------------------------------------------
# Counter family, written as clause text
# ---------------------------------------------------------------------------

# (predicate, zero, one): zero sorts below one, as "0" below "1", so every
# renaming keeps the engines' atom order and the KBO precedence.  All names
# have one letter, so no renaming costs more string work than another.
COUNTER_SYMBOLS = [
    ("P", "0", "1"), ("Q", "a", "b"), ("R", "f", "t"), ("S", "n", "p"),
    ("T", "k", "m"), ("N", "0", "1"), ("C", "c", "d"), ("B", "g", "h"),
]


def counter_text(n: int, symbols: tuple[str, str, str], satisfiable: bool = False) -> str:
    """The n-bit counter: start unit, one carry clause per bit, negated final value."""
    pred, zero, one = symbols

    def atom(args: list[str]) -> str:
        return f"{pred}({','.join(args)})"

    lines = [f"1 : {atom([zero] * n)}."]
    for i in range(1, n + 1):
        prefix = [f"x{j}" for j in range(1, n - i + 1)]
        lines.append(
            f"{i + 1} : -{atom(prefix + [zero] + [one] * (i - 1))} | {atom(prefix + [one] + [zero] * (i - 1))}."
        )
    if not satisfiable:
        lines.append(f"{n + 2} : -{atom([one] * n)}.")
    return "\n".join(lines) + "\n"


def linear_script(n: int) -> str:
    """The 2n-step linear refutation of the counter, as `L.i Res R.j` lines.

    Per bit i >= 2: resolve the current fill clause with carry clause i (a
    jump of 2**(i-1)), then the jump with the fill (the i low bits); finally
    resolve the full jump with the start unit and with the negated final value.
    """
    steps = []
    fill, next_id = 2, n + 3
    for i in range(2, n + 1):
        steps.append(f"{fill}.2 Res {i + 1}.1")
        steps.append(f"{next_id}.2 Res {fill}.1")
        fill, next_id = next_id + 1, next_id + 2
    steps.append(f"{fill}.1 Res 1.1")
    steps.append(f"{next_id}.1 Res {n + 2}.1")
    return "\n".join(steps) + "\n"


# ---------------------------------------------------------------------------
# random-3cnf
# ---------------------------------------------------------------------------


def random_3cnf(rng: random.Random, num_vars: int = 50, ratio: float = 4.26) -> str:
    num_clauses = round(num_vars * ratio)
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        atoms = rng.sample(range(1, num_vars + 1), 3)
        lines.append(" ".join(str(a if rng.random() < 0.5 else -a) for a in atoms) + " 0")
    return "\n".join(lines) + "\n"


def build_random_3cnf(seed: int, seconds: int) -> Workload:
    """A fixed corpus of CNF_FORMULAS formulas, solved in an order drawn from the seed.

    The formulas come from CNF_CORPUS_SEED, not from the run's seed: their
    solve times spread over two orders of magnitude, so the median of a few
    dozen freshly drawn formulas moves by 20-37% from seed to seed, more than
    any bound a regression gate can use (see README).
    """
    corpus = random.Random(CNF_CORPUS_SEED)
    verdicts = []
    for i in range(CNF_FORMULAS):
        text = random_3cnf(corpus)
        verdicts.append(
            Verdict(f"cnf{i}", ["--mode", "cdcl", "--input", f"{{dir}}/cnf{i}.cnf"], {f"cnf{i}.cnf": text},
                    (SAT, UNSAT), partial(checkers.check_cdcl, text))
        )
    random.Random(seed).shuffle(verdicts)
    return Workload(verdicts, _passes("random-3cnf", seconds))


# ---------------------------------------------------------------------------
# scl-counter
# ---------------------------------------------------------------------------


def _expect(verdict: str, check: Callable[[str], str], output: str) -> None:
    got = check(output)
    if got != verdict:
        raise checkers.CheckError(f"verdict {got}, expected {verdict}")


def build_scl_counter(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    verdicts = []
    for n in range(8, 13):
        for satisfiable in (False, True):
            text = counter_text(n, rng.choice(COUNTER_SYMBOLS), satisfiable)
            name = f"counter{n}{'sat' if satisfiable else ''}.bs"
            if satisfiable:
                check = partial(_expect, "sat", partial(checkers.check_scl, text))
            else:
                check = partial(_expect, "unsat", partial(checkers.check_scl, text, propagations=2**n))
            verdicts.append(Verdict(name, ["--mode", "scl", "--input", f"{{dir}}/{name}"], {name: text},
                                    (SAT,) if satisfiable else (UNSAT,), check))
    verdicts.append(Verdict("experiment12", ["--mode", "counter-experiment", "--counter-n", "12"], {}, (SAT,),
                            partial(checkers.check_counter_experiment, n_max=12)))
    rng.shuffle(verdicts)
    return Workload(verdicts, _passes("scl-counter", seconds))


# ---------------------------------------------------------------------------
# scl-sparse: Horn chains of arity-3 predicates
# ---------------------------------------------------------------------------

SPARSE_PREDICATES = ("A", "B", "C", "D")
SPARSE_SIZES = tuple(range(8, 17))
SPARSE_FACTS = 10


def horn_chain_text(rng: random.Random, constants: int) -> str:
    """A -> B -> C -> D rules with shuffled arguments, ten A facts, one derivable -D goal.

    Three rules of three variables each give 3 * k**3 eager ground instances
    over k constants, while the trail needs only a few dozen propagations.
    """
    consts = [f"c{i:02d}" for i in range(constants)]
    facts: set[tuple[str, ...]] = set()
    while len(facts) < SPARSE_FACTS:
        # every constant occurs, so the Herbrand domain has exactly k constants
        slots = consts + [rng.choice(consts) for _ in range(3 * SPARSE_FACTS - constants)]
        rng.shuffle(slots)
        facts = {tuple(slots[i:i + 3]) for i in range(0, len(slots), 3)}
    facts = sorted(facts)
    perms = [rng.sample(range(3), 3) for _ in range(3)]
    variables = ["x1", "x2", "x3"]
    lines = []
    for i, fact in enumerate(facts, start=1):
        lines.append(f"{i} : A({','.join(fact)}).")
    cid = len(facts) + 1
    for (body, head), perm in zip(zip(SPARSE_PREDICATES, SPARSE_PREDICATES[1:]), perms):
        args = ",".join(variables[p] for p in perm)
        lines.append(f"{cid} : -{body}({','.join(variables)}) | {head}({args}).")
        cid += 1
    goal = list(rng.choice(facts))
    for perm in perms:
        goal = [goal[p] for p in perm]
    lines.append(f"{cid} : -D({','.join(goal)}).")
    return "\n".join(lines) + "\n"


def _sparse_check(text: str, output: str) -> None:
    got = checkers.check_scl(text, output)
    expected = checkers.forward_chaining_verdict(text)
    if got != expected:
        raise checkers.CheckError(f"SCL says {got}, forward chaining says {expected}")


def build_scl_sparse(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    verdicts = []
    for k in SPARSE_SIZES:
        text = horn_chain_text(rng, k)
        name = f"horn{k}.bs"
        verdicts.append(Verdict(name, ["--mode", "scl", "--input", f"{{dir}}/{name}"], {name: text},
                                (SAT, UNSAT), partial(_sparse_check, text)))
    rng.shuffle(verdicts)
    return Workload(verdicts, _passes("scl-sparse", seconds))


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def random_bs_text(rng: random.Random) -> str:
    """A set like acceptance test 8's, with at most two literals per clause.

    Three-literal sets have a heavy tail (about one in a hundred takes over a
    second, and some generate thousands of clauses), which would make a run's
    work depend on the seed.
    """
    arity = rng.randint(1, 3)
    terms = ["0", "1", "x1", "x2"]
    lines = []
    for cid in range(1, rng.randint(2, 8) + 1):
        lits = []
        for _ in range(rng.randint(1, 2)):
            atom = f"P({','.join(rng.choice(terms) for _ in range(arity))})"
            lits.append(atom if rng.random() < 0.5 else "-" + atom)
        lines.append(f"{cid} : {' | '.join(lits)}.")
    return "\n".join(lines) + "\n"


def build_saturation(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    verdicts = []
    for n in (5, 6, 7):
        text = counter_text(n, rng.choice(COUNTER_SYMBOLS))
        name = f"counter{n}.bs"
        verdicts.append(Verdict(f"fneg{n}", ["--mode", "resolution", "--input", f"{{dir}}/{name}",
                                             "--selection", "first-negative"], {name: text}, (UNSAT,),
                                checkers.check_refuted))
    for n in range(4, 13):
        text = counter_text(n, rng.choice(COUNTER_SYMBOLS), satisfiable=True)
        name = f"subset{n}.bs"
        verdicts.append(Verdict(f"subset{n}", ["--mode", "resolution", "--input", f"{{dir}}/{name}",
                                               "--format", "json"], {name: text}, (SAT,),
                                partial(checkers.check_zero_inference_saturation, text)))
    for n in range(4, 13):
        text = counter_text(n, rng.choice(COUNTER_SYMBOLS))
        name, script = f"replay{n}.bs", f"replay{n}.script"
        verdicts.append(Verdict(f"replay{n}", ["--mode", "resolution-replay", "--input", f"{{dir}}/{name}",
                                               "--replay", f"{{dir}}/{script}"],
                                {name: text, script: linear_script(n)}, (UNSAT,),
                                partial(checkers.check_replay, steps=2 * n)))
    for i in range(6):
        text = random_bs_text(rng)
        name = f"random{i}.bs"
        selection = rng.choice(["none", "first-negative"])
        verdicts.append(Verdict(f"random{i}", ["--mode", "resolution", "--input", f"{{dir}}/{name}",
                                               "--selection", selection], {name: text}, (SAT, UNSAT),
                                partial(checkers.check_saturation_verdict, text)))
    rng.shuffle(verdicts)
    return Workload(verdicts, _passes("saturation", seconds))


# ---------------------------------------------------------------------------
# lia
# ---------------------------------------------------------------------------


def _ineq(coeffs: list[tuple[int, str]], const: int) -> str:
    terms = " ".join(f"{'-' if a < 0 else '+'} {abs(a)}*{v}" for a, v in coeffs)
    if const:
        terms += f" {'-' if const < 0 else '+'} {abs(const)}"
    return terms.lstrip("+ ") + " <= 0"


def _lia_verdict(label: str, lines: list[str], decisions: list[str], max_steps: int,
                 expected: str, exit_code: int) -> Verdict:
    text = "\n".join(lines) + "\n"
    argv = ["--mode", "lia-propagate", "--input", f"{{dir}}/{label}.lia", "--max-steps", str(max_steps)]
    for d in decisions:
        argv += ["--decide", d]
    check = partial(_expect, expected, partial(checkers.check_lia_propagate, text, decisions, max_steps))
    return Verdict(label, argv, {f"{label}.lia": text}, (exit_code,), check)


def build_lia(seed: int, seconds: int) -> Workload:
    rng = random.Random(seed)
    verdicts = []
    # the two-variable divergence witness: x <= y and y < x, from x >= 0
    for budget in (100, 1000, 10_000):
        x, y = rng.choice([("x", "y"), ("p", "q"), ("a", "b"), ("s", "t")])
        lines = [_ineq([(1, x), (-1, y)], 0), _ineq([(1, y), (-1, x)], rng.randint(1, 3))]
        verdicts.append(_lia_verdict(f"witness{budget}", lines, [f"{x}>=0"], budget, "diverged", LIMIT))
    # cyclic chains x1 <= x2 <= ... <= xn <= x1 - c, which diverge from x1 >= 0
    for n in (10, 25, 50, 100):
        lines = [_ineq([(1, f"v{i}"), (-1, f"v{i + 1}")], 0) for i in range(1, n)]
        lines.append(_ineq([(1, f"v{n}"), (-1, "v1")], rng.randint(1, 3)))
        verdicts.append(_lia_verdict(f"cycle{n}", lines, ["v1>=0"], 20 * n, "diverged", LIMIT))
    # open chains x(i+1) >= x(i) + c(i) between x1 >= 0 and an upper bound on the
    # last variable: a fixpoint when the bound leaves room, a conflict when not
    for length in (20, 40):
        for feasible in (True, False):
            steps = [rng.randint(0, 2) for _ in range(length - 1)]
            lines = [_ineq([(1, f"v{i}"), (-1, f"v{i + 1}")], c) for i, c in enumerate(steps, start=1)]
            top = sum(steps) + (rng.randint(0, 3) if feasible else -rng.randint(1, 3))
            label = f"chain{length}{'fix' if feasible else 'conflict'}"
            verdicts.append(_lia_verdict(label, lines, ["v1>=0", f"v{length}<={top}"], 10_000,
                                         "fixpoint" if feasible else "conflict", SAT if feasible else UNSAT))
    # small systems for the bounded decision procedure, box volume kept small
    found = 0
    while found < 4:
        variables = ["x", "y", "z"][: rng.randint(1, 2)]
        lines = []
        for _ in range(rng.randint(1, 2)):
            coeffs = [(rng.choice([-2, -1, 1, 2]), v) for v in variables if rng.random() < 0.8]
            lines.append(_ineq(coeffs or [(1, rng.choice(variables))], rng.randint(-2, 2)))
        text = "\n".join(lines) + "\n"
        system = checkers.parse_lia(text)
        if (2 * checkers.apriori_radius(system) + 1) ** len({v for c, _ in system for v in c}) > 2_000:
            continue
        label = f"decide{found}"
        verdicts.append(Verdict(label, ["--mode", "lia-decide", "--input", f"{{dir}}/{label}.lia"],
                                {f"{label}.lia": text}, (SAT, UNSAT), partial(checkers.check_lia_decide, text)))
        found += 1
    rng.shuffle(verdicts)
    return Workload(verdicts, _passes("lia", seconds))


GENERATORS = {
    "random-3cnf": build_random_3cnf,
    "scl-counter": build_scl_counter,
    "scl-sparse": build_scl_sparse,
    "saturation": build_saturation,
    "lia": build_lia,
}


def build(name: str, seed: int, seconds: int) -> Workload:
    return GENERATORS[name](seed, seconds)
