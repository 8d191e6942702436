"""Independent checkers for clausekit's CLI output.

Nothing here imports clausekit.  Every checker parses the input text and the
trace text itself and recomputes what the engine claims: CDCL traces are
replayed with a reverse-unit-propagation (RUP) check of every learned clause,
SCL traces are replayed against the ground instances they name, Horn inputs are
decided by forward chaining, random BS sets by truth tables, and every LIA
bound line is recomputed in integer arithmetic.  A checker returns nothing on
success and raises CheckError naming the first wrong line otherwise.
"""

from __future__ import annotations

import itertools
import json
import re

VARIABLE_PREFIXES = ("x", "y", "z", "u", "v", "w")


class CheckError(Exception):
    """The output contradicts an independent recomputation."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Propositional: DIMACS input, CDCL trace replay with RUP
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, ...]]]:
    num_vars = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            num_vars = int(line.split()[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    return num_vars, clauses


def _unit_propagation_conflicts(
    clauses: list[tuple[int, ...]], occurs: dict[int, list[int]], assumptions: list[int]
) -> bool:
    """Whether unit propagation from the assumptions reaches a false clause."""
    value: dict[int, bool] = {}
    queue: list[int] = []

    def assign(lit: int) -> bool:
        v = value.get(abs(lit))
        if v is None:
            value[abs(lit)] = lit > 0
            queue.append(lit)
            return True
        return v == (lit > 0)

    for lit in assumptions:
        if not assign(lit):
            return True
    for c in clauses:
        if len(c) == 1 and not assign(c[0]):
            return True
        if not c:
            return True
    head = 0
    while head < len(queue):
        lit = queue[head]
        head += 1
        for ci in occurs.get(-lit, ()):
            unassigned = None
            open_count = 0
            satisfied = False
            for l in clauses[ci]:
                v = value.get(abs(l))
                if v is None:
                    open_count += 1
                    unassigned = l
                elif v == (l > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if open_count == 0:
                return True
            if open_count == 1:
                assign(unassigned)
    return False


class _ClauseDb:
    def __init__(self, clauses: list[tuple[int, ...]]):
        self.clauses: list[tuple[int, ...]] = []
        self.occurs: dict[int, list[int]] = {}
        for c in clauses:
            self.add(c)

    def add(self, lits: tuple[int, ...]) -> None:
        idx = len(self.clauses)
        self.clauses.append(lits)
        for l in set(lits):
            self.occurs.setdefault(l, []).append(idx)

    def rup(self, lits: tuple[int, ...]) -> bool:
        return _unit_propagation_conflicts(self.clauses, self.occurs, [-l for l in lits])


def check_cdcl(dimacs: str, output: str) -> str:
    """Replay a CDCL text trace; returns 'sat' or 'unsat'.

    Every propagation must come from a clause that is unit at that point,
    every conflict clause must be false, every learned clause must be RUP with
    respect to the input plus the clauses learned before it, and the verdict
    must be a model of the input or a level-0 conflict whose database derives
    the empty clause by unit propagation.
    """
    num_vars, inputs = parse_dimacs(dimacs)
    by_id = {i + 1: c for i, c in enumerate(inputs)}
    db = _ClauseDb(inputs)
    next_id = len(inputs) + 1
    value: dict[int, tuple[bool, int]] = {}
    trail: list[tuple[int, int]] = []
    level = 0
    conflict = None
    lines = output.splitlines()

    def assign(lit: int, where: str) -> None:
        _require(abs(lit) not in value, f"{where}: atom {abs(lit)} is already assigned")
        value[abs(lit)] = (lit > 0, level)
        trail.append((lit, level))

    def is_false(lit: int) -> bool:
        v = value.get(abs(lit))
        return v is not None and v[0] != (lit > 0)

    for no, line in enumerate(lines, start=1):
        where = f"line {no} {line!r}"
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "decide":
            _require(conflict is None, f"{where}: decision with a pending conflict")
            _require(int(parts[2][1:]) == level + 1, f"{where}: decision level skips")
            level += 1
            assign(int(parts[1]), where)
        elif kind == "propagate":
            lit, cid = int(parts[1]), int(parts[4])
            clause = by_id.get(cid)
            _require(clause is not None and lit in clause, f"{where}: literal not in clause {cid}")
            _require(all(is_false(l) for l in clause if l != lit), f"{where}: clause {cid} is not unit")
            assign(lit, where)
        elif kind == "conflict":
            cid = int(parts[2])
            clause = by_id.get(cid)
            _require(clause is not None and all(is_false(l) for l in clause), f"{where}: clause {cid} is not false")
            conflict = cid
        elif kind == "learn":
            _require(conflict is not None, f"{where}: learning without a conflict")
            lits = tuple(int(t) for t in parts[1:-2])
            backjump = int(parts[-1])
            _require(db.rup(lits), f"{where}: learned clause is not RUP")
            _require(0 <= backjump < level, f"{where}: backjump level out of range")
            while trail and trail[-1][1] > backjump:
                del value[abs(trail.pop()[0])]
            level = backjump
            open_lits = [l for l in lits if abs(l) not in value]
            _require(len(open_lits) == 1 and all(is_false(l) for l in lits if l not in open_lits),
                     f"{where}: learned clause does not assert after the backjump")
            db.add(lits)
            by_id[next_id] = lits
            next_id += 1
            conflict = None
            assign(open_lits[0], where)
        elif line == "s SATISFIABLE":
            _require(conflict is None, f"{where}: sat with a pending conflict")
            _require(no + 1 <= len(lines) and lines[no].startswith("v "), "sat without a model line")
            model = [int(t) for t in lines[no].split()[1:]]
            _require(model[-1] == 0, "model line is not zero-terminated")
            assignment = {abs(l): l > 0 for l in model[:-1]}
            _require(sorted(assignment) == list(range(1, num_vars + 1)), "model is not total")
            _require(all(assignment[a] == v for a, (v, _) in value.items()), "model disagrees with the trail")
            for i, c in enumerate(inputs, start=1):
                _require(any(assignment[abs(l)] == (l > 0) for l in c), f"model falsifies clause {i}")
            return "sat"
        elif line == "s UNSATISFIABLE":
            _require(conflict is not None and level == 0, f"{where}: unsat without a level-0 conflict")
            _require(db.rup(()), f"{where}: the empty clause is not RUP")
            return "unsat"
        else:
            raise CheckError(f"{where}: unknown trace line")
    raise CheckError("trace has no verdict line")


# ---------------------------------------------------------------------------
# Bernays-Schoenfinkel clause text
# ---------------------------------------------------------------------------

_LIT = re.compile(r"\s*(-?)\s*([A-Za-z0-9_']+)\s*(?:\(([^)]*)\))?\s*")


def is_variable(name: str) -> bool:
    return name[:1].lower() in VARIABLE_PREFIXES


def parse_bs(text: str) -> dict[int, list[tuple[bool, str, tuple[str, ...]]]]:
    """Clause id -> literals (positive, predicate, argument names)."""
    clauses: dict[int, list[tuple[bool, str, tuple[str, ...]]]] = {}
    next_id = 1
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for chunk in body.split("."):
        chunk = chunk.strip()
        if not chunk:
            continue
        cid = next_id
        m = re.match(r"(\d+)\s*:(.*)", chunk, re.S)
        if m:
            cid, chunk = int(m.group(1)), m.group(2)
        lits = []
        for part in chunk.split("|"):
            lm = _LIT.fullmatch(part)
            _require(lm is not None, f"cannot parse literal {part!r}")
            args = tuple(a.strip() for a in lm.group(3).split(",")) if lm.group(3) else ()
            lits.append((lm.group(1) != "-", lm.group(2), args))
        clauses[cid] = lits
        next_id = max(next_id, cid) + 1
    return clauses


def _atom_text(pred: str, args: tuple[str, ...]) -> str:
    return f"{pred}({','.join(args)})" if args else pred


def _clause_vars(lits) -> list[str]:
    seen: dict[str, None] = {}
    for _, _, args in lits:
        for a in args:
            if is_variable(a):
                seen.setdefault(a)
    return list(seen)


def _ground(lits, env: dict[str, str]) -> list[tuple[bool, str]]:
    return [(pos, _atom_text(p, tuple(env.get(a, a) for a in args))) for pos, p, args in lits]


def _constants(clauses) -> list[str]:
    return sorted({a for lits in clauses.values() for _, _, args in lits for a in args if not is_variable(a)})


def _parse_subst(text: str) -> dict[str, str]:
    inner = text[len("σ={"):-1]
    return dict(pair.split("->") for pair in inner.split(",")) if inner else {}


def _signed_atom(text: str) -> tuple[bool, str]:
    return (False, text[1:]) if text.startswith("-") else (True, text)


def check_scl(bs_text: str, output: str, propagations: int | None = None) -> str:
    """Replay an SCL text trace against the ground instances it names.

    Returns 'sat' or 'unsat'.  Every propagation's instance must be unit with
    the propagated literal, the final conflict instance must be false at level
    0, a sat verdict's trail must be a total model of every ground instance
    over the input's constants, and, when given, the propagation count must
    match.
    """
    clauses = parse_bs(bs_text)
    value: dict[str, tuple[bool, int]] = {}
    trail: list[tuple[str, int]] = []
    level = 0
    conflict = False
    next_id = max(clauses) + 1
    count = 0

    def instance(cid: int, subst_text: str) -> list[tuple[bool, str]]:
        _require(cid in clauses, f"unknown clause {cid}")
        lits = clauses[cid]
        env = _parse_subst(subst_text)
        _require(sorted(env) == sorted(_clause_vars(lits)), f"substitution does not ground clause {cid}")
        return _ground(lits, env)

    def is_false(lit: tuple[bool, str]) -> bool:
        v = value.get(lit[1])
        return v is not None and v[0] != lit[0]

    def assign(lit: tuple[bool, str], where: str) -> None:
        _require(lit[1] not in value, f"{where}: atom already assigned")
        value[lit[1]] = (lit[0], level)
        trail.append((lit[1], level))

    verdict = None
    for no, line in enumerate(output.splitlines(), start=1):
        where = f"line {no} {line!r}"
        parts = line.split()
        kind = parts[0] if parts else ""
        if kind == "propagate":
            lit = _signed_atom(parts[1])
            inst = instance(int(parts[4]), parts[5])
            _require(lit in inst, f"{where}: literal not in the instance")
            _require(all(is_false(l) for l in inst if l != lit), f"{where}: instance is not unit")
            assign(lit, where)
            count += 1
        elif kind == "conflict":
            inst = instance(int(parts[2]), parts[3])
            _require(all(is_false(l) for l in inst), f"{where}: instance is not false")
            conflict = True
        elif kind == "decide":
            _require(not conflict and int(parts[2][1:]) == level + 1, f"{where}: bad decision")
            level += 1
            assign(_signed_atom(parts[1]), where)
        elif kind == "learn":
            _require(conflict, f"{where}: learning without a conflict")
            text, backjump = line[len("learn "):].rsplit(" backjump ", 1)
            lits = [_signed_atom(t.strip()) for t in text.split("|")]
            level = int(backjump)
            while trail and trail[-1][1] > level:
                del value[trail.pop()[0]]
            open_lits = [l for l in lits if l[1] not in value]
            _require(len(open_lits) == 1, f"{where}: learned clause does not assert")
            clauses[next_id] = [(pos, atom, ()) for pos, atom in lits]
            next_id += 1
            conflict = False
            assign(open_lits[0], where)
        elif kind == "stats":
            stats = dict(p.split("=") for p in parts[1:])
            _require(int(stats["propagations"]) == count, f"{where}: propagation count disagrees")
        elif line == "s SATISFIABLE":
            _require(not conflict, f"{where}: sat with a pending conflict")
            _check_total_model(clauses, {a: v for a, (v, _) in value.items()})
            verdict = "sat"
        elif line == "s UNSATISFIABLE":
            _require(conflict and level == 0, f"{where}: unsat without a level-0 conflict")
            verdict = "unsat"
        else:
            raise CheckError(f"{where}: unexpected trace line")
    _require(verdict is not None, "trace has no verdict line")
    if propagations is not None:
        _require(count == propagations, f"{count} propagations, expected {propagations}")
    return verdict


def _check_total_model(clauses, model: dict[str, bool]) -> None:
    consts = _constants(clauses)
    signatures = {(p, len(args)) for lits in clauses.values() for _, p, args in lits}
    for pred, arity in signatures:
        for combo in itertools.product(consts, repeat=arity):
            _require(_atom_text(pred, combo) in model, f"model leaves {_atom_text(pred, combo)} undefined")
    for cid, lits in clauses.items():
        variables = _clause_vars(lits)
        for combo in itertools.product(consts, repeat=len(variables)):
            ground = _ground(lits, dict(zip(variables, combo)))
            _require(any(model[a] == pos for pos, a in ground), f"model falsifies an instance of clause {cid}")


def forward_chaining_verdict(bs_text: str) -> str:
    """Decide a Horn clause set by computing its least Herbrand model."""
    clauses = parse_bs(bs_text)
    facts: set[tuple[str, tuple[str, ...]]] = set()
    rules = []
    goals = []
    for lits in clauses.values():
        heads = [(p, args) for pos, p, args in lits if pos]
        body = [(p, args) for pos, p, args in lits if not pos]
        _require(len(heads) <= 1, "input is not Horn")
        if not heads:
            goals.append(body)
        elif not body:
            _require(not _clause_vars(lits), "non-ground fact")
            facts.add(heads[0])
        else:
            rules.append((heads[0], body))

    def matches(body, env: dict[str, str]):
        if not body:
            yield env
            return
        (pred, args), rest = body[0], body[1:]
        for fpred, fargs in list(facts):
            if fpred != pred or len(fargs) != len(args):
                continue
            env2 = dict(env)
            if all(env2.setdefault(a, f) == f if is_variable(a) else a == f for a, f in zip(args, fargs)):
                yield from matches(rest, env2)

    changed = True
    while changed:
        changed = False
        for (hpred, hargs), body in rules:
            for env in list(matches(body, {})):
                fact = (hpred, tuple(env.get(a, a) for a in hargs))
                if fact not in facts:
                    facts.add(fact)
                    changed = True
    return "unsat" if any(next(matches(body, {}), None) is not None for body in goals) else "sat"


def truth_table_verdict(bs_text: str) -> str:
    """Herbrand satisfiability over the input's constants by enumerating assignments."""
    clauses = parse_bs(bs_text)
    consts = _constants(clauses) or ["c"]
    instances = []
    for lits in clauses.values():
        variables = _clause_vars(lits)
        for combo in itertools.product(consts, repeat=len(variables)):
            instances.append(_ground(lits, dict(zip(variables, combo))))
    atoms = sorted({a for inst in instances for _, a in inst})
    index = {a: i for i, a in enumerate(atoms)}
    compiled = [[(index[a], pos) for pos, a in inst] for inst in instances]
    for bits in range(1 << len(atoms)):
        if all(any(((bits >> i) & 1) == pos for i, pos in inst) for inst in compiled):
            return "sat"
    return "unsat"


def saturation_result(output: str) -> tuple[list[str], dict | str]:
    """Split resolution output into its derived lines and its final result."""
    lines = output.splitlines()
    _require(bool(lines), "empty output")
    if lines[-1].startswith("{"):
        records = [json.loads(line) for line in lines]
        return [r["line"] for r in records[:-1]], records[-1]
    return lines[:-1], lines[-1]


def check_saturation_verdict(bs_text: str, output: str) -> str:
    """A random BS set's saturation verdict must equal its truth table."""
    derived, final = saturation_result(output)
    if final == "Unsat":
        check_refuted(output)
        claimed = "unsat"
    else:
        m = re.fullmatch(r"Saturated\((\d+)\)", str(final))
        _require(m is not None, f"no verdict: {final!r}")
        claimed = "sat"
    expected = truth_table_verdict(bs_text)
    _require(claimed == expected, f"saturation says {claimed}, truth table says {expected}")
    return claimed


def check_zero_inference_saturation(bs_text: str, output: str) -> None:
    """Saturation without a single generated clause: every input clause is kept."""
    derived, final = saturation_result(output)
    _require(isinstance(final, dict), "expected JSON output")
    _require(final["generated"] == 0 and final["kept"] == 0 and not derived, "clauses were generated")
    _require(final["line"] == f"Saturated({len(parse_bs(bs_text))})", f"unexpected result {final['line']!r}")


def check_refuted(output: str) -> None:
    """The derivation ends in the empty clause and the verdict is Unsat."""
    derived, final = saturation_result(output)
    _require(final == "Unsat" and bool(derived) and derived[-1].split(" : ")[1].startswith("⊥"),
             "the derivation does not end in the empty clause")


def check_replay(output: str, steps: int) -> None:
    check_refuted(output)
    derived, _ = saturation_result(output)
    _require(len(derived) == steps, f"{len(derived)} replay steps, expected {steps}")


def check_counter_experiment(output: str, n_max: int) -> None:
    rows = output.splitlines()[1:]
    _require(len(rows) == n_max, f"{len(rows)} rows, expected {n_max}")
    for n, row in enumerate(rows, start=1):
        got = row.split()
        want = [str(n), str(2**n), "unsat", str(2 * n), "unsat"]
        _require(got == want, f"row {row!r}, expected {' '.join(want)}")


# ---------------------------------------------------------------------------
# Linear integer arithmetic
# ---------------------------------------------------------------------------

_TERM = re.compile(r"([+-]?\d+)\*([A-Za-z_][A-Za-z0-9_]*)|([+-]?\d+)")


def parse_lia(text: str) -> list[tuple[dict[str, int], int]]:
    """Inequations 'sum a*x + c <= 0', one per line, as (coefficients, constant)."""
    system = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, rhs = line.split("<=")
        _require(rhs.strip() == "0", f"inequation not in '<= 0' form: {line!r}")
        coeffs: dict[str, int] = {}
        const = 0
        for m in _TERM.finditer(lhs.replace(" ", "")):
            if m.group(2):
                coeffs[m.group(2)] = coeffs.get(m.group(2), 0) + int(m.group(1))
            else:
                const += int(m.group(3))
        system.append((coeffs, const))
    return system


def _implied(coeffs: dict[str, int], const: int, var: str, bounds) -> tuple[bool, int] | None:
    """Tightest (lower?, value) bound on var from one inequation, or None."""
    s_min = const
    for v, a in coeffs.items():
        if v == var:
            continue
        b = bounds.get((v, a > 0))
        if b is None:
            return None
        s_min += a * b
    a = coeffs[var]
    if a > 0:
        return False, (-s_min) // a
    return True, -((-s_min) // -a)


def _tighter(lower: bool, value: int, old: int | None) -> bool:
    return old is None or (value > old if lower else value < old)


def _min_value(coeffs: dict[str, int], const: int, bounds) -> int | None:
    total = const
    for v, a in coeffs.items():
        b = bounds.get((v, a > 0))
        if b is None:
            return None
        total += a * b
    return total


def check_lia_propagate(lia_text: str, decisions: list[str], max_steps: int, output: str) -> str:
    """Recheck every bound line; returns 'fixpoint', 'conflict' or 'diverged'."""
    system = parse_lia(lia_text)
    bounds: dict[tuple[str, bool], int] = {}
    expected_decisions = []
    for d in decisions:
        m = re.fullmatch(r"\s*(\w+)\s*(<=|>=)\s*(-?\d+)\s*", d)
        expected_decisions.append(f"bound {m.group(1)} {m.group(2)} {m.group(3)} <- decision")
    lines = output.splitlines()
    _require(lines[: len(expected_decisions)] == expected_decisions, "decision lines disagree with the decisions")
    for d in lines[: len(expected_decisions)]:
        _, var, kind, value, _, _ = d.split()
        bounds[(var, kind == ">=")] = int(value)
    steps = 0
    for no, line in enumerate(lines[len(expected_decisions):-1], start=len(expected_decisions) + 1):
        m = re.fullmatch(r"bound (\w+) (<=|>=) (-?\d+) <- ineq (\d+)", line)
        _require(m is not None, f"line {no}: not a bound line: {line!r}")
        var, lower, value, ineq = m.group(1), m.group(2) == ">=", int(m.group(3)), int(m.group(4))
        _require(1 <= ineq <= len(system) and var in system[ineq - 1][0], f"line {no}: bad inequation")
        implied = _implied(*system[ineq - 1], var, bounds)
        _require(implied is not None and implied[0] == lower, f"line {no}: bound is not implied")
        _require(value <= implied[1] if lower else value >= implied[1], f"line {no}: bound is tighter than implied")
        _require(_tighter(lower, value, bounds.get((var, lower))), f"line {no}: bound is not strictly tighter")
        bounds[(var, lower)] = value
        steps += 1
    final = lines[-1]
    if final == "fixpoint":
        for coeffs, const in system:
            m = _min_value(coeffs, const, bounds)
            _require(m is None or m <= 0, "fixpoint with a conflicting inequation")
            for var in coeffs:
                imp = _implied(coeffs, const, var, bounds)
                _require(imp is None or not _tighter(imp[0], imp[1], bounds.get((var, imp[0]))),
                         f"not a fixpoint: {var} can still be tightened")
        return "fixpoint"
    if final.startswith("conflict "):
        coeffs, const = system[int(final.split()[1]) - 1]
        m = _min_value(coeffs, const, bounds)
        _require(m is not None and m > 0, "conflict inequation is satisfiable within the bounds")
        return "conflict"
    _require(final == f"diverged steps={steps}" and steps == max_steps, f"unexpected final line {final!r}")
    still = any(
        (imp := _implied(coeffs, const, var, bounds)) is not None and _tighter(imp[0], imp[1], bounds.get((var, imp[0])))
        for coeffs, const in system
        for var in coeffs
    )
    _require(still, "diverged although propagation is at a fixpoint")
    return "diverged"


def apriori_radius(system: list[tuple[dict[str, int], int]]) -> int:
    """n*(m*a)**(2m+1): every solvable system has a solution within this radius."""
    m = len(system)
    n = len({v for coeffs, _ in system for v in coeffs})
    a = max([abs(x) for coeffs, const in system for x in list(coeffs.values()) + [const]] + [1])
    return n * (m * a) ** (2 * m + 1)


def check_lia_decide(lia_text: str, output: str) -> str:
    system = parse_lia(lia_text)
    line = output.strip()
    satisfied = lambda point: all(const + sum(a * point[v] for v, a in coeffs.items()) <= 0 for coeffs, const in system)
    if line.startswith("sat"):
        point = {k: int(v) for k, v in (p.split("=") for p in line.split()[1:])}
        _require(satisfied(point), f"assignment {line!r} violates an inequation")
        return "sat"
    _require(line == "unsat", f"no verdict: {line!r}")
    variables = sorted({v for coeffs, _ in system for v in coeffs})
    r = apriori_radius(system)
    for combo in itertools.product(range(-r, r + 1), repeat=len(variables)):
        _require(not satisfied(dict(zip(variables, combo))), f"unsat, but {combo} satisfies the system")
    return "unsat"
