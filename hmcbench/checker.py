"""A solution check made apart from `hmc`.

`hmc check` prints SAFE with one `(solution (K PRED))` line per kvar. This
module substitutes those predicates into every constraint of the `.hmc`
file and evaluates each implication `env && lhs => rhs` on a grid of
integers. It shares no code with `hmc.logic` or `hmc.smt`: it has its own
s-expression reader, its own substitution and it compiles each implication
to a Python function.

A list or array is observed only through `len`, so each `(len x)` of a
variable `x` is its own non-negative integer. Other uninterpreted functions,
bool binders and `*` of two non-constants are outside the checker; it raises
`Unsupported` on them instead of guessing.

The grid can refute a solution but never prove one: a SAFE verdict passes
when no grid point violates a constraint.
"""

from __future__ import annotations

import itertools
import re

INT_GRID = range(-3, 4)
LEN_GRID = range(0, 4)
MAX_GRID_VARS = 6

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class Unsupported(Exception):
    pass


def read_sexprs(text):
    """All s-expressions of `text`: lists, ints and symbols. `;` starts a
    comment that runs to the end of the line."""
    text = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    stack = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            try:
                stack[-1].append(int(tok))
            except ValueError:
                stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def parse_hmc(text):
    """Returns (kvars, constraints). kvars maps a name to its field names,
    `v` first. Each constraint is (label, env, lhs, rhs): env is a list of
    (name, type, ref), lhs and rhs are (type, ref). A ref is a predicate form
    or ("kapp", name, [arg forms]) with omitted trailing arguments filled in
    by the parameter names."""
    kvars, subs = {}, []
    forms = read_sexprs(text)
    for form in forms:
        if form[0] == "kvar":
            kvars[form[1]] = [f[0] for f in form[2:]]
    for form in forms:
        if form[0] != "sub":
            continue
        parts = {f[0]: f for f in form[2:]}
        env = [(b[0], b[1], _ref(kvars, b[2])) for b in parts.get("env", ["env"])[1:]]
        lhs, rhs = parts["lhs"], parts["rhs"]
        subs.append(
            (form[1], env, (lhs[1], _ref(kvars, lhs[2])), (rhs[1], _ref(kvars, rhs[2])))
        )
    return kvars, subs


def _ref(kvars, form):
    if isinstance(form, list) and form and form[0] == "kapp":
        params = kvars[form[1]][1:]
        args = list(form[2:]) + list(params[len(form) - 2 :])
        return ("kapp", form[1], args)
    return form


def parse_check_output(text):
    """(verdict, {kvar: predicate form}) from the text of `hmc check`."""
    lines = text.splitlines()
    verdict = lines[0].strip() if lines else ""
    solution = {}
    for line in solution_lines(lines):
        _, (name, pred) = read_sexprs(line)[0]  # (solution (K PRED))
        solution[name] = pred
    return verdict, solution


def solution_lines(lines):
    """The `(solution ...)` lines that follow `solution:`, if any."""
    if "solution:" not in lines:
        return []
    return [line.strip() for line in lines[lines.index("solution:") + 1 :]]


def _subst(form, mapping):
    if isinstance(form, str):
        return mapping.get(form, form)
    if isinstance(form, list):
        return [form[0]] + [_subst(f, mapping) for f in form[1:]]
    return form


def _embed(kvars, solution, ref, value):
    """The refinement as a predicate form with `v` replaced by `value`."""
    if isinstance(ref, tuple):
        _, name, args = ref
        fields = kvars[name]
        pred = solution[name]
        actuals = [value] + [_subst(a, {"v": value}) for a in args]
        return _subst(pred, dict(zip(fields, actuals)))
    return _subst(ref, {"v": value})


class _Compiler:
    """Turns predicate forms into Python source over grid variables."""

    def __init__(self, types):
        self.types = types  # variable -> "int" or the list form of a ui sort
        self.names = {}  # display name -> python name
        self.grid = {}  # python name -> (display name, value range)

    def var(self, display, values):
        if display not in self.names:
            py = self.names[display] = f"g{len(self.names)}"
            self.grid[py] = (display, values)
        return self.names[display]

    def expr(self, e):
        if isinstance(e, int):
            return f"({e})"
        if isinstance(e, str):
            if self.types.get(e) != "int":
                raise Unsupported(f"variable {e} of type {self.types.get(e)!r}")
            return self.var(e, INT_GRID)
        head = e[0]
        if head == "+":
            return "(" + " + ".join(self.expr(a) for a in e[1:]) + ")"
        if head == "-":
            if len(e) == 2:
                return f"(-{self.expr(e[1])})"
            return f"({self.expr(e[1])} - {self.expr(e[2])})"
        if head == "*" and isinstance(e[1], int):
            return f"({e[1]} * {self.expr(e[2])})"
        if head == "len" and len(e) == 2 and isinstance(e[1], str):
            if self.types.get(e[1]) in (None, "int"):
                raise Unsupported(f"len of {e[1]}")
            return self.var(f"len {e[1]}", LEN_GRID)
        raise Unsupported(f"expression {e!r}")

    def pred(self, p):
        if p == "true":
            return "True"
        if p == "false":
            return "False"
        if isinstance(p, list):
            head = p[0]
            if head in ("=", "/=", "<", "<=", ">", ">="):
                op = {"=": "==", "/=": "!="}.get(head, head)
                return f"({self.expr(p[1])} {op} {self.expr(p[2])})"
            if head == "not":
                return f"(not {self.pred(p[1])})"
            if head == "and":
                return "(" + " and ".join(self.pred(a) for a in p[1:]) + ")"
            if head == "=>":
                out = self.pred(p[-1])
                for a in reversed(p[1:-1]):
                    out = f"((not {self.pred(a)}) or {out})"
                return out
        raise Unsupported(f"predicate {p!r}")


def constraint_violations(kvars, constraint, solution):
    """Yields every grid point (display name -> value) at which the
    constraint fails under `solution`."""
    label, env, (lty, lhs), (_, rhs) = constraint
    types = {name: ty for name, ty, _ in env}
    types["v"] = lty
    comp = _Compiler(types)
    hyps = [comp.pred(_embed(kvars, solution, ref, name)) for name, _, ref in env]
    hyps.append(comp.pred(_embed(kvars, solution, lhs, "v")))
    goal = comp.pred(_embed(kvars, solution, rhs, "v"))
    if len(comp.grid) > MAX_GRID_VARS:
        raise Unsupported(f"{label}: {len(comp.grid)} grid variables")
    names = list(comp.grid)
    body = " and ".join(hyps) or "True"
    test = eval(f"lambda {', '.join(names)}: not ({body}) or {goal}")
    for point in itertools.product(*(comp.grid[n][1] for n in names)):
        if not test(*point):
            yield {comp.grid[n][0]: x for n, x in zip(names, point)}


def solution_violation(hmc_text, solution):
    """The first (label, grid point) at which `solution` fails, or None.
    A kvar without an entry is a refutation too: `hmc check` prints one
    entry per kvar."""
    kvars, subs = parse_hmc(hmc_text)
    missing = sorted(set(kvars) - set(solution))
    if missing:
        return ("missing solution", {"kvars": missing})
    for c in subs:
        for point in constraint_violations(kvars, c, solution):
            return (c[0], point)
    return None
