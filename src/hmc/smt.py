"""Decision procedure for QF_UFLIA: the formulas of `hmc.logic`, and a
subset of SMT-LIB 2 read into them.

Pipeline: `logic` formulas -> negation normal form, lowered straight from
the formula by polarity (`lower`), with every application of an
uninterpreted function replaced by its Ackermann constant as the terms are
lowered -> presolve -> satisfiability search over the disjuncts -> omega
test on each conjunction of linear constraints, with model reconstruction
by back-substitution. No SMT-LIB form is built on the way: the filter reads
each SMT-LIB assert into `logic` first (`formula_of`), and from there every
query takes the same lowering.

A `Context` lowers a hypothesis once and then decides it together with one
goal at a time. The hypothesis and each goal take one closing step,
`_close`: lower, presolve, and merge into one constant the applications
whose arguments are equal once the definitions are substituted, then build
congruence axioms only between the applications left, whose arguments
differ. The Ackermann table is keyed on each application's function and the
linear forms of its arguments, not on printed text. A goal closes under the
hypothesis's definitions and after its applications, so it merges and adds
only what its own definitions and applications bring. The filter decides a
script on a context with no hypothesis, so every query goes through this
one lowering.

The negation normal form folds a variable-free atom such as `(<= 1 0)` to
true or false, drops true from a conjunction and false from a disjunction,
and lets false absorb a conjunction and true a disjunction. The presolve
substitutes every top-level equality that has a unit coefficient (the SSA
bindings `x%3 = ...` of a path formula) into the whole tree once, so the
omega test never eliminates them again at each leaf; an atom that the
substitution leaves without variables folds in the same way. The model gets
the substituted variables' values back by substitution. A presolve that
defines nothing, as for a goal of one atom, returns its conjunction as it
is, without rebuilding the tree.

The search expands the disjunctions depth first, on an explicit stack, and
carries a model of the atoms gathered so far. Before it splits a
disjunction, and at a leaf, it evaluates the atoms added since the last
check on that model, reading an absent variable as 0; only when one of
them fails does it run the omega test on all the atoms, and it drops the
subtree unexplored when they are inconsistent. The branches are visited in
order, so the first satisfiable leaf is the one a plain enumeration finds;
but its model may be one found earlier on the path, which the leaf's atoms
also satisfy, rather than the one the omega test gives for the leaf.

The omega test normalizes each constraint once: on entry, after each
substitution of an equality, and when it builds a shadow. A constraint with
a coefficient of 1 or -1 is already normalized and is taken as it is. It
picks the variable to eliminate in one pass over the inequalities, which
counts each variable's lower and upper bounds and their largest
coefficients; the least cost wins, ties to the least name. Each dark shadow
`a*r - b*u + (a-1)(b-1)` is built in one dict, and each substitution writes
into one, with the keys in the order that adding the scaled forms one at a
time gives them: a pivot is the first variable in that order with a unit
coefficient, so the order fixes the models.

Uninterpreted sorts are modeled as Int; that preserves quantifier-free
satisfiability because any model over an infinite carrier injects into Int.
Bools are the integers 0 and 1: a bool variable b stands for b = 1. A
`Context` is built from the typed declarations, and ranges from them each
bool variable and the Ackermann constant of each application of a
bool-valued function in {0, 1}.

Exposed as a library and as a filter. `Context.decide` returns a model with
a table for each function, which `hmc.logic` turns into a witness; a
variable the model leaves out is 0. SMT-LIB text is read and written here
only. The filter, `solve_script`, behind `python -m hmc.smt` and the
`hmc-smt` executable, reads a script on stdin and prints `sat`/`unsat` plus
a model; `emit_solver_query` prints a `logic` query for `--emit-smt` and
for an external solver, whose answer `ask_solver` reads back.
"""

from __future__ import annotations

import itertools
import math
import os
import sys

from . import logic, sexpr


class SmtError(Exception):
    pass


class SolverUnavailable(Exception):
    """The external solver of `ask_solver` could not be started."""


class SolverProtocolError(Exception):
    """The external solver of `ask_solver` answered outside the protocol."""


# ---------------------------------------------------------------------------
# Linear expressions: dict mapping variable name -> coefficient, with the
# constant term under the key None.


def lin_const(c):
    return {None: c} if c else {}


def lin_var(name):
    return {name: 1}


def lin_add(a, b):
    out = dict(a)
    _add_scaled(out, b, 1)
    return out


def _add_scaled(out, lin, c):
    """Add c*lin into `out` in place: a key that cancels is dropped, a new
    one goes last."""
    for k, v in lin.items():
        nv = out.get(k, 0) + c * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


def lin_scale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def lin_sub(a, b):
    return lin_add(a, lin_scale(b, -1))


def lin_vars(a):
    return [k for k in a if k is not None]


def lin_subst(lin, sub):
    """`lin` with each variable that `sub` maps replaced by its linear form."""
    if not any(k in sub for k in lin):
        return lin
    out = {k: c for k, c in lin.items() if k not in sub}
    for k, c in lin.items():
        if k in sub:
            _add_scaled(out, sub[k], c)
    return out


def eval_lin(lin, model):
    """The value of `lin` under `model`, where an absent variable is 0."""
    return sum(c if k is None else c * model.get(k, 0) for k, c in lin.items())


# ---------------------------------------------------------------------------
# Lowering. A `logic` formula becomes an NNF tree whose atoms are
# ("le", lin) for lin <= 0 and ("eq", lin) for lin = 0; disequalities are
# split into a disjunction of strict orderings.
#
# Uninterpreted functions are eliminated by Ackermannization as the terms
# are lowered: every distinct application becomes a fresh constant.
# Functional consistency is asserted after the presolve (`_close`), for
# each pair of applications of the same function whose arguments still
# differ once the definitions are substituted.


class Apps:
    """The Ackermann table of a query: each distinct application, nullary
    ones included, keyed on its function and the linear forms of its
    arguments as written, with the constant `.ackN` that stands for it. A
    copy extends an earlier table. Applications whose arguments become
    equal only under the presolve's definitions get two constants here;
    `_close` merges them.

    The values of the functions in `bools` are bools: each constant the
    table gains for one of them adds the atoms of `0 <= c <= 1` to
    `ranges`."""

    def __init__(self, bools=frozenset(), table=None):
        self.bools = bools
        self.table = dict(table or {})  # key -> (constant, function, arg lins)
        self.ranges = []

    def const(self, func, args):
        key = (func, tuple(frozenset(a.items()) for a in args))
        entry = self.table.get(key)
        if entry is None:
            const = f".ack{len(self.table)}"
            entry = self.table[key] = (const, func, args)
            if func in self.bools:
                self.ranges += [_le({const: -1}), _le({const: 1, None: -1})]
        return entry[0]


def congruence(entries, start=0):
    """NNF trees asserting, for each pair of entries (constant, function,
    arg lins) of one function whose later member is at `start` or beyond,
    that equal arguments give equal values: per function in order of first
    use, pairs in order of their members. `_close` passes the applications
    left after merging, with their arguments presolved, so no two entries
    of one function have equal arguments."""
    if start >= len(entries):
        return []
    by_func = {}
    for i, (_, func, _) in enumerate(entries):
        by_func.setdefault(func, []).append(i)
    out = []
    for idxs in by_func.values():
        for n, i in enumerate(idxs):
            c1, _, a1 = entries[i]
            for j in idxs[n + 1:]:
                if j < start:
                    continue
                c2, _, a2 = entries[j]
                differ = [_rel("=", lin_sub(x, y), False) for x, y in zip(a1, a2)]
                if len(differ) > 1:
                    differ = [_join("or", differ)]
                out.append(_join("or", differ + [_rel("=", lin_sub(lin_var(c1), lin_var(c2)), True)]))
    return out


def lin_of(e, apps):
    """The linear form of the `logic` expression `e`, with each application,
    nullary ones included, replaced by its Ackermann constant in `apps`."""
    if isinstance(e, logic.Var):
        return {e.name: 1}
    if isinstance(e, logic.Add):
        out = lin_of(e.args[0], apps)
        for a in e.args[1:]:
            out = lin_add(out, lin_of(a, apps))
        return out
    if isinstance(e, logic.IntLit):
        return lin_const(e.value)
    if isinstance(e, logic.ScalarMul):
        return lin_scale(lin_of(e.arg, apps), e.coeff)
    if isinstance(e, logic.App):
        return {apps.const(e.func, [lin_of(a, apps) for a in e.args]): 1}
    raise SmtError(f"bad term {logic.to_text(e)}")


def _le(lin):
    return ("le", lin)


def _truth(holds):
    return ("and", []) if holds else ("or", [])


def _rel(op, d, positive):
    """The NNF of `d op 0`, or of its negation; a variable-free atom folds to
    true or false."""
    ground = not lin_vars(d)
    if op == "<=":
        pass
    elif op == "<":
        d = lin_add(d, lin_const(1))
    elif op == ">=":
        d = lin_scale(d, -1)
    elif op == ">":
        d = lin_add(lin_scale(d, -1), lin_const(1))
    elif op == "=":
        if ground:
            return _truth((d.get(None, 0) == 0) == positive)
        if positive:
            return ("eq", d)
        lt = _le(lin_add(d, lin_const(1)))
        gt = _le(lin_add(lin_scale(d, -1), lin_const(1)))
        return ("or", [lt, gt])
    else:
        raise SmtError(f"bad relation {op}")
    if not positive:
        # not (d <= 0)  <=>  -d + 1 <= 0
        d = lin_add(lin_scale(d, -1), lin_const(1))
    return _truth(d.get(None, 0) <= 0) if ground else _le(d)


def _join(tag, kids):
    """The "and" or "or" of NNF trees, without its units (true in a
    conjunction, false in a disjunction) and absorbed by a zero."""
    unit, zero = (tag, []), ("or" if tag == "and" else "and", [])
    out = []
    for kid in kids:
        if kid == zero:
            return zero
        if kid != unit:
            out.append(kid)
    return tag, out


def lower(p, positive, apps):
    """The NNF tree of the `logic` predicate `p`, or of its negation, with
    its applications replaced through `apps` (see `lin_of`). A bool
    variable b stands for b = 1."""
    if isinstance(p, logic.Cmp):
        d = lin_sub(lin_of(p.left, apps), lin_of(p.right, apps))
        if p.op == "/=":
            return _rel("=", d, not positive)
        return _rel(p.op, d, positive)
    if isinstance(p, logic.And):
        return _join("and" if positive else "or", [lower(a, positive, apps) for a in p.args])
    if isinstance(p, logic.Implies):
        kids = [lower(p.left, not positive, apps), lower(p.right, positive, apps)]
        return _join("or" if positive else "and", kids)
    if isinstance(p, logic.Not):
        return lower(p.arg, not positive, apps)
    if isinstance(p, logic.BoolVar):
        return _rel("=", {p.name: 1, None: -1}, positive)
    if isinstance(p, logic.TrueLit):
        return _truth(positive)
    if isinstance(p, logic.FalseLit):
        return _truth(not positive)
    raise SmtError(f"bad formula {p!r}")


# ---------------------------------------------------------------------------
# Omega test


def _gcd(lin):
    """The gcd of the coefficients of the variables of `lin`, 0 when it has
    none. It is 1 as soon as one of them is 1 or -1."""
    g = 0
    for k, c in lin.items():
        if k is not None:
            if c == 1 or c == -1:
                return 1
            g = math.gcd(g, c)
    return g


def norm_le(lin):
    """lin <= 0 divided by the gcd of its coefficients: `lin` itself when
    the gcd is 1, as it is whenever a coefficient is 1 or -1."""
    g = _gcd(lin)
    if g <= 1:
        return lin
    out = {k: c // g for k, c in lin.items() if k is not None}
    c = lin.get(None, 0)
    tight = -((-c) // g)  # ceil(c/g): tightens to the integer hull
    if tight:
        out[None] = tight
    return out


def _norm_eq(lin):
    """lin = 0 divided by the gcd of its coefficients, as for `norm_le`, or
    None when the gcd does not divide the constant."""
    g = _gcd(lin)
    if g <= 1:
        return lin
    c = lin.get(None, 0)
    if c % g != 0:
        return None  # no integer solution
    out = {k: v // g for k, v in lin.items() if k is not None}
    if c // g:
        out[None] = c // g
    return out


def _mods(a, m):
    r = a % m
    if 2 * r > m:
        r -= m
    return r


def _constrain(kind, lin, eqs, les):
    """Normalize the constraint lin <= 0 ("le") or lin = 0 ("eq") and append
    it to `les` or `eqs`, unless it has no variables. False when it has no
    integer solution."""
    if kind == "le":
        lin, out = norm_le(lin), les
    else:
        lin, out = _norm_eq(lin), eqs
        if lin is None:
            return False
    if len(lin) > (None in lin):
        out.append(lin)
        return True
    c = lin.get(None, 0)
    return c <= 0 if kind == "le" else c == 0


def omega(constraints):
    """Decide a conjunction of ("le", lin) / ("eq", lin) constraints over the
    integers. Returns a satisfying model dict, or None. The `.sigN`
    variables of the mod trick are numbered from 1 in each call, so the
    answer depends on `constraints` alone."""
    eqs, les = [], []
    if not all(_constrain(kind, lin, eqs, les) for kind, lin in constraints):
        return None
    return _solve(eqs, les, itertools.count(1))


def _unit_pivot(eq):
    """(x, r) with eq = 0 equivalent to x = r, for the first variable x with
    a unit coefficient in eq, or None when there is none."""
    for x in lin_vars(eq):
        a = eq[x]
        if abs(a) == 1:
            # a*x + r = 0  with a = +-1  =>  x = -a*r
            return x, lin_scale({k: c for k, c in eq.items() if k != x}, -a)
    return None


def _solve(eqs, les, fresh):
    """omega on normalized constraints that all have variables: eliminate
    the equalities one by one, then the inequalities."""
    defs = []  # (x, r) for each eliminated x = r, in order
    while eqs:
        # prefer an equation with a unit coefficient
        pick = next(((i, p) for i, p in enumerate(map(_unit_pivot, eqs)) if p), None)
        if pick is None:
            # mod trick: introduce sigma and an equation that does have a unit
            # coefficient on the variable with the smallest one
            eq = eqs[0]
            k = min(lin_vars(eq), key=lambda v: abs(eq[v]))
            m = abs(eq[k]) + 1
            new = {v: _mods(c, m) for v, c in eq.items() if _mods(c, m)}
            new[f".sig{next(fresh)}"] = -m
            eqs = [new] + eqs
            continue
        i, (x, repl) = pick
        defs.append((x, repl))
        rest = [("eq", e) for e in eqs[:i] + eqs[i + 1:]] + [("le", l) for l in les]
        eqs, les = [], []
        for kind, lin in rest:
            if x not in lin:  # unchanged, so still normalized
                (eqs if kind == "eq" else les).append(lin)
            elif not _constrain(kind, lin_subst(lin, {x: repl}), eqs, les):
                return None
    model = _solve_ineqs(les, fresh)
    if model is not None:
        for x, repl in reversed(defs):
            model[x] = eval_lin(repl, model)
    return model


def _pick_variable(les):
    """The variable to eliminate next, and whether its elimination is exact:
    one-sided, or with a unit coefficient in every lower or every upper
    bound. Prefers one-sided, then exact, then the fewest bound pairs."""
    bounds = {}  # v -> [lower count, largest lower, upper count, largest upper]
    for lin in les:
        for v, c in lin.items():
            if v is None:
                continue
            s = bounds.get(v)
            if s is None:
                s = bounds[v] = [0, 0, 0, 0]
            if c < 0:
                s[0] += 1
                if -c > s[1]:
                    s[1] = -c
            else:
                s[2] += 1
                if c > s[3]:
                    s[3] = c
    # the least cost, ties to the least name
    cost, x = min(((n_low > 0 and n_up > 0, low > 1 and up > 1, n_low * n_up), v)
                  for v, (n_low, low, n_up, up) in bounds.items())
    return x, not cost[1]


def _assign_between(x, lowers, uppers, model):
    lo = None
    for b, r in lowers:  # b*x >= r
        v = eval_lin(r, model)
        bound = -((-v) // b)  # ceil(v/b)
        lo = bound if lo is None else max(lo, bound)
    hi = None
    for a, u in uppers:  # a*x <= u
        v = eval_lin(u, model)
        bound = v // a
        hi = bound if hi is None else min(hi, bound)
    if lo is not None:
        model[x] = lo
    elif hi is not None:
        model[x] = hi
    else:
        model[x] = 0


def _solve_ineqs(les, fresh):
    """A model of normalized inequalities that all have variables, or None.
    An exact elimination (one-sided, or with unit coefficients on one side)
    is one step of the loop: its variable waits on `undo` until the rest has
    a model. Only an inexact one, the dark shadow and then its splinters,
    recurses."""
    undo = []  # (x, lowers, uppers) of each exact elimination, in order
    model = {}
    while les:
        x, exact = _pick_variable(les)
        lowers, uppers, others = [], [], []
        for lin in les:
            a = lin.get(x, 0)
            if a == 0:
                others.append(lin)
            elif a > 0:  # a*x + r <= 0  =>  a*x <= -r
                uppers.append((a, {v: -c for v, c in lin.items() if v != x}))
            else:  # a*x + r <= 0  =>  (-a)*x >= r
                lowers.append((-a, {v: c for v, c in lin.items() if v != x}))
        # dark shadow of each pair b*x >= r, a*x <= u: a*r + (a-1)(b-1) <= b*u.
        # The slack (a-1)(b-1) is 0 for every pair when the elimination is
        # exact, and then this is the real shadow; one-sided, it is `others`.
        shadow = list(others)
        feasible = all(
            _constrain("le", _shadow(b, r, a, u), None, shadow)
            for b, r in lowers
            for a, u in uppers
        )
        if exact:
            if not feasible:
                return None
            undo.append((x, lowers, uppers))
            les = shadow
            continue
        model = _solve_ineqs(shadow, fresh) if feasible else None
        if model is not None:
            _assign_between(x, lowers, uppers, model)
        else:
            model = _splinters(x, lowers, uppers, les, fresh)
            if model is None:
                return None
        break
    for x, lowers, uppers in reversed(undo):
        _assign_between(x, lowers, uppers, model)
    return model


def _shadow(b, r, a, u):
    """a*r - b*u + (a-1)(b-1), built in one dict, with the keys in the order
    `lin_add` would give them."""
    out = lin_scale(r, a)
    _add_scaled(out, u, -b)
    _add_scaled(out, lin_const((a - 1) * (b - 1)), 1)
    return out


def _splinters(x, lowers, uppers, les, fresh):
    """A model of `les` that the dark shadow of `x` missed, or None. Any such
    model sits close above a lower bound b*x >= r: b*x = r + j for a small j."""
    amax = max(a for a, _ in uppers)
    for b, r in lowers:
        for j in range((amax * b - amax - b) // amax + 1):
            eq = _norm_eq(lin_add({x: b}, lin_scale(lin_add(r, lin_const(j)), -1)))
            if eq is not None:
                model = _solve([eq], les, fresh)
                if model is not None:
                    return model
    return None


# ---------------------------------------------------------------------------
# Presolve and satisfiability search over the NNF tree


def _subst_tree(node, sub):
    """`node` with `sub` substituted into its atoms. An atom left without
    variables folds to true or false, and the folded values are joined away."""
    tag, body = node
    if tag in ("and", "or"):
        return _join(tag, [_subst_tree(kid, sub) for kid in body])
    lin = lin_subst(body, sub)
    if lin is body or lin_vars(lin):
        return tag, lin
    c = lin.get(None, 0)
    return _truth(c <= 0 if tag == "le" else c == 0)


def presolve(tree):
    """Substitute the top-level unit equalities of an NNF tree away.

    Walks the top-level conjuncts in order. Each equality that has a unit
    coefficient once the earlier ones are substituted into it defines its
    first such variable. Returns the rewritten tree, which no longer
    mentions the defined variables, and the definitions: a dict from each
    defined variable to its linear form over the variables that remain.
    """
    sub = {}  # x -> r, where r mentions no variable defined before x
    rest = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "and":
            stack.extend(reversed(node[1]))
            continue
        if node[0] == "eq":
            lin = node[1]
            while any(k in sub for k in lin):
                lin = lin_subst(lin, sub)
            pivot = _unit_pivot(lin)
            if pivot:
                x, repl = pivot
                sub[x] = repl
                continue
        rest.append(node)
    if not sub:
        return _join("and", rest), sub
    # back-substitution, last definition first
    for x in reversed(list(sub)):
        sub[x] = lin_subst(sub[x], sub)
    return _subst_tree(("and", rest), sub), sub


def _holds(atom, model):
    kind, lin = atom
    value = eval_lin(lin, model)
    return value <= 0 if kind == "le" else value == 0


def sat_search(tree):
    """A model of the first satisfiable leaf, in depth-first order, of an
    NNF tree, or None when it has none."""
    conj = []  # the atoms on the current path
    model, checked = {}, 0  # a model of conj[:checked]
    choices = []  # per open split: (kids left, continuation, len(conj), model)
    todo = (tree, None)  # the continuation, as a linked list (node, rest)
    while True:
        if todo is not None and todo[0][0] != "or":
            node, todo = todo
            if node[0] == "and":
                for kid in reversed(node[1]):
                    todo = (kid, todo)
            else:
                conj.append(node)
            continue
        # a split or a leaf: check the atoms added since the last check
        if not all(_holds(atom, model) for atom in conj[checked:]):
            model = omega(conj)
        if model is not None:
            if todo is None:
                return model
            (_, kids), todo = todo
            choices.append((iter(kids), todo, len(conj), model))
        while choices:
            kid = next(choices[-1][0], None)
            if kid is not None:
                break
            choices.pop()
        else:
            return None
        _, todo, checked, model = choices[-1]
        del conj[checked:]
        todo = (kid, todo)


# ---------------------------------------------------------------------------
# Entry points


def _close(preds, apps, outer, reps):
    """Close the `logic` predicates `preds` into one NNF tree for the search.

    `apps` is a new Ackermann table, or a new copy of one: lowering adds the
    predicates' applications to it, with their range atoms. `outer` holds
    the definitions of an enclosing context, and `reps` the applications
    (constant, function, arg lins) that context left. `outer` is substituted
    into the tree and into the new applications' arguments, and the new
    applications go after `reps`. Then a loop presolves the tree and
    substitutes its definitions into the arguments. Each application whose
    arguments equal an earlier one's is dropped, and the equality of the two
    constants is conjoined to the tree. The loop ends when no two
    applications left share arguments.

    Returns the tree, its definitions, the applications left (each the
    first of its class) and the axioms: the range atoms of the new
    applications and the congruence axioms of each pair left with a new
    application in it, with `outer` and the definitions substituted."""
    n_apps = len(apps.table)
    tree = _join("and", [lower(p, True, apps) for p in preds])
    if outer:
        tree = _subst_tree(tree, outer)
    new = list(apps.table.values())[n_apps:]
    old = len(reps)  # the applications of `reps` left come first
    reps = reps + [(c, func, [lin_subst(a, outer) for a in args]) for c, func, args in new]
    tree, sub = presolve(tree)
    while True:
        seen, left, eqs, kept = {}, [], [], 0
        for i, (const, func, args) in enumerate(reps):
            args = [lin_subst(a, sub) for a in args]
            first = seen.setdefault((func, tuple(frozenset(a.items()) for a in args)), const)
            if first == const:
                left.append((const, func, args))
                kept += i < old
            else:
                eq = lin_subst(lin_sub(lin_var(const), lin_var(first)), outer)
                eqs.append(_rel("=", lin_subst(eq, sub), True))
        reps, old = left, kept
        if not eqs:
            break
        tree, more = presolve(_join("and", [tree] + eqs))
        sub = {x: lin_subst(r, more) for x, r in sub.items()}
        sub.update(more)
    axioms = apps.ranges + congruence(reps, old)
    for defs in (outer, sub):
        if defs:
            axioms = [_subst_tree(a, defs) for a in axioms]
    return tree, sub, reps, axioms


def bool_range(e):
    """`0 <= e <= 1`: the bool-valued `logic` term `e` is 0 or 1."""
    return logic.And((logic.Cmp("<=", logic.IntLit(0), e), logic.Cmp("<=", e, logic.IntLit(1))))


class Context:
    """A hypothesis lowered once, then decided together with one goal at a
    time: the one entry into the solver.

    `consts` holds (name, `logic` type) pairs, a `TypeEnv`'s bindings or a
    script's constants, and `sigs` maps each function to its `FuncSig`.
    From these the context ranges each bool variable in {0, 1}, as
    `bool_range` ahead of the asserts, and each application of a
    bool-valued function by its range atoms (see `Apps`). Every
    application, nullary ones included, is its Ackermann constant.

    The hypothesis (the ranges, then the asserts) takes one closing step,
    `_close`, when the context is built, and each goal takes one in
    `decide`, under the hypothesis's definitions and after its
    applications, so a goal equality can merge two of the hypothesis's.
    Congruence axioms are built only between the applications a step
    leaves, whose arguments differ: an axiom between two applications with
    equal arguments is a plain equality, which the merge has already
    substituted away. The search runs over the hypothesis, then the goal,
    then the axioms: the hypothesis's first and the goal's after them."""

    def __init__(self, consts, sigs, asserts):
        self.apps = Apps({name for name, sig in sigs.items() if sig.ret_type == logic.BOOL})
        ranges = [bool_range(logic.Var(x)) for x, t in consts if t == logic.BOOL]
        self.tree, self.sub, self.reps, self.axioms = _close(ranges + asserts, self.apps, {}, [])

    def decide(self, goal):
        """A model of the hypothesis and the `logic` predicate `goal`, or
        None when they are unsatisfiable. The model is (values, tables): a
        dict from the variables to their values, where one left out is 0,
        and a dict from each function the hypothesis or the goal applies to
        its table, which maps argument values to the result."""
        apps = Apps(self.apps.bools, self.apps.table)
        tree, sub, _, axioms = _close([goal], apps, self.sub, self.reps)
        hyp, hyp_axioms = self.tree, self.axioms
        if sub:
            hyp = _subst_tree(hyp, sub)
            hyp_axioms = [_subst_tree(a, sub) for a in hyp_axioms]
        values = sat_search(_join("and", [hyp, tree] + hyp_axioms + axioms))
        if values is None:
            return None
        # the goal's definitions are over the variables left; the
        # hypothesis's may use the goal's
        for defs in (sub, self.sub):
            for x, repl in defs.items():
                values[x] = eval_lin(repl, values)
        tables = {}
        for const, func, args in apps.table.values():
            key = tuple(eval_lin(a, values) for a in args)
            tables.setdefault(func, {})[key] = values.get(const, 0)
        return values, tables


# ---------------------------------------------------------------------------
# SMT-LIB text: the filter's reader and printer, the query writer and the
# reader of an external solver's answer, each spelling beside its reader.


class Script:
    """A script's declarations as `logic` types, the one copy that both the
    typechecking of its asserts and the solver read, and its asserts."""

    def __init__(self):
        self.consts = {}  # name -> `logic` type (0-ary declarations)
        self.sigs = {}  # name -> FuncSig (declarations with arguments)
        self.asserts = []  # `logic` formulas
        self.want_model = False


def _symbol(x):
    """Whether `x` is a symbol a script may declare: a name, which cannot
    start with a digit, nor with `.` or `@`, which SMT-LIB reserves for the
    solver (this one names its own constants `.ackN` and `.sigN`)."""
    return isinstance(x, str) and not x[0].isdigit() and x[0] not in ".@"


def script_of(commands):
    """The Script of a sequence of SMT-LIB commands given as sexpr forms. A
    declaration must name a symbol not declared before and give its sorts,
    those of a function's arguments in a list: `Int`, `Bool` or a sort of a
    `declare-sort` before it. An assert must have one formula, read into
    `logic` (`formula_of`), which must typecheck over the declarations."""
    script = Script()
    sorts = {"Int": logic.INT, "Bool": logic.BOOL}
    consts, sigs = script.consts, script.sigs

    def sort(name):
        if name not in sorts:
            raise SmtError(f"unknown sort {name}")
        return sorts[name]

    for form in commands:
        head, *rest = form if isinstance(form, list) and form else [None]
        if head in ("set-logic", "set-option", "set-info", "check-sat", "exit"):
            continue
        if head == "get-model":
            script.want_model = True
            continue
        if head == "declare-sort" and len(rest) == 2 and _symbol(rest[0]) and rest[1] == 0:
            if rest[0] in sorts:
                raise SmtError(f"sort {rest[0]} declared twice")
            sorts[rest[0]] = logic.ui(rest[0])
            continue
        if head == "declare-const" and len(rest) == 2 and all(map(_symbol, rest)):
            name, args, ret = rest[0], [], rest[1]
        elif head == "declare-fun" and len(rest) == 3 and isinstance(rest[1], list) and all(
            map(_symbol, [rest[0], *rest[1], rest[2]])
        ):
            name, args, ret = rest
        elif head == "assert" and len(rest) == 1:
            formula = formula_of(rest[0], sigs)
            try:
                logic.typecheck_pred(consts, formula, sigs)
            except logic.LogicError as exc:
                raise SmtError(
                    f"ill-typed assert {sexpr.to_str(rest[0])}: {type(exc).__name__}: {exc}"
                ) from exc
            script.asserts.append(formula)
            continue
        else:
            raise SmtError(f"bad command {sexpr.to_str(form)}")
        if name in consts or name in sigs:
            raise SmtError(f"{name} declared twice")
        if args:
            sigs[name] = logic.FuncSig(name, tuple(map(sort, args)), sort(ret))
        else:
            consts[name] = sort(ret)
    return script


def parse_script(text):
    return script_of(sexpr.parse_many(text))


# SMT-LIB relation -> `logic` comparison. `_smt_form` writes `/=` as
# (not (= l r)), which reads back through `not` and `=`.
_RELATIONS = {"<=": "<=", "<": "<", ">=": ">=", ">": ">", "=": "=", "distinct": "/="}


def _smt_num(n):
    """The integer `n` as an SMT-LIB form, a negative one as `(- m)`: in
    queries and the filter's models, and as `_parse_model` reads it."""
    return n if n >= 0 else ["-", -n]


def _smt_form(x):
    """A predicate or expression as an SMT-LIB form: negative numbers are
    negations (`_smt_num`), true and false are (= 0 0) and (= 0 1), a bool
    variable b is (= b 1) and (/= l r) is (not (= l r)). Only the text of
    `solver_query` needs it; the solver lowers formulas itself (`lower`)."""
    if isinstance(x, logic.Var):
        return x.name
    if isinstance(x, logic.IntLit):
        return _smt_num(x.value)
    if isinstance(x, logic.Add):
        return ["+", *map(_smt_form, x.args)]
    if isinstance(x, logic.ScalarMul):
        return ["*", _smt_num(x.coeff), _smt_form(x.arg)]
    if isinstance(x, logic.App):
        return [x.func, *map(_smt_form, x.args)] if x.args else x.func
    if isinstance(x, logic.TrueLit):
        return ["=", 0, 0]
    if isinstance(x, logic.FalseLit):
        return ["=", 0, 1]
    if isinstance(x, logic.BoolVar):
        return ["=", x.name, 1]
    if isinstance(x, logic.Cmp):
        atom = ["=" if x.op == "/=" else x.op, _smt_form(x.left), _smt_form(x.right)]
        return ["not", atom] if x.op == "/=" else atom
    if isinstance(x, logic.Not):
        return ["not", _smt_form(x.arg)]
    if isinstance(x, logic.And):
        return ["and", *map(_smt_form, x.args)]
    if isinstance(x, logic.Implies):
        return ["=>", _smt_form(x.left), _smt_form(x.right)]
    raise logic.TypeMismatch(f"not a predicate or expression: {x!r}")


def formula_of(form, sigs):
    """The `logic` predicate of an SMT-LIB formula, where `sigs` maps each
    function that takes arguments to its `FuncSig`. A bare symbol is a bool
    variable; `or` and `=>` become implications and `distinct` a
    disequality."""
    if form in ("true", "false"):
        return logic.TRUE if form == "true" else logic.FALSE
    if _symbol(form):
        return logic.BoolVar(form)
    if not isinstance(form, list) or not form or not isinstance(form[0], str):
        raise SmtError(f"bad formula {sexpr.to_str(form)}")
    head, args = form[0], form[1:]
    if head in _RELATIONS:
        if len(args) != 2:
            raise SmtError(f"{head} takes two arguments")
        return logic.Cmp(_RELATIONS[head], term_of(args[0], sigs), term_of(args[1], sigs))
    if head == "not" and len(args) == 1:
        return logic.Not(formula_of(args[0], sigs))
    if head not in ("and", "or", "=>") or (head == "=>" and not args):
        raise SmtError(f"bad formula head {head}")
    kids = [formula_of(f, sigs) for f in args]
    if head == "and":
        return logic.mk_and(*kids)
    if head == "or":
        return logic.mk_or(*kids)
    out = kids[-1]
    for kid in reversed(kids[:-1]):
        out = logic.Implies(kid, out)
    return out


def term_of(form, sigs):
    """The `logic` expression of an SMT-LIB term (see `formula_of`): a sum
    or a difference is one `Add`, as written. All factors of a product but
    one must be constant, and an application must have the arity of its
    `FuncSig`."""
    if isinstance(form, int):
        return logic.IntLit(form)
    if _symbol(form):
        return logic.Var(form)
    if not (isinstance(form, list) and form and isinstance(form[0], str)
            and (form[0] in ("+", "-", "*") or form[0] in sigs)):
        raise SmtError(f"bad term {sexpr.to_str(form)}")
    head, args = form[0], [term_of(f, sigs) for f in form[1:]]
    if head == "+":
        if len(args) < 2:
            return args[0] if args else logic.IntLit(0)
        return logic.Add(tuple(args))
    if head == "-":
        if not args:
            raise SmtError("- takes one or more arguments")
        if len(args) == 1:
            return logic.ScalarMul(-1, args[0])
        return logic.Add((args[0], *[logic.ScalarMul(-1, a) for a in args[1:]]))
    if head == "*":
        coeff, term = 1, None
        for arg in args:
            lin = lin_of(arg, Apps())
            if not lin_vars(lin):
                coeff *= lin.get(None, 0)
            elif term is not None and coeff:
                raise SmtError(f"nonlinear product {sexpr.to_str(form)}")
            else:
                term = arg
        return logic.IntLit(coeff) if term is None else logic.ScalarMul(coeff, term)
    arity = len(sigs[head].arg_types)
    if len(args) != arity:
        raise SmtError(f"{head} expects {arity} args, got {len(args)}")
    return logic.App(head, tuple(args))


def solver_query(env, p, sigs=None):
    """The SMT-LIB commands, as sexpr forms, that ask the solver for a model
    of the negation of the `logic` predicate `p` under the `TypeEnv` `env`.
    Sorts are declared in order of first use, then the variables, then the
    functions `p` applies, by name, bools as Int; so each bool variable, and
    then each distinct application in `p` of a bool-valued function, is
    asserted to lie in {0, 1} (`bool_range`)."""
    sigs = sigs or {}
    sorts = []

    def sort_name(t):
        if t.kind == "ui":
            if t.ui_name not in sorts:
                sorts.append(t.ui_name)
            return t.ui_name
        return "Int"

    decls = [["declare-fun", name, [], sort_name(t)] for name, t in env.bindings]
    apps = logic.applications(p)
    for fname in sorted({a.func for a in apps}):
        sig = sigs.get(fname)
        if sig is None:
            raise logic.UnknownFunction(fname)
        args = [sort_name(t) for t in sig.arg_types]
        decls.append(["declare-fun", sig.name, args, sort_name(sig.ret_type)])
    ranges = [bool_range(logic.Var(name)) for name, t in env.bindings if t == logic.BOOL]
    ranges += [bool_range(a) for a in apps if sigs[a.func].ret_type == logic.BOOL]
    return (
        [["set-logic", "QF_UFLIA"]]
        + [["declare-sort", s, 0] for s in sorts]
        + decls
        + [["assert", _smt_form(r)] for r in ranges]
        + [["assert", ["not", _smt_form(p)]], ["check-sat"], ["get-model"]]
    )


def emit_solver_query(env, p, sigs=None):
    """The text of `solver_query`, one command a line: what `--emit-smt`
    writes and an external solver reads."""
    return "".join(sexpr.to_str(c) + "\n" for c in solver_query(env, p, sigs))


class QueryLog:
    """The directory in which one run writes each query it sends to the
    search, as an SMT-LIB script: q_0.smt2, q_1.smt2, ... in the order the
    run asks them. The run that creates the log owns its query index."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, text):
        os.makedirs(self.directory, exist_ok=True)
        with open(os.path.join(self.directory, f"q_{self.count}.smt2"), "w") as fh:
            fh.write(text)
        self.count += 1


def ask_solver(cmd, text, env):
    """The `logic.Verdict` of the external SMT-LIB solver `cmd` on the query
    `text`, written for the `TypeEnv` `env`: `unsat` is VALID, `unknown`
    or no answer in 60 s UNKNOWN, and `sat` INVALID, with the model that
    `_parse_model` reads. A solver that cannot be started raises
    `SolverUnavailable`, and any other answer `SolverProtocolError`."""
    import shlex  # only --smt-cmd needs these two: keep them out of every start
    import subprocess

    try:
        proc = subprocess.run(
            shlex.split(cmd), input=text, capture_output=True, text=True, timeout=60
        )
    except FileNotFoundError as exc:
        raise SolverUnavailable(str(exc)) from exc
    except subprocess.TimeoutExpired:
        return logic.Verdict(logic.UNKNOWN)
    output = proc.stdout
    words = output.split(maxsplit=1)
    if not words:
        raise SolverProtocolError("empty solver output")
    if words[0] == "sat":
        return logic.Verdict(logic.INVALID, _parse_model(output, env))
    if words[0] not in ("unsat", "unknown"):
        raise SolverProtocolError(output.splitlines()[0])
    return logic.Verdict(logic.VALID if words[0] == "unsat" else logic.UNKNOWN)


def _parse_model(output, env):
    """The `logic.Interpretation` of the model after the first line of a
    `sat` answer: the value of each variable of `env` that a
    `(define-fun x () S v)` entry gives as a number, written as `_smt_num`
    writes it, in binding order. It has no function tables."""
    try:
        body = output[output.index("\n") :]
        forms = sexpr.parse_many(body)
    except (ValueError, sexpr.SexprError):
        return logic.Interpretation()
    values = {}
    stack = list(forms)
    while stack:
        f = stack.pop()
        if not isinstance(f, list):
            continue
        if len(f) == 5 and f[0] == "define-fun" and f[2] == []:
            val = f[4]
            if isinstance(val, list) and len(val) == 2 and val[0] == "-" and isinstance(val[1], int):
                val = -val[1]
            if isinstance(val, int) and env.get(f[1]) is not None:
                values[f[1]] = val
        else:
            stack.extend(f)
    return logic.Interpretation({n: values[n] for n, _ in env.bindings if n in values}, {})


def solve_script(text):
    """The filter's answer to an SMT-LIB script: `unsat`, or `sat` and, when
    the script asks for it, the value of every declared constant, a `Bool`
    one as `true` or `false`. A context over the script's declarations, with
    no hypothesis of its own, decides the conjunction of the asserts, which
    `script_of` read into `logic`; a constant the asserts leave free may
    take any value."""
    script = parse_script(text)
    model = Context(script.consts.items(), script.sigs, []).decide(logic.mk_and(*script.asserts))
    if model is None:
        return "unsat\n"
    lines = ["sat"]
    if script.want_model:
        lines.append("(model")
        for name, t in script.consts.items():
            val = model[0].get(name, 0)
            if t == logic.BOOL:
                sort, txt = "Bool", "true" if val == 1 else "false"
            else:
                sort, txt = t.ui_name or "Int", sexpr.to_str(_smt_num(val))
            lines.append(f"  (define-fun {name} () {sort} {txt})")
        lines.append(")")
    return "\n".join(lines) + "\n"


def main():
    try:
        text = sys.stdin.read()
        sys.stdout.write(solve_script(text))
    except (SmtError, sexpr.SexprError) as exc:
        sys.stdout.write(f"(error \"{exc}\")\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
