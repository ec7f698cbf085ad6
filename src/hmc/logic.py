"""Refinement logic: base types, expressions, predicates, evaluation and
validity checking.

The logic is quantifier-free linear integer arithmetic plus uninterpreted
functions. Booleans are modeled as integers restricted to {0,1}; uninterpreted
types are opaque sorts that the finite-domain oracle models as integer ranges.

Formulas and terms keep the shape they are written in: `(and a b c)` is one
`And` of three conjuncts and `(+ a b c)` one `Add` of three terms, so a long
conjunction or sum is a wide node, not a deep one, and it prints back as
written. Each job over formulas is one visitor over
predicates and expressions alike: `free_vars` collects variables, `subst`
substitutes, and `to_text` writes the text that the readers read back, in
one walk with no list form on the way. Typechecking and evaluation keep a
function per sort, since they return different things for each.
"""

from __future__ import annotations

import itertools

from . import sexpr, smt

VALUE_VAR = "v"


class LogicError(Exception):
    pass


class UnboundVariable(LogicError):
    pass


class TypeMismatch(LogicError):
    pass


class UnknownFunction(LogicError):
    pass


class NonBoolAtom(LogicError):
    pass


class MissingBinding(LogicError):
    pass


# ---------------------------------------------------------------------------
# Immutable values


_set = object.__setattr__


class Frozen:
    """Base of the immutable value classes: formula nodes, types,
    instructions and constraints. Each subclass lists its fields in
    `__slots__`; a name starting with `_` is a cache, not a field.

    When a subclass is created, its fields are stored once as `_fields`,
    and each of `__init__` (set every field through `object.__setattr__`),
    `__eq__` (an instance of the same class with equal fields) and
    `__hash__` (the hash of the tuple of its fields) that the class does
    not write itself is written as plain code, one `exec` per class.

    `dataclasses` would generate the same methods, but importing it costs
    about 8.5 ms, 7.2 of them in `inspect`, and it builds each method with
    its own `exec`. With one `exec` per class, `import hmc.cli, hmc.smt`
    took a median of 10.3 ms with a warm bytecode cache and 47.1 ms when
    every launch compiles the sources, against 7.4 and 47.1 ms with every
    method written out in the source (2-core x86-64, Python 3.11.7)."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls._fields = fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        sets = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields) or "    pass\n"
        same = " and ".join(f"self.{f} == other.{f}" for f in fields) or "True"
        code = {
            "__init__": f"def __init__(self{''.join(f', {f}' for f in fields)}):\n{sets}",
            "__eq__": "def __eq__(self, other):\n"
            "    if other.__class__ is not self.__class__:\n"
            "        return NotImplemented\n"
            f"    return {same}\n",
            "__hash__": "def __hash__(self):\n"
            f"    return hash(({''.join(f'self.{f}, ' for f in fields)}))\n",
        }
        # a class that writes `__eq__` alone has `__hash__` set to None
        todo = [name for name in code if vars(cls).get(name) is None]
        namespace = {"_set": _set, "__name__": cls.__module__}
        exec("".join(code[name] for name in todo), namespace)
        for name in todo:
            method = namespace[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):  # copy and pickle rebuild through `__init__`
        return type(self), tuple(getattr(self, f) for f in self._fields)


# ---------------------------------------------------------------------------
# Types


class BaseType(Frozen):
    __slots__ = ("kind", "ui_name")  # kind: "int" | "bool" | "ui"

    def __init__(self, kind, ui_name=None):
        if kind not in ("int", "bool", "ui"):
            raise TypeMismatch(f"bad type kind {kind!r}")
        if (kind == "ui") != (ui_name is not None):
            raise TypeMismatch("ui types carry a name; int/bool do not")
        _set(self, "kind", kind)
        _set(self, "ui_name", ui_name)

    def __str__(self):
        """The type as written: `int`, `bool` or `(ui obj)`."""
        return f"(ui {self.ui_name})" if self.kind == "ui" else self.kind


INT = BaseType("int")
BOOL = BaseType("bool")


def ui(name):
    return BaseType("ui", name)


def type_from_sexpr(form):
    if form == "int":
        return INT
    if form == "bool":
        return BOOL
    if isinstance(form, list) and len(form) == 2 and form[0] == "ui":
        return ui(form[1])
    raise TypeMismatch(f"bad type syntax {sexpr.to_str(form)}")


class FuncSig(Frozen):
    __slots__ = ("name", "arg_types", "ret_type")


# ---------------------------------------------------------------------------
# Expressions


class Var(Frozen):
    __slots__ = ("name",)


class IntLit(Frozen):
    __slots__ = ("value",)


class Add(Frozen):
    """The sum of `args`, a tuple of two or more expressions, as written:
    `(+ a b c)` is one node, and a nested `Add` stays one argument."""

    __slots__ = ("args",)


class ScalarMul(Frozen):
    __slots__ = ("coeff", "arg")


class App(Frozen):
    __slots__ = ("func", "args")


# ---------------------------------------------------------------------------
# Predicates

CMP_OPS = ("=", "/=", "<", "<=", ">", ">=")


class Cmp(Frozen):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in CMP_OPS:
            raise TypeMismatch(f"bad comparison operator {op!r}")
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)


class Not(Frozen):
    __slots__ = ("arg",)


class And(Frozen):
    """The conjunction of `args`, a tuple of two or more predicates, as
    written: `(and a b c)` is one node, and a conjunct that is itself an
    `And` stays one argument."""

    __slots__ = ("args",)


class Implies(Frozen):
    __slots__ = ("left", "right")


class BoolVar(Frozen):
    __slots__ = ("name",)


class TrueLit(Frozen):
    __slots__ = ()


class FalseLit(Frozen):
    __slots__ = ()


TRUE = TrueLit()
FALSE = FalseLit()


def mk_and(*ps):
    """The conjunction of `ps`, in their order, as one `And` node: true
    conjuncts are dropped, a false one makes it false, and a single one is
    returned alone. Nested `And`s are not spliced in."""
    ps = tuple(p for p in ps if p != TRUE)
    if FALSE in ps:
        return FALSE
    if len(ps) < 2:
        return ps[0] if ps else TRUE
    return And(ps)


def mk_or(*ps):
    """Disjunction encoded as (not p) => q (the AST has no or-node)."""
    ps = [p for p in ps if p != FALSE]
    if any(p == TRUE for p in ps):
        return TRUE
    if not ps:
        return FALSE
    out = ps[-1]
    for p in reversed(ps[:-1]):
        out = Implies(Not(p), out)
    return out


# ---------------------------------------------------------------------------
# Syntax <-> sexpr


def expr_from_sexpr(form):
    if isinstance(form, int):
        return IntLit(form)
    if isinstance(form, str):
        return Var(form)
    if not form:
        raise TypeMismatch("empty expression form")
    head = form[0]
    if head == "+":
        args = [expr_from_sexpr(f) for f in form[1:]]
        if len(args) < 2:
            raise TypeMismatch("+ needs at least two arguments")
        return Add(tuple(args))
    if head == "-":
        args = [expr_from_sexpr(f) for f in form[1:]]
        neg = lambda e: IntLit(-e.value) if isinstance(e, IntLit) else ScalarMul(-1, e)
        if len(args) == 1:
            return neg(args[0])
        if len(args) == 2:
            return Add((args[0], neg(args[1])))
        raise TypeMismatch("- takes one or two arguments")
    if head == "*":
        if len(form) != 3 or not isinstance(form[1], int):
            raise TypeMismatch("* is affine: (* INT expr)")
        return ScalarMul(form[1], expr_from_sexpr(form[2]))
    if isinstance(head, str):
        return App(head, tuple(expr_from_sexpr(f) for f in form[1:]))
    raise TypeMismatch(f"bad expression {sexpr.to_str(form)}")


def pred_from_sexpr(form):
    if form == "true":
        return TRUE
    if form == "false":
        return FALSE
    if isinstance(form, str):
        return BoolVar(form)
    if isinstance(form, list) and form:
        head = form[0]
        if head in CMP_OPS:
            if len(form) != 3:
                raise TypeMismatch(f"{head} takes two arguments")
            return Cmp(head, expr_from_sexpr(form[1]), expr_from_sexpr(form[2]))
        if head == "not":
            if len(form) != 2:
                raise TypeMismatch("not takes one argument")
            return Not(pred_from_sexpr(form[1]))
        if head in ("and", "=>"):
            args = tuple(pred_from_sexpr(f) for f in form[1:])
            if len(args) < 2:
                raise TypeMismatch(f"{head} needs at least two arguments")
            if head == "and":
                return And(args)
            out = args[-1]
            for a in reversed(args[:-1]):
                out = Implies(a, out)
            return out
    raise TypeMismatch(f"bad predicate {sexpr.to_str(form)}")


def to_text(x):
    """The predicate or expression `x` as the text that `pred_from_sexpr`
    or `expr_from_sexpr` reads back, written in one walk: canonical, as
    `sexpr.to_str` prints, with single spaces and no line breaks."""
    if isinstance(x, Cmp):
        return f"({x.op} {to_text(x.left)} {to_text(x.right)})"
    if isinstance(x, (Var, BoolVar)):
        return x.name
    if isinstance(x, IntLit):
        return str(x.value)
    if isinstance(x, Add):
        return f"(+ {' '.join(map(to_text, x.args))})"
    if isinstance(x, ScalarMul):
        return f"(* {x.coeff} {to_text(x.arg)})"
    if isinstance(x, App):
        return f"({' '.join((x.func, *map(to_text, x.args)))})"
    if isinstance(x, And):
        return f"(and {' '.join(map(to_text, x.args))})"
    if isinstance(x, Not):
        return f"(not {to_text(x.arg)})"
    if isinstance(x, Implies):
        return f"(=> {to_text(x.left)} {to_text(x.right)})"
    if isinstance(x, TrueLit):
        return "true"
    if isinstance(x, FalseLit):
        return "false"
    raise TypeMismatch(f"not a predicate or expression: {x!r}")


# ---------------------------------------------------------------------------
# Traversals


def free_vars(x, out=None):
    """The names of the variables, int and bool, that the predicate or
    expression `x` reads, added to the set `out`."""
    if out is None:
        out = set()
    if isinstance(x, (Var, BoolVar)):
        out.add(x.name)
    elif isinstance(x, (Cmp, Implies)):
        free_vars(x.left, out)
        free_vars(x.right, out)
    elif isinstance(x, (Not, ScalarMul)):
        free_vars(x.arg, out)
    elif isinstance(x, (And, Add, App)):
        for a in x.args:
            free_vars(a, out)
    return out


def applications(p):
    """The distinct applications in the predicate or expression `p`, in the
    order of a fixed walk."""
    out, stack = {}, [p]
    while stack:
        x = stack.pop()
        if isinstance(x, App):
            out[x] = None
        if isinstance(x, (And, Add, App)):
            stack.extend(x.args)
        elif isinstance(x, (Cmp, Implies)):
            stack += (x.left, x.right)
        elif isinstance(x, (Not, ScalarMul)):
            stack.append(x.arg)
    return list(out)


def subst(x, mapping):
    """Simultaneous substitution of variables by expressions in the
    predicate or expression `x`. A bool variable mapped to a variable is
    renamed; mapped to any other expression `e`, it becomes `(= e 1)`."""
    if isinstance(x, Var):
        return mapping.get(x.name, x)
    if isinstance(x, (IntLit, TrueLit, FalseLit)):
        return x
    if isinstance(x, Cmp):
        return Cmp(x.op, subst(x.left, mapping), subst(x.right, mapping))
    if isinstance(x, Not):
        return Not(subst(x.arg, mapping))
    if isinstance(x, App):
        return App(x.func, tuple([subst(a, mapping) for a in x.args]))
    if isinstance(x, ScalarMul):
        return ScalarMul(x.coeff, subst(x.arg, mapping))
    if isinstance(x, (And, Add)):
        return type(x)(tuple([subst(a, mapping) for a in x.args]))
    if isinstance(x, Implies):
        return Implies(subst(x.left, mapping), subst(x.right, mapping))
    if isinstance(x, BoolVar):
        repl = mapping.get(x.name)
        if repl is None:
            return x
        if isinstance(repl, Var):
            return BoolVar(repl.name)
        return Cmp("=", repl, IntLit(1))
    raise TypeMismatch(f"not a predicate or expression: {x!r}")


def rename_pred(p, mapping):
    return subst(p, {k: Var(v) for k, v in mapping.items()})


# ---------------------------------------------------------------------------
# Environments


class TypeEnv(Frozen):
    __slots__ = ("bindings", "_types")  # ((name, BaseType), ...): hashable, it keys query caches

    def __init__(self, bindings=()):
        types = dict(bindings)
        if len(types) != len(bindings):
            raise TypeMismatch("duplicate binding in type environment")
        _set(self, "bindings", bindings)
        _set(self, "_types", types)

    def get(self, name):
        return self._types.get(name)

    def extend(self, name, typ):
        return TypeEnv(self.bindings + ((name, typ),))

    @staticmethod
    def of(*pairs):
        return TypeEnv(tuple(pairs))


def type_of(env, name):
    """The type of `name` under `env`, a `TypeEnv` or a dict."""
    t = env.get(name)
    if t is None:
        raise UnboundVariable(name)
    return t


def typecheck_expr(env, e, sigs=None):
    """Return the base type of `e` under `env` (see `type_of`); sigs maps
    function names to FuncSig."""
    sigs = sigs or {}
    if isinstance(e, Var):
        return type_of(env, e.name)
    if isinstance(e, IntLit):
        return INT
    if isinstance(e, (Add, ScalarMul)):
        for part in e.args if isinstance(e, Add) else (e.arg,):
            t = typecheck_expr(env, part, sigs)
            if t != INT:
                raise TypeMismatch(f"arithmetic over non-int operand {to_text(part)}")
        return INT
    if isinstance(e, App):
        sig = sigs.get(e.func)
        if sig is None:
            raise UnknownFunction(e.func)
        if len(e.args) != len(sig.arg_types):
            raise TypeMismatch(
                f"{e.func} expects {len(sig.arg_types)} args, got {len(e.args)}"
            )
        for a, want in zip(e.args, sig.arg_types):
            got = typecheck_expr(env, a, sigs)
            if got != want:
                raise TypeMismatch(f"argument {to_text(a)} of {e.func}")
        return sig.ret_type
    raise TypeMismatch(f"not an expression: {e!r}")


def typecheck_cmp(env, p, sigs=None):
    """Check the comparison `p` under `env`; return the types of its sides."""
    lt = typecheck_expr(env, p.left, sigs)
    rt = typecheck_expr(env, p.right, sigs)
    if p.op in ("=", "/="):
        # ui-sorted terms may be equated with ints: the oracle and the
        # solver both model uninterpreted sorts by integers
        if lt != rt and "bool" in (lt.kind, rt.kind):
            raise TypeMismatch(f"comparison between {lt} and {rt}")
    elif lt != INT or rt != INT:
        raise TypeMismatch("ordered comparison over non-int operands")
    return lt, rt


def typecheck_pred(env, p, sigs=None):
    sigs = sigs or {}
    if isinstance(p, (TrueLit, FalseLit)):
        return
    if isinstance(p, BoolVar):
        if type_of(env, p.name) != BOOL:
            raise NonBoolAtom(p.name)
        return
    if isinstance(p, Cmp):
        typecheck_cmp(env, p, sigs)
        return
    if isinstance(p, Not):
        typecheck_pred(env, p.arg, sigs)
        return
    if isinstance(p, (And, Implies)):
        for part in p.args if isinstance(p, And) else (p.left, p.right):
            typecheck_pred(env, part, sigs)
        return
    raise TypeMismatch(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# Evaluation


class Interpretation:
    def __init__(self, var_values=None, func_tables=None):
        self.var_values = {} if var_values is None else var_values
        self.func_tables = {} if func_tables is None else func_tables


class ValueDomain:
    def __init__(self, int_range=(-2, 2), ui_ranges=()):
        lo, hi = int_range
        if lo > hi or not (lo <= 0 and 1 <= hi):
            raise LogicError("int_range must be non-empty and contain 0 and 1")
        for _, (ulo, uhi) in ui_ranges:
            if ulo > uhi:
                raise LogicError("empty ui range")
        self.int_range = int_range
        self.ui_ranges = ui_ranges  # ((name, (lo, hi)), ...)

    def ui_range(self, name):
        for n, r in self.ui_ranges:
            if n == name:
                return r
        return self.int_range

    def values(self, t):
        if t == BOOL:
            return range(0, 2)
        if t.kind == "ui":
            lo, hi = self.ui_range(t.ui_name)
        else:
            lo, hi = self.int_range
        return range(lo, hi + 1)

    def min_value(self, t):
        return self.values(t)[0]


def eval_expr(interp, e):
    if isinstance(e, Var):
        if e.name not in interp.var_values:
            raise MissingBinding(e.name)
        return interp.var_values[e.name]
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Add):
        total = 0
        for a in e.args:
            total += eval_expr(interp, a)
        return total
    if isinstance(e, ScalarMul):
        return e.coeff * eval_expr(interp, e.arg)
    if isinstance(e, App):
        table = interp.func_tables.get(e.func)
        if table is None:
            raise MissingBinding(e.func)
        key = tuple(eval_expr(interp, a) for a in e.args)
        if key not in table:
            raise MissingBinding(f"{e.func}{key}")
        return table[key]
    raise TypeMismatch(f"not an expression: {e!r}")


_CMP_FUN = {
    "=": lambda a, b: a == b,
    "/=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def eval_pred(interp, p):
    if isinstance(p, TrueLit):
        return True
    if isinstance(p, FalseLit):
        return False
    if isinstance(p, BoolVar):
        return eval_expr(interp, Var(p.name)) == 1
    if isinstance(p, Cmp):
        return _CMP_FUN[p.op](eval_expr(interp, p.left), eval_expr(interp, p.right))
    if isinstance(p, Not):
        return not eval_pred(interp, p.arg)
    if isinstance(p, And):
        return all(eval_pred(interp, a) for a in p.args)
    if isinstance(p, Implies):
        return (not eval_pred(interp, p.left)) or eval_pred(interp, p.right)
    raise TypeMismatch(f"not a predicate: {p!r}")


# ---------------------------------------------------------------------------
# Interpretation enumeration (oracle machinery)

# why the oracle, finding no counterexample, cannot say SAFE or VALID
SAMPLED = "sampled interpretations only; no counterexample found"
OUTSIDE = "an application outside the domain left cases unevaluated; no counterexample found"


def enumerate_valuations(env, domain):
    names = [n for n, _ in env.bindings]
    spaces = [list(domain.values(t)) for _, t in env.bindings]
    for combo in itertools.product(*spaces):
        yield dict(zip(names, combo))


def table_space(sig, domain, keys=None):
    """Domain keys and codomain values of one function's finite tables: the
    argument tuples that `keys` lists for the function, else every tuple
    over the domain."""
    outs = list(domain.values(sig.ret_type))
    if keys and sig.name in keys:
        return keys[sig.name], outs
    return list(itertools.product(*map(domain.values, sig.arg_types))), outs


def enumerate_func_tables(sigs, domain, table_budget=256, seed=0, keys=None):
    """(choices, exhaustive): each choice assigns each sig a finite map over
    its keys (`table_space`). When the exhaustive count exceeds the budget,
    the choices are `table_budget` seeded uniform samples instead, and
    exhaustive is False.
    """
    sigs = sorted(sigs, key=lambda s: s.name)
    if not sigs:
        return [{}], True
    spaces = [table_space(s, domain, keys) for s in sigs]
    count = 1
    for ks, outs in spaces:
        count *= len(outs) ** len(ks)
    if count <= table_budget:
        per_sig = [
            [dict(zip(ks, vals)) for vals in itertools.product(outs, repeat=len(ks))]
            for ks, outs in spaces
        ]
        return [
            {s.name: t for s, t in zip(sigs, combo)} for combo in itertools.product(*per_sig)
        ], True
    import random  # only sampling needs it: keep it out of every start

    rng = random.Random(seed)
    return [
        {sig.name: {k: rng.choice(outs) for k in ks} for sig, (ks, outs) in zip(sigs, spaces)}
        for _ in range(table_budget)
    ], False


# ---------------------------------------------------------------------------
# Validity checking


class OracleMode:
    def __init__(self, domain, table_budget=256, seed=0):
        self.domain = domain
        self.table_budget = table_budget
        self.seed = seed


class SolverMode:
    def __init__(self, cmd=None, emit=None):
        self.cmd = cmd  # None: built-in decision procedure, in process
        self.emit = emit  # an `smt.QueryLog`, or None


VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"


class Verdict:
    def __init__(self, status, witness=None, reasons=()):
        self.status = status
        self.witness = witness  # an Interpretation, or None
        self.reasons = reasons  # why the oracle's UNKNOWN is not VALID: SAMPLED, OUTSIDE

    def __bool__(self):
        return self.status == VALID


def implies(hyp, q):
    """`hyp => q`, or `q` alone when `hyp` is true."""
    return q if hyp == TRUE else Implies(hyp, q)


def check_valid(env, p, mode, sigs=None):
    """Decide validity of `p` under `env`: a hypothesis of true decides `p`
    as its one goal (see `Hypothesis`).

    ORACLE mode enumerates the finite domain (function tables may be
    sampled, in which case a would-be VALID result degrades to UNKNOWN).
    SOLVER mode asks the decision procedure for a model of the negation.
    The bundled solver runs in process on an `smt.Context` over the
    declarations of `env` and `sigs`, which lowers `p` itself, with no
    SMT-LIB text or form on the way, and the witness comes straight from its
    model, with a table for each function the query applies. `smt` prints
    the query as SMT-LIB text only for `mode.emit` and for an external
    solver `mode.cmd`, whose model `smt.ask_solver` reads back without
    tables. A witness lists the variables of `env` in binding order. `p`
    must be well typed under `env`, as for `Hypothesis`.
    """
    return Hypothesis(env, TRUE, mode, sigs).check(p)


class Hypothesis:
    """The validity of `hyp => goal` under `env`, for one hypothesis and
    many goals.

    The hypothesis and every goal must be well typed under `env`; nothing
    here typechecks them. Each boundary checks its input
    (`constraints.parse_constraints`, `typecheck_solution`,
    `absint.parse_preds`), putting a block in SSA form checks its path by
    `imp.type_instr`, and harvest keeps only the candidates that typecheck.

    The hypothesis is handed as it is to an `smt.Context` over the
    bindings of `env` and the `sigs`, for the bundled solver, which lowers
    it once; each goal is handed over negated. The context ranges the bools
    from these declarations and makes every application, nullary ones
    included, its Ackermann constant. Each goal's verdict is cached. The
    witnesses of the INVALID verdicts are pooled: each one satisfies the
    hypothesis, so a goal that one of them falsifies is INVALID with no
    search. A witness that cannot evaluate a goal (`MissingBinding`: an
    application outside its tables, or a variable an external solver left
    out) decides nothing, and the goal goes to the search.
    """

    def __init__(self, env, hyp, mode, sigs=None):
        self.env = env
        self.hyp = hyp
        self.mode = mode
        self.sigs = sigs or {}
        self.verdicts = {}  # goal -> Verdict
        self.models = []  # the witnesses of the INVALID verdicts searched
        self._context = None

    def check(self, goal):
        verdict = self.verdicts.get(goal)
        if verdict is None:
            verdict = self.verdicts[goal] = self._decide(goal)
        return verdict

    def _decide(self, goal):
        for model in self.models:
            try:
                if not eval_pred(model, goal):
                    return Verdict(INVALID, model)
            except MissingBinding:
                continue
        if isinstance(self.mode, OracleMode):
            verdict = _check_valid_oracle(self.env, implies(self.hyp, goal), self.mode, self.sigs)
        else:
            verdict = self._solve(goal)
        if verdict.status == INVALID:
            self.models.append(verdict.witness)
        return verdict

    def _solve(self, goal):
        mode = self.mode
        if mode.emit or mode.cmd:
            text = smt.emit_solver_query(self.env, implies(self.hyp, goal), self.sigs)
            if mode.emit:
                mode.emit.write(text)
            if mode.cmd:
                return smt.ask_solver(mode.cmd, text, self.env)
        if self._context is None:
            self._context = smt.Context(self.env.bindings, self.sigs, [self.hyp])
        model = self._context.decide(Not(goal))
        if model is None:
            return Verdict(VALID)
        values, tables = model
        values = {name: values.get(name, 0) for name, _ in self.env.bindings}
        return Verdict(INVALID, Interpretation(values, tables))


def _check_valid_oracle(env, p, mode, sigs):
    """The oracle's verdict on `p`: a function whose every application in
    `p` has variable-free arguments gets its tables over the tuples those
    take, any other one over the whole domain. A valuation whose evaluation
    needs a table entry that the tables lack decides nothing, and `p` is
    then UNKNOWN unless another valuation refutes it."""
    active = [sigs[f] for f in sorted({a.func for a in applications(p)})]
    tables, exhaustive = enumerate_func_tables(
        active, mode.domain, mode.table_budget, mode.seed, _applied_keys(p)
    )
    outside = False
    for tab in tables:
        for vals in enumerate_valuations(env, mode.domain):
            interp = Interpretation(vals, tab)
            try:
                if not eval_pred(interp, p):
                    return Verdict(INVALID, interp)
            except MissingBinding:
                outside = True
    reasons = (() if exhaustive else (SAMPLED,)) + ((OUTSIDE,) if outside else ())
    return Verdict(UNKNOWN, reasons=reasons) if reasons else Verdict(VALID)


def _applied_keys(p):
    """function -> the sorted argument tuples of its applications in `p`,
    for each function whose every application has variable-free arguments:
    no variable and no application in them."""
    keys, free, nothing = {}, set(), Interpretation()
    for a in applications(p):
        try:
            key = tuple(eval_expr(nothing, e) for e in a.args)
        except MissingBinding:
            free.add(a.func)
        else:
            keys.setdefault(a.func, set()).add(key)
    return {f: sorted(ks) for f, ks in keys.items() if f not in free}
