"""Refinement-type constraints.

A constraint set declares uninterpreted functions, refinement variables
(kvars, each with a value sort and pending-substitution parameters), and
subtyping constraints `G |- {v:b | r1} <: {v:b | r2}`. Refinements are either
concrete predicates over the value variable `v` (plus in-scope program
variables) or applications `(kapp k e1 ... en)` of a kvar to argument
expressions standing in for its parameters.

A solution is a dict from kvar name to a predicate over the kvar's fields:
`v` and its parameters. It satisfies the set when every constraint's
embedding `env /\\ lhs => rhs` is valid.
"""

from __future__ import annotations

from . import sexpr
from .logic import (
    BaseType,
    Frozen,
    FuncSig,
    Implies,
    LogicError,
    TRUE,
    TypeEnv,
    VALUE_VAR,
    Var,
    check_valid,
    expr_from_sexpr,
    mk_and,
    pred_from_sexpr,
    subst,
    to_text,
    type_from_sexpr,
    typecheck_expr,
    typecheck_pred,
)


class ConstraintError(Exception):
    pass


class KVarSig(Frozen):
    __slots__ = ("name", "value_type", "params")  # params: ((name, BaseType), ...)

    @property
    def field_types(self):
        return (self.value_type,) + tuple(t for _, t in self.params)

    @property
    def field_names(self):
        return (VALUE_VAR,) + tuple(n for n, _ in self.params)


class Concrete(Frozen):
    __slots__ = ("pred",)


class KApp(Frozen):
    __slots__ = ("kvar", "args")  # args: expressions, one per parameter after normalization


class RefType(Frozen):
    __slots__ = ("base", "ref")  # ref: Concrete | KApp


class SubConstraint(Frozen):
    __slots__ = ("label", "env", "lhs", "rhs")  # env: ((name, RefType), ...)


class ConstraintSet:
    def __init__(self, uninterps=None, kvars=None, constraints=None):
        self.uninterps = {} if uninterps is None else uninterps  # name -> FuncSig
        self.kvars = {} if kvars is None else kvars  # name -> KVarSig
        self.constraints = [] if constraints is None else constraints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.uninterps == other.uninterps
            and self.kvars == other.kvars
            and self.constraints == other.constraints
        )


# ---------------------------------------------------------------------------
# Embedding


def ref_pred(cs, rt, sol):
    """The refinement as a predicate over `v` (and in-scope variables)."""
    if isinstance(rt.ref, Concrete):
        return rt.ref.pred
    if sol is None:
        raise ConstraintError(f"kvar {rt.ref.kvar} needs a solution to embed")
    sig = cs.kvars[rt.ref.kvar]
    base = sol[sig.name]
    mapping = {n: e for (n, _), e in zip(sig.params, rt.ref.args)}
    return subst(base, mapping) if mapping else base


def embed_env(cs, env, sol):
    """Conjunction of binding refinements, each with the binder for `v`."""
    parts = []
    for name, rt in env:
        p = ref_pred(cs, rt, sol)
        parts.append(subst(p, {VALUE_VAR: Var(name)}))
    return mk_and(*parts)


def embed_sub(cs, c, sol):
    """(type env, predicate) whose validity is the constraint's truth."""
    tenv = TypeEnv(
        tuple((n, rt.base) for n, rt in c.env) + ((VALUE_VAR, c.lhs.base),)
    )
    g = embed_env(cs, c.env, sol)
    l = ref_pred(cs, c.lhs, sol)
    r = ref_pred(cs, c.rhs, sol)
    body = Implies(l, r)
    if g != TRUE:
        body = Implies(g, body)
    return tenv, body


class SatReport:
    def __init__(self, verdicts):
        self.verdicts = verdicts  # [(label, Verdict)]

    @property
    def satisfied(self):
        return all(v for _, v in self.verdicts)

    @property
    def first_failure(self):
        for label, v in self.verdicts:
            if not v:
                return label, v
        return None


def check_satisfied(cs, sol, mode):
    """Check every constraint's embedding under `sol`, which is left as it
    is; missing kvar entries default to true.

    A constraint's embedding is fixed by its shape: each binder's name,
    base and refinement, the lhs base and refinement, and the rhs
    refinement. A concrete refinement stands for its predicate, and a kapp
    for its arguments and the kvar's solution entry and parameter names:
    kvars with one entry but parameters in another order embed the same
    arguments differently. Each distinct shape is embedded once, and
    constraints that embed to the same (tenv, q) pair share one decision,
    so the solver is asked once per distinct embedding, in the order each
    is first seen. Both caches are local to this call, so the result is
    that of deciding each constraint's embedding."""
    sol = dict.fromkeys(cs.kvars, TRUE) | sol
    # (solution entry, parameter names) -> its number, so that a shape
    # hashes each kvar's entry once per call and not once per kapp
    kvar_keys = {}
    kvar_key = {
        name: kvar_keys.setdefault((sol[name], sig.field_names), len(kvar_keys))
        for name, sig in cs.kvars.items()
    }

    def ref_key(ref):
        if isinstance(ref, Concrete):
            return ref.pred
        return kvar_key[ref.kvar], ref.args

    by_shape = {}
    decided = {}
    verdicts = []
    for c in cs.constraints:
        shape = (
            tuple((n, rt.base, ref_key(rt.ref)) for n, rt in c.env),
            c.lhs.base,
            ref_key(c.lhs.ref),
            ref_key(c.rhs.ref),
        )
        verdict = by_shape.get(shape)
        if verdict is None:
            key = embed_sub(cs, c, sol)
            verdict = decided.get(key)
            if verdict is None:
                verdict = decided[key] = check_valid(*key, mode, cs.uninterps)
            by_shape[shape] = verdict
        verdicts.append((c.label, verdict))
    return SatReport(verdicts)


# ---------------------------------------------------------------------------
# Concrete syntax


def _shape(form, n, what, more=False, names=1):
    """`form`, checked to be a list of `n` items (at least `n` if `more`)
    whose first `names` items, one or two and at most `n`, are names."""
    if (
        not isinstance(form, list)
        or len(form) < n
        or (len(form) > n and not more)
        or not isinstance(form[0], str)
        or (names == 2 and not isinstance(form[1], str))
    ):
        raise ConstraintError(f"bad {what} {sexpr.to_str(form)}")
    return form


def _field(form):
    name, ty = _shape(form, 2, "field")
    return name, type_from_sexpr(ty)


def _unreserved(name, what):
    """Raise unless `name`, a `what`'s, is free of the `.` that starts the
    solver's own names (`.ackN`, `.sigN`), which it could capture."""
    if name.startswith("."):
        raise ConstraintError(f"{what} {name}: a name that starts with . is reserved")


def _typecheck(label, check, env, x, sigs):
    """`check(env, x, sigs)`, with a typing error raised as a
    ConstraintError that names `label` and the error's kind."""
    try:
        return check(env, x, sigs)
    except LogicError as exc:
        raise ConstraintError(f"{label}: {type(exc).__name__}: {exc}") from exc


def _read_ref(cs, label, scope, base, form):
    """The refinement `form` of a `base` value under `scope`: built, a
    kapp's omitted trailing arguments filled with the identity
    substitution, and typechecked."""
    inner = scope.extend(VALUE_VAR, base)
    if not (isinstance(form, list) and form and form[0] == "kapp"):
        pred = pred_from_sexpr(form)
        _typecheck(label, typecheck_pred, inner, pred, cs.uninterps)
        return RefType(base, Concrete(pred))
    if len(form) < 2 or not isinstance(form[1], str):
        raise ConstraintError(f"bad kapp {sexpr.to_str(form)}")
    args = [expr_from_sexpr(f) for f in form[2:]]
    sig = cs.kvars.get(form[1])
    if sig is None:
        raise ConstraintError(f"{label}: unknown kvar {form[1]}")
    if sig.value_type != base:
        raise ConstraintError(f"{label}: {sig.name} refines {sig.value_type}")
    if len(args) > len(sig.params):
        raise ConstraintError(f"{label}: too many arguments to {sig.name}")
    args += [Var(pname) for pname, _ in sig.params[len(args) :]]
    for arg, (pname, ptype) in zip(args, sig.params):
        got = _typecheck(label, typecheck_expr, inner, arg, cs.uninterps)
        if got != ptype:
            raise ConstraintError(f"{label}: argument for {sig.name}.{pname} has type {got}")
    return RefType(base, KApp(sig.name, tuple(args)))


def _read_sub(cs, form):
    _, label, *rest = _shape(form, 2, "sub", more=True, names=2)
    parts = {}
    for part in rest:
        kind = _shape(part, 1, "part", more=True)[0]
        if kind not in ("env", "lhs", "rhs") or kind in parts:
            raise ConstraintError(f"sub {label}: bad part {sexpr.to_str(part)}")
        parts[kind] = part
    if "lhs" not in parts or "rhs" not in parts:
        raise ConstraintError(f"sub {label}: needs an lhs and an rhs")
    env = []
    scope = TypeEnv()
    for binder in parts.get("env", ["env"])[1:]:
        name, ty, ref = _shape(binder, 3, "binder")
        _unreserved(name, f"{label}: binder")
        if name == VALUE_VAR or scope.get(name):
            raise ConstraintError(f"{label}: bad binder {name}")
        if name in cs.uninterps:
            raise ConstraintError(f"{label}: binder {name} names a function")
        rt = _read_ref(cs, label, scope, type_from_sexpr(ty), ref)
        env.append((name, rt))
        scope = scope.extend(name, rt.base)
    _, lty, lhs = _shape(parts["lhs"], 3, "lhs")
    _, rty, rhs = _shape(parts["rhs"], 3, "rhs")
    base = type_from_sexpr(lty)
    if type_from_sexpr(rty) != base:
        raise ConstraintError(f"{label}: sides have different base types")
    lhs, rhs = (_read_ref(cs, label, scope, base, side) for side in (lhs, rhs))
    return SubConstraint(label, tuple(env), lhs, rhs)


def parse_constraints(text):
    """Read and check a constraint set; this is the one checker of one.

    The forms other than `sub` are read first, in file order, so that a
    kvar or a function may be declared after the `sub` that uses it. Then
    each `sub` is read in one walk, in file order: its parts, each binder
    in turn, then its two sides. Each binder, lhs and rhs is built, a
    kapp's omitted arguments filled and the whole typechecked as the walk
    reaches it. Of several errors the first in this order is raised.

    No variable may share a name with a function, since in the SMT-LIB
    text of a query the two share one namespace: a binder may not name a
    function, and no function may be named `v`. No function, kvar, kvar
    field or binder name may start with `.`, which the solver reserves."""
    cs = ConstraintSet()
    subs = []
    for form in sexpr.parse_many(text):
        head = _shape(form, 1, "form", more=True)[0]
        if head == "uninterp":
            for decl in form[1:]:
                name, argtys, retty = _shape(decl, 3, "function declaration")
                _unreserved(name, "function")
                if not isinstance(argtys, list):
                    raise ConstraintError(f"function {name}: bad argument types")
                sig = FuncSig(
                    name,
                    tuple(type_from_sexpr(t) for t in argtys),
                    type_from_sexpr(retty),
                )
                if name in cs.uninterps:
                    raise ConstraintError(f"duplicate function {name}")
                if name == VALUE_VAR:
                    raise ConstraintError(f"function {name}: {name} is the value variable")
                cs.uninterps[name] = sig
        elif head == "kvar":
            _, name, *fields = _shape(form, 3, "kvar", more=True, names=2)
            _unreserved(name, "kvar")
            (vname, vtype), *params = [_field(f) for f in fields]
            if vname != VALUE_VAR:
                raise ConstraintError(f"kvar {name}: first field must be v")
            names = [n for n, _ in params]
            for i, pname in enumerate(names):
                _unreserved(pname, f"kvar {name}: field")
                if pname in [VALUE_VAR] + names[:i]:
                    raise ConstraintError(f"kvar {name}: duplicate field {pname}")
            if name in cs.kvars:
                raise ConstraintError(f"duplicate kvar {name}")
            cs.kvars[name] = KVarSig(name, vtype, tuple(params))
        elif head == "sub":
            subs.append(form)
        else:
            raise ConstraintError(f"unknown form {head}")
    cs.constraints = [_read_sub(cs, form) for form in subs]
    return cs


def _ref_text(ref):
    if isinstance(ref, Concrete):
        return to_text(ref.pred)
    return f"({' '.join(('kapp', ref.kvar, *map(to_text, ref.args)))})"


def print_constraints(cs):
    lines = []
    for sig in cs.uninterps.values():
        args = " ".join(map(str, sig.arg_types))
        lines.append(f"(uninterp ({sig.name} ({args}) {sig.ret_type}))")
    for sig in cs.kvars.values():
        fields = "".join(f" ({n} {t})" for n, t in sig.params)
        lines.append(f"(kvar {sig.name} ({VALUE_VAR} {sig.value_type}){fields})")
    for c in cs.constraints:
        env = "".join(f" ({n} {rt.base} {_ref_text(rt.ref)})" for n, rt in c.env)
        env = f" (env{env})" if env else ""
        lines.append(
            f"(sub {c.label}{env} (lhs {c.lhs.base} {_ref_text(c.lhs.ref)})"
            f" (rhs {c.rhs.base} {_ref_text(c.rhs.ref)}))"
        )
    return "\n".join(lines) + "\n"


def normalize(cs):
    """`cs`, a set built in code, printed and read back by
    `parse_constraints`, which fills omitted kapp arguments and checks it.
    On a set that `parse_constraints` gave, this is exact: an equal set."""
    return parse_constraints(print_constraints(cs))


def parse_solution(text):
    forms = sexpr.parse_many(text)
    if len(forms) != 1 or not isinstance(forms[0], list) or forms[0][:1] != ["solution"]:
        raise ConstraintError("expected a single (solution ...) form")
    entries = {}
    for e in forms[0][1:]:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)):
            raise ConstraintError(f"bad solution entry {sexpr.to_str(e)}")
        name = e[0]
        try:
            pred = pred_from_sexpr(e[1])
        except LogicError as exc:
            raise ConstraintError(f"{name}: {exc}") from exc
        if name in entries:
            raise ConstraintError(f"duplicate solution entry {name}")
        entries[name] = pred
    return entries


def typecheck_solution(cs, sol):
    """Raise ConstraintError unless each entry names a kvar of `cs` and is a
    predicate over that kvar's fields: `v` and its parameters."""
    for name, pred in sol.items():
        sig = cs.kvars.get(name)
        if sig is None:
            raise ConstraintError(f"unknown kvar {name}")
        env = TypeEnv(tuple(zip(sig.field_names, sig.field_types)))
        _typecheck(name, typecheck_pred, env, pred, cs.uninterps)


def print_solution(sol):
    entries = "".join(f" ({name} {to_text(p)})" for name, p in sorted(sol.items()))
    return f"(solution{entries})\n"
