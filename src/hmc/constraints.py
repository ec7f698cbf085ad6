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

from dataclasses import dataclass, field

from . import sexpr
from .logic import (
    BaseType,
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
    to_sexpr,
    type_from_sexpr,
    type_to_sexpr,
    typecheck_expr,
    typecheck_pred,
)


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class KVarSig:
    name: str
    value_type: BaseType
    params: tuple  # ((name, BaseType), ...)

    @property
    def field_types(self):
        return (self.value_type,) + tuple(t for _, t in self.params)

    @property
    def field_names(self):
        return (VALUE_VAR,) + tuple(n for n, _ in self.params)


@dataclass(frozen=True)
class Concrete:
    pred: object


@dataclass(frozen=True)
class KApp:
    kvar: str
    args: tuple  # expressions, one per parameter after normalization


@dataclass(frozen=True)
class RefType:
    base: BaseType
    ref: object  # Concrete | KApp


@dataclass(frozen=True)
class SubConstraint:
    label: str
    env: tuple  # ((name, RefType), ...)
    lhs: RefType
    rhs: RefType


@dataclass
class ConstraintSet:
    uninterps: dict = field(default_factory=dict)  # name -> FuncSig
    kvars: dict = field(default_factory=dict)  # name -> KVarSig
    constraints: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Normalization and well-formedness


def normalize(cs):
    """Fill omitted trailing kapp arguments with the identity substitution
    and typecheck everything. Returns a new ConstraintSet."""
    out = ConstraintSet(dict(cs.uninterps), dict(cs.kvars), [])
    for c in cs.constraints:
        env = []
        seen = set()
        scope = TypeEnv()
        for name, rt in c.env:
            if name in seen or name == VALUE_VAR:
                raise ConstraintError(f"{c.label}: bad binder {name}")
            seen.add(name)
            ref = _norm_ref(out, c.label, scope, rt)
            env.append((name, RefType(rt.base, ref)))
            scope = scope.extend(name, rt.base)
        if c.lhs.base != c.rhs.base:
            raise ConstraintError(f"{c.label}: sides have different base types")
        lhs = RefType(c.lhs.base, _norm_ref(out, c.label, scope, c.lhs))
        rhs = RefType(c.rhs.base, _norm_ref(out, c.label, scope, c.rhs))
        out.constraints.append(SubConstraint(c.label, tuple(env), lhs, rhs))
    return out


def _norm_ref(cs, label, scope, rt):
    inner = scope.extend(VALUE_VAR, rt.base)
    if isinstance(rt.ref, Concrete):
        try:
            typecheck_pred(inner, rt.ref.pred, cs.uninterps)
        except LogicError as exc:
            raise ConstraintError(f"{label}: {type(exc).__name__}: {exc}") from exc
        return rt.ref
    sig = cs.kvars.get(rt.ref.kvar)
    if sig is None:
        raise ConstraintError(f"{label}: unknown kvar {rt.ref.kvar}")
    if sig.value_type != rt.base:
        raise ConstraintError(f"{label}: {sig.name} refines {sig.value_type}")
    args = list(rt.ref.args)
    if len(args) > len(sig.params):
        raise ConstraintError(f"{label}: too many arguments to {sig.name}")
    for pname, _ in sig.params[len(args) :]:
        args.append(Var(pname))
    for arg, (pname, ptype) in zip(args, sig.params):
        try:
            got = typecheck_expr(inner, arg, cs.uninterps)
        except LogicError as exc:
            raise ConstraintError(f"{label}: {type(exc).__name__}: {exc}") from exc
        if got != ptype:
            raise ConstraintError(
                f"{label}: argument for {sig.name}.{pname} has type {got}"
            )
    return KApp(rt.ref.kvar, tuple(args))


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


@dataclass
class SatReport:
    verdicts: list  # [(label, Verdict)]

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
    is; missing kvar entries default to true. Constraints that embed to the
    same (tenv, q) pair share one decision: the embeddings are looked up in
    a cache local to this call, so the result is that of deciding each."""
    sol = dict.fromkeys(cs.kvars, TRUE) | sol
    decided = {}
    verdicts = []
    for c in cs.constraints:
        key = embed_sub(cs, c, sol)
        verdict = decided.get(key)
        if verdict is None:
            verdict = decided[key] = check_valid(*key, mode, cs.uninterps)
        verdicts.append((c.label, verdict))
    return SatReport(verdicts)


# ---------------------------------------------------------------------------
# Concrete syntax


def ref_to_sexpr(ref):
    if isinstance(ref, Concrete):
        return to_sexpr(ref.pred)
    return ["kapp", ref.kvar] + [to_sexpr(a) for a in ref.args]


def ref_from_sexpr(form):
    if isinstance(form, list) and form and form[0] == "kapp":
        if len(form) < 2 or not isinstance(form[1], str):
            raise ConstraintError(f"bad kapp {sexpr.to_str(form)}")
        return KApp(form[1], tuple(expr_from_sexpr(f) for f in form[2:]))
    return Concrete(pred_from_sexpr(form))


def _shape(form, n, what, more=False, names=1):
    """`form`, checked to be a list of `n` items (at least `n` if `more`)
    whose first `names` items are names."""
    if (
        not isinstance(form, list)
        or len(form) < n
        or (len(form) > n and not more)
        or not all(isinstance(x, str) for x in form[:names])
    ):
        raise ConstraintError(f"bad {what} {sexpr.to_str(form)}")
    return form


def _field(form):
    name, ty = _shape(form, 2, "field")
    return name, type_from_sexpr(ty)


def _ref_type(form, what):
    _, ty, ref = _shape(form, 3, what)
    return RefType(type_from_sexpr(ty), ref_from_sexpr(ref))


def parse_constraints(text):
    cs = ConstraintSet()
    for form in sexpr.parse_many(text):
        head = _shape(form, 1, "form", more=True)[0]
        if head == "uninterp":
            for decl in form[1:]:
                name, argtys, retty = _shape(decl, 3, "function declaration")
                if not isinstance(argtys, list):
                    raise ConstraintError(f"function {name}: bad argument types")
                sig = FuncSig(
                    name,
                    tuple(type_from_sexpr(t) for t in argtys),
                    type_from_sexpr(retty),
                )
                if name in cs.uninterps:
                    raise ConstraintError(f"duplicate function {name}")
                cs.uninterps[name] = sig
        elif head == "kvar":
            _, name, *fields = _shape(form, 3, "kvar", more=True, names=2)
            (vname, vtype), *params = [_field(f) for f in fields]
            if vname != VALUE_VAR:
                raise ConstraintError(f"kvar {name}: first field must be v")
            names = [n for n, _ in params]
            for i, pname in enumerate(names):
                if pname in [VALUE_VAR] + names[:i]:
                    raise ConstraintError(f"kvar {name}: duplicate field {pname}")
            if name in cs.kvars:
                raise ConstraintError(f"duplicate kvar {name}")
            cs.kvars[name] = KVarSig(name, vtype, tuple(params))
        elif head == "sub":
            _, label, *rest = _shape(form, 2, "sub", more=True, names=2)
            parts = {}
            for part in rest:
                kind = _shape(part, 1, "part", more=True)[0]
                if kind not in ("env", "lhs", "rhs") or kind in parts:
                    raise ConstraintError(f"sub {label}: bad part {sexpr.to_str(part)}")
                parts[kind] = part
            if "lhs" not in parts or "rhs" not in parts:
                raise ConstraintError(f"sub {label}: needs an lhs and an rhs")
            env = tuple(
                (_shape(b, 3, "binder")[0], _ref_type(b, "binder"))
                for b in parts.get("env", ["env"])[1:]
            )
            cs.constraints.append(
                SubConstraint(
                    label, env, _ref_type(parts["lhs"], "lhs"), _ref_type(parts["rhs"], "rhs")
                )
            )
        else:
            raise ConstraintError(f"unknown form {head}")
    return cs


def print_constraints(cs):
    lines = []
    for sig in cs.uninterps.values():
        lines.append(
            sexpr.to_str(
                [
                    "uninterp",
                    [
                        sig.name,
                        [type_to_sexpr(t) for t in sig.arg_types],
                        type_to_sexpr(sig.ret_type),
                    ],
                ]
            )
        )
    for sig in cs.kvars.values():
        form = ["kvar", sig.name, [VALUE_VAR, type_to_sexpr(sig.value_type)]]
        form += [[n, type_to_sexpr(t)] for n, t in sig.params]
        lines.append(sexpr.to_str(form))
    for c in cs.constraints:
        form = ["sub", c.label]
        if c.env:
            form.append(
                ["env"]
                + [[n, type_to_sexpr(rt.base), ref_to_sexpr(rt.ref)] for n, rt in c.env]
            )
        form.append(["lhs", type_to_sexpr(c.lhs.base), ref_to_sexpr(c.lhs.ref)])
        form.append(["rhs", type_to_sexpr(c.rhs.base), ref_to_sexpr(c.rhs.ref)])
        lines.append(sexpr.to_str(form))
    return "\n".join(lines) + "\n"


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
        try:
            env = TypeEnv(tuple(zip(sig.field_names, sig.field_types)))
            typecheck_pred(env, pred, cs.uninterps)
        except LogicError as exc:
            raise ConstraintError(f"{name}: {type(exc).__name__}: {exc}") from exc


def print_solution(sol):
    form = ["solution"] + [[name, to_sexpr(p)] for name, p in sorted(sol.items())]
    return sexpr.to_str(form) + "\n"
