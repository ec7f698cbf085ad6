"""Translation from constraint sets to IMP programs.

One block per subtyping constraint: the environment bindings are read
(`havoc`+`assume` for concrete refinements, tuple `get`+substitution assumes
for kvar applications), the left-hand side is read the same way, and the
right-hand side is written (`assert` for concrete, tuple `set` for kvars).

The value variable is typed: `v` carries int refinements, `v_bool` bool ones
and `v_<sort>` each uninterpreted sort, so havoc enumerates the right domain.
Temps are per-block and deterministic: t0,t1,... for get tuples in order,
u0,u1,... for non-variable set arguments.
"""

from __future__ import annotations

from .constraints import Concrete
from .imp import Assert, Assign, Assume, Get, Havoc, ImpProgram, SKIP, Set, seq_of
from .logic import (
    BOOL,
    Cmp,
    INT,
    TrueLit,
    VALUE_VAR,
    Var,
    free_vars,
    subst,
)


class TranslateError(Exception):
    pass


def value_var(t):
    if t == INT:
        return VALUE_VAR
    if t == BOOL:
        return f"{VALUE_VAR}_bool"
    return f"{VALUE_VAR}_{t.ui_name}"


class TempGen:
    def __init__(self):
        self.t = 0
        self.u = 0

    def get_tuple(self, n):
        names = tuple(f"t{self.t + i}" for i in range(n))
        self.t += n
        return names

    def set_arg(self):
        name = f"u{self.u}"
        self.u += 1
        return name


class _Block:
    """Accumulates a block's instructions and the variable types they need."""

    def __init__(self, cs):
        self.cs = cs
        self.instrs = []
        self.types = {}  # var -> BaseType, first occurrence wins
        self.temps = TempGen()

    def declare(self, name, t):
        self.types.setdefault(name, t)

    def emit(self, i):
        self.instrs.append(i)


def translate_get(rt, blk):
    """Read a refinement into its value variable."""
    vv = value_var(rt.base)
    blk.declare(vv, rt.base)
    if isinstance(rt.ref, Concrete):
        blk.emit(Havoc(vv))
        pred = subst(rt.ref.pred, {VALUE_VAR: Var(vv)})
        blk.emit(Assume(pred))
        return
    sig = blk.cs.kvars[rt.ref.kvar]
    temps = blk.temps.get_tuple(len(sig.field_types))
    for name, t in zip(temps, sig.field_types):
        blk.declare(name, t)
    blk.emit(Get(rt.ref.kvar, temps))
    for tname, arg in zip(temps[1:], rt.ref.args):
        blk.emit(Assume(Cmp("=", Var(tname), arg)))
    blk.emit(Assign(vv, Var(temps[0])))


def translate_set(rt, blk):
    """Write a refinement from its value variable."""
    vv = value_var(rt.base)
    blk.declare(vv, rt.base)
    if isinstance(rt.ref, Concrete):
        pred = subst(rt.ref.pred, {VALUE_VAR: Var(vv)})
        blk.emit(Assert(pred))
        return
    sig = blk.cs.kvars[rt.ref.kvar]
    names = [vv]
    for arg, (_, ptype) in zip(rt.ref.args, sig.params):
        if isinstance(arg, Var):
            names.append(arg.name)
        else:
            u = blk.temps.set_arg()
            blk.declare(u, ptype)
            blk.emit(Assign(u, arg))
            names.append(u)
    blk.emit(Set(rt.ref.kvar, tuple(names)))


def translate_env(env, blk):
    if not env:
        blk.emit(SKIP)
        return
    for name, rt in env:
        translate_get(rt, blk)
        prev = blk.types.get(name)
        if prev is not None and prev != rt.base:
            raise TranslateError(f"binder {name} has conflicting types")
        blk.declare(name, rt.base)
        blk.emit(Assign(name, Var(value_var(rt.base))))


def translate_constraint(cs, c):
    """One constraint to one (label, block, var types) triple."""
    blk = _Block(cs)
    translate_env(c.env, blk)
    translate_get(c.lhs, blk)
    translate_set(c.rhs, blk)
    return c.label, seq_of(blk.instrs), blk.types


def translate_set_of_constraints(cs, clones=None):
    """The IMP program of `cs`, with `clones` ({clone: original}) as its clone relation."""
    p = ImpProgram()
    p.func_sigs = dict(cs.uninterps)
    for name, sig in cs.kvars.items():
        p.relvar_sigs[name] = sig.field_types
    p.clones = dict(clones or {})
    for c in cs.constraints:
        label, block, types = translate_constraint(cs, c)
        for name, t in types.items():
            prev = p.base_types.get(name)
            if prev is not None and prev != t:
                if name.startswith(("t", "u")) and name[1:].isdigit():
                    continue  # temp seeding type; first one is as good as any
                raise TranslateError(f"variable {name} has conflicting types")
            p.base_types[name] = t
        p.blocks.append((label, block))
    return p


def simplify(p):
    """Drop trivial substitution assumes `assume (= ti x)` by renaming the
    get temp to the variable, when the variable's only earlier role was an
    unconstrained havoc binding. Purely cosmetic; semantics-preserving."""
    out = ImpProgram(
        dict(p.relvar_sigs), dict(p.base_types), dict(p.func_sigs), [], dict(p.clones)
    )
    for label, block in p.blocks:
        instrs = list(block.instrs)
        changed = True
        while changed:
            changed = False
            for idx, ins in enumerate(instrs):
                if not (
                    isinstance(ins, Assume)
                    and isinstance(ins.pred, Cmp)
                    and ins.pred.op == "="
                    and isinstance(ins.pred.left, Var)
                    and isinstance(ins.pred.right, Var)
                ):
                    continue
                t, x = ins.pred.left.name, ins.pred.right.name
                if not _is_get_temp(instrs, idx, t) or not _unconstrained_before(
                    instrs, idx, x
                ):
                    continue
                instrs = [_rename_instr(i, t, x) for i in instrs[:idx] + instrs[idx + 1 :]]
                changed = True
                break
        out.blocks.append((label, seq_of(instrs)))
    return out


def _is_get_temp(instrs, idx, t):
    for i in instrs[:idx]:
        if isinstance(i, Get) and t in i.targets:
            return True
    return False


def _unconstrained_before(instrs, idx, x):
    definition = None
    for i in instrs[:idx]:
        if isinstance(i, Assign) and i.var == x:
            definition = i
        elif isinstance(i, (Get,)) and x in i.targets:
            return False
        elif isinstance(i, Assume) and isinstance(i.pred, TrueLit):
            continue
    if definition is None:
        return False
    # the defining value variable must come straight from a havoc with only a
    # trivial assume in between
    if not isinstance(definition.expr, Var):
        return False
    vv = definition.expr.name
    pos = instrs.index(definition)
    k = pos - 1
    while k >= 0 and isinstance(instrs[k], Assume) and isinstance(
        instrs[k].pred, TrueLit
    ):
        k -= 1
    if k < 0 or not (isinstance(instrs[k], Havoc) and instrs[k].var == vv):
        return False
    # x must not be read between its definition and the dropped assume
    for i in instrs[pos + 1 : idx]:
        if x in _reads(i):
            return False
    return True


def _reads(i):
    if isinstance(i, Assign):
        return free_vars(i.expr)
    if isinstance(i, (Assume, Assert)):
        return free_vars(i.pred)
    if isinstance(i, Set):
        return set(i.args)
    return set()


def _rename_instr(i, old, new):
    m = {old: Var(new)}
    if isinstance(i, Assign):
        var = new if i.var == old else i.var
        return Assign(var, subst(i.expr, m))
    if isinstance(i, Havoc):
        return Havoc(new if i.var == old else i.var)
    if isinstance(i, Get):
        return Get(i.relvar, tuple(new if x == old else x for x in i.targets))
    if isinstance(i, Set):
        return Set(i.relvar, tuple(new if x == old else x for x in i.args))
    if isinstance(i, Assume):
        return Assume(subst(i.pred, m))
    if isinstance(i, Assert):
        return Assert(subst(i.pred, m))
    return i
