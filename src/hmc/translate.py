"""Translation from constraint sets to IMP programs.

One block per subtyping constraint: the environment bindings are read
(`havoc`+`assume` for concrete refinements, tuple `get`+substitution assumes
for kvar applications), the left-hand side is read the same way, and the
right-hand side is written (`assert` for concrete, tuple `set` for kvars).

The value variable is typed: `v` carries int refinements, `v_bool` bool ones
and `v_<sort>` each uninterpreted sort, so havoc enumerates the right domain.
Temps are per-block and deterministic: t0,t1,... for get tuples in order,
u0,u1,... for non-variable set arguments.

One naming rule keeps the translation capture-free: no name it introduces
(a value variable or a temp) equals a binder of the set, nor does one
type's value variable equal another's (as `v_bool` would for a sort named
bool); a name that would is suffixed with `_` until it is free (`'` is no
SMT-LIB symbol character). In a kvar application's arguments `v` is the
value the application refines: the value read (`t0`) on a get, and the
typed value variable on a set. So every block writes each variable before
it reads it, and the first type a name is declared at is as good as any
other: a block that holds another type in it has written it first.
"""

from __future__ import annotations

from .constraints import Concrete
from .imp import Assert, Assign, Assume, Get, Havoc, ImpProgram, SKIP, Set, seq_of
from .logic import BOOL, Cmp, INT, VALUE_VAR, Var, subst


def value_var(t):
    if t == INT:
        return VALUE_VAR
    if t == BOOL:
        return f"{VALUE_VAR}_bool"
    return f"{VALUE_VAR}_{t.ui_name}"


def _rename_v(x, name):
    """`x` with the value `v` renamed to `name`."""
    return x if name == VALUE_VAR else subst(x, {VALUE_VAR: Var(name)})


class _Block:
    """Accumulates a block's instructions and the variable types they need,
    and names what the translation introduces: no such name is a binder."""

    def __init__(self, cs, binders, value_vars):
        self.cs = cs
        self.binders = binders
        self.value_vars = value_vars  # BaseType -> its value variable, set-wide
        self.instrs = []
        self.types = {}  # var -> BaseType, first occurrence wins
        self.t = 0  # next get temp
        self.u = 0  # next set temp

    def declare(self, name, t):
        self.types.setdefault(name, t)

    def fresh(self, name, t):
        """`name`, suffixed with `_` until it is no binder, declared at `t`."""
        while name in self.binders:
            name += "_"
        self.declare(name, t)
        return name

    def value_var(self, t):
        """The value variable of type `t`, declared: one name per type."""
        vv = self.value_vars.get(t)
        if vv is None:
            vv = value_var(t)
            while vv in self.binders or vv in self.value_vars.values():
                vv += "_"
            self.value_vars[t] = vv
        self.declare(vv, t)
        return vv

    def emit(self, i):
        self.instrs.append(i)


def translate_get(rt, blk):
    """Read a refinement into its value variable, and return that."""
    vv = blk.value_var(rt.base)
    if isinstance(rt.ref, Concrete):
        blk.emit(Havoc(vv))
        blk.emit(Assume(_rename_v(rt.ref.pred, vv)))
        return vv
    sig = blk.cs.kvars[rt.ref.kvar]
    temps = tuple(blk.fresh(f"t{blk.t + i}", t) for i, t in enumerate(sig.field_types))
    blk.t += len(temps)
    blk.emit(Get(rt.ref.kvar, temps))
    for tname, arg in zip(temps[1:], rt.ref.args):
        blk.emit(Assume(Cmp("=", Var(tname), _rename_v(arg, temps[0]))))
    blk.emit(Assign(vv, Var(temps[0])))
    return vv


def translate_set(rt, blk):
    """Write a refinement from its value variable."""
    vv = blk.value_var(rt.base)
    if isinstance(rt.ref, Concrete):
        blk.emit(Assert(_rename_v(rt.ref.pred, vv)))
        return
    sig = blk.cs.kvars[rt.ref.kvar]
    names = [vv]
    for arg, (_, ptype) in zip(rt.ref.args, sig.params):
        arg = _rename_v(arg, vv)
        if isinstance(arg, Var):
            names.append(arg.name)
        else:
            u = blk.fresh(f"u{blk.u}", ptype)
            blk.u += 1
            blk.emit(Assign(u, arg))
            names.append(u)
    blk.emit(Set(rt.ref.kvar, tuple(names)))


def translate_constraint(cs, c, binders, value_vars):
    """One constraint to one (label, block, var types) triple; `binders` are
    the names bound anywhere in `cs`, and `value_vars` the value variable of
    each type so far."""
    blk = _Block(cs, binders, value_vars)
    for name, rt in c.env:
        vv = translate_get(rt, blk)
        blk.declare(name, rt.base)
        blk.emit(Assign(name, Var(vv)))
    if not c.env:
        blk.emit(SKIP)
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
    binders = {name for c in cs.constraints for name, _ in c.env}
    value_vars = {}
    for c in cs.constraints:
        label, block, types = translate_constraint(cs, c, binders, value_vars)
        for name, t in types.items():
            p.base_types.setdefault(name, t)
        p.blocks.append((label, block))
    return p
