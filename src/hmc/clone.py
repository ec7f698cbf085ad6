"""Cloning kvars to make the translated program read-write-once.

A constraint reads a kvar once per kapp occurrence in its environment or on
its left-hand side, and writes it via a kapp on the right-hand side. When
some constraint reads k a maximum of n >= 2 times, k is split into clones
k.1 ... k.n: the i-th read occurrence in each constraint becomes k.i, and
every constraint writing k is replicated once per clone (labels suffixed
#i). A clone's name is suffixed with `_` until it is no kvar of the set
and no earlier clone, so a kvar the set names `k.1` stays apart. Kvars
read at most once are left untouched, so cloning is the identity on
already-RWO constraint sets.

The clone relation is a dict {clone: original}, in clone order, and empty
when nothing is split; it is the mapping `ImpProgram.clones` holds and
`.imp` headers print. A solution over the cloned set folds back to the
original kvars by conjoining each original's distinct clone entries.
"""

from __future__ import annotations

from .constraints import ConstraintSet, KApp, KVarSig, RefType, SubConstraint
from .logic import TRUE, mk_and


def read_occurrences(cs):
    """Per-kvar maximum number of read occurrences in any one constraint."""
    out = {k: 0 for k in cs.kvars}
    for c in cs.constraints:
        counts = {}
        for _, rt in c.env:
            if isinstance(rt.ref, KApp):
                counts[rt.ref.kvar] = counts.get(rt.ref.kvar, 0) + 1
        if isinstance(c.lhs.ref, KApp):
            counts[c.lhs.ref.kvar] = counts.get(c.lhs.ref.kvar, 0) + 1
        for k, n in counts.items():
            out[k] = max(out.get(k, 0), n)
    return out


def clone(cs):
    """Returns (cloned ConstraintSet, {clone: original})."""
    reads = read_occurrences(cs)  # a kvar read n >= 2 times has clones k.1 ... k.n
    clones = {}
    names = {}  # (kvar, i) -> the name of its i-th clone
    kvars = {}
    for name, sig in cs.kvars.items():
        n = reads[name]
        if n >= 2:
            for i in range(1, n + 1):
                cn = f"{name}.{i}"
                while cn in cs.kvars or cn in clones:
                    cn += "_"
                names[name, i] = cn
                clones[cn] = name
                kvars[cn] = KVarSig(cn, sig.value_type, sig.params)
        else:
            kvars[name] = sig
    if not clones:
        return cs, clones
    out = ConstraintSet(dict(cs.uninterps), kvars, [])
    for c in cs.constraints:
        seen = {}

        def read_ref(rt):
            if not isinstance(rt.ref, KApp) or reads.get(rt.ref.kvar, 0) < 2:
                return rt
            k = rt.ref.kvar
            i = seen.get(k, 0) + 1
            seen[k] = i
            return RefType(rt.base, KApp(names[k, i], rt.ref.args))

        env = tuple((n, read_ref(rt)) for n, rt in c.env)
        lhs = read_ref(c.lhs)
        if isinstance(c.rhs.ref, KApp) and reads.get(c.rhs.ref.kvar, 0) >= 2:
            k = c.rhs.ref.kvar
            for i in range(1, reads[k] + 1):
                rhs = RefType(c.rhs.base, KApp(names[k, i], c.rhs.ref.args))
                out.constraints.append(SubConstraint(f"{c.label}#{i}", env, lhs, rhs))
        else:
            out.constraints.append(SubConstraint(c.label, env, lhs, c.rhs))
    return out, clones


def fold_solution(sol, clones, cs):
    """Fold a solution over clones back to the original kvars: each
    original's entry is the conjunction of its clones' entries (true for a
    clone with none), where an entry equal to an earlier one is dropped,
    since A /\\ A is A. `cs` is the original (uncloned) constraint set, for
    its kvar listing."""
    if not clones:
        return sol
    parts = {k: [] for k in cs.kvars}
    for cn, orig in clones.items():
        parts[orig].append(sol.get(cn, TRUE))
    return {
        k: mk_and(*dict.fromkeys(ps)) if ps else sol.get(k, TRUE) for k, ps in parts.items()
    }
