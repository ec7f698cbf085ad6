"""Seeded random generators shared by the property-test suites."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from hmc.constraints import (
    Concrete,
    ConstraintSet,
    KApp,
    KVarSig,
    RefType,
    SubConstraint,
    check_satisfied,
    normalize,
)
from hmc.imp import (
    ERROR,
    Assert,
    Assign,
    Assume,
    Get,
    Havoc,
    ImpProgram,
    Set,
    State,
    initial_state,
    post,
    seq_of,
)
from hmc.logic import (
    Add,
    Cmp,
    INT,
    IntLit,
    Not,
    OracleMode,
    TRUE,
    ValueDomain,
    Var,
    mk_and,
    mk_or,
)

DOMAIN01 = ValueDomain((0, 1))


# ---------------------------------------------------------------------------
# Expressions and predicates over a fixed small vocabulary


def gen_expr(rng, names):
    r = rng.random()
    if r < 0.4:
        return Var(rng.choice(names))
    if r < 0.7:
        return IntLit(rng.choice((0, 1)))
    return Add((Var(rng.choice(names)), IntLit(rng.choice((0, 1)))))


def gen_atom(rng, names):
    op = rng.choice(("=", "<=", "<"))
    return Cmp(op, gen_expr(rng, names), gen_expr(rng, names))


def gen_pred(rng, names):
    q = gen_atom(rng, names)
    if rng.random() < 0.3:
        q = Not(q)
    return q


# ---------------------------------------------------------------------------
# Random RWO programs


def gen_rwo_program(rng, max_blocks=3, max_relvars=2, max_arity=2, get_then_set=False):
    """A random read-write-once program. With `get_then_set`, a block may
    also get a relvar and set it later on; without it, no block does both.
    The keyword draws nothing when off, so a seed gives the same program
    with or without it there."""
    p = ImpProgram()
    basevars = ["x0", "x1", "x2"]
    for x in basevars:
        p.base_types[x] = INT
    for i in range(rng.randint(1, max_relvars)):
        p.relvar_sigs[f"k{i}"] = tuple(
            INT for _ in range(rng.randint(1, max_arity))
        )
    for b in range(rng.randint(1, max_blocks)):
        p.blocks.append((f"b{b}", seq_of(gen_rwo_block(rng, p, basevars, get_then_set))))
    return p


def gen_rwo_block(rng, p, basevars, get_then_set=False):
    instrs = []
    plan = []
    late = []  # sets of a relvar the block also gets: each goes after its get
    for x in rng.sample(basevars, rng.randint(1, 2)):
        plan.append(Havoc(x))
    for k, sig in p.relvar_sigs.items():
        roll = rng.random()
        get = roll < 0.35 or (get_then_set and roll > 0.75)
        if get:
            plan.append(Get(k, tuple(rng.choice(basevars) for _ in sig)))
        if roll > 0.55:
            (late if get else plan).append(Set(k, tuple(rng.choice(basevars) for _ in sig)))
    for _ in range(rng.randint(0, 2)):
        kind = rng.random()
        if kind < 0.4:
            plan.append(Assume(gen_pred(rng, basevars)))
        elif kind < 0.6:
            plan.append(Assert(gen_pred(rng, basevars)))
        else:
            # assignments stay domain-closed (Var or literal, no arithmetic)
            # so exhaustive reachability over the finite domain terminates
            rhs = (
                Var(rng.choice(basevars))
                if rng.random() < 0.5
                else IntLit(rng.choice((0, 1)))
            )
            plan.append(Assign(rng.choice(basevars), rhs))
    rng.shuffle(plan)
    for s in late:
        g = next(n for n, i in enumerate(plan) if isinstance(i, Get) and i.relvar == s.relvar)
        plan.insert(rng.randint(g + 1, len(plan)), s)
    instrs.extend(plan)
    if not instrs:
        instrs.append(Assume(TRUE))
    return instrs


def gen_rel_state(rng, p, domain=DOMAIN01):
    base = {x: rng.choice(list(domain.values(t))) for x, t in p.base_types.items()}
    rels = {}
    for k, sig in p.relvar_sigs.items():
        universe = list(itertools.product(*[list(domain.values(t)) for t in sig]))
        rels[k] = frozenset(
            t for t in universe if rng.random() < 0.4
        )
    return State.make(base, rels)


# ---------------------------------------------------------------------------
# Structure checks and the Relational/Imperative correspondence maps


@dataclass(frozen=True)
class Violation:
    label: str
    relvar: str
    kind: str  # "READS" | "WRITES" | "READ_AFTER_WRITE"
    count: int


def is_rwo(p):
    """OK (None) or the first per-block read/write-once violation: a relvar
    that one block gets twice or sets twice, or gets after its own set of
    it. On that last one the two semantics part: the relational get may
    pick a tuple an earlier run set, the imperative one only the tuple just
    set."""
    for label, block in p.blocks:
        reads, writes, after_set = {}, {}, None
        for i in block.instrs:
            if isinstance(i, Get):
                reads[i.relvar] = reads.get(i.relvar, 0) + 1
                if after_set is None and i.relvar in writes:
                    after_set = i.relvar
            elif isinstance(i, Set):
                writes[i.relvar] = writes.get(i.relvar, 0) + 1
        for k, n in sorted(reads.items()):
            if n > 1:
                return Violation(label, k, "READS", n)
        for k, n in sorted(writes.items()):
            if n > 1:
                return Violation(label, k, "WRITES", n)
        if after_set is not None:
            return Violation(label, after_set, "READ_AFTER_WRITE", 1)
    return None


def alpha(states):
    """Per-relvar union of relation contents over non-error Relational
    states: a dict from relvar to a frozenset of tuples."""
    out = {}
    for s in states:
        if s is ERROR:
            continue
        for k, tuples in s.rels:
            out.setdefault(k, set()).update(tuples)
    return {k: frozenset(v) for k, v in out.items()}


def expand(state):
    """All imperative states covered by a relational state: each relation
    independently keeps one of its tuples as a singleton, and an empty
    relation stays empty (bottom)."""
    if state is ERROR:
        return {ERROR}
    names = [k for k, _ in state.rels]
    options = [[frozenset({t}) for t in tuples] or [frozenset()] for _, tuples in state.rels]
    return {State(state.base, tuple(zip(names, pick))) for pick in itertools.product(*options)}


def expand_all(states):
    out = set()
    for s in states:
        out |= expand(s)
    return out


def stepwise_post(state, block, ctx, semantics):
    """`post` folded over the instructions of `block` one at a time: a
    reference for `post` on a whole block, which follows whole runs."""
    states = {state}
    for i in block.instrs:
        states = set().union(*(post(s, i, ctx, semantics) for s in states))
    return states


def replays_to_error(p, ctx, trace):
    """Whether running the blocks of `trace` in turn from the initial state
    under the relational semantics can reach ERROR."""
    blocks = dict(p.blocks)
    states = {initial_state(p, ctx.domain)}
    for label in trace:
        states = set().union(*(post(s, blocks[label], ctx, "relational") for s in states))
    return ERROR in states


# ---------------------------------------------------------------------------
# Random function-free constraint sets and brute-force solving


def _gen_kapp(rng, cs, scope):
    name = rng.choice(list(cs.kvars))
    sig = cs.kvars[name]
    args = tuple(
        Var(rng.choice(scope))
        if scope and rng.random() < 0.6
        else IntLit(rng.choice((0, 1)))
        for _ in sig.params
    )
    return KApp(name, args)


def _gen_ref(rng, cs, scope, p_kapp, v_args):
    if rng.random() < p_kapp:
        return _gen_kapp(rng, cs, scope + ["v"] if v_args else scope)
    return Concrete(gen_pred(rng, scope + ["v"]))


def gen_constraint_set(
    rng, max_kvars=2, max_params=1, max_constraints=3, binders=None, v_args=False
):
    """A random function-free set over int. Each constraint binds up to two
    names: x0, x1 in turn, or, given `binders`, a draw of distinct names from
    it (such as the translation's temps t0, t1). With `v_args`, a kvar
    application's arguments may read `v`, the value it refines."""
    cs = ConstraintSet()
    for i in range(rng.randint(1, max_kvars)):
        nparams = rng.randint(0, max_params)
        cs.kvars[f"k{i}"] = KVarSig(
            f"k{i}", INT, tuple((f"p{j}", INT) for j in range(nparams))
        )
    for ci in range(rng.randint(1, max_constraints)):
        env = []
        scope = []
        n = rng.randint(0, 2)
        names = [f"x{bi}" for bi in range(n)] if binders is None else rng.sample(binders, n)
        for name in names:
            env.append((name, RefType(INT, _gen_ref(rng, cs, scope, 0.5, v_args))))
            scope.append(name)
        lhs = RefType(INT, _gen_ref(rng, cs, scope, 0.4, v_args))
        rhs = RefType(INT, _gen_ref(rng, cs, scope, 0.7, v_args))
        cs.constraints.append(SubConstraint(f"c{ci}", tuple(env), lhs, rhs))
    return normalize(cs)


def points_pred(sig, tuples):
    """The predicate over a kvar's fields (`v`, then its parameters) that
    holds exactly at the given value tuples: one disjunct of equalities per
    tuple, in sorted order."""
    return mk_or(*(
        mk_and(*(Cmp("=", Var(n), IntLit(val)) for n, val in zip(sig.field_names, tup)))
        for tup in sorted(tuples)
    ))


def all_extensional_solutions(cs, domain=DOMAIN01):
    """Every assignment of a tuple set (over the domain) to every kvar, as a
    dict from kvar name to a frozenset of value tuples."""
    per_kvar = []
    names = list(cs.kvars)
    for name in names:
        sig = cs.kvars[name]
        universe = list(
            itertools.product(*[list(domain.values(t)) for t in sig.field_types])
        )
        subsets = []
        for mask in range(2 ** len(universe)):
            subsets.append(
                frozenset(t for i, t in enumerate(universe) if mask >> i & 1)
            )
        per_kvar.append(subsets)
    for combo in itertools.product(*per_kvar):
        yield dict(zip(names, combo))


def satisfies(cs, sol, domain=DOMAIN01):
    """Whether the tuple-set solution `sol` satisfies `cs` over `domain`; a
    kvar it leaves out is true."""
    preds = {k: points_pred(cs.kvars[k], tuples) for k, tuples in sol.items()}
    return check_satisfied(cs, preds, OracleMode(domain)).satisfied


def satisfying_solutions(cs, domain=DOMAIN01, limit=None):
    out = []
    for sol in all_extensional_solutions(cs, domain):
        if satisfies(cs, sol, domain):
            out.append(sol)
            if limit is not None and len(out) >= limit:
                break
    return out
