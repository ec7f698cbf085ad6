"""Cartesian predicate abstraction over translated IMP programs.

Each relation variable k gets a fixed list of predicates, plain formulas
over its fields k.0 ... k.n (k.0 is the written value, k.i the i-th
parameter). The abstract invariant tracks, per relation variable, the set
of reachable "cubes": truth assignments to its predicate list (None =
unconstrained). `cubes_pred` turns a cube set into a formula, for a get's
hypothesis and for an extracted solution alike; it merges the cubes
exactly first (`merge_cubes`), while the invariant keeps the cubes as
reached, so the fixpoint's growth test and termination do not change.

Each block is read in SSA form (`run_blocks`): its `imp` instructions
over fresh names, an assignment as an assume of an equation, a havoc as a
fresh name alone. The assumes build the path formula; a get conjoins the
source invariant with fields renamed to the tuple's names; an assert's
status is the `logic` status of path => assertion; a set classifies each
target predicate as forced true, forced false or unknown and records the
resulting cube. The SSA form does not depend on the invariant, so each
block is put in it once. It types each SSA name by `imp.type_instr`, which
it checks, so no query needs a typecheck of its own.

All the queries at one set or assert share its path as their hypothesis:
`path => false`, then `path => q` and `path => not q` for each predicate q.
The engine looks up one `logic.Hypothesis` per path, keyed on the type
environment and the path's conjunction, and asks it every query on that
path. The hypothesis is lowered to the solver once, each answer is cached
on it, and a model that one INVALID answer returned decides every later
query that it falsifies, with no search.

The witnesses also carry across a block's runs. The invariant only grows
during `solve`, so each get's hypothesis, a disjunction of its kvar's cubes,
only weakens, and a block's path at a given set or assert on a later run is
implied by its path there on an earlier run. Every witness found at that
position still satisfies the new path, so it is still a countermodel of
each goal it falsifies. The engine keeps the last Hypothesis at each
position, (block, instruction index), and a new Hypothesis there starts its
model pool with that one's witnesses. This state lives on the engine, one
per `solve`.

The fixpoint runs the blocks round-robin, but runs a block again only when
a kvar it gets has gained a cube since the block last ran: the invariant
reaches a block only through its gets, so that run would change nothing.
Each loop turn runs the next stale block, so a pass costs the blocks it
runs, not every block. Each block's assert statuses are those of its last
run. The result either proves every assert VALID or reports the first one
that is not.

Predicates come from two deterministic sources: harvesting (atomic
comparisons from any block whose variables a write passes, substituted by
the written fields; each distinct atom is walked once) and mining (per
write, the block's linear path constraints projected onto the written
fields by Fourier-Motzkin elimination, plus pairwise sums), which reads the
path through the solver's one linearization, `smt.lin_of`. The projection
drops the empty forms (`0 <= 0`) that elimination leaves, which would offer
no predicate or one the basis already offers. Chain links and the clones
of a kvar are blocks that often share a path and write other kvars, so
mining projects each distinct path, its conjuncts and the SSA names its set
writes, once per check. That is exact: the projection is a function of
those alone, and only its rendering over each kvar's fields is done per
write. Each candidate is typechecked once, in its kvar's field
environment, and kept if new.
"""

from __future__ import annotations

from bisect import insort
from itertools import combinations

from .logic import (
    Add,
    And,
    App,
    Cmp,
    FALSE,
    Hypothesis,
    INT,
    IntLit,
    Implies,
    LogicError,
    Not,
    ScalarMul,
    TRUE,
    TypeEnv,
    VALID,
    VALUE_VAR,
    Var,
    check_valid,  # unused here; hmcbench/layers.py wraps absint.check_valid
    free_vars,
    implies,
    mk_and,
    mk_or,
    rename_pred,
    subst,
    to_text,
    typecheck_cmp,
    typecheck_pred,
)
from .constraints import ConstraintError, parse_solution
from .imp import Assert, Assign, Assume, Get, Havoc, Set, type_instr
from .smt import Apps, _add_scaled, lin_add, lin_const, lin_of, lin_scale, lin_vars, norm_le

MAX_PREDS_PER_KVAR = 14
MAX_MINED_INEQS = 64


def field_var(kvar, i):
    return f"{kvar}.{i}"


class AbstractInvariant:
    def __init__(self, cubes):
        self.cubes = cubes  # kvar -> set of cubes


# ---------------------------------------------------------------------------
# A block in SSA form


def run_blocks(p):
    """block -> (the block in SSA form, the type environment of its SSA
    names), keyed by the block itself, so two blocks with one label cannot
    share an entry. The SSA form does not depend on the invariant, so a
    check builds it once and hands it to both the miner and the fixpoint.
    Raises `imp.ParseError` for an ill-typed block."""
    return {block: _ssa(p, label, block) for label, block in p.blocks}


def _ssa(p, label, block):
    """Block `label` as `imp` instructions over SSA names `{var}%{n}`, one
    counter per block: an assignment becomes `assume (= x%n e)`, a havoc
    only a fresh name, and assume, assert, get and set keep their kinds.
    Each instruction is checked by `imp.type_instr` as the walk reaches it,
    and an SSA name takes the type its variable holds there, so an
    ill-typed block raises `imp.ParseError` before any query is built."""
    held = dict(p.base_types)  # variable -> the type it holds now
    names = {}  # variable -> its current SSA name
    types = {}  # SSA name -> type; its size is the block's counter
    out = []

    def fresh(var):
        s = names[var] = f"{var}%{len(types)}"
        types[s] = held[var]
        return s

    def name(var):
        return names[var] if var in names else fresh(var)

    def rename(x):
        return subst(x, {v: Var(name(v)) for v in free_vars(x)})

    for i in block.instrs:
        if isinstance(i, Assign):
            e = rename(i.expr)  # read at the types held before `i`
        type_instr(p, label, i, held)
        if isinstance(i, Havoc):
            fresh(i.var)
        elif isinstance(i, Assign):
            out.append(Assume(Cmp("=", Var(fresh(i.var)), e)))
        elif isinstance(i, (Assume, Assert)):
            out.append(type(i)(rename(i.pred)))
        elif isinstance(i, Get):
            out.append(Get(i.relvar, tuple(fresh(x) for x in i.targets)))
        elif isinstance(i, Set):
            out.append(Set(i.relvar, tuple(name(x) for x in i.args)))
    return tuple(out), TypeEnv(tuple(sorted(types.items())))


# ---------------------------------------------------------------------------
# Predicate discovery


def _atoms(q, out):
    if isinstance(q, Cmp):
        out.append(q)
    elif isinstance(q, Not):
        _atoms(q.arg, out)
    elif isinstance(q, (And, Implies)):
        for part in q.args if isinstance(q, And) else (q.left, q.right):
            _atoms(part, out)
    return out


def field_env(p, kvar):
    types = p.relvar_sigs[kvar]
    return TypeEnv(tuple((field_var(kvar, i), t) for i, t in enumerate(types)))


def harvest_predicates(p, runs, extra=None):
    """kvar -> ordered list of predicates, each a formula over the kvar's
    field variables: harvested atoms first (for each write, in block order,
    every block's atoms whose variables are all written arguments, mapped to
    the fields), then mined projections, then user extras. A harvested or
    mined candidate is kept if it is not already in the list, the list holds
    fewer than `MAX_PREDS_PER_KVAR`, and it typechecks in its kvar's field
    environment, built once here. The extras, which `parse_preds`
    typechecked, sit outside the cap: each one not already in the list is
    appended, in their order."""
    envs = {k: field_env(p, k) for k in p.relvar_sigs}
    preds = {k: [] for k in p.relvar_sigs}

    def keep(kvar, q):
        qs = preds[kvar]
        if len(qs) < MAX_PREDS_PER_KVAR and q not in qs:
            qs.append(q)

    def add(kvar, q):
        """Keep the comparison `q` if it typechecks in its kvar's field
        environment, an int equality as its two halves."""
        qs = preds[kvar]
        if len(qs) >= MAX_PREDS_PER_KVAR or q in qs:
            return
        try:
            sides = typecheck_cmp(envs[kvar], q, p.func_sigs)
        except LogicError:
            return
        if q.op == "=" and sides == (INT, INT):
            keep(kvar, Cmp("<=", q.left, q.right))
            keep(kvar, Cmp("<=", q.right, q.left))
        else:
            keep(kvar, q)

    atoms = []
    for _, block in p.blocks:
        for i in block.instrs:
            if isinstance(i, (Assume, Assert)):
                _atoms(i.pred, atoms)
    # a repeated atom offers a predicate the list already holds or refused
    atom_vars = [(atom, free_vars(atom)) for atom in dict.fromkeys(atoms)]
    for _, block in p.blocks:
        for i in block.instrs:
            if not isinstance(i, Set):
                continue
            fields = {}
            for idx, x in enumerate(i.args):
                fields.setdefault(x, Var(field_var(i.relvar, idx)))
            for atom, xs in atom_vars:
                if fields.keys() >= xs:
                    add(i.relvar, subst(atom, fields))
    for kvar, q in mined_predicates(p, runs):
        add(kvar, q)
    for kvar, q in extra or []:
        if q not in preds[kvar]:
            preds[kvar].append(q)
    return preds


# -- mining: linear projection of per-block path formulas onto write fields


# comparison -> the (lhs, rhs, constant) of each `lhs - rhs + constant <= 0`
# it gives, with 0 and 1 naming the comparison's left and right sides
_LE = {
    "<=": [(0, 1, 0)],
    "<": [(0, 1, 1)],
    ">=": [(1, 0, 0)],
    ">": [(1, 0, 1)],
    "=": [(0, 1, 0), (1, 0, 0)],
}


def _path_ineqs(conjs, apps):
    """Linear inequalities (lin <= 0) from the top-level comparisons of the
    path conjuncts `conjs` (under-approximating the path), each side lowered
    by `smt.lin_of` through the Ackermann table `apps`, and each difference
    built in one dict."""
    les = []
    for conj in conjs:
        for atom in _flatten_and(conj, []):
            if isinstance(atom, Cmp) and atom.op in _LE:
                sides = (lin_of(atom.left, apps), lin_of(atom.right, apps))
                for l, r, c in _LE[atom.op]:
                    lin = dict(sides[l])
                    _add_scaled(lin, sides[r], -1)
                    _add_scaled(lin, lin_const(c), 1)
                    les.append(lin)
    return les


def _project(les, keep):
    """Fourier-Motzkin elimination of every key not in `keep`, each
    combination of a lower and an upper bound built in one dict. It keeps at
    most `MAX_MINED_INEQS` inequalities of its input and after each step, so
    a long path cannot grow the basis, and its pairwise sums, without bound.
    The empty forms (`0 <= 0`) that elimination leaves are dropped at the
    end: one gives no predicate, and its sum with a form is that form. The
    result depends on `les` and `keep` alone, so `mined_predicates` projects
    each distinct path once."""
    les = [l for l in les if l][:MAX_MINED_INEQS]
    while True:
        drop = next((k for lin in les for k in lin if k is not None and k not in keep), None)
        if drop is None:
            return [lin for lin in les if lin]
        lowers, uppers, rest = [], [], []
        for lin in les:
            c = lin.get(drop, 0)
            if c > 0:
                uppers.append(lin)
            elif c < 0:
                lowers.append(lin)
            else:
                rest.append(lin)
        for lo in lowers:
            for up in uppers:
                lin = lin_scale(up, -lo[drop])
                _add_scaled(lin, lo, up[drop])
                rest.append(lin)
        les = rest[:MAX_MINED_INEQS]


def _lin_to_pred(lin, terms):
    """`lin <= 0` as a comparison of two sums over the fields, or None when
    `lin` has no key. `terms` maps each key to (the text of its term on the
    path, which orders each sum, and its term over the fields)."""
    lin = norm_le(lin)
    ks = sorted(lin_vars(lin), key=lambda k: terms[k][0])
    if not ks:
        return None

    def term(k, c):
        e = terms[k][1]
        return e if c == 1 else ScalarMul(c, e)

    pos = [term(k, lin[k]) for k in ks if lin[k] > 0]
    neg = [term(k, -lin[k]) for k in ks if lin[k] < 0]
    c = lin.get(None, 0)
    if c > 0:
        pos.append(IntLit(c))
    elif c < 0:
        neg.append(IntLit(-c))

    def side(parts):
        if len(parts) < 2:
            return parts[0] if parts else IntLit(0)
        return Add(tuple(parts))

    return Cmp("<=", side(pos), side(neg))


def _term_of(lin):
    """The literal or the variable that the linear form `lin` is, else None."""
    if not lin_vars(lin):
        return IntLit(lin.get(None, 0))
    if len(lin) == 1 and 1 in lin.values():
        return Var(next(iter(lin)))
    return None


def mined_predicates(p, runs):
    """(kvar, formula) candidates from projecting each write's path formula
    onto the written fields, plus pairwise sums of the projection basis.
    Every application on the path, nullary ones included, is lowered to its
    Ackermann constant; one whose arguments are all literals or written
    variables maps back to the application over the fields, and the
    projection eliminates the others. Each distinct path, its conjuncts
    and the SSA names its set writes, is projected once per call
    (`_mine_path`): the projection is a function of these alone, so every
    write gets the forms, in order, that a projection of its own would
    give, rendered over its kvar's fields."""
    out = []
    mined = {}  # (path conjuncts, written SSA names) -> `_mine_path` of them
    for _, block in p.blocks:
        conjs = []
        for i in runs[block][0]:
            if isinstance(i, Assume):
                conjs.append(i.pred)
            elif isinstance(i, Set):
                kvar, syms = i.relvar, i.args
                key = (tuple(conjs), syms)
                found = mined.get(key)
                if found is None:
                    found = mined[key] = _mine_path(conjs, syms)
                forms, apps = found
                fields = {}
                for i, s in enumerate(syms):
                    fields.setdefault(s, Var(field_var(kvar, i)))
                terms = {s: (s, f) for s, f in fields.items()}  # see `_lin_to_pred`
                for const, text, app in apps:
                    terms[const] = (text, subst(app, fields))
                for lin in forms:
                    q = _lin_to_pred(lin, terms)
                    if q is not None:
                        out.append((kvar, q))
    return out


def _mine_path(conjs, syms):
    """The projection of the path `conjs` onto the SSA names `syms` and the
    applications over them: the basis and its pairwise sums as linear
    forms, and each kept application as (its constant, its text, the
    application over SSA names). Nothing in it names a kvar."""
    table = Apps()
    les = _path_ineqs(conjs, table)
    keep = set(syms)
    apps = []
    for const, func, args in table.table.values():
        app = App(func, tuple(map(_term_of, args)))
        if None not in app.args and free_vars(app) <= keep:
            apps.append((const, to_text(app), app))
    basis = _project(les, keep | {const for const, _, _ in apps})
    return basis + [lin_add(a, b) for a, b in combinations(basis, 2)], apps


def parse_preds(text, p):
    """User predicate file: .sol-style. The value variable `v` names field 0;
    the remaining fields are addressed as k.1, k.2, ... directly. An entry
    for a kvar that cloning split applies to each of its clones. Each
    entry's top-level conjunction is split into individual predicates.
    Raises ConstraintError for an entry whose kvar is neither in `p` nor
    cloned in it, or which does not typecheck over its kvar's fields."""
    out = []
    for kvar, pred in sorted(parse_solution(text).items()):
        names = [kvar] if kvar in p.relvar_sigs else [c for c, o in p.clones.items() if o == kvar]
        if not names:
            raise ConstraintError(f"unknown kvar {kvar}")
        for name in names:
            n = len(p.relvar_sigs[name])
            rename = _fields(kvar, [field_var(name, i) for i in range(n)])
            q = rename_pred(pred, rename | {VALUE_VAR: field_var(name, 0)})
            try:
                typecheck_pred(field_env(p, name), q, p.func_sigs)
            except LogicError as exc:
                raise ConstraintError(f"{kvar}: {type(exc).__name__}: {exc}") from exc
            out += [(name, c) for c in _flatten_and(q, [])]
    return out


def _flatten_and(q, out):
    if isinstance(q, And):
        for part in q.args:
            _flatten_and(part, out)
    else:
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# Abstract execution


class AssertStatus:
    def __init__(self, label, status, query=None):
        self.label = label
        self.status = status  # the `logic` status of its query: VALID, INVALID or UNKNOWN
        self.query = query  # the query, path => assertion, unless VALID


class Engine:
    def __init__(self, p, runs, preds, mode):
        self.p = p
        self.runs = runs  # run_blocks(p)
        self.preds = preds
        self.mode = mode
        self.memo = {}  # (tenv, hypothesis) -> Hypothesis
        self.last = {}  # (block, instr index) -> the Hypothesis its last run used
        self.renamed = {}  # (block, instr index) -> its kvar's predicates over SSA names

    def hypothesis(self, tenv, path, at):
        """The one `Hypothesis` of the conjunction of `path` under `tenv`,
        which decides and caches every query on that path. `at` is the
        path's position, (block, instruction index): a new Hypothesis there
        starts its model pool with the witnesses of the one the position's
        last run used, which satisfy this path too (module docstring)."""
        hyp = mk_and(*path)
        key = (tenv, hyp)
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = Hypothesis(tenv, hyp, self.mode, self.p.func_sigs)
            before = self.last.get(at)
            if before is not None:
                found.models.extend(before.models)
        self.last[at] = found
        return found

    def preds_at(self, block, at, i):
        """The predicates of the kvar that the get or set `i`, at `at` in
        `block`, reads or writes, over the SSA names it gets or sets: renamed
        once per position, since neither depends on the invariant."""
        found = self.renamed.get((block, at))
        if found is None:
            names = i.targets if isinstance(i, Get) else i.args
            rename = _fields(i.relvar, names)
            found = self.renamed[block, at] = [rename_pred(fq, rename) for fq in self.preds[i.relvar]]
        return found

    def valid(self, hyp, q):
        """The validity status of `hyp.hyp => q`, as the `Hypothesis` `hyp`
        decides it."""
        return hyp.check(q).status

    def abstract_post(self, label, block, inv):
        """Returns (statuses, new cubes as [(kvar, cube)])."""
        instrs, tenv = self.runs[block]
        path = []
        statuses = []
        new = []
        for at, i in enumerate(instrs):
            if isinstance(i, Assume):
                path.append(i.pred)
            elif isinstance(i, Assert):
                if i.pred == TRUE:
                    statuses.append(AssertStatus(label, VALID))
                    continue
                hyp = self.hypothesis(tenv, path, (block, at))
                status = self.valid(hyp, i.pred)
                query = None if status == VALID else implies(hyp.hyp, i.pred)
                statuses.append(AssertStatus(label, status, query))
            elif isinstance(i, Get):
                cubes = inv.cubes.get(i.relvar)
                if not cubes:
                    # nothing written yet: the relation is empty, the block
                    # halts here (remaining asserts vacuously hold)
                    return statuses, new
                path.append(cubes_pred(self.preds_at(block, at, i), cubes))
            elif isinstance(i, Set):
                hyp = self.hypothesis(tenv, path, (block, at))
                if path and self.valid(hyp, FALSE) == VALID:
                    continue  # the write is unreachable on this path
                cube = []
                for q in self.preds_at(block, at, i):
                    if self.valid(hyp, q) == VALID:
                        cube.append(True)
                    elif self.valid(hyp, Not(q)) == VALID:
                        cube.append(False)
                    else:
                        cube.append(None)
                new.append((i.relvar, tuple(cube)))
        return statuses, new


def _fields(kvar, names):
    """Renaming of the kvar's field variables to `names`, in field order."""
    return {field_var(kvar, i): n for i, n in enumerate(names)}


def cube_literals(preds, cube):
    """The predicates a cube fixes: each one as is where the cube holds it
    true, negated where false."""
    return [q if bit else Not(q) for q, bit in zip(preds, cube) if bit is not None]


def cubes_pred(preds, cubes):
    """The disjunction of the cubes, each the conjunction of its literals.
    This is where a cube set becomes a formula, for a get's hypothesis and
    for an extracted solution alike, so the cubes are merged here first:
    the formula is equivalent to the plain disjunction, and often shorter."""
    merged = sorted(merge_cubes(cubes), key=str)
    return mk_or(*(mk_and(*cube_literals(preds, c)) for c in merged))


def merge_cubes(cubes):
    """`cubes` after Quine's two exact simplification steps, repeated until
    neither applies: two cubes equal but for opposite signs at one position
    become one cube unconstrained there, and a cube that fixes every literal
    another cube fixes is dropped. The truth assignments covered stay the
    same. Pairs are visited in `str` order, so the result does not depend on
    the iteration order of `cubes`; zero or one cube is returned as given."""
    if len(cubes) < 2:
        return cubes
    out = sorted(cubes, key=str)
    while True:
        for a, b in combinations(out, 2):
            step = _merge_pair(a, b)
            if step is not None:
                out = sorted(set(out) - {a, b} | {step}, key=str)
                break
        else:
            return set(out)


def _merge_pair(a, b):
    """The one cube that covers exactly what `a` and `b` cover, if a step
    of `merge_cubes` applies to them, else None."""
    diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if all(a[i] is None for i in diff):
        return a  # every literal `a` fixes, `b` fixes too
    if all(b[i] is None for i in diff):
        return b
    if len(diff) == 1:
        i = diff[0]  # opposite signs: neither is None here
        return a[:i] + (None,) + a[i + 1 :]
    return None


class SolveResult:
    def __init__(self, invariant, statuses, failing):
        self.invariant = invariant  # an AbstractInvariant
        self.statuses = statuses  # [AssertStatus]
        self.failing = failing  # the first AssertStatus that is not VALID, or None


def solve(p, runs, preds, mode):
    """Round-robin over the blocks until no kvar gains a cube, running only
    the blocks that get a kvar grown since their last run. The order stays
    round-robin: a set adds one cube for the whole disjunction its block
    read, so another order could end with other cubes. The stale blocks
    wait in a list sorted on (pass, index), so each turn of the loop runs
    one block: a block that turns stale after the current one runs later
    in this pass, any other in the next."""
    engine = Engine(p, runs, preds, mode)
    inv = AbstractInvariant({k: set() for k in p.relvar_sigs})
    readers = {k: set() for k in p.relvar_sigs}  # kvar -> indices of blocks that get it
    for i, (_, block) in enumerate(p.blocks):
        for instr in runs[block][0]:
            if isinstance(instr, Get):
                readers[instr.relvar].add(i)
    last = [[] for _ in p.blocks]  # each block's statuses from its last run
    stale = set(range(len(p.blocks)))
    queue = [(0, i) for i in range(len(p.blocks))]  # (pass, index) of each stale block, sorted
    while queue:
        turn, i = queue.pop(0)
        stale.discard(i)
        label, block = p.blocks[i]
        last[i], new = engine.abstract_post(label, block, inv)
        for kvar, cube in new:
            if cube not in inv.cubes[kvar]:
                inv.cubes[kvar].add(cube)
                for j in readers[kvar] - stale:
                    stale.add(j)
                    insort(queue, (turn + (j <= i), j))
    statuses = [st for sts in last for st in sts]
    failing = next((st for st in statuses if st.status != VALID), None)
    return SolveResult(inv, statuses, failing)


def extract_solution(inv, preds, kvar_sigs):
    """Per-kvar disjunction of reachable cubes, merged by `cubes_pred`,
    fields renamed to the kvar's value variable and parameter names. No
    cubes means the relation stays empty: false."""
    entries = {}
    for name, sig in kvar_sigs.items():
        cubes = inv.cubes.get(name)
        if not cubes:
            entries[name] = FALSE
            continue
        rename = _fields(name, sig.field_names)
        entries[name] = cubes_pred([rename_pred(fq, rename) for fq in preds[name]], cubes)
    return entries


def format_invariant(inv, preds):
    """Human-readable per-kvar invariant in field notation."""
    lines = []
    for kvar in sorted(inv.cubes):
        cubes = inv.cubes[kvar]
        if not cubes:
            lines.append(f"{kvar}: false (never written)")
            continue
        rendered = {
            " & ".join(to_text(q) for q in cube_literals(preds[kvar], cube)) or "true"
            for cube in cubes
        }
        lines.append(f"{kvar}: " + " | ".join(sorted(rendered)))
    return "\n".join(lines)
