"""IMP: a single nondeterministic loop over straight-line blocks.

Programs are `loop { I1 [] ... [] In }`. Instructions act on base variables
and relation variables. A state maps each relation variable to a set of
tuples; `get` picks any member (halting on an empty relation). `runs`
gives the instructions their meaning, following a block's runs depth first.
Two ground-truth semantics share it and differ only in where a `get` picks
and how a `set` lands:

- Relational: relations grow; `get` picks from the relation or the run's
  own sets, and `set` inserts.
- Imperative: a relation holds at most one tuple, and bottom is the empty
  relation; `get` picks the run's last own set, else the relation, and
  `set` overwrites.

A failing assert moves to the absorbing ERROR state. The oracle,
`exec_program`, works over a finite value domain and finite function
tables. When every block writes each base variable before it reads it, as
every translated program does, a block's runs depend only on the tuples its
gets pick; under the relational semantics relations only grow, so the
blocks are Horn clauses, and `least_model` evaluates them semi-naively to
their least model. Otherwise `reach` searches the states.
"""

from __future__ import annotations

import re
from itertools import groupby

from . import sexpr
from .logic import (
    Frozen,
    FuncSig,
    Interpretation,
    LogicError,
    MissingBinding,
    OUTSIDE,
    SAMPLED,
    TRUE,
    TypeMismatch,
    UnboundVariable,
    UnknownFunction,
    _set,
    enumerate_func_tables,
    eval_expr,
    eval_pred,
    expr_from_sexpr,
    free_vars,
    pred_from_sexpr,
    to_text,
    type_from_sexpr,
    type_of,
    typecheck_expr,
    typecheck_pred,
)


class ImpError(Exception):
    pass


class ParseError(ImpError):
    pass


# ---------------------------------------------------------------------------
# Instructions


class Assign(Frozen):
    __slots__ = ("var", "expr")


class Havoc(Frozen):
    __slots__ = ("var",)


class Get(Frozen):
    __slots__ = ("relvar", "targets")  # targets: variable names receiving the tuple components


class Set(Frozen):
    __slots__ = ("relvar", "args")  # args: variable names supplying the tuple components


class Assume(Frozen):
    __slots__ = ("pred",)


class Assert(Frozen):
    __slots__ = ("pred",)


class Seq(Frozen):
    __slots__ = ("instrs", "_hash")

    def __init__(self, instrs):
        _set(self, "instrs", instrs)
        _set(self, "_hash", hash(instrs))  # a block keys its SSA form: hash it once

    def __hash__(self):
        return self._hash


SKIP = Assume(TRUE)


def seq_of(instrs):
    flat = []
    for i in instrs:
        if isinstance(i, Seq):
            flat.extend(i.instrs)
        else:
            flat.append(i)
    return Seq(tuple(flat))


class ImpProgram:
    def __init__(self, relvar_sigs=None, base_types=None, func_sigs=None, blocks=None, clones=None):
        self.relvar_sigs = {} if relvar_sigs is None else relvar_sigs  # name -> (BaseType, ...)
        self.base_types = {} if base_types is None else base_types  # name -> BaseType
        self.func_sigs = {} if func_sigs is None else func_sigs  # name -> FuncSig
        self.blocks = [] if blocks is None else blocks  # [(label, Seq)]
        self.clones = {} if clones is None else clones  # clone relvar -> original

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.relvar_sigs == other.relvar_sigs
            and self.base_types == other.base_types
            and self.func_sigs == other.func_sigs
            and self.blocks == other.blocks
            and self.clones == other.clones
        )


# ---------------------------------------------------------------------------
# States


class _ErrorState:
    def __repr__(self):
        return "ERROR"


ERROR = _ErrorState()


class State(Frozen):
    # base: sorted ((name, value), ...)
    # rels: sorted ((relvar, frozenset of tuples), ...); under the imperative
    # semantics a relation holds at most one tuple, and bottom is empty
    __slots__ = ("base", "rels")

    @staticmethod
    def make(base, rels):
        return State(
            tuple(sorted(base.items())),
            tuple(sorted((k, frozenset(v)) for k, v in rels.items())),
        )


def initial_state(p, domain):
    base = {x: domain.min_value(t) for x, t in p.base_types.items()}
    return State.make(base, {k: () for k in p.relvar_sigs})


# ---------------------------------------------------------------------------
# Post relations


class ExecContext:
    def __init__(self, program, domain, tables):
        self.program = program  # an ImpProgram
        self.domain = domain  # a ValueDomain
        self.tables = tables  # function name -> finite map
        self.outside = False  # set when a run needs an entry that `tables` lacks


def runs(instrs, ctx, base, picks):
    """The runs of the straight-line `instrs` from the valuation `base`,
    depth first: a havoc tries each value of its variable's domain in
    order, and the get at index j each tuple that `picks(j, relvar, sets,
    reads)` lists, given the run's sets and reads so far. Yields (end
    valuation, or None where an assert fails, reads, sets): `sets` are the
    (relvar, tuple) facts the run's sets write, in order, and `reads` the
    facts its gets take, but for a tuple the run set itself. A failing
    assume, or a get with nothing to pick, ends its run without a yield; so
    does an evaluation that needs a table entry `ctx.tables` lacks, and it
    sets `ctx.outside`."""
    stack = [(0, dict(base), (), ())]
    while stack:
        j, base, reads, sets = stack.pop()
        while j < len(instrs):
            i = instrs[j]
            j += 1
            if isinstance(i, Assign):
                try:
                    base[i.var] = eval_expr(Interpretation(base, ctx.tables), i.expr)
                except MissingBinding:
                    ctx.outside = True
                    break
            elif isinstance(i, Set):
                sets += ((i.relvar, tuple(base[x] for x in i.args)),)
            elif isinstance(i, Havoc):
                vals = ctx.domain.values(ctx.program.base_types[i.var])
                stack += [(j, {**base, i.var: val}, reads, sets) for val in reversed(vals)]
                break
            elif isinstance(i, Get):
                for tup in reversed([*picks(j - 1, i.relvar, sets, reads)]):
                    b = dict(base)
                    b.update(zip(i.targets, tup))
                    fact = (i.relvar, tup)
                    stack.append((j, b, reads if fact in sets else reads + (fact,), sets))
                break
            elif isinstance(i, (Assume, Assert)):
                try:
                    holds = eval_pred(Interpretation(base, ctx.tables), i.pred)
                except MissingBinding:
                    ctx.outside = True
                    break
                if not holds:
                    if isinstance(i, Assert):
                        yield None, reads, sets
                    break
            else:
                raise ImpError(f"bad instruction {i!r}")
        else:
            yield base, reads, sets


def post(state, instr, ctx, semantics):
    """The states that the runs of `instr`, one instruction or a block, end
    in from `state` under `semantics`, and ERROR for a run whose assert
    fails. ERROR absorbs."""
    if state is ERROR:
        return {ERROR}
    rels = dict(state.rels)
    relational = semantics == "relational"

    def picks(j, relvar, sets, reads):
        own = [t for k, t in sets if k == relvar]
        if relational:
            return rels[relvar].union(own)
        return own[-1:] or rels[relvar]

    out = set()
    instrs = instr.instrs if isinstance(instr, Seq) else (instr,)
    for end, _, sets in runs(instrs, ctx, state.base, picks):
        if end is None:
            out.add(ERROR)
            continue
        after = dict(rels)
        for k, t in sets:
            after[k] = after[k] | {t} if relational else frozenset({t})
        landed = tuple(sorted(after.items())) if sets else state.rels
        out.add(State(tuple(sorted(end.items())), landed))
    return out


# ---------------------------------------------------------------------------
# Reachability


class ReachResult:
    def __init__(self, states, error_trace, exhausted):
        self.states = states
        self.error_trace = error_trace  # block labels leading to ERROR, or None
        self.exhausted = exhausted  # False when the fuel cap stopped the fixpoint


def reach(p, ctx, semantics="relational", fuel=10_000, stop_on_error=False):
    """All states reachable from the initial state by any block sequence under
    one fixed interpretation. Tracks the least shortest block trace to ERROR,
    comparing traces block by block in program order: the frontier stays
    sorted by trace, and its states that share a trace are stepped through
    each block in turn. With `stop_on_error` the fixpoint is cut short once
    ERROR appears (the state set is then partial; only the verdict is
    meaningful)."""
    init = initial_state(p, ctx.domain)
    states = {init}
    traces = {init: []}
    frontier = [init]
    error_trace = None
    rounds = 0
    while frontier:
        rounds += 1
        if rounds > fuel or len(states) > fuel:
            return ReachResult(states, error_trace, False)
        nxt = []
        for trace, group in groupby(frontier, key=traces.__getitem__):
            group = list(group)
            for label, block in p.blocks:
                for s in group:
                    for s2 in post(s, block, ctx, semantics):
                        if s2 in states:
                            continue
                        states.add(s2)
                        traces[s2] = trace + [label]
                        if s2 is ERROR:
                            if error_trace is None:
                                error_trace = traces[s2]
                            if stop_on_error:
                                return ReachResult(states, error_trace, False)
                        else:
                            nxt.append(s2)
        frontier = nxt
    return ReachResult(states, error_trace, True)


# ---------------------------------------------------------------------------
# Least model


class ModelResult:
    def __init__(self, model, error_trace, exhausted):
        self.model = model  # relvar -> frozenset of tuples; partial unless `exhausted`
        self.error_trace = error_trace  # block labels leading to ERROR, or None
        self.exhausted = exhausted  # False when the fuel cap stopped the fixpoint


def least_model(p, ctx, fuel=10_000, stop_on_error=True):
    """The least model of `p` under one fixed interpretation, for a program
    whose every block writes each base variable before it reads it (see
    `reads_before_writing`). Such a block is a Horn clause: its runs depend
    only on the tuples its gets pick, so an error is reachable iff an
    assert fails on some run whose gets pick from the least model.

    Semi-naive evaluation: each round runs every block over the tuples
    found before it, and after the first round only the runs that read a
    tuple new in the last round: the last get of a run that has read none
    picks from those alone, and a block without a get is not run again.
    The tuples their sets write are added at the end of the round, until a
    round adds none. Each tuple keeps its first derivation, the block and
    the tuples that run read, and the trace to ERROR lists the derivations
    of the failing run's reads depth first, each once, then the failing
    block. The fixpoint stops unexhausted once the model holds more than
    `fuel` tuples. With `stop_on_error` it stops at the first failing run
    (the model is then partial)."""
    model = {k: {} for k in p.relvar_sigs}  # relvar -> {tuple: derivation index}
    derivations = []  # (block label, the (relvar, tuple) facts its run read)
    error_trace = None
    delta = None  # the tuples new in the last round; None in the first
    size = 0
    while True:
        fresh = {k: {} for k in model}
        for label, block in p.blocks:
            gets = [j for j, i in enumerate(block.instrs) if isinstance(i, Get)]
            if delta is not None and not gets:
                continue  # a run that gets nothing reads no new tuple

            def picks(j, relvar, sets, reads):
                own = dict.fromkeys(t for k, t in sets if k == relvar)
                if j == gets[-1] and delta is not None and not any(t in delta[k] for k, t in reads):
                    # the last chance to read a new tuple; a tuple the run
                    # set itself is not one
                    return [t for t in delta[relvar] if t not in own]
                return [*model[relvar], *(t for t in own if t not in model[relvar])]

            for end, reads, sets in runs(block.instrs, ctx, {}, picks):
                if end is None:
                    # a failing run that read nothing new set the trace in an earlier round
                    if error_trace is None:
                        error_trace = _derivation_trace(model, derivations, reads) + [label]
                        if stop_on_error:
                            return ModelResult(_relations(model), error_trace, False)
                    continue
                d = None
                for k, tup in sets:
                    if tup not in model[k] and tup not in fresh[k]:
                        if d is None:
                            d = len(derivations)
                            derivations.append((label, reads))
                        fresh[k][tup] = d
        for k, new in fresh.items():
            model[k].update(new)
            size += len(new)
        if not any(fresh.values()):
            return ModelResult(_relations(model), error_trace, True)
        if size > fuel:
            return ModelResult(_relations(model), error_trace, False)
        delta = fresh


def _relations(model):
    return {k: frozenset(tuples) for k, tuples in model.items()}


def _derivation_trace(model, derivations, reads):
    """The labels of the derivations of `reads`, depth first in dependency
    order, each derivation once."""
    trace, seen = [], set()
    stack = [(None, iter(reads))]  # (derivation index, its reads left to visit)
    while stack:
        d, todo = stack[-1]
        fact = next(todo, None)
        if fact is None:
            stack.pop()
            if d is not None:
                trace.append(derivations[d][0])
            continue
        first = model[fact[0]][fact[1]]
        if first not in seen:
            seen.add(first)
            stack.append((first, iter(derivations[first][1])))
    return trace


SAFE = "safe"
UNSAFE = "unsafe"
INCONCLUSIVE = "inconclusive"

# why a run without a counterexample is INCONCLUSIVE, beside `logic`'s
# SAMPLED and OUTSIDE
FUEL_OUT = "ran out of fuel before a fixpoint; no counterexample found"


class ExecVerdict:
    def __init__(self, status, trace=None, tables=None, reasons=()):
        self.status = status
        self.trace = trace  # block labels leading to ERROR, or None
        self.tables = tables  # the function tables of that trace, or None
        self.reasons = reasons  # SAMPLED, OUTSIDE and FUEL_OUT, those that hold, when INCONCLUSIVE


def exec_program(p, domain, semantics="relational", table_budget=256, seed=0, fuel=10_000):
    """Safety over every interpretation of the uninterpreted functions: one
    search per table choice, the first error trace found wins. Under the
    relational semantics a program whose blocks write each base variable
    before they read it gets its least model (`least_model`); any other
    program, and any under the imperative semantics, gets the state search
    (`reach`). A clean run is INCONCLUSIVE rather than SAFE when the tables
    were sampled, a run needed an entry outside them (`runs`) or a search
    ran out of `fuel`, with those reasons."""
    choices, exhaustive = enumerate_func_tables(p.func_sigs.values(), domain, table_budget, seed)
    horn = semantics == "relational" and not any(
        reads_before_writing(block) for _, block in p.blocks
    )
    reasons = [] if exhaustive else [SAMPLED]
    for tables in choices:
        ctx = ExecContext(p, domain, tables)
        if horn:
            r = least_model(p, ctx, fuel)
        else:
            r = reach(p, ctx, semantics, fuel, stop_on_error=True)
        if r.error_trace is not None:
            return ExecVerdict(UNSAFE, r.error_trace, tables)
        for reason, hit in ((OUTSIDE, ctx.outside), (FUEL_OUT, not r.exhausted)):
            if hit and reason not in reasons:
                reasons.append(reason)
    return ExecVerdict(INCONCLUSIVE if reasons else SAFE, reasons=tuple(reasons))


# ---------------------------------------------------------------------------
# Variables read and written


def _reads_writes(i):
    """The variables instruction `i` reads, and those it writes."""
    if isinstance(i, Get):
        return (), i.targets
    if isinstance(i, Havoc):
        return (), (i.var,)
    if isinstance(i, Set):
        return i.args, ()
    if isinstance(i, Assign):
        return free_vars(i.expr), (i.var,)
    return free_vars(i.pred), ()


def reads_before_writing(block):
    """The set of the variables `block` reads before it writes them."""
    read_first, written = set(), set()
    for i in block.instrs:
        reads, writes = _reads_writes(i)
        read_first.update(x for x in reads if x not in written)
        written.update(writes)
    return read_first


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   ;; uninterp len ((ui obj)) int
#   ;; relvar k1 arity 3 types int int (ui obj)
#   ;; basevar v int
#   ;; clone k1.1 of k1
#   loop {
#     /*c1*/
#       havoc v;
#       assume (= v i);
#       set k1 (v, i, xs)
#   []
#     ...
#   }


# a token after any whitespace: a label (just `/*` when unterminated),
# punctuation, the `(` that opens a group, a word or int, or a stray
# character. `\s` matches exactly the characters `str.isspace()` accepts
_TOKEN = re.compile(
    r"\s*(?:(?P<label>/\*(?:.*?\*/)?)|(?P<punct>\[\]|:=|[{};])|(?P<group>\()"
    r"|(?P<word>[\w.'#-]+)|(?P<stray>\S))",
    re.S,
)
_PAREN = re.compile(r"[()]")


class _At(Exception):
    """A syntax error at an offset of the text; `parse_imp` names its line."""


def _tokens(text):
    """Tokens (kind, value, offset): ('label', s) ('word', s) ('int', n)
    ('group', raw), and punctuation, whose kind is its text: `{ } ; [] :=`.
    A group runs from a `(` to the `)` that balances it."""
    toks = []
    pos = 0
    while m := _TOKEN.match(text, pos):
        kind = m.lastgroup
        value, at, pos = m.group(kind), m.start(kind), m.end()
        if kind == "label":
            if value == "/*":
                raise _At(at, "unterminated label")
            value = value[2:-2].strip()
        elif kind == "punct":
            kind = value
        elif kind == "group":
            depth = 0
            for paren in _PAREN.finditer(text, at):
                depth += 1 if paren.group() == "(" else -1
                if not depth:
                    break
            else:
                raise _At(at, "unbalanced parentheses")
            pos = paren.end()
            value = text[at:pos]
        elif kind == "word":
            try:
                kind, value = "int", int(value)
            except ValueError:
                pass
        else:
            raise _At(at, f"stray character {value!r}")
        toks.append((kind, value, at))
    return toks


def _expect(ts, kind, value=None):
    k, v, at = next(ts)
    if k != kind or (value is not None and v != value):
        raise _At(at, f"expected {value or kind}, got {v!r}")
    return v


def _parse_instr(ts):
    kind, val, at = next(ts)
    if kind != "word":
        raise _At(at, f"bad instruction start {val!r}")
    if val == "havoc":
        return Havoc(_expect(ts, "word"))
    if val in ("get", "set"):
        relvar = _expect(ts, "word")
        k, raw, _ = next(ts)
        if k != "group":
            raise _At(at, f"{val} needs a tuple")
        names = tuple(x.strip() for x in raw[1:-1].split(","))
        if names == ("",):
            raise _At(at, f"{val} tuple must be non-empty")
        for x in names:
            if not x or any(ch in x for ch in " ()"):
                raise _At(at, f"bad tuple component {x!r}")
        return Get(relvar, names) if val == "get" else Set(relvar, names)
    if val in ("assume", "assert"):
        k, raw, group_at = next(ts)
        if k != "group":
            raise _At(at, f"{val} needs a parenthesized predicate")
    else:
        _expect(ts, ":=")
        k, raw, group_at = next(ts)
        if k in ("int", "word"):
            return Assign(val, expr_from_sexpr(raw))
        if k != "group":
            raise _At(group_at, "bad assignment right-hand side")
    try:  # an error inside the group is one at its `(`
        form = sexpr.parse_one(raw)
        if val not in ("assume", "assert"):
            return Assign(val, expr_from_sexpr(form))
        if isinstance(form, list) and len(form) == 1 and isinstance(form[0], str):
            form = form[0]  # (true) and friends: grammar parens around an atom
        pred = pred_from_sexpr(form)
    except (sexpr.SexprError, LogicError) as exc:
        raise _At(group_at, str(exc)) from None
    return Assume(pred) if val == "assume" else Assert(pred)


def parse_imp(text):
    """Read and typecheck a program. The `;;` header lines are read first,
    then blanked, so that an offset in the body is one in `text`: a syntax
    error, in a header or in the body, names the line of `text` it is on,
    worked out when it is raised."""
    p = ImpProgram()
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if (stripped := line.strip()).startswith(";;"):
            try:
                _parse_header(p, stripped[2:].strip())
            except (ParseError, sexpr.SexprError, LogicError) as exc:
                raise ParseError(f"line {i + 1}: {exc}") from None
            lines[i] = re.sub(r"\S", " ", line)
    body = "".join(lines)
    try:
        ts = iter(_tokens(body) + [("eof", None, len(body.rstrip()))])
        _expect(ts, "word", "loop")
        _expect(ts, "{")
        sep = next(ts)
        while sep[0] != "}":  # `loop { }` has no block
            # the first block's label is the token after `{`, a later one's
            # the token after `[]`
            k, label, at = next(ts) if p.blocks else sep
            if k != "label":
                raise _At(at, "expected /*label*/")
            instrs = [_parse_instr(ts)]
            while (sep := next(ts))[0] == ";":
                instrs.append(_parse_instr(ts))
            p.blocks.append((label, seq_of(instrs)))
            if sep[0] not in ("[]", "}"):
                raise _At(sep[2], "expected [] or }")
        k, _, at = next(ts)
        if k != "eof":
            raise _At(at, "trailing input after program")
    except _At as exc:
        at, msg = exc.args
        lineno = body.count("\n", 0, at) + 1
        raise ParseError(f"line {lineno}: {msg}") from None
    _check_program(p)
    return p


def _parse_header(p, line):
    """Read one header, `line` after its `;;`; a line that starts with no
    header word is a comment."""
    head, rest = (line.split(None, 1) + ["", ""])[:2]
    if head not in ("relvar", "basevar", "uninterp", "clone"):
        return
    match [head, *sexpr.parse_many(rest)]:
        case ["relvar", str(name), "arity", int(n), "types", *types] if n == len(types):
            p.relvar_sigs[name] = tuple(type_from_sexpr(t) for t in types)
        case ["basevar", str(name), t]:
            p.base_types[name] = type_from_sexpr(t)
        case ["uninterp", str(name), list(args), ret]:
            args = tuple(type_from_sexpr(t) for t in args)
            p.func_sigs[name] = FuncSig(name, args, type_from_sexpr(ret))
        case ["clone", str(clone), "of", str(orig)]:
            p.clones[clone] = orig
        case _:
            raise ParseError(f"bad {head} header {line!r}")


def _check_program(p):
    """Every block passes `type_instr`, and no block reads a value of
    another type than its variable's declared one.

    Types flow through a block: a variable starts at its declared type,
    `havoc` gives it that type again, and `get` and `:=` the type of the
    value they write. So a translation temp, declared once for all blocks,
    may hold a value of another type in one block. A variable that a block
    leaves at another type than its declared one must be written before it
    is read in every block, so that no such value reaches a block that
    reads it at its declared type."""
    retyped = {}  # variable -> (the first block that leaves it retyped, its type)
    read_first = {}  # variable -> the first block that reads it before writing it
    for label, block in p.blocks:
        types = dict(p.base_types)
        for i in block.instrs:
            type_instr(p, label, i, types)
        for x in reads_before_writing(block):
            read_first.setdefault(x, label)
        for x, t in types.items():
            if t != p.base_types[x]:
                retyped.setdefault(x, (label, t))
    for x, (label, t) in sorted(retyped.items()):
        if x in read_first:
            raise ParseError(
                f"{label}: variable {x} of type {p.base_types[x]} is left "
                f"holding a {t}, and {read_first[x]} reads it before writing it"
            )


def type_instr(p, label, i, types):
    """Check one instruction of block `label` against `types`, the types
    its block's variables hold before it, and update them to those after
    it; raise ParseError for an undeclared name, a relvar or function used at
    another arity, or an ill-typed instruction. `parse_imp` and the SSA form
    (`absint.run_blocks`) both follow this one rule for variable types."""
    try:
        if isinstance(i, (Get, Set)):
            sig = p.relvar_sigs.get(i.relvar)
            if sig is None:
                raise ParseError(f"{label}: undeclared relvar {i.relvar}")
            names = i.targets if isinstance(i, Get) else i.args
            if len(names) != len(sig):
                raise ParseError(f"{label}: {i.relvar} has arity {len(sig)}, got {len(names)}")
            for x, t in zip(names, sig):
                held = type_of(types, x)
                if isinstance(i, Set) and held != t:
                    raise TypeMismatch(f"{i.relvar} takes {t} where {x} holds {held}")
            if isinstance(i, Get):
                written = set(zip(names, sig))
                if len(written) != len(set(names)):
                    raise TypeMismatch(f"get {i.relvar} writes one variable at two types")
                types.update(written)
        elif isinstance(i, Havoc):
            types[i.var] = type_of(p.base_types, i.var)
        elif isinstance(i, Assign):
            type_of(types, i.var)  # declared
            types[i.var] = typecheck_expr(types, i.expr, p.func_sigs)
        else:
            typecheck_pred(types, i.pred, p.func_sigs)
    except UnboundVariable as exc:
        raise ParseError(f"{label}: undeclared variable {exc}") from exc
    except UnknownFunction as exc:
        raise ParseError(f"{label}: undeclared function {exc}") from exc
    except LogicError as exc:
        raise ParseError(f"{label}: {type(exc).__name__}: {exc}") from exc


def _print_pred_group(pred):
    """`pred`'s text in parentheses: an atom, a bool variable, `true` or
    `false`, is wrapped in a pair of its own."""
    text = to_text(pred)
    return text if text[0] == "(" else f"({text})"


def print_instr(i):
    if isinstance(i, Havoc):
        return f"havoc {i.var}"
    if isinstance(i, Assign):
        return f"{i.var} := {to_text(i.expr)}"
    if isinstance(i, Get):
        return f"get {i.relvar} ({', '.join(i.targets)})"
    if isinstance(i, Set):
        return f"set {i.relvar} ({', '.join(i.args)})"
    if isinstance(i, Assume):
        return f"assume {_print_pred_group(i.pred)}"
    if isinstance(i, Assert):
        return f"assert {_print_pred_group(i.pred)}"
    raise ImpError(f"bad instruction {i!r}")


def print_imp(p):
    lines = []
    for sig in p.func_sigs.values():
        args = " ".join(map(str, sig.arg_types))
        lines.append(f";; uninterp {sig.name} ({args}) {sig.ret_type}")
    for name, types in p.relvar_sigs.items():
        ts = " ".join(map(str, types))
        lines.append(f";; relvar {name} arity {len(types)} types {ts}")
    for name, t in p.base_types.items():
        lines.append(f";; basevar {name} {t}")
    for clone, orig in p.clones.items():
        lines.append(f";; clone {clone} of {orig}")
    lines.append("loop {")
    for bi, (label, block) in enumerate(p.blocks):
        if bi:
            lines.append("[]")
        lines.append(f"  /*{label}*/")
        for ii, instr in enumerate(block.instrs):
            sep = ";" if ii + 1 < len(block.instrs) else ""
            lines.append(f"    {print_instr(instr)}{sep}")
    lines.append("}")
    return "\n".join(lines) + "\n"
