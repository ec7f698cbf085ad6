import random
from pathlib import Path

import pytest

from gen import (
    DOMAIN01,
    Violation,
    alpha,
    expand,
    expand_all,
    gen_constraint_set,
    gen_rwo_program,
    is_rwo,
    replays_to_error,
    stepwise_post,
)
from hmc import imp
from hmc.imp import (
    ERROR,
    Assert,
    Assume,
    ExecContext,
    FUEL_OUT,
    Get,
    Havoc,
    ImpProgram,
    ParseError,
    SAFE,
    SAMPLED,
    Set,
    State,
    UNSAFE,
    exec_program,
    initial_state,
    least_model,
    parse_imp,
    post,
    print_imp,
    reach,
    reads_before_writing,
    seq_of,
)
from hmc.constraints import parse_constraints
from hmc.logic import Cmp, IntLit, TRUE, ValueDomain, Var, enumerate_func_tables
from hmc.clone import clone
from hmc.translate import translate_set_of_constraints

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
D11 = ValueDomain((-1, 1))

SMALL = """\
;; relvar k arity 1 types int
;; basevar x int
loop {
  /*b1*/
    havoc x;
    set k (x)
[]
  /*b2*/
    get k (x);
    assert (<= 0 x)
}
"""


def ctx(p, domain=D11):
    return ExecContext(p, domain, {})


def test_parse_print_roundtrip():
    p = parse_imp(SMALL)
    assert print_imp(p) == SMALL
    text = (EXAMPLES / "tworead.imp").read_text()
    assert print_imp(parse_imp(text)) == text
    golden = (EXAMPLES / "iteri_mask.golden.imp").read_text()
    assert print_imp(parse_imp(golden)) == golden


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("assert (<= 0 x)", "assert (<= 0 x) @", "line 10: stray character '@'"),
        ("/*b2*/", "/*b2", "line 8: unterminated label"),
        # the line of the `(` that nothing closes
        ("set k (x)", "set k (x", "line 6: unbalanced parentheses"),
        # the line where the input ends
        ("\n}\n", "\n", "line 10: expected [] or }"),
        ("  /*b2*/\n", "", "line 8: expected /*label*/"),
        ("set k (x)", "7 k (x)", "line 6: bad instruction start 7"),
        ("get k (x)", "get k x", "line 9: get needs a tuple"),
        ("set k (x)", "set k ( )", "line 6: set tuple must be non-empty"),
        ("havoc x", "havoc (x)", "line 5: expected word, got '(x)'"),
        ("get k (x)", "get k (x y)", "line 9: bad tuple component 'x y'"),
        ("\n}\n", "\n}\n\nloop\n", "line 13: trailing input after program"),
        # a header, or a parenthesized group, that does not read
        (";; basevar x int", ";; basevar x", "line 2: bad basevar header 'basevar x'"),
        (";; relvar k arity 1 types int", ";; relvar k arity 2 types int",
         "line 1: bad relvar header 'relvar k arity 2 types int'"),
        (";; relvar k arity 1 types int", ";; relvar k arity 1 types (ui",
         "line 1: unclosed '('"),
        (";; basevar x int", ";; basevar x float", "line 2: bad type syntax float"),
        ("assert (<= 0 x)", "assert (<= x (+ 1 2 3) 4)", "line 10: <= takes two arguments"),
        # the line of the group, not of its instruction
        ("assert (<= 0 x)", "assert\n    (<= x 1 2)", "line 11: <= takes two arguments"),
        ("havoc x", "x := (- x 1 2)", "line 5: - takes one or two arguments"),
    ],
)
def test_syntax_error_names_its_file_line(old, new, error):
    # SMALL has two header lines before `loop {`: a line counts from the top
    # of the file, headers included
    assert old in SMALL
    with pytest.raises(ParseError) as exc:
        parse_imp(SMALL.replace(old, new))
    assert str(exc.value) == error


def test_initial_states():
    p = parse_imp(SMALL)
    s = initial_state(p, D11)
    assert dict(s.base)["x"] == -1 and dict(s.rels)["k"] == frozenset()


def test_post_rel_grow_and_pick():
    p = parse_imp(SMALL)
    c = ctx(p)
    s = initial_state(p, D11)
    # set inserts without erasing
    s1 = post(s, Set("k", ("x",)), c, "relational")
    assert dict(list(s1)[0].rels)["k"] == frozenset({(-1,)})
    # havoc yields one successor per domain value
    assert len(post(s, Havoc("x"), c, "relational")) == 3
    # get on an empty relation halts (no successors)
    assert post(s, Get("k", ("x",)), c, "relational") == frozenset()


def test_post_imp_overwrite_and_bottom():
    p = parse_imp(SMALL)
    c = ctx(p)
    t = initial_state(p, D11)
    # get on bottom (the empty relation) halts
    assert post(t, Get("k", ("x",)), c, "imperative") == frozenset()
    (t1,) = post(t, Set("k", ("x",)), c, "imperative")
    assert dict(t1.rels)["k"] == frozenset({(-1,)})
    t2s = post(t1, seq_of([Havoc("x")]), c, "imperative")
    assert len(t2s) == 3
    for t2 in t2s:
        # set overwrites: only the tuple of this successor's x is left
        (t3,) = post(t2, Set("k", ("x",)), c, "imperative")
        assert dict(t3.rels)["k"] == frozenset({(dict(t2.base)["x"],)})


def test_assume_assert_error():
    p = parse_imp(SMALL)
    c = ctx(p)
    s = initial_state(p, D11)
    bad = Assert(Cmp("=", Var("x"), IntLit(0)))
    assert post(s, bad, c, "relational") == frozenset({ERROR})
    assert post(ERROR, Assume(TRUE), c, "relational") == frozenset({ERROR})
    assert post(s, Assume(Cmp("=", Var("x"), IntLit(0))), c, "relational") == frozenset()


def test_reach_dichotomy_on_tworead():
    text = (EXAMPLES / "tworead.imp").read_text()
    p = parse_imp(text)
    rel = exec_program(p, D11, "relational")
    imp = exec_program(p, D11, "imperative")
    assert rel.status == UNSAFE and imp.status == SAFE
    # shortest error trace: write once, then read twice in one block
    assert rel.trace is not None and rel.trace[-1] == "b2"


def test_reach_traces_shortest():
    p = parse_imp(SMALL)
    r = reach(p, ctx(p), "relational", stop_on_error=True)
    # b2's get halts at depth 0 (empty k), so the error needs b1 first
    assert list(r.error_trace) == ["b1", "b2"]


def test_block_post_matches_stepwise_reference():
    # `post` of a whole block follows its runs; folding `post` over the
    # block's instructions one at a time must give the same states, under
    # both semantics, from every state a fuel-bounded search finds: on
    # random programs, translated random sets (cloned and not) and the
    # examples, under the first choice of function tables
    rng = random.Random(25)
    programs = []
    for _ in range(40):
        p = gen_rwo_program(rng)
        # and with blocks that each run three of its blocks, where a get
        # may follow two sets of its relvar
        joined = []
        for _ in range(4):
            labels, blocks = zip(*rng.choices(p.blocks, k=3))
            joined.append(("".join(labels), seq_of(blocks)))
        joined = ImpProgram(p.relvar_sigs, p.base_types, p.func_sigs, joined, p.clones)
        programs += [(p, DOMAIN01), (joined, DOMAIN01)]
    for _ in range(40):
        cs = gen_constraint_set(rng)
        programs.append((translate_set_of_constraints(cs), DOMAIN01))
        programs.append((translate_set_of_constraints(*clone(cs)), DOMAIN01))
    for path in sorted(EXAMPLES.glob("*.hmc")):
        cs = parse_constraints(path.read_text())
        programs.append((translate_set_of_constraints(cs), D11))
        programs.append((translate_set_of_constraints(*clone(cs)), D11))
    programs += [(parse_imp(path.read_text()), D11) for path in sorted(EXAMPLES.glob("*.imp"))]
    compared = 0
    for p, domain in programs:
        tables, _ = enumerate_func_tables(p.func_sigs.values(), domain, 1)
        c = ExecContext(p, domain, tables[0])
        for semantics in ("relational", "imperative"):
            for s in reach(p, c, semantics, fuel=30).states:
                for _, block in p.blocks:
                    assert post(s, block, c, semantics) == stepwise_post(s, block, c, semantics)
                    compared += 1
    assert compared >= 8_000, compared


def test_is_rwo():
    assert is_rwo(parse_imp(SMALL)) is None
    p = parse_imp((EXAMPLES / "tworead.imp").read_text())
    v = is_rwo(p)
    assert v is not None and v.relvar == "k" and v.kind == "READS" and v.count == 2


SET_THEN_GET = """\
;; relvar k arity 1 types int
;; basevar x int
;; basevar y int
loop {
  /*w*/
    havoc x;
    set k (x)
[]
  /*r*/
    havoc x;
    set k (x);
    get k (y);
    assert (= x y)
}
"""


def test_is_rwo_rejects_a_get_after_the_blocks_own_set():
    # block r reads k once and writes it once, but after its own write: the
    # relational get may pick w's tuple, the imperative one only r's own
    p = parse_imp(SET_THEN_GET)
    assert is_rwo(p) == Violation("r", "k", "READ_AFTER_WRITE", 1)
    c = ExecContext(p, DOMAIN01, {})
    assert reach(p, c, "relational").error_trace == ["w", "r"]
    assert reach(p, c, "imperative").error_trace is None


def test_alpha_and_expand():
    p = parse_imp(SMALL)
    c = ctx(p)
    r = reach(p, c, "relational")
    a = alpha(r.states)
    assert a["k"] == frozenset({(-1,), (0,), (1,)})
    # expand of an empty-relation state is the single bottom state
    s0 = initial_state(p, D11)
    exp = expand(s0)
    assert len(exp) == 1 and dict(next(iter(exp)).rels)["k"] == frozenset()
    # expand of a two-tuple relation yields two imperative states
    s2 = State.make(dict(s0.base), {"k": {(0,), (1,)}})
    assert len(expand(s2)) == 2
    assert expand_all({s0, s2, ERROR}) >= {ERROR}


def test_exec_inconclusive_when_sampled():
    # a program whose safety depends on an uninterpreted function over a big
    # table space: sampling cannot certify it
    text = (
        ";; uninterp f (int int) int\n"
        ";; relvar k arity 1 types int\n"
        ";; basevar x int\n"
        "loop {\n"
        "  /*b*/\n"
        "    havoc x;\n"
        "    assert (= (f x x) (f x x))\n"
        "}\n"
    )
    p = parse_imp(text)
    v = exec_program(p, ValueDomain((-2, 2)), "relational", table_budget=4)
    assert v.status == "inconclusive"


def test_random_programs_run(capsys):
    rng = random.Random(1)
    for _ in range(20):
        p = gen_rwo_program(rng)
        assert is_rwo(p) is None
        assert print_imp(parse_imp(print_imp(p))) == print_imp(p)
        exec_program(p, DOMAIN01, "relational", fuel=2000)


RETYPED = """\
;; relvar k arity 1 types bool
;; basevar t int
;; basevar b bool
loop {
  /*b1*/
    get k (t);
    assert (t)
[]
  /*b2*/
    havoc b;
    set k (b)
}
"""


def test_typecheck_follows_values_through_a_block():
    # `t` is declared int and holds a bool in b1, which writes it first
    assert print_imp(parse_imp(RETYPED)) == RETYPED
    bad = [
        (RETYPED.replace("assert (t)", "assert (<= t 1)"),
         "b1: TypeMismatch: ordered comparison over non-int operands"),
        (RETYPED.replace("havoc b;", "b := 1;"), "b2: TypeMismatch: k takes bool where b holds int"),
        # a block that reads `t` before it writes it would read b1's bool
        (RETYPED.replace("    havoc b;", "    assume (<= 0 t);\n    havoc b;"),
         "b1: variable t of type int is left holding a bool, and b2 reads it before writing it"),
    ]
    for text, error in bad:
        with pytest.raises(ParseError) as exc:
            parse_imp(text)
        assert str(exc.value) == error


COUNTER = """\
;; relvar k arity 1 types int
;; basevar x int
;; basevar y int
loop {
  /*b1*/
    x := 0;
    set k (x)
[]
  /*b2*/
    get k (x);
    y := (+ x 1);
    set k (y)
}
"""


def test_reads_before_writing():
    p = parse_imp(SMALL)
    assert [reads_before_writing(b) for _, b in p.blocks] == [set(), set()]
    x_le_y = Cmp("<=", Var("x"), Var("y"))
    block = seq_of([Havoc("y"), Assume(x_le_y), Havoc("x"), Set("k", ("x",)), Set("k", ("z",))])
    assert reads_before_writing(block) == {"x", "z"}


def _closed(p):
    """`p` with each block first havocking the variables it reads before it
    writes them, so that its least model is defined."""
    for n, (label, block) in enumerate(p.blocks):
        p.blocks[n] = (label, seq_of([*map(Havoc, sorted(reads_before_writing(block))), block]))
    return p


def test_least_model_matches_state_search():
    # closed random programs and translated random constraint sets over
    # {0, 1}: wherever the state search is exhaustive, the same verdict, a
    # least model equal to the union of the relations of the reachable
    # states, and error traces that replay
    rng = random.Random(21)
    programs = [_closed(gen_rwo_program(rng)) for _ in range(120)]
    programs += [translate_set_of_constraints(gen_constraint_set(rng)) for _ in range(120)]
    compared = unsafe = 0
    for p in programs:
        assert not any(reads_before_writing(b) for _, b in p.blocks)
        c = ctx(p, DOMAIN01)
        r = reach(p, c, "relational", fuel=3000)
        if not r.exhausted:
            continue
        m = least_model(p, c, stop_on_error=False)
        assert m.exhausted
        assert (m.error_trace is None) == (r.error_trace is None)
        assert m.model == alpha(r.states)
        assert exec_program(p, DOMAIN01).status == (SAFE if r.error_trace is None else UNSAFE)
        if m.error_trace is not None:
            assert replays_to_error(p, c, m.error_trace)
            assert least_model(p, c).error_trace == m.error_trace
            unsafe += 1
        compared += 1
    assert compared >= 200 and unsafe >= 40, (compared, unsafe)


def test_exec_traces_replay():
    # every UNSAFE trace of the oracle on cloned translations of random
    # constraint sets replays to ERROR, under the tables it was found with
    rng = random.Random(5)
    unsafe = 0
    for _ in range(300):
        p = translate_set_of_constraints(*clone(gen_constraint_set(rng)))
        v = exec_program(p, D11)
        if v.status == UNSAFE:
            assert replays_to_error(p, ExecContext(p, D11, v.tables), v.trace)
            unsafe += 1
    assert unsafe >= 15, unsafe


CHAIN = """\
;; relvar k1 arity 1 types int
;; relvar k2 arity 1 types int
;; basevar x int
loop {
  /*b3*/
    get k2 (x);
    assert (<= x 0)
[]
  /*b2*/
    get k1 (x);
    x := (+ x 1);
    set k2 (x)
[]
  /*b1*/
    x := 0;
    set k1 (x)
}
"""


def test_least_model_trace_lists_dependencies_first():
    # b3 fails on the tuple b2 derives from b1's: the trace lists each
    # derivation after those of the tuples its run read
    p = parse_imp(CHAIN)
    m = least_model(p, ctx(p))
    assert m.error_trace == ["b1", "b2", "b3"]
    assert replays_to_error(p, ctx(p), m.error_trace)
    assert reach(p, ctx(p), stop_on_error=True).error_trace == ["b1", "b2", "b3"]


def test_least_model_get_sees_its_own_run_sets():
    # the run sets k(0), then its get picks that tuple: the error needs no
    # earlier block, and the trace is the block alone
    p = parse_imp(CHAIN.replace(
        "    set k1 (x)\n", "    set k1 (x);\n    get k1 (x);\n    assert (<= 1 x)\n"
    ))
    assert least_model(p, ctx(p)).error_trace == ["b1"]
    assert exec_program(p, D11).trace == ["b1"]


def test_least_model_runs_get_free_blocks_once(monkeypatch):
    # a run that gets nothing cannot read a tuple new in a later round, so
    # b1 runs in the first round only, while b2 and b3 run again each round
    p = parse_imp(CHAIN)
    ran, real = [], imp.runs

    def runs(instrs, *args):
        ran.append(instrs)
        return real(instrs, *args)

    monkeypatch.setattr(imp, "runs", runs)
    m = least_model(p, ctx(p), stop_on_error=False)
    blocks = dict(p.blocks)
    assert m.exhausted and m.error_trace == ["b1", "b2", "b3"]
    assert [ran.count(blocks[b].instrs) for b in ("b1", "b2", "b3")] == [1, 3, 3]


def test_least_model_runs_out_of_fuel():
    # k holds 0, 1, 2, ...: the least model is infinite
    p = parse_imp(COUNTER)
    m = least_model(p, ctx(p), fuel=20)
    assert not m.exhausted and m.error_trace is None
    assert m.model["k"] >= {(n,) for n in range(20)}
    v = exec_program(p, D11, fuel=20)
    assert (v.status, v.reasons) == ("inconclusive", (FUEL_OUT,))


def test_exec_reasons():
    # sampled tables and a fuel-out are named apart, and both can hold
    text = ";; uninterp f (int int) int\n" + COUNTER.replace(
        "    set k (y)\n}",
        "    set k (y)\n[]\n  /*b3*/\n    havoc x;\n    assert (= (f x x) (f x x))\n}",
    )
    v = exec_program(parse_imp(text), ValueDomain((-2, 2)), table_budget=4, fuel=20)
    assert (v.status, v.reasons) == ("inconclusive", (SAMPLED, FUEL_OUT))
