import random
from pathlib import Path

import pytest

from hmc.imp import (
    ERROR,
    Assert,
    Assume,
    ExecContext,
    Get,
    Havoc,
    ParseError,
    SAFE,
    Set,
    State,
    UNSAFE,
    alpha,
    exec_program,
    expand,
    expand_all,
    initial_state,
    is_rwo,
    parse_imp,
    post,
    print_imp,
    reach,
    seq_of,
)
from hmc.logic import Cmp, IntLit, TRUE, ValueDomain, Var

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


def test_initial_states():
    p = parse_imp(SMALL)
    s = initial_state(p, D11)
    assert s.base_map()["x"] == -1 and s.rel_map()["k"] == frozenset()


def test_post_rel_grow_and_pick():
    p = parse_imp(SMALL)
    c = ctx(p)
    s = initial_state(p, D11)
    # set inserts without erasing
    s1 = post(s, Set("k", ("x",)), c, "relational")
    assert list(s1)[0].rel_map()["k"] == frozenset({(-1,)})
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
    assert t1.rel_map()["k"] == frozenset({(-1,)})
    t2s = post(t1, seq_of([Havoc("x")]), c, "imperative")
    assert len(t2s) == 3
    for t2 in t2s:
        # set overwrites: only the tuple of this successor's x is left
        (t3,) = post(t2, Set("k", ("x",)), c, "imperative")
        assert t3.rel_map()["k"] == frozenset({(t2.base_map()["x"],)})


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


def test_is_rwo():
    assert is_rwo(parse_imp(SMALL)) is None
    p = parse_imp((EXAMPLES / "tworead.imp").read_text())
    v = is_rwo(p)
    assert v is not None and v.relvar == "k" and v.kind == "READS" and v.count == 2


def test_alpha_and_expand():
    p = parse_imp(SMALL)
    c = ctx(p)
    r = reach(p, c, "relational")
    a = alpha(r.states)
    assert a["k"] == frozenset({(-1,), (0,), (1,)})
    # expand of an empty-relation state is the single bottom state
    s0 = initial_state(p, D11)
    exp = expand(s0)
    assert len(exp) == 1 and next(iter(exp)).rel_map()["k"] == frozenset()
    # expand of a two-tuple relation yields two imperative states
    s2 = State.make(s0.base_map(), {"k": {(0,), (1,)}})
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
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from gen import DOMAIN01, gen_rwo_program

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
