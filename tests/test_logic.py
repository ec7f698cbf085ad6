import copy
import io
import pickle
import random
from pathlib import Path

import pytest

from gen import gen_constraint_set, gen_expr, gen_pred, points_pred
from hmc import cli, constraints, imp, logic, sexpr, smt
from hmc.constraints import Concrete, KApp, KVarSig, RefType, SubConstraint
from hmc.imp import Assert, Assign, Assume, Get, Havoc, Seq, Set, State
from hmc.logic import (
    Add,
    And,
    App,
    BOOL,
    BaseType,
    BoolVar,
    Cmp,
    FALSE,
    FalseLit,
    FuncSig,
    INT,
    Implies,
    IntLit,
    Interpretation,
    Not,
    OracleMode,
    ScalarMul,
    SolverMode,
    TRUE,
    TrueLit,
    TypeEnv,
    TypeMismatch,
    UnboundVariable,
    VALID,
    INVALID,
    UNKNOWN,
    ValueDomain,
    Var,
    check_valid,
    enumerate_func_tables,
    eval_expr,
    eval_pred,
    expr_from_sexpr,
    free_vars,
    mk_and,
    mk_or,
    pred_from_sexpr,
    subst,
    to_text,
    typecheck_expr,
    typecheck_pred,
    ui,
)

LEN = FuncSig("len", (ui("obj"),), INT)
SIGS = {"len": LEN}


def P(text):
    return pred_from_sexpr(__import__("hmc.sexpr", fromlist=["parse_one"]).parse_one(text))


def test_pred_roundtrip():
    for text in [
        "(and (<= 0 v) (< v (len a)))",
        "(=> (not (= x 1)) (/= x y))",
        "true",
        "(>= (+ x (* 2 y)) -3)",
    ]:
        assert to_text(P(text)) == text


def test_and_prints_as_written():
    # `(and ...)` is one node of all its arguments, nested or not, and it
    # prints back in the shape it was read
    rng = random.Random(0)
    atoms = ["(<= 0 x)", "(< x (len a))", "b", "(not (= x y))", "true", "(=> (= x 1) b)"]

    def form(depth):
        args = [
            form(depth - 1) if depth and rng.random() < 0.4 else rng.choice(atoms)
            for _ in range(rng.randint(2, 6))
        ]
        return f"(and {' '.join(args)})"

    for _ in range(200):
        text = form(2)
        p = P(text)
        assert isinstance(p, And) and to_text(p) == text
    assert len(P("(and b b (and b b) b)").args) == 4


def _list_form(x):
    """The list form of the predicate or expression `x` that the printer
    built before `to_text`, which `sexpr.to_str` then joined: the reference
    that `to_text`'s text must match byte for byte."""
    if isinstance(x, (Var, BoolVar)):
        return x.name
    if isinstance(x, IntLit):
        return x.value
    if isinstance(x, Cmp):
        return [x.op, _list_form(x.left), _list_form(x.right)]
    if isinstance(x, Add):
        return ["+", *map(_list_form, x.args)]
    if isinstance(x, ScalarMul):
        return ["*", x.coeff, _list_form(x.arg)]
    if isinstance(x, App):
        return [x.func, *map(_list_form, x.args)]
    if isinstance(x, TrueLit):
        return "true"
    if isinstance(x, FalseLit):
        return "false"
    if isinstance(x, Not):
        return ["not", _list_form(x.arg)]
    if isinstance(x, And):
        return ["and", *map(_list_form, x.args)]
    if isinstance(x, Implies):
        return ["=>", _list_form(x.left), _list_form(x.right)]
    raise TypeMismatch(f"not a predicate or expression: {x!r}")


def test_to_text_matches_the_list_form_printer():
    # formulas of `gen.py`: atoms, their conjunctions and disjunctions, point
    # predicates, and the embeddings of random constraint sets; then the
    # edge cases that `gen.py` does not draw
    rng = random.Random(0)
    names = ["x", "y", "v"]
    formulas = []
    for _ in range(200):
        formulas += [gen_expr(rng, names), gen_pred(rng, names)]
        formulas.append(mk_and(*(gen_pred(rng, names) for _ in range(rng.randint(0, 4)))))
        formulas.append(mk_or(*(gen_pred(rng, names) for _ in range(rng.randint(0, 4)))))
    for seed in range(100):
        rng = random.Random(seed)
        cs = gen_constraint_set(rng, max_params=2, v_args=True)
        sol = {}
        for k, sig in cs.kvars.items():
            width = len(sig.field_names)
            points = {tuple(rng.choice((0, 1)) for _ in range(width)) for _ in range(3)}
            sol[k] = points_pred(sig, points)
        formulas += sol.values()
        formulas += [constraints.embed_sub(cs, c, sol)[1] for c in cs.constraints]
    formulas += [
        App("f", ()),
        Cmp("=", App("f", ()), IntLit(-3)),
        Add((ScalarMul(-2, Var("x")), IntLit(-1), App("g", (App("h", ()), Var("y"))))),
        BoolVar("b"),
        Not(BoolVar("b")),
        TRUE,
        FALSE,
        And((And((BoolVar("b"), TRUE)), And((FALSE, Cmp("<", IntLit(-1), Var("x")))))),
        Add((Add((Var("x"), IntLit(1))), ScalarMul(-3, Add((Var("y"), IntLit(-7)))))),
        Implies(Implies(BoolVar("p"), BoolVar("q")), Implies(TRUE, Implies(FALSE, BoolVar("r")))),
        P("(and (=> (not b) (and p (<= (+ x (- y)) (* -1 (f))))) (= (g x (f)) -12) false)"),
    ]
    for x in formulas:
        assert to_text(x) == sexpr.to_str(_list_form(x)), repr(x)


# a sum of three terms, as written, and what each job over terms makes of it
# under x = 1, y = 2 and (len a) = 4
SUM_INTERP = Interpretation({"x": 1, "y": 2, "a": 0}, {"len": {(0,): 4}})
SUM_ENV = TypeEnv.of(("x", INT), ("y", INT), ("a", ui("obj")))
SUM_JOBS = [
    ("round trip", lambda e: to_text(e), "(+ x (len a) y)"),
    ("subst", lambda e: to_text(subst(e, {"y": Var("z"), "x": IntLit(3)})), "(+ 3 (len a) z)"),
    ("free_vars", lambda e: free_vars(e), {"x", "y", "a"}),
    ("eval_expr", lambda e: eval_expr(SUM_INTERP, e), 7),
    ("typecheck_expr", lambda e: typecheck_expr(SUM_ENV, e, SIGS), INT),
    ("lin_of", lambda e: smt.lin_of(e, smt.Apps()), {"x": 1, ".ack0": 1, "y": 1}),
]


@pytest.mark.parametrize("job, run, want", SUM_JOBS, ids=[j for j, _, _ in SUM_JOBS])
def test_three_term_sum(job, run, want):
    e = expr_from_sexpr(sexpr.parse_one("(+ x (len a) y)"))
    assert isinstance(e, Add) and len(e.args) == 3
    assert run(e) == want


def test_long_conjunction_is_shallow():
    # 5,000 conjuncts are one node: hashing, equality and every walk over
    # it stay within the recursion limit
    env = TypeEnv.of(("x", INT), ("y", INT))
    p, q = (mk_and(*(Cmp("<=", IntLit(-i), Var("x")) for i in range(5000))) for _ in "pq")
    assert len(p.args) == 5000 and hash(p) == hash(q) and p == q
    assert p != mk_and(*p.args[:-1])
    r = subst(p, {"x": Var("y")})
    assert free_vars(p) == {"x"} and free_vars(r) == {"y"}
    typecheck_pred(env, r)
    assert to_text(r).startswith("(and (<= 0 y) (<= -1 y) (<= -2 y) ")
    assert eval_pred(Interpretation({"y": 0}, {}), r)


def test_true_false_are_abbreviations():
    interp = Interpretation({}, {})
    assert eval_pred(interp, TRUE) and not eval_pred(interp, FALSE)


def test_mk_and_or():
    a = Cmp("=", Var("x"), IntLit(0))
    assert mk_and() == TRUE
    assert mk_or() == FALSE
    assert mk_and(a, TRUE) == a
    assert mk_or(a, FALSE) == a
    # one node, in argument order; a nested conjunction stays one argument
    b, c = Cmp("=", Var("y"), IntLit(0)), Cmp("=", Var("z"), IntLit(0))
    assert mk_and(a, TRUE, b, c) == And((a, b, c))
    assert mk_and(a, mk_and(b, c)) == And((a, And((b, c))))
    assert mk_and(a, FALSE, b) == FALSE
    # disjunction is the implication encoding
    b = Cmp("=", Var("x"), IntLit(1))
    assert mk_or(a, b) == Implies(Not(a), b)


def test_typecheck():
    env = TypeEnv.of(("x", INT), ("b", BOOL), ("a", ui("obj")))
    typecheck_pred(env, P("(and (<= 0 x) b)"), SIGS)
    typecheck_pred(env, P("(< x (len a))"), SIGS)
    with pytest.raises(UnboundVariable):
        typecheck_pred(env, P("(= y 0)"), SIGS)
    with pytest.raises(TypeMismatch):
        typecheck_pred(env, P("(<= a 3)"), SIGS)  # ordered cmp on ui sort
    with pytest.raises(TypeMismatch):
        typecheck_pred(env, P("(= x b)"), SIGS)  # bool vs int


def test_eval_with_functions():
    interp = Interpretation({"a": 0, "x": 1}, {"len": {(0,): 2}})
    assert eval_pred(interp, P("(< x (len a))"))
    assert not eval_pred(interp, P("(= x (len a))"))


def test_subst():
    p = P("(= v i)")
    q = subst(p, {"v": Var("x"), "i": Add((Var("i"), IntLit(1)))})
    assert to_text(q) == "(= x (+ i 1))"


def test_oracle_valid_invalid():
    env = TypeEnv.of(("x", INT), ("y", INT))
    mode = OracleMode(ValueDomain((-2, 2)))
    assert check_valid(env, P("(=> (<= x y) (<= x (+ y 1)))"), mode).status == VALID
    r = check_valid(env, P("(<= x y)"), mode)
    assert r.status == INVALID
    assert not eval_pred(r.witness, P("(<= x y)"))


def test_oracle_function_enumeration():
    # over int range [-1..1] and a unary function on bools: small enough to
    # enumerate exhaustively
    env = TypeEnv.of(("b", BOOL))
    f = FuncSig("f", (BOOL,), INT)
    mode = OracleMode(ValueDomain((-1, 1)))
    p = pred_from_sexpr(["=", ["f", "b"], ["f", "b"]])
    assert check_valid(env, p, mode, {"f": f}).status == VALID
    q = pred_from_sexpr(["=", ["f", "b"], 1])
    assert check_valid(env, q, mode, {"f": f}).status == INVALID


def test_oracle_sampling_degrades_to_unknown():
    env = TypeEnv.of(("x", INT))
    f = FuncSig("f", (INT, INT), INT)
    mode = OracleMode(ValueDomain((-2, 2)), table_budget=4, seed=0)
    p = pred_from_sexpr(["=", ["f", "x", "x"], ["f", "x", "x"]])
    assert check_valid(env, p, mode, {"f": f}).status == UNKNOWN


def test_oracle_tables_over_applied_arguments():
    # f applied at 0 alone gets tables over (0,) only: 2 over 0..1; at
    # (f 0) as well, its tables span the domain: 4
    sigs = {"f": FuncSig("f", (INT,), INT)}
    at_0, nested = P("(= (f 0) (f 0))"), P("(= (f (f 0)) (f (f 0)))")
    for p, tables in ((at_0, 2), (nested, 4)):
        check = lambda budget: check_valid(TypeEnv.of(), p, OracleMode(ValueDomain((0, 1)), budget), sigs)
        assert check(tables - 1).status == UNKNOWN and check(tables).status == VALID, to_text(p)
    # an argument outside the domain gets its own entry
    assert check_valid(TypeEnv.of(), P("(<= (f 5) 1)"), OracleMode(ValueDomain((0, 1)), 2), sigs)


def test_table_sampling_deterministic():
    f = FuncSig("f", (BOOL,), INT)
    d = ValueDomain((-2, 2))
    a = enumerate_func_tables([f], d, table_budget=3, seed=7)
    b = enumerate_func_tables([f], d, table_budget=3, seed=7)
    assert a == b and not a[1]


def test_solver_mode_builtin():
    env = TypeEnv.of(("x", INT), ("y", INT))
    mode = SolverMode()
    assert check_valid(env, P("(=> (< x y) (<= x y))"), mode).status == VALID
    r = check_valid(env, P("(= x y)"), mode)
    assert r.status == INVALID
    assert r.witness.var_values["x"] != r.witness.var_values["y"] or True
    assert not eval_pred(r.witness, P("(= x y)"))


def test_solver_keeps_a_variable_apart_from_a_nullary_function():
    # the `.hmc` reader rejects a variable named as a function, so the
    # solver is asked directly: `(c)` is its own Ackermann constant, not
    # the variable `c`
    env = TypeEnv.of(("c", INT))
    p = P("(=> (= c 0) (= (c) 0))")
    r = check_valid(env, p, SolverMode(), {"c": FuncSig("c", (), INT)})
    assert r.status == INVALID
    assert r.witness.func_tables["c"][()] != 0 and not eval_pred(r.witness, p)
    (const,) = smt.lin_of(App("c", ()), smt.Apps())
    assert const.startswith(".ack")


def test_oracle_solver_agreement():
    rng = random.Random(0)
    env = TypeEnv.of(("x", INT), ("y", INT), ("z", INT))
    oracle = OracleMode(ValueDomain((-2, 2)))
    solver = SolverMode()
    names = ["x", "y", "z"]
    from gen import gen_pred

    for _ in range(60):
        p = gen_pred(rng, names)
        a = check_valid(env, p, oracle)
        b = check_valid(env, p, solver)
        # oracle INVALID exhibits a concrete countermodel, so the solver must
        # agree; solver INVALID may lie outside the finite domain
        if a.status == INVALID:
            assert b.status == INVALID, to_text(p)
        if b.status == VALID:
            assert a.status == VALID, to_text(p)


def test_check_needs_no_smt_text(monkeypatch):
    def no_text(*args):
        raise AssertionError("SMT-LIB text on the in-process query path")

    monkeypatch.setattr(smt, "parse_script", no_text)
    monkeypatch.setattr(smt, "_parse_model", no_text)
    monkeypatch.setattr(smt, "_smt_form", no_text)
    out = io.StringIO()
    iteri = Path(__file__).resolve().parent.parent / "examples" / "iteri_mask.hmc"
    assert cli.main(["check", str(iteri)], out) == 0
    assert out.getvalue().startswith("SAFE")


# Random well-typed formulas over two ints, two bools and two objs, with
# `len : obj -> int` and the bool-valued `g : int -> bool` and `c : bool`,
# decided in process by a `Hypothesis` and as SMT-LIB text by the filter:
# both go through `smt.lower`, the filter after reading its asserts back
# into `logic`. Every bool, `g`'s and `c`'s values included, is 0 or 1.
DIFF_ENV = TypeEnv.of(
    ("x", INT), ("y", INT), ("p", BOOL), ("q", BOOL), ("a", ui("obj")), ("b", ui("obj"))
)
DIFF_SIGS = {"len": LEN, "g": FuncSig("g", (INT,), BOOL), "c": FuncSig("c", (), BOOL)}


def _rand_int(rng, depth=2):
    r = rng.random()
    if depth and r < 0.15:
        return Add((_rand_int(rng, depth - 1), _rand_int(rng, depth - 1)))
    if depth and r < 0.3:
        return logic.ScalarMul(rng.choice((-3, -2, -1, 2)), _rand_int(rng, depth - 1))
    if r < 0.5:
        return App("len", (Var(rng.choice("ab")),))
    if r < 0.65:
        return IntLit(rng.randint(-2, 2))
    return Var(rng.choice("xy"))


def _rand_bool_term(rng):
    r = rng.random()
    if r < 0.4:
        return App("g", (_rand_int(rng, 1),))
    if r < 0.6:
        return App("c", ())
    return Var(rng.choice("pq"))


def _rand_atom(rng):
    r = rng.random()
    if r < 0.5:
        return Cmp(rng.choice(logic.CMP_OPS), _rand_int(rng), _rand_int(rng))
    if r < 0.7:
        return Cmp(rng.choice(("=", "/=")), _rand_bool_term(rng), _rand_bool_term(rng))
    if r < 0.9:
        return BoolVar(rng.choice("pq"))
    return Cmp(rng.choice(("=", "/=")), Var("a"), Var("b"))


def _rand_pred(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return _rand_atom(rng)
    if r < 0.45:
        return Not(_rand_pred(rng, depth - 1))
    if r < 0.75:
        return And(tuple(_rand_pred(rng, depth - 1) for _ in range(rng.randint(2, 4))))
    return Implies(_rand_pred(rng, depth - 1), _rand_pred(rng, depth - 1))


def test_in_process_and_filter_share_one_lowering():
    rng = random.Random(16)
    statuses = {VALID: 0, INVALID: 0}
    for case in range(150):
        hyp = _rand_pred(rng, 2) if case % 3 else TRUE
        typecheck_pred(DIFF_ENV, hyp, DIFF_SIGS)
        hypothesis = logic.Hypothesis(DIFF_ENV, hyp, SolverMode(), DIFF_SIGS)
        for _ in range(3):
            goal = _rand_pred(rng, 2)
            typecheck_pred(DIFF_ENV, goal, DIFF_SIGS)
            p = logic.implies(hyp, goal)
            got = hypothesis.check(goal)
            text = smt.solve_script(smt.emit_solver_query(DIFF_ENV, p, DIFF_SIGS))
            assert text.split()[0] == ("unsat" if got.status == VALID else "sat"), to_text(p)
            statuses[got.status] += 1
            if got.status == INVALID:
                w = got.witness
                assert not eval_pred(w, p), to_text(p)
                assert w.var_values["p"] in (0, 1) and w.var_values["q"] in (0, 1), to_text(p)
                for f in ("g", "c"):
                    assert set(w.func_tables.get(f, {}).values()) <= {0, 1}, to_text(p)
    assert min(statuses.values()) >= 40, statuses


# The immutable value classes: each row is the class, its field names and
# the field values of a sample. The sample must hash as the tuple of its
# fields, as the dataclasses did; a `Seq` hashes as its instruction tuple.
_X, _ONE, _B = Var("x"), IntLit(1), BoolVar("b")
_LE = Cmp("<=", _X, _ONE)
_SOME = RefType(INT, KApp("k", (_X,)))
VALUE_CLASSES = [
    (BaseType, "kind ui_name", ("ui", "obj")),
    (FuncSig, "name arg_types ret_type", ("len", (ui("obj"),), INT)),
    (Var, "name", ("x",)),
    (IntLit, "value", (-3,)),
    (Add, "args", ((_X, _ONE),)),
    (ScalarMul, "coeff arg", (2, _X)),
    (App, "func args", ("len", (_X,))),
    (Cmp, "op left right", ("<=", _X, _ONE)),
    (Not, "arg", (_B,)),
    (And, "args", ((_LE, _B),)),
    (Implies, "left right", (_B, _LE)),
    (BoolVar, "name", ("x",)),
    (TrueLit, "", ()),
    (FalseLit, "", ()),
    (TypeEnv, "bindings", ((("x", INT), ("b", BOOL)),)),
    (Assign, "var expr", ("x", _ONE)),
    (Havoc, "var", ("x",)),
    (Get, "relvar targets", ("k", ("x", "y"))),
    (Set, "relvar args", ("k", ("x", "y"))),
    (Assume, "pred", (_LE,)),
    (Assert, "pred", (_LE,)),
    (Seq, "instrs", ((Havoc("x"), Assume(_LE)),)),
    (State, "base rels", ((("x", 0),), (("k", frozenset({(1,)})),))),
    (KVarSig, "name value_type params", ("k", INT, (("a", INT),))),
    (Concrete, "pred", (_LE,)),
    (KApp, "kvar args", ("k", (_X,))),
    (RefType, "base ref", (INT, Concrete(TRUE))),
    (SubConstraint, "label env lhs rhs", ("c", (("x", _SOME),), _SOME, _SOME)),
]
# classes whose instances, with the same fields, must still differ
TWINS = {
    Var: BoolVar, BoolVar: Var, TrueLit: FalseLit, FalseLit: TrueLit,
    Assume: Assert, Assert: Assume, Get: Set, Set: Get,
}


@pytest.mark.parametrize(
    "cls, names, values", VALUE_CLASSES, ids=[c.__name__ for c, _, _ in VALUE_CLASSES]
)
def test_value_class_semantics(cls, names, values):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(values[0] if cls is Seq else values)
    assert a != values and a != object()
    twin = TWINS.get(cls)
    if twin is not None:
        assert a != twin(*values) and twin(*values) != a
    names = names.split()
    assert [getattr(a, n) for n in names] == list(values)
    for n in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(a, n, None)
    for n in names:
        with pytest.raises(AttributeError):
            delattr(a, n)
    assert a == b and hash(a) == hash(b)
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    assert repr(a) == f"{cls.__name__}({body})"
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_value_classes_are_pinned_and_generated():
    # a value class added later must get a row of VALUE_CLASSES; `Frozen`
    # writes the standard methods of each, and a class writes its own only
    # to check its fields or cache a hash
    found = {
        c
        for module in (logic, imp, constraints)
        for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, logic.Frozen) and c is not logic.Frozen
    }
    assert found == {cls for cls, _, _ in VALUE_CLASSES}
    written = set()
    for cls, names, _ in VALUE_CLASSES:
        assert cls._fields == tuple(names.split())
        for name in ("__init__", "__eq__", "__hash__"):
            method = vars(cls)[name]
            assert method.__qualname__ == f"{cls.__name__}.{name}"
            if method.__code__.co_filename != "<string>":
                written.add(method.__qualname__)
    assert written == {
        "BaseType.__init__", "Cmp.__init__", "TypeEnv.__init__", "Seq.__init__", "Seq.__hash__"
    }


def test_value_classes_keep_their_checks():
    assert repr(_LE) == "Cmp(op='<=', left=Var(name='x'), right=IntLit(value=1))"
    for build in (
        lambda: Cmp("==", _X, _ONE),
        lambda: BaseType("ui"),
        lambda: BaseType("int", "obj"),
        lambda: BaseType("real"),
        lambda: TypeEnv((("x", INT), ("x", BOOL))),
    ):
        with pytest.raises(TypeMismatch):
            build()
