import io
import itertools
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hmc
from hmc import cli, logic, sexpr, smt
from hmc.logic import (
    BOOL,
    INT,
    INVALID,
    VALID,
    FuncSig,
    SolverMode,
    TypeEnv,
    Verdict,
    check_valid,
    eval_pred,
    pred_from_sexpr,
    to_text,
    ui,
)
from hmc.smt import (
    QueryLog,
    SmtError,
    emit_solver_query,
    eval_lin,
    omega,
    parse_script,
    solve_script,
    solver_query,
)

ITERI = str(Path(__file__).resolve().parent.parent / "examples" / "iteri_mask.hmc")


def solve(text):
    return solve_script(text).splitlines()[0]


def test_pure_lia_sat_unsat():
    assert solve("(declare-const x Int) (assert (= x 3)) (check-sat)") == "sat"
    assert (
        solve("(declare-const x Int) (assert (< x 0)) (assert (> x 0)) (check-sat)")
        == "unsat"
    )


def test_divisibility():
    assert solve("(declare-const x Int) (assert (= (* 2 x) 3)) (check-sat)") == "unsat"
    assert (
        solve(
            "(declare-const y Int) (assert (<= 3 (* 2 y))) (assert (<= (* 2 y) 4))"
            " (check-sat)"
        )
        == "sat"
    )


def test_gcd_unsat():
    assert (
        solve(
            "(declare-const y Int) (declare-const z Int)"
            " (assert (= (+ (* 6 y) (* 3 z)) 2)) (check-sat)"
        )
        == "unsat"
    )


def test_bezout_model():
    out = solve_script(
        "(declare-const a Int) (declare-const b Int)"
        " (assert (= (+ (* 7 a) (* 12 b)) 1)) (check-sat) (get-model)"
    )
    assert out.splitlines()[0] == "sat"
    model = _model(out)
    assert 7 * model["a"] + 12 * model["b"] == 1


def test_congruence():
    assert (
        solve(
            "(declare-fun f (Int) Int) (declare-const x Int) (declare-const y Int)"
            " (assert (= x y)) (assert (not (= (f x) (f y)))) (check-sat)"
        )
        == "unsat"
    )
    assert (
        solve(
            "(declare-fun f (Int) Int) (declare-const x Int) (declare-const y Int)"
            " (assert (not (= (f x) (f y)))) (check-sat)"
        )
        == "sat"
    )


def test_uninterpreted_sort():
    assert (
        solve(
            "(declare-sort obj 0) (declare-fun len (obj) Int) (declare-const a obj)"
            " (assert (< (len a) 0)) (check-sat)"
        )
        == "sat"
    )


def test_bool_and_ite_free_connectives():
    assert (
        solve(
            "(declare-const x Int)"
            " (assert (or (= x 1) (= x 2))) (assert (not (= x 1))) (check-sat)"
        )
        == "sat"
    )
    assert (
        solve(
            "(declare-const x Int)"
            " (assert (=> (<= 0 x) (< x 0))) (assert (= x 5)) (check-sat)"
        )
        == "unsat"
    )


def test_model_satisfies_all_asserts():
    text = (
        "(declare-const x Int) (declare-const y Int) (declare-const z Int)"
        " (assert (<= (+ x y) z)) (assert (< 2 x)) (assert (or (= y 4) (< z 10)))"
        " (check-sat) (get-model)"
    )
    out = solve_script(text)
    assert out.splitlines()[0] == "sat"
    m = _model(out)
    assert m["x"] + m["y"] <= m["z"] and m["x"] > 2
    assert m["y"] == 4 or m["z"] < 10


def test_model_prints_each_constant_at_its_sort():
    # a Bool prints as true or false, an Int as a number, a negative one
    # as a negation, and a constant of a declared sort as a number
    text = (
        "(declare-sort obj 0) (declare-const b Bool) (declare-const x Int)"
        " (declare-const o obj) (assert (not b)) (assert (< x (- 2)))"
        " (check-sat) (get-model)"
    )
    assert solve_script(text) == (
        "sat\n(model\n"
        "  (define-fun b () Bool false)\n"
        "  (define-fun x () Int (- 3))\n"
        "  (define-fun o () obj 0)\n"
        ")\n"
    )
    assert "(define-fun b () Bool true)" in solve_script(text.replace("(not b)", "b"))


def test_nonlinear_rejected():
    with pytest.raises(SmtError):
        solve_script(
            "(declare-const x Int) (declare-const y Int)"
            " (assert (= (* x y) 4)) (check-sat)"
        )


def test_cli_main():
    proc = subprocess.run(
        [sys.executable, "-m", "hmc.smt"],
        input="(declare-const x Int) (assert (= x x)) (check-sat)",
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "sat"


# The SMT-LIB syntax the filter accepts, each script with its answer; the
# filter reads every assert into `logic` before it lowers it.
X = "(declare-const x Int) "
ABC = "(declare-const a Int) (declare-const b Int) (declare-const c Int) "
FILTER_SYNTAX = [
    (X + "(assert (= (* x 3) 7))", "unsat"),
    (X + "(assert (= (* x 3) (- 6)))", "sat"),
    (X + "(assert (= (* 2 3 x) 12))", "sat"),
    (X + "(assert (= (* 2 3 x) 8))", "unsat"),
    (X + "(assert (= (* (- 2) x 0) 1))", "unsat"),
    (X + "(assert (= (- x) 4)) (assert (< 0 x))", "unsat"),
    (ABC + "(assert (= (- a b c) 1)) (assert (= a 3)) (assert (= b c))", "sat"),
    (ABC + "(assert (= (- a b c) 1)) (assert (= a 0)) (assert (= b 0)) (assert (= c 0))", "unsat"),
    (X + "(assert (= (+ x) 2)) (assert (distinct x 2))", "unsat"),
    (X + "(assert (or (< x 0) (> x 5) (= x 3))) (assert (<= 0 x)) (assert (<= x 5))", "sat"),
    (X + "(assert (or (< x 0) (> x 5) (= x 3))) (assert (<= 0 x)) (assert (distinct x 3))"
     " (assert (<= x 5))", "unsat"),
    (X + "(assert (=> (<= 0 x) (<= x 1) (= x 2))) (assert (= x 1))", "unsat"),
    (X + "(assert (=> (<= 0 x) (<= x 1) (= x 2))) (assert (= x 7))", "sat"),
    (X + "(assert (distinct x x))", "unsat"),
    ("(declare-const b Bool) (assert b) (assert (not b))", "unsat"),
    ("(declare-const b Bool) (assert (=> b (< 0 0)))", "sat"),
    ("(assert true)", "sat"),
    ("(assert false)", "unsat"),
    (X + "(declare-const y Int) (assert (= (* x y) 4))", "error"),
    (X + "(assert (<= (foo x) 1))", "error"),
    (X + "(assert (foo x))", "error"),
    ("(declare-fun f (Int) Int) (assert (= (f 1 2) 0))", "error"),
    # malformed commands: each is an error, not a traceback or an answer
    ("(declare-fun x)", "error"),
    ("(assert)", "error"),
    ("(declare-const y)", "error"),
    ("(declare-fun f Int Int) (assert (= (f 1 2 3) 0))", "error"),
    ("(declare-fun 3 () Int)", "error"),
    (X + "(assert (= x 1.5))", "error"),
    # sorts and declarations are checked
    ("(declare-const b Bool) (assert (= b 5))", "error"),
    # an error given in full is the filter's whole first line
    (
        X + "(declare-const b Bool) (assert (= x b))",
        '(error "ill-typed assert (= x b): TypeMismatch: comparison between int and bool")',
    ),
    ("(assert (= z 1))", "error"),
    (X + "(declare-const x Int) (assert (= x 1))", "error"),
    # SMT-LIB reserves symbols that start with `.` or `@` for the solver,
    # which names its own constants `.ackN` and `.sigN`
    ("(declare-const .ack0 Int) (assert (= .ack0 1))", "error"),
    ("(declare-fun @f (Int) Int) (assert (= (@f 0) 1))", "error"),
    # a Bool is 0 or 1: three distinct bools, or bool values, cannot exist
    ("(declare-const b Bool) (declare-const c Bool) (assert (not b)) (assert (not c))"
     " (assert (not (= b c)))", "unsat"),
    ("(declare-fun f (Int) Bool) (assert (distinct (f 1) (f 2))) (assert (distinct (f 1) (f 3)))"
     " (assert (distinct (f 2) (f 3)))", "unsat"),
    ("(declare-fun f (Int) Bool) (assert (distinct (f 1) (f 2)))", "sat"),
]


@pytest.mark.parametrize("text, answer", FILTER_SYNTAX)
def test_filter_syntax(text, answer, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text + " (check-sat) (get-model)"))
    code = smt.main()
    out = capsys.readouterr().out
    if answer.startswith("(error"):
        assert (out.splitlines()[0], code) == (answer, 1)
        return
    assert (out.split()[0], code) == (("(error", 1) if answer == "error" else (answer, 0)), out


def test_lin_helpers():
    script = parse_script("(declare-const x Int) (assert (<= (+ x 1) (* 2 x)))")
    lin = smt.lin_of(smt.term_of(["+", "x", ["*", 3, "x"]], {}), smt.Apps())
    assert eval_lin(lin, {"x": 2}) == 8
    assert eval_lin(lin, {}) == 0
    assert script.asserts


def test_long_unit_equality_chain():
    # x{i+1} = x{i} + 1 for i < n, then x{n} < x0: unsat for every n. The
    # chain is longer than the default recursion limit of 1,000, so it must
    # not be eliminated one equality per level of recursion.
    n = 1200
    for step in ("(= x{j} (+ x{i} 1))", "(= x{i} (- x{j} 1))"):
        lines = [f"(declare-const x{i} Int)" for i in range(n + 1)]
        lines += [f"(assert {step.format(i=i, j=i + 1)})" for i in range(n)]
        lines.append(f"(assert (< x{n} x0)) (check-sat)")
        assert solve("\n".join(lines)) == "unsat"
        lines[-1] = f"(assert (< x0 x{n})) (check-sat) (get-model)"
        m = _model(solve_script("\n".join(lines)))
        assert all(m[f"x{i + 1}"] == m[f"x{i}"] + 1 for i in range(n))


def test_mod_trick_is_deterministic():
    # no unit coefficient: the omega test introduces a fresh .sig variable
    text = (
        "(declare-const x Int) (declare-const y Int)"
        " (assert (= (+ (* 3 x) (* 5 y)) 7)) (assert (<= 0 x))"
        " (check-sat) (get-model)"
    )
    first = solve_script(text)
    assert solve_script(text) == first
    m = _model(first)
    assert 3 * m["x"] + 5 * m["y"] == 7 and m["x"] >= 0
    eq = [("eq", {"x": 3, "y": 5, None: -7})]
    assert omega(eq) == omega(eq)


def test_normalization():
    # an atom with a coefficient of 1 or -1 has a gcd of 1 and is taken as
    # it is; a constant of 1 or -1 says nothing about the gcd
    for lin in ({"x": 1, "y": 4, None: 3}, {"x": 6, "y": -1}, {None: 5}, {}):
        assert smt.norm_le(lin) is lin and smt._norm_eq(lin) is lin
    assert smt.norm_le({"x": 2, "y": 4, None: 1}) == {"x": 1, "y": 2, None: 1}
    assert smt.norm_le({"x": -4, None: -1}) == {"x": -1}
    assert smt._norm_eq({"x": 2, "y": -4, None: -6}) == {"x": 1, "y": -2, None: -3}
    assert smt._norm_eq({"x": 2, None: 1}) is None


def test_prunes_inconsistent_branches(monkeypatch):
    calls = [0]
    omega_ = smt.omega

    def counted(*args):
        calls[0] += 1
        return omega_(*args)

    monkeypatch.setattr(smt, "omega", counted)
    n = 12
    decls = " ".join(f"(declare-const y{i} Int)" for i in range(n))
    splits = " ".join(f"(assert (or (= y{i} 0) (= y{i} 1)))" for i in range(n))
    text = (
        f"(declare-const x Int) {decls} (assert (< x 0)) (assert (> x 0)) "
        f"{splits} (check-sat)"
    )
    assert solve(text) == "unsat"
    # the contradiction is found at the first split; a search that checks
    # only at the leaves runs omega once per leaf, 2**12 times
    assert calls[0] <= 3


def test_omega_calls_on_iteri(monkeypatch):
    # the search's calls: the omega test does not call itself
    top = [0]
    omega_ = smt.omega

    def counted(constraints):
        top[0] += 1
        return omega_(constraints)

    monkeypatch.setattr(smt, "omega", counted)
    out = io.StringIO()
    assert cli.main(["check", ITERI], out) == 0
    assert out.getvalue().startswith("SAFE")
    # one context per path, congruence axioms only between applications
    # whose arguments differ after the presolve, get hypotheses whose cubes
    # are merged, and witnesses carried across a block's runs make 44 calls;
    # without the carried witnesses there are 48, with unmerged cubes 75,
    # with an Ackermann table keyed on the raw arguments 167, and with a
    # search that runs omega at every split and leaf with new atoms 457
    assert top[0] <= 60


def _nnf(form):
    return smt.lower(smt.formula_of(form, {}), True, smt.Apps())


def test_ground_atoms_fold():
    assert _nnf(["<=", 1, 0]) == ("or", [])
    assert _nnf(["not", ["distinct", ["+", 1, 2], 3]]) == ("and", [])
    assert _nnf(["and", ["<=", 0, 1], ["<=", "x", 2]]) == ("and", [("le", {"x": 1, None: -2})])
    assert _nnf(["or", ["<", 1, 0], ["=>", ["<=", 0, "x"], ["=", 2, 2]]]) == ("and", [])
    assert _nnf(["and", ["<=", "x", 2], ["or", ["<", 1, 0]]]) == ("or", [])


def test_deep_disjunction_search():
    # one split per assert, more than the default recursion limit of 1,000
    n = 1200
    lines = [f"(declare-const x{i} Int)" for i in range(n)]
    lines += [f"(assert (or (= x{i} 0) (= x{i} 1)))" for i in range(n)]
    lines.append("(assert (= x0 1)) (assert (< x1 x0)) (check-sat) (get-model)")
    out = solve_script(" ".join(lines))
    assert out.splitlines()[0] == "sat"
    m = _model(out)
    assert all(m[f"x{i}"] in (0, 1) for i in range(n))
    assert m["x0"] == 1 and m["x1"] < m["x0"]


def test_long_equality_chain_under_disjunction():
    # presolve cannot reach these equalities, so omega eliminates all 1,200
    n = 1200
    chain = " ".join(f"(= x{i + 1} (+ x{i} 1))" for i in range(n))
    lines = [f"(declare-const x{i} Int)" for i in range(n + 1)]
    lines += [
        "(declare-const y Int)",
        f"(assert (or (and {chain} (< x{n} x0)) (= y 0)))",
        "(assert (distinct y 0)) (check-sat)",
    ]
    assert solve(" ".join(lines)) == "unsat"


# Random scripts over three variables boxed to -3..3, compared with brute
# force over the box; every model is checked against every assert.
BOX = range(-3, 4)
NAMES = ("x", "y", "z")


def _rand_term(rng):
    coeffs = [(rng.randint(-4, 4), v) for v in NAMES if rng.random() < 0.6]
    return ["+", rng.randint(-4, 4)] + [["*", c, v] for c, v in coeffs]


def _rand_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        op = rng.choice(["=", "distinct", "<", "<="])
        return [op, _rand_term(rng), _rand_term(rng)]
    op = rng.choice(["and", "or", "=>"])
    return [op] + [_rand_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]


def _eval(form, env):
    if isinstance(form, int):
        return form
    if isinstance(form, str):
        return env[form]
    op, args = form[0], [_eval(f, env) for f in form[1:]]
    if op == "+":
        return sum(args)
    if op == "*":
        return args[0] * args[1]
    if op == "=":
        return args[0] == args[1]
    if op == "distinct":
        return args[0] != args[1]
    if op == "<":
        return args[0] < args[1]
    if op == "<=":
        return args[0] <= args[1]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    assert op == "=>"
    return not all(args[:-1]) or args[-1]


def _to_smt(form):
    if isinstance(form, int):
        return str(form) if form >= 0 else f"(- {-form})"
    if isinstance(form, str):
        return form
    return "(" + " ".join([form[0]] + [_to_smt(f) for f in form[1:]]) + ")"


def test_matches_brute_force():
    rng = random.Random(2024)
    points = [dict(zip(NAMES, p)) for p in itertools.product(BOX, repeat=3)]
    for case in range(300):
        asserts = [_rand_formula(rng, 2) for _ in range(rng.randint(1, 4))]
        lines = [f"(declare-const {v} Int)" for v in NAMES]
        lines += [f"(assert (and (<= {BOX[0]} {v}) (<= {v} {BOX[-1]})))" for v in NAMES]
        lines += [f"(assert {_to_smt(a)})" for a in asserts]
        out = solve_script(" ".join(lines) + " (check-sat) (get-model)")
        brute = any(all(_eval(a, p) for a in asserts) for p in points)
        assert out.splitlines()[0] == ("sat" if brute else "unsat"), (case, out)
        if brute:
            m = _model(out)
            assert all(m[v] in BOX for v in NAMES), (case, m)
            assert all(_eval(a, m) for a in asserts), (case, m)


def test_omega_matches_brute_force(monkeypatch):
    # conjunctions with coefficients up to 5 over three variables boxed to
    # -3..3; the inexact eliminations and their splinters must both be hit
    hits = {"inexact": 0, "splinters": 0}
    pick, splinters = smt._pick_variable, smt._splinters

    def counted_pick(les):
        x, exact = pick(les)
        hits["inexact"] += not exact
        return x, exact

    def counted_splinters(*args):
        hits["splinters"] += 1
        return splinters(*args)

    monkeypatch.setattr(smt, "_pick_variable", counted_pick)
    monkeypatch.setattr(smt, "_splinters", counted_splinters)

    def holds(kind, lin, point):
        value = eval_lin(lin, point)
        return value <= 0 if kind == "le" else value == 0

    rng = random.Random(11)
    points = [dict(zip(NAMES, p)) for p in itertools.product(BOX, repeat=3)]
    for case in range(600):
        cons = [("le", {v: s, None: -BOX[-1]}) for v in NAMES for s in (1, -1)]
        for _ in range(rng.randint(1, 4)):
            lin = {v: rng.randint(-5, 5) for v in NAMES if rng.random() < 0.7}
            lin[None] = rng.randint(-10, 10)
            lin = {k: c for k, c in lin.items() if c}
            cons.append(("eq" if rng.random() < 0.25 else "le", lin))
        brute = any(all(holds(k, l, p) for k, l in cons) for p in points)
        model = omega(cons)
        assert (model is not None) == brute, (case, cons)
        if model is not None:
            assert all(holds(k, l, model) for k, l in cons), (case, model)
    assert hits["inexact"] and hits["splinters"], hits


# The kernels as they were before they were written in one pass, kept as
# the references of `test_kernels_match_reference`: the variable choice
# sorts the names and then takes the least cost, each dark shadow takes six
# dicts, and a substitution adds one scaled form at a time, each through a
# copy of the old `lin_add`.


def _ref_lin_add(a, b):
    out = dict(a)
    for k, v in b.items():
        nv = out.get(k, 0) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _ref_pick_variable(les):
    bounds = {}  # v -> [lower count, largest lower, upper count, largest upper]
    for lin in les:
        for v, c in lin.items():
            if v is not None:
                s = bounds.setdefault(v, [0, 0, 0, 0])
                i = 0 if c < 0 else 2
                s[i] += 1
                s[i + 1] = max(s[i + 1], abs(c))

    def cost(v):
        n_low, low, n_up, up = bounds[v]
        return n_low > 0 and n_up > 0, low > 1 and up > 1, n_low * n_up

    x = min(sorted(bounds), key=cost)
    return x, not cost(x)[1]


def _ref_solve_ineqs(les, fresh):
    undo = []
    model = {}
    while les:
        x, exact = smt._pick_variable(les)
        lowers, uppers, others = [], [], []
        for lin in les:
            a = lin.get(x, 0)
            if a == 0:
                others.append(lin)
            elif a > 0:
                uppers.append((a, smt.lin_scale({v: c for v, c in lin.items() if v != x}, -1)))
            else:
                lowers.append((-a, {v: c for v, c in lin.items() if v != x}))
        shadow = list(others)
        feasible = all(
            smt._constrain("le", _ref_shadow(b, r, a, u), None, shadow)
            for b, r in lowers
            for a, u in uppers
        )
        if exact:
            if not feasible:
                return None
            undo.append((x, lowers, uppers))
            les = shadow
            continue
        model = smt._solve_ineqs(shadow, fresh) if feasible else None
        if model is not None:
            smt._assign_between(x, lowers, uppers, model)
        else:
            model = smt._splinters(x, lowers, uppers, les, fresh)
            if model is None:
                return None
        break
    for x, lowers, uppers in reversed(undo):
        smt._assign_between(x, lowers, uppers, model)
    return model


def _ref_shadow(b, r, a, u):
    diff = _ref_lin_add(smt.lin_scale(r, a), smt.lin_scale(smt.lin_scale(u, b), -1))
    return _ref_lin_add(diff, smt.lin_const((a - 1) * (b - 1)))


def _ref_lin_subst(lin, sub):
    if not any(k in sub for k in lin):
        return lin
    out = {k: c for k, c in lin.items() if k not in sub}
    for k, c in lin.items():
        if k in sub:
            out = _ref_lin_add(out, smt.lin_scale(sub[k], c))
    return out


KERNEL_NAMES = ("a", "b", "c", "d", "e")


def _rand_lin(rng, names, const=True):
    lin = {v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in rng.sample(names, rng.randint(1, len(names)))}
    if const and rng.random() < 0.9:
        lin[None] = rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6))
    return lin


def _rand_system(rng):
    # seven constraints at most: with ten, a few draws take the splinter
    # search minutes (CHANGES.md)
    names = KERNEL_NAMES[: rng.randint(1, 5)]
    return [("eq" if rng.random() < 0.2 else "le", _rand_lin(rng, names))
            for _ in range(rng.randint(1, 7))]


def test_kernels_match_reference(monkeypatch):
    # the one-pass kernels against the references above: the same form, key
    # order included, from every substitution and every dark shadow, and
    # then the same model, key order included, or None from `omega` on every
    # system
    rng = random.Random(19)
    for _ in range(3000):
        lin = _rand_lin(rng, KERNEL_NAMES)
        sub = {v: _rand_lin(rng, KERNEL_NAMES + ("f", "g"))
               for v in rng.sample(KERNEL_NAMES, rng.randint(0, 3))}
        got, want = smt.lin_subst(lin, sub), _ref_lin_subst(lin, sub)
        assert list(got.items()) == list(want.items()), (lin, sub)
        assert (got is lin) == (want is lin)
        b, a = rng.randint(1, 3), rng.randint(1, 3)
        r, u = _rand_lin(rng, KERNEL_NAMES), _rand_lin(rng, KERNEL_NAMES)
        want = _ref_shadow(b, r, a, u)
        assert list(smt._shadow(b, r, a, u).items()) == list(want.items()), (b, r, a, u)
        assert list(smt.lin_add(r, u).items()) == list(_ref_lin_add(r, u).items())
    splintered = [0]
    splinters = smt._splinters

    def counted_splinters(*args):
        splintered[0] += 1
        return splinters(*args)

    monkeypatch.setattr(smt, "_splinters", counted_splinters)
    ref = {"_pick_variable": _ref_pick_variable, "_solve_ineqs": _ref_solve_ineqs,
           "lin_subst": _ref_lin_subst}
    new = {name: getattr(smt, name) for name in ref}

    def run(impl, cons):
        for name, fn in impl.items():
            monkeypatch.setattr(smt, name, fn)
        model = omega(cons)
        return model if model is None else list(model.items())

    answers = {"sat": 0, "unsat": 0}
    reached = 0  # the systems whose solving reaches the splinters
    for case in range(3000):
        cons = _rand_system(rng)
        before = splintered[0]
        got = run(new, cons)
        reached += splintered[0] > before
        assert got == run(ref, cons), (case, cons)
        answers["unsat" if got is None else "sat"] += 1
    assert min(answers.values()) > 900, answers
    assert reached > 30, reached


# Random scripts with one uninterpreted `f : Int -> Int`: a hypothesis and
# a goal over three variables, some with top-level equalities between the
# arguments of `f`, decided by a context and compared with brute force. The
# variables and every application of `f` are boxed to -1..1, so the brute
# force only has to choose the value of `f` at each argument it evaluates.
FBOX = range(-1, 2)
F_SIGS = {"f": logic.FuncSig("f", (logic.INT,), logic.INT)}


class _Unset(Exception):
    def __init__(self, arg):
        self.arg = arg


def _rand_arg(rng, depth=1):
    if depth and rng.random() < 0.15:
        return ["f", _rand_arg(rng, depth - 1)]
    v = rng.choice(NAMES)
    c = rng.randint(-1, 1)
    return ["+", v, c] if c else v


def _rand_fterm(rng):
    r = rng.random()
    if r < 0.5:
        return ["f", _rand_arg(rng)]
    if r < 0.8:
        return _rand_arg(rng)
    return ["+", ["f", _rand_arg(rng)], rng.randint(-1, 1)]


def _rand_fformula(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        op = rng.choice(["=", "distinct", "<", "<="])
        return [op, _rand_fterm(rng), _rand_fterm(rng)]
    op = rng.choice(["and", "or", "=>"])
    return [op] + [_rand_fformula(rng, depth - 1) for _ in range(2)]


def _rand_fasserts(rng):
    """One to three asserts; about half are an equality between two
    arguments, which the presolve turns into a definition."""
    out = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            out.append(["=", _rand_arg(rng, 0), _rand_arg(rng, 0)])
        else:
            out.append(_rand_fformula(rng, 1))
    return out


def _rand_fgoal(rng, args):
    """One or two formulas, mostly after an equality between two of `args`
    (the arguments of the hypothesis's applications), which can merge
    them."""
    out = [_rand_fformula(rng, 1) for _ in range(rng.randint(1, 2))]
    if len(args) > 1 and rng.random() < 0.7:
        out.insert(0, ["=", *rng.sample(args, 2)])
    return out


def _feval(form, env, table):
    """`_eval` with `f` read from `table`; raises `_Unset` at an argument
    the table does not map."""
    if isinstance(form, list) and form[0] == "f":
        arg = _feval(form[1], env, table)
        if arg not in table:
            raise _Unset(arg)
        return table[arg]
    if isinstance(form, list):
        return _eval([form[0]] + [_feval(f, env, table) for f in form[1:]], env)
    return _eval(form, env)


def _fapps(form):
    if isinstance(form, list):
        if form[0] == "f":
            yield form
        for f in form[1:]:
            yield from _fapps(f)


def _fbrute(asserts):
    for point in itertools.product(FBOX, repeat=len(NAMES)):
        env = dict(zip(NAMES, point))
        tables = [{}]
        while tables:
            table = tables.pop()
            try:
                if all(_feval(a, env, table) for a in asserts):
                    return True
            except _Unset as unset:
                tables += [{**table, unset.arg: v} for v in FBOX]
    return False


def _rand_fcase(rng, most=5):
    """A hypothesis and a goal, drawn again until they make at most `most`
    distinct applications, and the applications of each, keyed on their
    text. The search splits three ways on each congruence axiom: one case
    with seven applications can take ten seconds."""
    while True:
        hyp = _rand_fasserts(rng)
        hyp_apps = {sexpr.to_str(a): a for a in _fapps(["and", *hyp])}
        args = {sexpr.to_str(a[1]): a[1] for a in hyp_apps.values()}
        goal = _rand_fgoal(rng, [args[k] for k in sorted(args)])
        goal_apps = {sexpr.to_str(a): a for a in _fapps(["and", *goal])}
        if len(hyp_apps.keys() | goal_apps.keys()) <= most:
            return hyp, goal, hyp_apps, goal_apps


def _fbox(terms):
    return [["and", ["<=", FBOX[0], t], ["<=", t, FBOX[-1]]] for t in terms]


def test_uninterpreted_function_matches_brute_force(seed=5, cases=240):
    # two cases in three decide the goal in a context of the hypothesis,
    # the third the whole script as one goal, as the filter does. The
    # hypothesis boxes the variables and its own applications, the goal the
    # applications only it makes, so that a goal adds applications to a
    # context; a goal equality between two arguments of the hypothesis's
    # applications merges them
    rng = random.Random(seed)
    seen = {"sat": 0, "unsat": 0}
    for case in range(cases):
        hyp, goal, hyp_apps, goal_apps = _rand_fcase(rng)
        hyp_box = _fbox([*NAMES, *hyp_apps.values()])
        goal_box = _fbox([a for k, a in goal_apps.items() if k not in hyp_apps])
        if case % 3 == 2:
            context = smt.Context((), F_SIGS, [])
            query = _logic(["and", *hyp_box, *hyp, *goal_box, *goal])
        else:
            context = smt.Context((), F_SIGS, [_logic(f) for f in hyp_box + hyp])
            query = _logic(["and", *goal_box, *goal])
        model = context.decide(query)
        brute = _fbrute(hyp + goal)
        assert (model is not None) == brute, (case, hyp, goal)
        seen["sat" if brute else "unsat"] += 1
        if model is not None:
            values, tables = model
            env = {v: values.get(v, 0) for v in NAMES}
            table = {arg: value for (arg,), value in tables.get("f", {}).items()}
            _assert_one_value_per_argument(context, query, model)
            assert all(_feval(a, env, table) for a in hyp + goal), (case, values, tables)
    assert min(seen.values()) >= cases // 5, seen


def _assert_one_value_per_argument(context, goal, model):
    """Every application the hypothesis or the goal makes, evaluated in the
    model, takes the value its function's table gives its arguments."""
    values, tables = model
    apps = smt.Apps(table=context.apps.table)
    smt.lower(goal, True, apps)
    for const, func, args in apps.table.values():
        key = tuple(eval_lin(a, values) for a in args)
        assert tables[func][key] == values.get(const, 0), (const, key, values, tables)


def _logic(form):
    return smt.formula_of(form, F_SIGS)


def _form(text):
    (form,) = sexpr.parse_many(text)
    return _logic(form)


def _context(hyp):
    return smt.Context((), F_SIGS, [_form(f) for f in hyp])


def test_goal_equality_merges_hypothesis_applications():
    # `(= x y)` in the goal merges the hypothesis's `(f x)` and `(f y)`; the
    # goal's `(f z)` must still be tied to that class through `z = x`
    context = _context(["(<= (f x) (f y))", "(<= 0 z)"])
    goal = _form("(and (= x y) (<= z x) (<= x z) (distinct (f z) (f x)))")
    assert context.decide(goal) is None
    assert context.decide(_form("(and (= x y) (<= z x) (<= x z))")) is not None


def test_applications_equal_after_presolve_share_one_constant():
    hyp = ["(= y (+ x 1))", "(= z (- y 1))"]
    goal = _form("(distinct (f z) (f x))")
    assert _context(hyp).decide(goal) is None
    # with the goal in the hypothesis, `(f z)` and `(f x)` are two raw
    # applications, one pair, and `z = x` after the presolve: no axiom
    whole = _context(hyp + ["(distinct (f z) (f x))"])
    assert len(whole.apps.table) == 2 and len(whole.reps) == 1
    assert whole.axioms == []
    assert whole.decide(_form("true")) is None
    nested = _context(["(= x y)"])
    assert nested.decide(_form("(distinct (f (f x)) (f (f y)))")) is None
    assert nested.decide(_form("(distinct (f (f x)) (f (+ (f y) 1)))")) is not None


def test_sat_model_tables_are_functions():
    context = _context(["(<= (f x) (f y))", "(= z (+ x 1))"])
    goal = _form("(and (distinct (f x) (f z)) (distinct x y) (= (f (f y)) y))")
    model = context.decide(goal)
    assert model is not None
    _assert_one_value_per_argument(context, goal, model)
    values, tables = model
    f = {arg: value for (arg,), value in tables["f"].items()}
    x, y, z = (values.get(v, 0) for v in NAMES)
    assert f[x] <= f[y] and z == x + 1 and f[x] != f[z] and x != y and f[f[y]] == y


def _model(out):
    model = {}
    import re

    for name, val in re.findall(
        r"\(define-fun (\S+) \(\) \S+ (\(- \d+\)|-?\d+)\)", out
    ):
        val = val.replace("(- ", "-").replace(")", "").replace(" ", "")
        model[name] = int(val)
    return model


# ---------------------------------------------------------------------------
# The query writer and the external solver: `logic` queries as SMT-LIB text,
# and the answer of a solver run as a child process

LEN = FuncSig("len", (ui("obj"),), INT)
SIGS = {"len": LEN}


def P(text):
    return pred_from_sexpr(sexpr.parse_one(text))


def test_solver_query_text():
    env = TypeEnv.of(("a", ui("obj")), ("v", INT), ("b", BOOL))
    script = emit_solver_query(env, P("(and (<= 0 v) (< v (len a)))"), SIGS)
    assert "(set-logic QF_UFLIA)" in script
    assert "(declare-sort obj 0)" in script
    assert "(declare-fun len (obj) Int)" in script
    assert "(assert (and (<= 0 b) (<= b 1)))" in script
    assert script.splitlines()[-2] == "(check-sat)"


def _check_subprocess_solver(cmd):
    env = TypeEnv.of(("x", INT))
    mode = SolverMode(cmd=cmd)
    assert check_valid(env, P("(= x x)"), mode).status == VALID
    assert check_valid(env, P("(= x 3)"), mode).status == INVALID


def test_solver_mode_subprocess(monkeypatch):
    # the bundled SMT-LIB filter as a child process, found through the
    # absolute location of the imported package (a relative PYTHONPATH
    # does not survive outside the repository root)
    src = str(Path(hmc.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", src, prepend=os.pathsep)
    _check_subprocess_solver(shlex.quote(sys.executable) + " -m hmc.smt")


@pytest.mark.skipif(
    shutil.which("hmc-smt") is None, reason="hmc-smt script not installed"
)
def test_solver_mode_subprocess_installed_script():
    _check_subprocess_solver("hmc-smt")


def test_solver_emit_dir(tmp_path):
    env = TypeEnv.of(("x", INT))
    mode = SolverMode(emit=QueryLog(str(tmp_path)))
    check_valid(env, P("(= x x)"), mode)
    check_valid(env, P("(= x 0)"), mode)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["q_0.smt2", "q_1.smt2"]


# a ui sort, a bool binder, a 0-ary, a unary and a binary function, negative
# constants and coefficients, /=, true and false
QUERY_ENV = TypeEnv.of(("a", ui("obj")), ("v", INT), ("f", BOOL))
QUERY_SIGS = {
    "len": LEN,
    "c": FuncSig("c", (), INT),
    "at": FuncSig("at", (ui("obj"), INT), INT),
}
QUERY_PRED = (
    "(=> (and f true) (and (/= (at a (- v 3)) (* -2 (c)))"
    " (not (<= (+ v -1) (len a))) (=> false f)))"
)


def test_solver_query_bytes():
    assert emit_solver_query(QUERY_ENV, P(QUERY_PRED), QUERY_SIGS) == (
        "(set-logic QF_UFLIA)\n"
        "(declare-sort obj 0)\n"
        "(declare-fun a () obj)\n"
        "(declare-fun v () Int)\n"
        "(declare-fun f () Int)\n"
        "(declare-fun at (obj Int) Int)\n"
        "(declare-fun c () Int)\n"
        "(declare-fun len (obj) Int)\n"
        "(assert (and (<= 0 f) (<= f 1)))\n"
        "(assert (not (=> (and (= f 1) (= 0 0)) (and (not (= (at a (+ v (- 3)))"
        " (* (- 2) c))) (not (<= (+ v (- 1)) (len a))) (=> (= 0 1) (= f 1))))))\n"
        "(check-sat)\n"
        "(get-model)\n"
    )


def _text_verdict(env, p, sigs):
    """The verdict of the SMT-LIB text path: print the query, answer it with
    the filter, read the answer back."""
    out = solve_script(emit_solver_query(env, p, sigs))
    if out.startswith("unsat"):
        return Verdict(VALID)
    return Verdict(INVALID, smt._parse_model(out, env))


def test_in_process_query_matches_text_path():
    from gen import gen_pred

    rng = random.Random(0)
    xyz = TypeEnv.of(("x", INT), ("y", INT), ("z", INT))
    cases = [(xyz, gen_pred(rng, ["x", "y", "z"]), {}) for _ in range(60)]
    typed = [
        QUERY_PRED,
        "(=> (= a b) (= (len a) (len b)))",
        "(=> (and (<= 0 v) (< v (len a))) (< 0 (len a)))",
        "(=> f (>= (len a) (- 3)))",
        "(not (and f (/= v (* -2 v))))",
        "(=> (= a b) (= (at a v) (at b v)))",
        "(=> (= (at a v) 0) (= (at b (+ v 1)) (len a)))",
        "(= (c) (+ v 1))",
        "(=> (not f) (not f))",
    ]
    env = TypeEnv.of(("a", ui("obj")), ("b", ui("obj")), ("v", INT), ("f", BOOL))
    cases += [(env, P(text), QUERY_SIGS) for text in typed]
    statuses = set()
    tabled = 0
    for env, p, sigs in cases:
        query = solver_query(env, p, sigs)
        script = smt.script_of(query)
        parsed = smt.parse_script(emit_solver_query(env, p, sigs))
        assert query == sexpr.parse_many(emit_solver_query(env, p, sigs)), to_text(p)
        assert (script.consts, script.sigs, script.asserts) == (
            parsed.consts, parsed.sigs, parsed.asserts
        ), to_text(p)
        got = check_valid(env, p, SolverMode(), sigs)
        # the printed model has no function tables
        text = _text_verdict(env, p, sigs)
        assert got.status == text.status, to_text(p)
        if got.status == INVALID:
            assert got.witness.var_values == text.witness.var_values, to_text(p)
            # the witness, function tables included, is a countermodel
            assert not eval_pred(got.witness, p), to_text(p)
            tabled += "len" in got.witness.func_tables or "at" in got.witness.func_tables
        statuses.add(got.status)
    assert statuses == {VALID, INVALID}
    assert tabled >= 3
