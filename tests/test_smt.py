import io
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hmc import cli, smt
from hmc.smt import SmtError, eval_lin, omega, parse_script, solve_script, term_to_lin

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


def test_lin_helpers():
    script = parse_script("(declare-const x Int) (assert (<= (+ x 1) (* 2 x)))")
    lin = term_to_lin(["+", "x", ["*", 3, "x"]])
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
    # top-level calls only: a call that passes `fresh` is the omega test's own
    top = [0]
    omega_ = smt.omega

    def counted(constraints, fresh=None):
        top[0] += fresh is None
        return omega_(constraints, fresh)

    monkeypatch.setattr(smt, "omega", counted)
    out = io.StringIO()
    assert cli.main(["check", ITERI], out) == 0
    assert out.getvalue().startswith("SAFE")
    # a search that runs omega at every split and leaf with new atoms makes
    # 457; reusing the model of the consistent prefix skips about a fifth
    assert top[0] <= 400


def test_ground_atoms_fold():
    assert smt.nnf(["<=", 1, 0]) == ("or", [])
    assert smt.nnf(["not", ["distinct", ["+", 1, 2], 3]]) == ("and", [])
    assert smt.nnf(["and", ["<=", 0, 1], ["<=", "x", 2]]) == ("and", [("le", {"x": 1, None: -2})])
    assert smt.nnf(["or", ["<", 1, 0], ["=>", ["<=", 0, "x"], ["=", 2, 2]]]) == ("and", [])
    assert smt.nnf(["and", ["<=", "x", 2], ["or", ["<", 1, 0]]]) == ("or", [])


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


def _model(out):
    model = {}
    import re

    for name, val in re.findall(
        r"\(define-fun (\S+) \(\) \S+ (\(- \d+\)|-?\d+)\)", out
    ):
        val = val.replace("(- ", "-").replace(")", "").replace(" ", "")
        model[name] = int(val)
    return model
