"""Tests of the benchmark's solution checker on the iteri example.

Run from the root of the checkout: python3 -m pytest hmcbench/test_checker.py
(or python3 hmcbench/test_checker.py).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402

ITERI = (Path(__file__).resolve().parent.parent / "examples" / "iteri_mask.hmc").read_text()
K2 = "(and (<= 0 v) (< v (len a)))"


def violation(k1, k2):
    form = lambda text: checker.read_sexprs(text)[0]
    return checker.solution_violation(ITERI, {"k1": form(k1), "k2": form(k2)})


def test_rejects_handwritten_k1_at_c1():
    # i <= v < len xs fails c1 once i >= len xs, e.g. i = 1 with len xs = 1
    label, point = violation("(and (<= i v) (< v (len xs)))", K2)
    assert label == "c1"
    assert point["i"] == point["v"] == point["len xs"] == 1


def test_rejects_all_true_at_c3():
    label, point = violation("true", "true")
    assert label == "c3"
    assert not (0 <= point["v"] < point["len a"])


def test_accepts_corrected_solution():
    assert violation("(and (<= i v) (< v (+ i (len xs))))", K2) is None


def test_accepts_printed_solution():
    # the solution `hmc check` prints for iteri, as it prints it
    output = (
        "SAFE\nsolution:\n"
        "  (solution (k1 (=> (not (and (not (<= v i)) (and (<= i v) (and (<= 1 (len xs)) "
        "(and (<= (+ v 1) (+ (len xs) i)) (<= (+ i 1) (+ (len xs) v))))))) (and (<= v i) "
        "(and (<= i v) (and (<= 1 (len xs)) (and (<= (+ v 1) (+ (len xs) i)) "
        "(<= (+ i 1) (+ (len xs) v)))))))))\n"
        "  (solution (k2 (and (<= 0 v) (and (< v (len a)) (<= 0 (len a))))))\n"
    )
    verdict, solution = checker.parse_check_output(output)
    assert verdict == "SAFE"
    assert checker.solution_violation(ITERI, solution) is None


def test_rejects_missing_kvar():
    label, _ = checker.solution_violation(ITERI, {"k2": checker.read_sexprs(K2)[0]})
    assert label == "missing solution"


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
