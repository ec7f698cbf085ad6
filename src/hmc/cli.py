"""Command-line front end.

Commands:
  check      full pipeline: clone, translate, prove, extract, re-validate
  translate  print the IMP translation of a constraint file
  clone      print the cloned (read-write-once) constraint file
  exec       run the finite-domain oracle on a program or constraint file
  validate   check a solution file against a constraint file

Exit codes: 0 SAFE/SATISFIED, 1 UNSAFE/VIOLATED, 2 INCONCLUSIVE/UNKNOWN,
3 usage or I/O error, 4 solver failure or resource exhaustion (recursion
depth, memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import absint, clone as clone_mod, constraints, imp, translate as trans
from .logic import INVALID, LogicError, OracleMode, SolverMode, ValueDomain
from .sexpr import SexprError
from .smt import QueryLog, SolverProtocolError, SolverUnavailable

EXIT_SAFE = 0
EXIT_UNSAFE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_SOLVER = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class RunReport:
    def __init__(self):
        # the `--json` keys, in this order
        self.verdict = ""
        self.solution = {}
        self.invariant = ""
        self.trace = None
        self.timings = {}
        self.detail = ""

    def to_json(self):
        return json.dumps(vars(self), indent=2)


def _parse_range(text):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected LO..HI") from exc


def _domain(args):
    int_range = _parse_range(args.int_range)
    ui_ranges = []
    for spec in args.ui_range or []:
        if "=" not in spec:
            raise UsageError(f"bad --ui-range {spec!r}, expected NAME=LO..HI")
        name, rng = spec.split("=", 1)
        ui_ranges.append((name, _parse_range(rng)))
    try:
        return ValueDomain(int_range, tuple(ui_ranges))
    except LogicError as exc:
        raise UsageError(str(exc)) from exc


def _solver_mode(args):
    return SolverMode(args.smt_cmd, QueryLog(args.emit_smt) if args.emit_smt else None)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from exc


def _load_constraints(path):
    text = _read(path)
    try:
        return constraints.parse_constraints(text)
    except (SexprError, constraints.ConstraintError, LogicError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _pipeline_program(args, cs):
    cloned, clones = (cs, {}) if args.no_clone else clone_mod.clone(cs)
    return trans.translate_set_of_constraints(cloned, clones), cloned, clones


def _at_least(low):
    """An argparse type: an int no less than `low`."""

    def integer(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return integer


def _add_domain_flags(sp):
    sp.add_argument("--int-range", default="-2..2", metavar="LO..HI")
    sp.add_argument("--ui-range", action="append", metavar="NAME=LO..HI")
    sp.add_argument("--table-budget", type=_at_least(1), default=256)
    sp.add_argument("--seed", type=int, default=0)


def _add_solver_flags(sp):
    sp.add_argument("--smt-cmd", help="external solver command reading SMT-LIB on stdin")
    sp.add_argument("--emit-smt", metavar="DIR", help="dump every solver query to DIR")


@functools.cache
def build_parser():
    ap = _Parser(prog="hmc", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="prove a constraint file and extract a solution")
    sp.add_argument("file")
    sp.add_argument("--no-clone", action="store_true")
    sp.add_argument("--oracle", action="store_true", help="hunt counterexamples with the finite-domain oracle")
    sp.add_argument("--preds", metavar="FILE", help="extra abstraction predicates")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--fuel", type=_at_least(0), default=10_000)
    _add_domain_flags(sp)
    _add_solver_flags(sp)

    sp = sub.add_parser("translate", help="print the IMP translation")
    sp.add_argument("file")
    sp.add_argument("--no-clone", action="store_true")

    sp = sub.add_parser("clone", help="print the read-write-once cloning")
    sp.add_argument("file")

    sp = sub.add_parser("exec", help="run the finite-domain oracle")
    sp.add_argument("file", help=".imp program or .hmc constraint file")
    sp.add_argument("--semantics", choices=["relational", "imperative"], default="relational")
    sp.add_argument("--no-clone", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--fuel", type=_at_least(0), default=10_000)
    _add_domain_flags(sp)

    sp = sub.add_parser("validate", help="check a solution against constraints")
    sp.add_argument("file")
    sp.add_argument("--solution", required=True, metavar="FILE")
    sp.add_argument("--mode", choices=["solver", "oracle"], default="solver")
    sp.add_argument("--json", action="store_true")
    _add_domain_flags(sp)
    _add_solver_flags(sp)
    return ap


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args, out):
    domain = _domain(args)  # a bad range is exit 3 whatever the verdict
    report = RunReport()
    t0 = time.monotonic()
    cs = _load_constraints(args.file)
    p, cloned, clones = _pipeline_program(args, cs)
    report.timings["translate"] = time.monotonic() - t0
    extra = None
    if args.preds:
        try:
            extra = absint.parse_preds(_read(args.preds), p)
        except (SexprError, constraints.ConstraintError) as exc:
            raise UsageError(f"{args.preds}: {exc}") from exc
    mode = _solver_mode(args)
    t1 = time.monotonic()
    runs = absint.run_blocks(p)
    preds = absint.harvest_predicates(p, runs, extra)
    result = absint.solve(p, runs, preds, mode)
    report.timings["solve"] = time.monotonic() - t1
    if result.failing is None:
        sol = absint.extract_solution(result.invariant, preds, cloned.kvars)
        folded = clone_mod.fold_solution(sol, clones, cs)
        t2 = time.monotonic()
        sat = constraints.check_satisfied(cs, folded, mode)
        report.timings["validate"] = time.monotonic() - t2
        if sat.satisfied:
            report.verdict = "SAFE"
            report.invariant = absint.format_invariant(result.invariant, preds)
            report.solution = {
                k: constraints.print_solution({k: q}).strip() for k, q in folded.items()
            }
            _emit(args, out, report, _render_safe(report))
            return EXIT_SAFE
        label, verdict = sat.first_failure
        report.detail = f"extracted solution failed re-validation at {label}"
    else:
        f = result.failing
        report.detail = f"abstraction cannot prove {f.label}"
    if args.oracle:
        t3 = time.monotonic()
        verdict = imp.exec_program(
            p,
            domain,
            "relational",
            args.table_budget,
            args.seed,
            args.fuel,
        )
        report.timings["oracle"] = time.monotonic() - t3
        if verdict.status == imp.UNSAFE:
            report.verdict = "UNSAFE"
            report.trace = verdict.trace
            _emit(args, out, report, f"UNSAFE\ntrace: {' -> '.join(verdict.trace)}")
            return EXIT_UNSAFE
    report.verdict = "INCONCLUSIVE"
    _emit(args, out, report, f"INCONCLUSIVE\n{report.detail}")
    return EXIT_INCONCLUSIVE


def _render_safe(report):
    lines = ["SAFE"]
    if report.invariant:
        lines.append("invariant:")
        lines.extend("  " + l for l in report.invariant.splitlines())
    if report.solution:
        lines.append("solution:")
        for k in sorted(report.solution):
            lines.append(f"  {report.solution[k]}")
    return "\n".join(lines)


def cmd_translate(args, out):
    cs = _load_constraints(args.file)
    p, _, _ = _pipeline_program(args, cs)
    out.write(imp.print_imp(p))
    return EXIT_SAFE


def cmd_clone(args, out):
    cs = _load_constraints(args.file)
    cloned, _ = clone_mod.clone(cs)
    out.write(constraints.print_constraints(cloned))
    return EXIT_SAFE


def cmd_exec(args, out):
    domain = _domain(args)
    report = RunReport()
    if args.file.endswith(".imp"):
        try:
            p = imp.parse_imp(_read(args.file))
        except (imp.ParseError, SexprError, LogicError) as exc:
            raise UsageError(f"{args.file}: {exc}") from exc
    else:
        cs = _load_constraints(args.file)
        p, _, _ = _pipeline_program(args, cs)
    verdict = imp.exec_program(
        p, domain, args.semantics, args.table_budget, args.seed, args.fuel
    )
    if verdict.status == imp.UNSAFE:
        report.verdict = "UNSAFE"
        report.trace = verdict.trace
        _emit(args, out, report, f"UNSAFE\ntrace: {' -> '.join(verdict.trace)}")
        return EXIT_UNSAFE
    if verdict.status == imp.SAFE:
        report.verdict = "SAFE"
        _emit(args, out, report, "SAFE")
        return EXIT_SAFE
    report.verdict = "INCONCLUSIVE"
    report.detail = "\n".join(verdict.reasons)
    _emit(args, out, report, f"INCONCLUSIVE\n{report.detail}")
    return EXIT_INCONCLUSIVE


def cmd_validate(args, out):
    domain = _domain(args)
    report = RunReport()
    cs = _load_constraints(args.file)
    try:
        sol = constraints.parse_solution(_read(args.solution))
        constraints.typecheck_solution(cs, sol)
    except (SexprError, constraints.ConstraintError) as exc:
        raise UsageError(f"{args.solution}: {exc}") from exc
    if args.mode == "solver":
        mode = _solver_mode(args)
    else:
        mode = OracleMode(domain, args.table_budget, args.seed)
    sat = constraints.check_satisfied(cs, sol, mode)
    if sat.satisfied:
        report.verdict = "SATISFIED"
        _emit(args, out, report, "SATISFIED")
        return EXIT_SAFE
    label, verdict = sat.first_failure
    if verdict.status == INVALID:
        report.verdict = "VIOLATED"
        witness = dict(verdict.witness.var_values) if verdict.witness else {}
        report.detail = f"{label}: witness {witness}"
        _emit(args, out, report, f"VIOLATED({label})\nwitness: {witness}")
        return EXIT_UNSAFE
    report.verdict = "UNKNOWN"
    reasons = verdict.reasons or ("solver returned unknown",)
    report.detail = "\n".join(f"{label}: {reason}" for reason in reasons)
    _emit(args, out, report, f"UNKNOWN\n{report.detail}")
    return EXIT_INCONCLUSIVE


def _emit(args, out, report, text):
    if getattr(args, "json", False):
        out.write(report.to_json() + "\n")
    else:
        out.write(text + "\n")


COMMANDS = {
    "check": cmd_check,
    "translate": cmd_translate,
    "clone": cmd_clone,
    "exec": cmd_exec,
    "validate": cmd_validate,
}


def _join_range_flags(argv):
    """`--int-range -1..1` would be read as two flags; fold the value in."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--int-range", "--ui-range") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None, out=None):
    out = out or sys.stdout
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_range_flags(list(argv))
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverUnavailable, SolverProtocolError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (RecursionError, MemoryError) as exc:
        print(f"resource exhausted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
