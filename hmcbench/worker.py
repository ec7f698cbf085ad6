"""Runs `hmc check` over one corpus in rounds and prints what happened.

`run.py` starts it in a fresh interpreter with `src` on `PYTHONPATH`, so the
peak memory it reports is that of the process that ran the checks. A round
checks every input once, in name order. A new round starts only while the
elapsed time plus the last round's time stays within the budget; the first
round always runs. Between checks it times a fixed reference loop, the
measure of the machine's speed that `run.py` scales times by. Prints one
JSON object on stdout.

usage: worker.py CORPUS_DIR SECONDS [--oracle] [--trace SPANS_FILE]

With --trace, every layer is wrapped (layers.py) for the whole run.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from hmc import cli, smt  # noqa: F401  (hmc.logic imports smt on first use)

import layers

# One timing of the reference loop is taken for every REFERENCE_EVERY_S of
# check time, so that it costs about 6% of a run.
REFERENCE_EVERY_S = 0.3


def reference_loop():
    """Seconds taken by a fixed pure-Python loop of the kinds of work `hmc`
    does: tuples, sets, dicts, comprehensions and Fractions. `hmc` plays no
    part in it, so its time tracks only the speed of the machine. It makes
    no cycles, so the collector is off while it runs: a larger heap left by
    the checks must not slow it."""
    gc.disable()
    start = perf_counter()
    acc = frozenset()
    memo = {}
    for i in range(4000):
        key = (i % 50, i % 13)
        if key not in memo:
            memo[key] = tuple(sorted({i % 17, i % 5, i % 3}))
        if i % 3:
            acc = acc | {(i % 11, i % 7)}
        xs = [j * 2 + 1 for j in range(8)]
        Fraction(sum(x for x in xs if x > 4), 3) + 1
    seconds = perf_counter() - start
    gc.enable()
    return seconds


class Reference:
    """Timings of the reference loop, each taken right after a check, one
    for every REFERENCE_EVERY_S of check time, so that their mean weighs
    the moments of a run as the mean check time does. The first is taken
    after the first check, so that a run has at least one."""

    def __init__(self):
        self.seconds = []
        self.owed = 1.0

    def after_check(self, check_seconds):
        self.owed += check_seconds / REFERENCE_EVERY_S
        while self.owed >= 1:
            self.owed -= 1
            self.seconds.append(reference_loop())


def run_round(paths, flags, reference, tracer=None):
    """Checks every input once: [{path, code, output, seconds, counts}].
    `code` is the exit code, or the text of the exception the check raised."""
    out = []
    for path in paths:
        if tracer is not None:
            tracer.check += 1
            tracer.counts = Counter()
        buf = io.StringIO()
        start = perf_counter()
        try:
            code = cli.main(["check", str(path), *flags], buf)
        except Exception as exc:  # a crash is a failed check, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        counts = dict(tracer.counts) if tracer is not None else {}
        out.append(dict(path=path.name, code=code, output=buf.getvalue(),
                        seconds=seconds, counts=counts))
        reference.after_check(seconds)
    return out


def timed_rounds(paths, flags, budget, tracer=None):
    """Rounds until the budget is spent: (rounds, reference loop timings)."""
    rounds = []
    reference = Reference()
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(run_round(paths, flags, reference, tracer))
        now = perf_counter()
        if now - start + (now - t0) > budget:
            return rounds, reference.seconds


def main(argv):
    paths = sorted(Path(argv[0]).glob("*.hmc"))
    budget = float(argv[1])
    flags = ["--oracle"] if "--oracle" in argv else []
    tracer = None
    if "--trace" in argv:
        tracer = layers.Tracer()
        layers.install(tracer)
    rounds, reference = timed_rounds(paths, flags, budget, tracer)
    checks = [c for r in rounds for c in r]
    result = {"checks": checks, "reference_loop_s": reference}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[argv.index("--trace") + 1])
        result["layers"] = layers.summarize(tracer.spans, _total(checks), len(checks),
                                            sum(c["seconds"] for c in checks))
        first = [s for s in tracer.spans if s[4] < len(paths)]
        result["first_round_counts"] = layers.summarize(
            first, _total(rounds[0]), 1, sum(c["seconds"] for c in rounds[0]))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


def _total(checks):
    total = Counter()
    for c in checks:
        total.update(c["counts"])
    return total


if __name__ == "__main__":
    main(sys.argv[1:])
