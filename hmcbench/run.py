"""Benchmark of the whole `hmc check` pipeline.

usage, from the root of an hmc checkout:
  python3 hmcbench/run.py --workload iteri|kchain|genmix --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed (corpus.py) and checked
in rounds by a fresh worker process (worker.py) for about S seconds. Every
verdict is then checked apart from the program (checker.py): a SAFE
solution on a grid of integers, an UNSAFE verdict by the imperative oracle
on the cloned program. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics (layers.py) with --trace 1. README.md
gives the metrics, the workloads and the bounds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import corpus  # noqa: E402
import layers  # noqa: E402

OUT = BENCH / "out"
SETUP_LAUNCHES = 12
WORKER_TIMEOUT_S = 80
TRACE_HASHSEEDS = ("1", "2")
EXIT_CODES = {"SAFE": 0, "UNSAFE": 1, "INCONCLUSIVE": 2}

# The check times are scaled to a machine on which the worker's reference
# loop takes this long on average. The speed of a shared machine drifts by
# ±20% over minutes, and the reference loop, timed between the checks,
# drifts with it; the scaled times drift by a few percent (README.md,
# "Machine speed").
REFERENCE_LOOP_S = 0.025

# The cold start of one CLI use, measured by `setup_s`. The child prints
# the monotonic clock when it is done; the parent's clock before the launch
# is the start. Timing the parent's wait instead would round to the 50 ms
# poll of `subprocess.run(..., timeout=...)`.
SETUP_CODE = (
    "import sys, time\n"
    "from hmc import cli, constraints\n"
    "with open(sys.argv[1]) as fh:\n"
    "    constraints.normalize(constraints.parse_constraints(fh.read()))\n"
    "print(time.monotonic())\n"
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def write_corpus(workload, seed, run_dir):
    inputs = run_dir / "inputs"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs.mkdir(parents=True)
    for name, text in corpus.WORKLOADS[workload](seed):
        (inputs / f"{name}.hmc").write_text(text)
    return inputs


def measure_setup(env, first_input, launches):
    """Seconds from launch until `first_input` is parsed, for each of
    `launches` cold starts."""
    times = []
    for _ in range(launches):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(first_input)],
            env=env, check=True, timeout=60, capture_output=True, text=True,
        )
        times.append(float(proc.stdout) - start)
    return times


def run_worker(env, inputs, budget, flags, spans_file=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(inputs), str(budget), *flags]
    if spans_file:
        cmd += ["--trace", str(spans_file)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


class Verifier:
    """Checks each distinct (input, output) pair once."""

    def __init__(self, inputs, cli):
        self.inputs = inputs
        self.cli = cli
        self.seen = {}
        self.problems = []

    def verdict(self, check):
        """The verified verdict of one check, or None when the check failed:
        it raised, exited with 3 or 4, or its verdict was refuted."""
        key = (check["path"], check["code"], check["output"])
        if key not in self.seen:
            self.seen[key] = self._verify(*key)
        return self.seen[key]

    def _verify(self, name, code, output):
        if code not in EXIT_CODES.values():
            return self._problem(name, f"check failed: {code}: {output.strip()[:200]}")
        path = self.inputs / name
        try:
            verdict, solution = checker.parse_check_output(output)
        except (ValueError, TypeError, IndexError) as exc:
            return self._problem(name, f"unreadable output ({exc}): {output[:200]}")
        if EXIT_CODES.get(verdict) != code:
            return self._problem(name, f"verdict {verdict!r} with exit code {code}")
        if verdict == "SAFE":
            try:
                bad = checker.solution_violation(path.read_text(), solution)
            except checker.Unsupported as exc:
                bad = ("unsupported by the checker", str(exc))
            if bad:
                return self._problem(name, f"SAFE refuted at {bad[0]}: {bad[1]}")
        elif verdict == "UNSAFE":
            buf = io.StringIO()
            if self.cli.main(["exec", str(path), "--semantics", "imperative"], buf) != 1:
                return self._problem(name, f"UNSAFE not confirmed: {buf.getvalue().strip()}")
        return verdict

    def _problem(self, name, text):
        self.problems.append(f"{name}: {text}")
        return None


def tally(checks, verifier):
    """(failed, decided inputs, solution chars) over the checks."""
    failed = 0
    decided = {}
    chars = {}
    for c in checks:
        verdict = verifier.verdict(c)
        failed += verdict is None
        ok = verdict in ("SAFE", "UNSAFE")
        decided[c["path"]] = decided.get(c["path"], True) and ok
        if verdict == "SAFE":
            lines = checker.solution_lines(c["output"].splitlines())
            chars.setdefault(c["path"], sum(map(len, lines)))
    return failed, sum(decided.values()), sum(chars.values())


def end_to_end(env, inputs, flags, seconds):
    """The timed loop, with half the set-up launches before it and half
    after, so that their median spans the run. The first launch is not
    counted: it may compile the bytecode cache."""
    first = sorted(inputs.glob("*.hmc"))[0]
    setup = measure_setup(env, first, SETUP_LAUNCHES // 2 + 1)[1:]
    result = run_worker(env | {"PYTHONHASHSEED": "0"}, inputs, seconds, flags)
    setup += measure_setup(env, first, SETUP_LAUNCHES - len(setup))
    checks = result["checks"]
    # The median is taken over the inputs, of each input's mean time: the
    # machine flips between a fast and a slow state within seconds, and the
    # median of one input's bimodal times jumps with the share of each.
    by_input = {}
    for c in checks:
        by_input.setdefault(c["path"], []).append(c["seconds"])
    raw = {
        "checks_per_s": len(checks) / sum(c["seconds"] for c in checks),
        "check_ms.p50": 1000 * statistics.median(map(statistics.mean, by_input.values())),
    }
    loop = statistics.mean(result["reference_loop_s"])
    scale = REFERENCE_LOOP_S / loop
    print(f"reference loop {1000 * loop:.4g} ms on average, so times are scaled by {scale:.4g}; "
          "unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    metrics = {
        "checks_per_s": (raw["checks_per_s"] / scale, "1/s"),
        "check_ms.p50": (raw["check_ms.p50"] * scale, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return checks, metrics


def traced(env, inputs, flags, seconds, run_dir):
    """Two traced workers under different PYTHONHASHSEED values, half the
    time each. Timings are pooled; the exact counts of their first traced
    rounds must agree."""
    results = [
        run_worker(env | {"PYTHONHASHSEED": h}, inputs, seconds / 2, flags,
                   run_dir / f"spans-hashseed{h}.tsv")
        for h in TRACE_HASHSEEDS
    ]
    checks = [c for r in results for c in r["checks"]]
    n = len(checks)
    metrics = {}
    for name in results[0]["layers"]:
        metrics[name] = sum(r["layers"][name] * len(r["checks"]) for r in results) / n
    counts = [{k: r["first_round_counts"][k] for k in layers.EXACT_COUNTS} for r in results]
    problems = []
    if counts[0] != counts[1]:
        problems.append(f"work counts differ between PYTHONHASHSEED values: {counts}")
    print(f"exact counts of one round (identical under PYTHONHASHSEED "
          f"{' and '.join(TRACE_HASHSEEDS)}: {'yes' if not problems else 'NO'}): "
          + json.dumps(counts[0]))
    return checks, {k: (v, layers.unit(k)) for k, v in metrics.items()}, problems


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "hmc" / "cli.py").is_file():
        fail("run from the root of an hmc checkout: src/hmc/cli.py not found")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    run_dir = OUT / args.workload
    try:
        inputs = write_corpus(args.workload, args.seed, run_dir)
    except OSError as exc:
        fail(f"cannot write the corpus: {exc}")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    flags = corpus.CHECK_FLAGS[args.workload]
    if args.trace:
        checks, metrics, problems = traced(env, inputs, flags, args.seconds, run_dir)
    else:
        checks, metrics = end_to_end(env, inputs, flags, args.seconds)
        problems = []

    sys.path.insert(0, str(root / "src"))
    from hmc import cli

    verifier = Verifier(inputs, cli)
    failed, decided, chars = tally(checks, verifier)
    if not args.trace:
        metrics["solution_chars"] = (chars, "chars")
        metrics["decided"] = (decided, "count")
    problems += verifier.problems
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(checks)} checks, {failed} failed, "
          f"{decided} of {len(list(inputs.glob('*.hmc')))} inputs decided")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    line = json.dumps({
        "correct": not problems,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (run_dir / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    main()
