"""Benchmark runner for logchar: one process, one thread, a closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload doc-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs each workload in a child process of its own, so
that each reports its own peak memory.

The engine is imported from ``src/`` of the current directory.  The seed
generates the workload's documents (``corpus``), which are written under
``bench/out/`` and handed to ``logchar.cli.main`` in-process, one op at a
time; the next op starts only when the previous one has returned.  Every
op runs under a per-op time budget (``signal.setitimer``); an op over it is
not run again in that run, and later passes record it as a timeout at the
time it took.  Every answer is checked (``check``).  Passes over the
workload repeat while they fit in ``--seconds``; the last line of standard
output is the JSON result.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced passes alternate with passes under the span tracer
(``tracer``); the result holds the per-layer metrics of the first traced
pass, the per-command times of the untraced passes and the tracing
overhead (the difference of the two kinds of pass, each op at its median).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import check
import corpus
import tracer as tracing

OP_BUDGET_S = 1.25      # per-op time budget; an op over it is recorded as a timeout
SETUP_REPEATS = 11      # set-up runs per process; setup_s is their median
COMMANDS = ("validate", "irr", "clean", "zcar", "chi", "newton", "oracle", "cyclic")


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the engine can swallow it."""


class Runner:
    def __init__(self, root, workload, seed):
        self.workload = workload
        self.seed = seed
        self.armed = False
        self.known = check.load_known_failures()
        signal.signal(signal.SIGALRM, self._alarm)
        self.corpus_dir = os.path.join(root, "bench", "out", "corpus",
                                       f"{workload}-{seed}")

    # -- set-up ------------------------------------------------------------------

    def setup(self):
        """Import logchar and generate the corpus; returns the set-up time."""
        for name in [n for n in sys.modules if n == "logchar" or n.startswith("logchar.")]:
            del sys.modules[name]
        start = perf_counter()
        import logchar.cdvf
        import logchar.cli
        import logchar.series
        self.cli, self.cdvf = logchar.cli, logchar.cdvf
        self.ops = corpus.build(self.workload, self.seed)
        self.timed_out = {}
        written = set()
        self.calls = [self._prepare(op, logchar.series.LaurentSeries, written)
                      for op in self.ops]
        return perf_counter() - start

    def _prepare(self, op, series_cls, written):
        """A no-argument callable running the op; writes its document once."""
        if op.command == "cyclic":
            matrix = [[series_cls("t", {int(e): c for e, c in entry.items()})
                       for entry in row] for row in op.matrix["rows"]]
            return lambda: self.cdvf.cyclic_vector(matrix)
        argv = [os.path.join(self.corpus_dir, a) if a.endswith(".json") else a
                for a in op.argv]
        path = next(a for a in argv if a.endswith(".json"))
        if path not in written:
            written.add(path)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op.doc, fh, sort_keys=True)
        return lambda: self.cli.main(argv)

    # -- ops ---------------------------------------------------------------------

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def run_op(self, call):
        out, err = io.StringIO(), io.StringIO()
        outcome = {"stdout": "", "result": None}
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        self.armed = True
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = call()
            self.armed = False
            elapsed = perf_counter() - start
            if isinstance(result, int):
                outcome["status"] = result
            else:
                outcome["status"], outcome["result"] = 0, result
        except OpTimeout:
            elapsed = perf_counter() - start
            outcome["status"] = "timeout"
        except Exception:  # the op's failure is the measurement; keep running
            self.armed = False
            elapsed = perf_counter() - start
            outcome["status"] = "raised"
            outcome["error"] = traceback.format_exc(limit=3)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        outcome["stdout"] = out.getvalue()
        outcome["elapsed"] = elapsed
        return outcome

    def run_pass(self, tracer=None):
        gc.collect()
        outcomes = []
        start = perf_counter()
        for op, call in zip(self.ops, self.calls):
            if op.id in self.timed_out:
                # it would time out again: recording it leaves the time of the
                # run to the ops that finish
                outcomes.append(dict(self.timed_out[op.id]))
                continue
            if tracer is not None:
                tracer.begin(op.id)
            outcome = self.run_op(call)
            if tracer is not None:
                tracer.end(outcome["status"] not in ("timeout", "raised"))
            if outcome["status"] == "timeout":
                self.timed_out[op.id] = outcome
            outcomes.append(outcome)
        wall = perf_counter() - start
        cross = check.cross_check(self.ops, outcomes)
        for op, outcome in zip(self.ops, outcomes):
            failure = check.check_op(op, outcome)
            if failure is None and op.id in cross:
                failure = ("wrong", cross[op.id])
            outcome["label"], outcome["reason"] = failure or ("ok", None)
            outcome["class"] = "ok" if failure is None else \
                check.classify(op.id, outcome["label"], self.known)
        return wall, outcomes


# -- metrics -------------------------------------------------------------------


def high_percentile(samples, cap=0.9, beyond=10):
    """Value at the highest percentile <= cap with >= ``beyond`` samples above it."""
    xs = sorted(samples)
    idx = min(math.ceil(cap * len(xs)) - 1, len(xs) - 1 - beyond)
    return xs[max(idx, 0)], (max(idx, 0) + 1) / len(xs)


def op_latencies(passes, stat=statistics.median):
    """Each op's time over the passes: by default its median.

    The median keeps what a typical run of the op pays, garbage collection
    included.  The machine is shared and its speed swings by tens of percent
    within seconds; the fastest of the five or six passes surface-ladder
    makes depends on whether one of them met a fast moment, and spread more
    from run to run than the median.
    """
    return [stat(o["elapsed"] for o in op_samples)
            for op_samples in zip(*(outcomes for _, outcomes in passes))]


def median_wall(passes):
    return statistics.median(w for w, _ in passes)


def summarize(passes, log):
    """End-to-end metrics from the untraced passes of one run; ``pass_s``
    is one pass with every op at its median time."""
    latencies = op_latencies(passes)
    fastest = op_latencies(passes, min)
    walls = sorted(w for w, _ in passes)
    p_hi, q = high_percentile(latencies)
    log(f"passes: {len(passes)} (wall min {walls[0]:.3f} s, median "
        f"{median_wall(passes):.3f} s, max {walls[-1]:.3f} s); "
        f"op latencies: {len(latencies)}, each the median of {len(passes)} passes; "
        f"op_p90_ms taken at percentile {100 * q:.1f}, "
        f"{len(latencies) - round(q * len(latencies))} samples above it; "
        f"from per-op minima: p50 {1000 * statistics.median(fastest):.3f} ms, "
        f"p90 {1000 * high_percentile(fastest)[0]:.3f} ms, sum {sum(fastest):.3f} s")
    return {"pass_s": sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * p_hi,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def command_times(ops, passes):
    times = {c: 0.0 for c in COMMANDS}
    for op, t in zip(ops, op_latencies(passes)):
        times[op.command] += t
    return {f"cmd.{c}_s": t for c, t in times.items()}


def layer_metrics(tracer):
    t, x = tracer, tracer.extra
    fme_calls = t.calls("fme.feasible_point")
    decisions = t.calls("tropical.sorted_profile_linear")
    return {
        "fme.calls": fme_calls,
        "fme.s": t.outer.get("fme", 0.0),
        "fme.feasible_ratio": x.get("fme.feasible", 0) / fme_calls if fme_calls else 0.0,
        "fme.rows_in.max": x.get("fme.rows_in.max", 0),
        "tropical.sorted_profile.calls": decisions,
        "tropical.sorted_profile.self_s": t.self_time("tropical.sorted_profile_linear"),
        "tropical.fast_path_ratio": x.get("tropical.fast_path", 0) / decisions
        if decisions else 0.0,
        "tropical.is_linear.calls": t.calls("tropical.is_linear_on_octant"),
        "goodmodel.clean_at_point.calls": t.calls("goodmodel.clean_at_point"),
        "goodmodel.clean_at_point.s": t.total("goodmodel.clean_at_point"),
        "goodmodel.numerically_clean.calls": t.calls("goodmodel.numerically_clean_at_point"),
        "goodmodel.numerically_clean.s": t.total("goodmodel.numerically_clean_at_point"),
        "goodmodel.nonclean_locus.s": t.total("goodmodel.nonclean_locus"),
        "goodmodel.zcar_prime.s": t.total("goodmodel.zcar_prime"),
        "goodmodel.self_s": t.self_time("goodmodel."),
        "modeldoc.calls": sum(t.calls(n) for n in t.stats if n.startswith("modeldoc.")),
        "modeldoc.s": t.outer.get("modeldoc", 0.0),
        "cli.self_s": t.self_time("cli."),
        "laurent.calls": sum(t.calls(n) for n in t.stats if n.startswith("laurent.")),
        "laurent.self_s": t.self_time("laurent."),
        "field.scalar_ops": x.get("field.scalar_ops", 0),
        "cycles.self_s": t.self_time("cycles."),
        "series.mul.calls": t.calls("series.LaurentSeries.__mul__"),
        "series.inverse.calls": t.calls("series.LaurentSeries.inverse"),
        "series.self_s": t.self_time("series."),
        "cdvf.cyclic_vector.s": t.total("cdvf.cyclic_vector"),
        "cdvf.newton_polygon.calls": t.calls("cdvf.newton_polygon"),
        "cdvf.newton_polygon.s": t.total("cdvf.newton_polygon"),
        "cdvf.refined_residue.s": t.total("cdvf.refined_residue"),
        "cdvf.factor_rational.s": t.total("cdvf.factor_rational"),
        "euler.oracle.calls": t.calls("euler.derham_oracle_curve"),
        "euler.oracle.s": t.outer.get("euler.derham_oracle_curve", 0.0),
        "euler.oracle.cells": x.get("euler.oracle.cells", 0),
        "euler.formula.s": sum(t.total(f"euler.{n}") for n in
                               ("chi_curve", "chi_surface_kato", "chi_EP",
                                "kashiwara_dubson")),
    }


def traced_pass(runner):
    """One pass with every logchar layer wrapped in spans."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, outcomes = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    return tracer, wall, outcomes


# -- entry point -----------------------------------------------------------------


def failure_report(runner, passes, log):
    """Log every failed op once; returns (all failures, new failures) per op-run."""
    total = new = 0
    seen = set()
    for _, outcomes in passes:
        for op, o in zip(runner.ops, outcomes):
            if o["class"] == "ok":
                continue
            total += 1
            new += o["class"] == "new"
            if (op.id, o["label"]) not in seen:
                seen.add((op.id, o["label"]))
                log(f"{o['class']} failure: {op.id}: {o['reason']}")
    return total, new


def run_workload(root, workload, seed, seconds, trace, log):
    runner = Runner(root, workload, seed)
    setups = [runner.setup() for _ in range(SETUP_REPEATS)]
    log(f"{workload}: {len(runner.ops)} ops per pass, seed {seed}")
    passes = []
    start = perf_counter()
    if trace:
        # warm up, then alternate untraced and traced passes while they fit;
        # counts come from the first traced pass, which repeats exactly
        runner.run_pass()
        plain, traced, tracer = [], [], None
        while not traced or (perf_counter() - start
                             + 2 * median_wall(plain) <= seconds):
            plain.append(runner.run_pass())
            pass_tracer, wall, outcomes = traced_pass(runner)
            tracer = tracer or pass_tracer
            traced.append((wall, outcomes))
        passes = plain + traced
        path = os.path.join(root, "bench", "out", f"trace-{workload}-{seed}.json")
        tracer.write(path)
        log(f"spans written to {os.path.relpath(path, root)}"
            + (f" ({tracer.dropped} beyond the in-memory cap dropped)"
               if tracer.dropped else ""))
    else:
        # start a pass only while it is expected to end within the time
        while not passes or (perf_counter() - start
                             + median_wall(passes) <= seconds):
            passes.append(runner.run_pass())
    failed, new = failure_report(runner, passes, log)
    attempted = sum(len(o) for _, o in passes)
    if trace:
        metrics = layer_metrics(tracer)
        metrics.update(command_times(runner.ops, plain))
        metrics["failed_frac"] = failed / attempted
        untraced_s, traced_s = sum(op_latencies(plain)), sum(op_latencies(traced))
        metrics["trace.overhead_s"] = traced_s - untraced_s
        log(f"tracing overhead over {len(plain)} pass pairs: untraced pass "
            f"{untraced_s:.3f} s, traced pass {traced_s:.3f} s")
    else:
        metrics = {"setup_s": statistics.median(setups)}
        metrics.update(summarize(passes, log))
    log(f"failed ops: {failed} of {attempted} ({new} not documented as seed failures)")
    return {"correct": new == 0, "attempted": attempted, "failed": new,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=corpus.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    os.environ.pop("LOGCHAR_PRECISION", None)  # series work at the default window
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "logchar", "cli.py")):
        print(f"no logchar sources under {src}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # every set-up compiles logchar from source: no bytecode is written, and
    # none is read from a cache that a test run may have left in src/
    sys.dont_write_bytecode = True
    sys.pycache_prefix = os.path.join(root, "bench", "out", "no-pycache")
    sys.path.insert(0, src)
    units = load_units()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    w = args.workload
    result = run_workload(root, w, args.seed, args.seconds, args.trace, log)
    for name, value in result["metrics"].items():
        print(f"{w} {name} = {value:.6g} {units[name]}")
        result["metrics"][name] = {"value": value, "unit": units[name]}
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload in a child process of its own; one combined result."""
    results = {}
    for w in corpus.WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"{w}: run failed with exit code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[w] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{k}": v for w, r in results.items()
                                  for k, v in r["metrics"].items()}},
                     sort_keys=True))
    return 0


def load_units():
    """Metric units, read from BENCHMARK.json at the checkout root."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
