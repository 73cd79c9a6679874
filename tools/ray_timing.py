"""Timing of ``clean`` on random 3-coordinate models, the vertex-ray workload.

    python3 tools/ray_timing.py [ROOT]

ROOT is a checkout with ``src/logchar`` (default: the one holding this
script).  For each seed 0-14, ``random.Random(seed)`` draws 10 rank-1
summands on the chart (x, y, z), every coordinate a log variable.  Each
summand has ``randint(1, 3)`` terms, each term a coefficient drawn from
{1, -1, 2, 3, -5} and an exponent ``randint(-4, 2)`` for each of x, y, z.
The document is run as ``clean --json --point x=0,y=0,z=0`` through
``logchar.cli.main`` in-process, and the best of 3 wall times is kept.

One line per seed gives its time and exit code; the summary gives the
median, the worst case and a SHA-256 of every output, so two checkouts can
be compared for speed and for identical answers.  The exit status is 1 when
the worst case exceeds ``WORST_S`` seconds, else 0.  The documents are
written to a temporary directory; nothing is written under ROOT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time

SEEDS = range(15)
SUMMANDS = 10
COEFFS = (1, -1, 2, 3, -5)
REPEATS = 3
WORST_S = 2.0
POINT = "x=0,y=0,z=0"


def model_document(seed):
    rng = random.Random(seed)
    model = []
    for _ in range(SUMMANDS):
        terms = []
        for _ in range(rng.randint(1, 3)):
            coeff = rng.choice(COEFFS)
            terms.append({"coeff": str(coeff), "exp": [rng.randint(-4, 2) for _ in range(3)]})
        model.append({"phi": terms, "rank": 1})
    return {"schema": 1, "chart": {"vars": ["x", "y", "z"], "log_vars": ["x", "y", "z"]},
            "model": model}


def _clean(cli, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["clean", path, "--json", "--point", POINT])
    return code, out.getvalue() + err.getvalue()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/ray_timing.py [ROOT]", file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    import logchar.cli as cli

    times = []
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            path = os.path.join(tmp, f"ray{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(model_document(seed), fh)
            best = None
            for _ in range(REPEATS):
                start = time.perf_counter()
                code, text = _clean(cli, path)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            digest.update(f"{seed}:{code}:{text}".encode())
            times.append(best)
            print(f"seed {seed:2d}: {best * 1000:8.1f} ms  exit {code}")
    worst = max(times)
    print(f"median {statistics.median(times) * 1000:.1f} ms, worst {worst * 1000:.1f} ms, "
          f"outputs sha256 {digest.hexdigest()[:16]}")
    if worst > WORST_S:
        print(f"worst case above {WORST_S} s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
