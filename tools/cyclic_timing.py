"""Timing of ``cyclic_vector`` on the benchmark's cyclic matrices, ranks 2-10.

    python3 tools/cyclic_timing.py [ROOT]

ROOT is a checkout with ``src/logchar`` and ``bench/corpus.py`` (default:
the one holding this script).  For each rank 2, 3, 4, 6, 8 and 10 and each
seed 0-9, the matrix is built as ``bench/corpus._cyclic_op`` builds it, with
``random.Random(seed)`` for the coefficients and
``random.Random(f"cyclic{seed}")`` for the shape: the companion matrix of a
random ``d/dt`` operator, conjugated by a constant unimodular gauge.  Its
entries become ``LaurentSeries`` in t, and ``logchar.cdvf.cyclic_vector`` is
timed in-process, the best of 3 runs up to rank 6 and one run at ranks 8
and 10.

One line per rank gives the median and the worst time; the summary gives a
SHA-256 of the ``repr`` of every returned operator (an exception counts by
its type and message), so two checkouts can be compared for speed and for
identical answers.  The exit status is 1 when a rank-10 matrix takes more
than ``RANK10_WORST_S`` seconds, else 0.  Nothing is written under ROOT.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import sys
import time

RANKS = (2, 3, 4, 6, 8, 10)
SEEDS = range(10)
RANK10_WORST_S = 3.0


def _answer(cdvf, rows):
    try:
        return repr(cdvf.cyclic_vector(rows))
    except Exception as exc:  # hashed like any other answer
        return f"raised {type(exc).__name__}: {exc}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print("usage: python3 tools/cyclic_timing.py [ROOT]", file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import corpus
    import logchar.cdvf as cdvf
    from logchar.series import LaurentSeries

    digest = hashlib.sha256()
    worst10 = 0.0
    for rank in RANKS:
        times = []
        for seed in SEEDS:
            op = corpus._cyclic_op(random.Random(seed), random.Random(f"cyclic{seed}"),
                                   f"cyclic-r{rank}-s{seed}", rank)
            rows = [[LaurentSeries("t", {int(e): c for e, c in entry.items()}) for entry in row]
                    for row in op.matrix["rows"]]
            best = None
            for _ in range(3 if rank <= 6 else 1):
                start = time.perf_counter()
                text = _answer(cdvf, rows)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            digest.update(f"{rank}:{seed}:{text}\n".encode())
            times.append(best)
        print(f"rank {rank:2d}: median {statistics.median(times):7.3f} s, "
              f"worst {max(times):7.3f} s, total {sum(times):7.3f} s", flush=True)
        if rank == 10:
            worst10 = max(times)
    print(f"operators sha256 {digest.hexdigest()[:16]}")
    if worst10 > RANK10_WORST_S:
        print(f"a rank-10 matrix took more than {RANK10_WORST_S} s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
