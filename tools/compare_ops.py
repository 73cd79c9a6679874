"""Byte-identity check of two logchar checkouts on the benchmark corpus.

    python3 tools/compare_ops.py [--seeds A-B] OLD_ROOT NEW_ROOT

Each root is a checkout with ``src/logchar`` and ``bench/corpus.py``.  For
each root, a child process of its own imports that checkout's engine and
corpus, builds every op of ``corpus.build`` for the seeds A to B (0-2 by
default) of all workloads and runs it in-process: CLI ops through ``logchar.cli.main`` on documents
written to a temporary directory, ``cyclic`` ops through
``logchar.cdvf.cyclic_vector``.  An op's record is its exit code, stdout,
stderr and, for ``cyclic``, the ``repr`` of the returned operator (an
exception is recorded by its type and message).  Every op whose record
differs between the two roots is reported with each differing field, then
their count, and the exit status is 1; it is 0 when every op matches.  When
both stdouts of a differing op parse as JSON objects, the report also names
the top-level keys whose values differ, a list value by index (such as
``refined[1]``).  Two roots whose op lists differ are reported as such.
Nothing is written under either checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

DEFAULT_SEEDS = "0-2"
USAGE = "usage: python3 tools/compare_ops.py [--seeds A-B] OLD_ROOT NEW_ROOT"
FIELDS = ("exit", "stdout", "stderr", "repr")


def _cyclic_call(cdvf, series_cls, matrix):
    rows = [[series_cls("t", {int(e): c for e, c in entry.items()}) for entry in row]
            for row in matrix["rows"]]
    return lambda: cdvf.cyclic_vector(rows)


def _run_op(call):
    out, err = io.StringIO(), io.StringIO()
    record = {"repr": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = call()
    except Exception as exc:  # recorded and compared like any other answer
        record["exit"] = f"raised {type(exc).__name__}: {exc}"
    else:
        if isinstance(result, int):
            record["exit"] = result
        else:
            record["exit"], record["repr"] = 0, repr(result)
    record["stdout"], record["stderr"] = out.getvalue(), err.getvalue()
    return record


def _seeds(text):
    """The seeds of the inclusive range "A-B", or None when it is not one."""
    lo, sep, hi = text.partition("-")
    if not (sep and lo.isdigit() and hi.isdigit() and int(lo) <= int(hi)):
        return None
    return range(int(lo), int(hi) + 1)


def dump(root, seeds):
    """Run the corpus of ``seeds`` on the checkout at ``root``; print one
    JSON list."""
    sys.dont_write_bytecode = True
    root = os.path.abspath(root)
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import corpus
    import logchar.cdvf
    import logchar.cli
    import logchar.series

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        # relative document paths, so that messages naming a file match
        os.chdir(tmp)
        for workload in corpus.WORKLOADS:
            for seed in seeds:
                written = set()
                for op in corpus.build(workload, seed):
                    if op.command == "cyclic":
                        call = _cyclic_call(logchar.cdvf, logchar.series.LaurentSeries,
                                            op.matrix)
                    else:
                        argv = [os.path.join(f"{workload}-{seed}", a) if a.endswith(".json")
                                else a for a in op.argv]
                        path = next(a for a in argv if a.endswith(".json"))
                        if path not in written:
                            written.add(path)
                            os.makedirs(os.path.dirname(path), exist_ok=True)
                            with open(path, "w", encoding="utf-8") as fh:
                                json.dump(op.doc, fh, sort_keys=True)
                        call = (lambda a: lambda: logchar.cli.main(a))(argv)
                    records.append({"op": f"{workload}/{seed}/{op.id}", **_run_op(call)})
        os.chdir(root)
    json.dump(records, sys.stdout)


def _records(root, seeds):
    proc = subprocess.run([sys.executable, "-B", os.path.abspath(__file__), "--dump", root,
                           seeds], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: corpus run failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def json_paths(old, new):
    """The top-level keys of two JSON object texts whose values differ, a
    list value by index; None when either text is no JSON object."""
    try:
        old, new = json.loads(old), json.loads(new)
    except ValueError:
        return None
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return None
    paths = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if isinstance(a, list) and isinstance(b, list):
            paths += [f"{key}[{i}]" for i in range(max(len(a), len(b)))
                      if a[i:i + 1] != b[i:i + 1]]
        elif a != b:
            paths.append(key)
    return paths


def compare(old_root, new_root, seeds=DEFAULT_SEEDS):
    old, new = _records(old_root, seeds), _records(new_root, seeds)
    if [r["op"] for r in old] != [r["op"] for r in new]:
        print(f"op lists differ: {len(old)} vs {len(new)} ops")
        return 1
    differing = 0
    for a, b in zip(old, new):
        fields = [field for field in FIELDS if a[field] != b[field]]
        differing += bool(fields)
        for field in fields:
            print(f"{a['op']}: {field} differs\n  old: {a[field]!r}\n  new: {b[field]!r}")
        paths = json_paths(a["stdout"], b["stdout"]) if "stdout" in fields else None
        if paths is not None:
            print(f"{a['op']}: json differs at {', '.join(paths)}")
    if differing:
        print(f"{differing} of {len(old)} ops differ")
        return 1
    print(f"{len(old)} ops identical (exit code, stdout, stderr, returned operator)")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--dump":
        dump(argv[1], _seeds(argv[2]))
        return 0
    seeds = DEFAULT_SEEDS
    if len(argv) == 4 and argv[0] == "--seeds":
        seeds, argv = argv[1], argv[2:]
    if len(argv) != 2 or _seeds(seeds) is None:
        print(USAGE, file=sys.stderr)
        return 2
    return compare(*argv, seeds)


if __name__ == "__main__":
    sys.exit(main())
