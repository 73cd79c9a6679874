"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

They check that the corpus is a function of the seed, that the checker
rejects a tampered answer, that tracing changes no output byte, and that
traced counts repeat exactly.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True

import check  # noqa: E402
import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def _runner(workload, seed, keep=None):
    r = run.Runner(ROOT, workload, seed)
    r.setup()
    if keep is not None:
        pairs = [(op, call) for op, call in zip(r.ops, r.calls) if keep(op.id)]
        r.ops, r.calls = [p[0] for p in pairs], [p[1] for p in pairs]
    return r


def _ladder_subset(op_id):
    # cheap rungs plus one op that always exceeds the budget
    return op_id.startswith(("ladder/r3/", "ladder/r4/")) or op_id == "ladder/r6/clean"


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in corpus.WORKLOADS:
            a = corpus.corpus_bytes(corpus.build(w, 7))
            self.assertEqual(a, corpus.corpus_bytes(corpus.build(w, 7)), w)
            self.assertNotEqual(a, corpus.corpus_bytes(corpus.build(w, 8)), w)

    def test_op_ids_do_not_depend_on_the_seed(self):
        for w in corpus.WORKLOADS:
            self.assertEqual([op.id for op in corpus.build(w, 1)],
                             [op.id for op in corpus.build(w, 2)])

    def test_known_failures_name_real_ops(self):
        ids = {op.id for w in corpus.WORKLOADS for op in corpus.build(w, 1)}
        for op_id, _ in check.load_known_failures():
            self.assertIn(op_id, ids)

    def test_profile_reference_on_hand_examples(self):
        # max(2a + b, a + 2b) has a kink on the diagonal; a chain has none
        self.assertFalse(reference.profile_linear_2d([([(-2, -1), (-1, -2)], 1)]))
        self.assertTrue(reference.profile_linear_2d([([(-2, -3)], 1), ([(-1, -1)], 2)]))
        # two crossing linear constituents: top is max (not linear)
        self.assertFalse(reference.profile_linear_2d([([(-2, -1)], 1), ([(-1, -2)], 1)]))


class CheckerTest(unittest.TestCase):
    def test_tampered_answers_are_flagged(self):
        r = _runner("doc-mix", 3)
        wall, outcomes = r.run_pass()
        self.assertTrue(all(o["label"] == "ok" for o in outcomes))
        tampered = 0
        for op, o in zip(r.ops, outcomes):
            if o["status"] != 0:
                continue
            payload = json.loads(o["stdout"])
            for key in ("chi", "good", "rows", "components", "results"):
                if key in payload:
                    payload[key] = _tamper(payload[key])
                    break
            else:
                continue
            bad = dict(o, stdout=json.dumps(payload))
            self.assertIsNotNone(check.check_op(op, bad), op.id)
            tampered += 1
        self.assertGreater(tampered, 100)

    def test_wrong_exit_code_is_flagged(self):
        op = next(op for op in corpus.build("doc-mix", 1) if op.expect.get("exit") == 4)
        self.assertIsNotNone(check.check_op(op, {"status": 0, "stdout": "{}"}))

    def test_kato_ep_kd_disagreement_is_flagged(self):
        ops = [op for op in corpus.build("doc-mix", 1)
               if op.id.startswith("mix/readme-surface/chi-")]
        outs = [{"status": 0, "stdout": json.dumps({"chi": chi, "clean": True})}
                for chi in (1, 1, 2)]
        self.assertEqual(len(check.cross_check(ops, outs)), 3)


def _tamper(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list) and value:
        if isinstance(value[0], dict) and "clean" in value[0]:
            return [dict(value[0], clean=not value[0]["clean"])] + value[1:]
        if isinstance(value[0], dict) and "rank" in value[0]:
            return [dict(value[0], rank=value[0]["rank"] + 1)] + value[1:]
        return value[:-1]
    return value


class TracerTest(unittest.TestCase):
    def test_tracing_changes_no_output_byte(self):
        r = _runner("doc-mix", 5)
        _, plain = r.run_pass()
        _, _, traced = run.traced_pass(r)
        self.assertEqual([o["stdout"] for o in plain], [o["stdout"] for o in traced])
        self.assertEqual([o["status"] for o in plain], [o["status"] for o in traced])

    def test_tracer_is_removed_afterwards(self):
        r = _runner("doc-mix", 5, keep=lambda i: i.startswith("mix/chain00/"))
        run.traced_pass(r)
        tropical = sys.modules["logchar.tropical"]
        fme = sys.modules["logchar.fme"]
        self.assertIs(tropical.feasible_point, fme.feasible_point)
        self.assertFalse(hasattr(fme.feasible_point, "__wrapped__"))
        self.assertFalse(hasattr(r.cli.clean_at_point, "__wrapped__"))

    def test_counts_repeat_exactly(self):
        cases = (("surface-ladder", _ladder_subset), ("operators-oracle", None),
                 ("doc-mix", None))
        for workload, keep in cases:
            r = _runner(workload, 11, keep)
            first = run.layer_metrics(run.traced_pass(r)[0])
            second = run.layer_metrics(run.traced_pass(r)[0])
            for name in ("fme.calls", "fme.rows_in.max", "euler.oracle.cells",
                         "euler.oracle.calls", "laurent.calls", "field.scalar_ops",
                         "series.mul.calls", "tropical.sorted_profile.calls",
                         "modeldoc.calls"):
                self.assertEqual(first[name], second[name], (workload, name))
            if workload == "surface-ladder":
                self.assertGreater(first["fme.calls"], 0)
            if workload == "operators-oracle":
                self.assertEqual(first["fme.calls"], 0)
                self.assertGreater(first["euler.oracle.cells"], 0)

    def test_wrapping_reaches_importing_modules(self):
        r = _runner("surface-ladder", 2, keep=lambda i: i == "ladder/r3/clean")
        tracer, _, _ = run.traced_pass(r)
        self.assertGreater(tracer.calls("fme.feasible_point"), 0)
        self.assertEqual(tracer.calls("goodmodel.clean_at_point"), 1)


if __name__ == "__main__":
    unittest.main()
