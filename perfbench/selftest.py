"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that a corrupted output counts as failed on every workload, that the
request lists depend on the seed as documented, that memo state leaking
between requests is caught, that tracing leaves the program's output and
bindings unchanged, and that BENCHMARK.json names the metrics the benchmark
prints.
"""
from __future__ import annotations

import json
import tempfile
import time
import unittest
from pathlib import Path

import harness
import run
import speed
import tracer as tracing
from workloads import DEFAULT_SEED, WORKLOADS

SEED = DEFAULT_SEED + 4  # not the digest seed, so the semantic checks decide


class Fixture:
    cli = harness.load_permdom(run.ROOT)
    modules = harness.permdom_modules()


def execute_all(argvs) -> list[harness.Outcome]:
    isolation = harness.Isolation(Fixture.modules)
    outcomes = []
    for argv in argvs:
        isolation.reset()
        outcomes.append(harness.execute(Fixture.cli, argv, limit=60.0))
    return outcomes


def judged(workload: str, outcomes, seed: int = SEED) -> run.Run:
    r = run.Run(WORKLOADS[workload], seed, Fixture.cli, Fixture.modules)
    r.judge(outcomes, {})
    return r


def corrupt(outcome: harness.Outcome, edit) -> harness.Outcome:
    payload = json.loads(outcome.stdout)
    edit(payload)
    return harness.Outcome(outcome.argv, outcome.latency, outcome.rc,
                           json.dumps(payload, indent=2) + "\n")


def bump_digit(text: str) -> str:
    """Change the last digit of a decimal string."""
    return text[:-1] + str((int(text[-1]) + 1) % 10)


class CorruptedOutputsFail(unittest.TestCase):
    def assert_only_corruption_fails(self, workload, outcomes, index, edit):
        self.assertEqual(judged(workload, outcomes).failed, 0)
        bad = list(outcomes)
        bad[index] = corrupt(outcomes[index], edit)
        r = judged(workload, bad)
        self.assertGreaterEqual(r.failed, 1, r.failures)
        self.assertEqual(r.attempted, len(outcomes))

    def test_sweep_tally_off_by_one(self):
        outcomes = execute_all(WORKLOADS["sweep"].requests(SEED))

        def edit(p):
            p["g"]["2"] = str(int(p["g"]["2"]) + 1)
        self.assert_only_corruption_fails("sweep", outcomes, 0, edit)

    def test_solve_witness_that_does_not_dominate(self):
        argvs = [a for a in WORKLOADS["solve"].requests(SEED) if a[0] == "analyze"][:5]
        outcomes = execute_all(argvs)
        index = next(i for i, o in enumerate(outcomes)
                     if json.loads(o.stdout)["gamma"] >= 2)

        def edit(p):  # same size, but one vertex short of dominating
            p["witness"] = [1] * p["gamma"]
        self.assert_only_corruption_fails("solve", outcomes, index, edit)

    def test_count_changed_digit(self):
        argvs = [a for a in WORKLOADS["count"].requests(SEED)
                 if a[1] in ("pair", "efficient", "g1", "st", "lift")]
        outcomes = execute_all(argvs)
        for i, o in enumerate(outcomes):
            with self.subTest(argv=" ".join(o.argv[:2])):
                def edit(p):
                    if "pair" in p:
                        p["pair"]["adjacent"] = bump_digit(p["pair"]["adjacent"])
                    elif "efficient" in p:
                        (key,) = p["efficient"]
                        p["efficient"][key] = bump_digit(p["efficient"][key])
                    elif "g1" in p:
                        p["g1"]["100"] = bump_digit(p["g1"]["100"])
                    elif "st" in p:
                        p["st"]["20,3"] = bump_digit(p["st"]["20,3"])
                    else:
                        p["k0_value"] = bump_digit(p["k0_value"])
                self.assert_only_corruption_fails("count", outcomes, i, edit)

    def test_count_f1_changed_digit(self):
        argv = ("count", "f1", "--n", "60")
        outcomes = execute_all([argv])

        def edit(p):
            p["f1"]["7"] = bump_digit(p["f1"]["7"])
        self.assert_only_corruption_fails("count", outcomes, 0, edit)

    def test_verify_check_reported_as_fail(self):
        outcomes = execute_all(WORKLOADS["verify"].requests(SEED))

        def edit(p):
            p["checks"][3]["status"] = "fail"
        self.assert_only_corruption_fails("verify", outcomes, 0, edit)

    def test_digest_catches_reformatted_output_at_default_seed(self):
        outcomes = execute_all(WORKLOADS["sweep"].requests(DEFAULT_SEED))
        self.assertEqual(judged("sweep", outcomes, DEFAULT_SEED).failed, 0)
        o = outcomes[0]
        compact = harness.Outcome(o.argv, o.latency, o.rc,
                                  json.dumps(json.loads(o.stdout)) + "\n")
        self.assertEqual(judged("sweep", [compact], SEED).failed, 0)
        self.assertEqual(judged("sweep", [compact], DEFAULT_SEED).failed, 1)

    def test_error_exit_and_crash_fail(self):
        argv = WORKLOADS["sweep"].requests(SEED)[0]
        for o in (harness.Outcome(argv, 0.1, rc=1),
                  harness.Outcome(argv, 0.1, error="ValueError: boom")):
            self.assertEqual(judged("sweep", [o]).failed, 1)


class RequestLists(unittest.TestCase):
    def test_same_seed_same_list(self):
        for w in WORKLOADS.values():
            self.assertEqual(w.requests(SEED), w.requests(SEED), w.name)

    def test_other_seed_changes_solve_and_count(self):
        for name in ("solve", "count"):
            w = WORKLOADS[name]
            self.assertNotEqual(w.requests(SEED), w.requests(SEED + 1), name)


class Isolation(unittest.TestCase):
    def test_memo_cleared_between_requests(self):
        import permdom.counting as counting

        isolation = harness.Isolation(Fixture.modules)
        counting.f1(40, 3)
        self.assertGreater(counting.f1.cache_info().currsize, 0)
        self.assertIsNone(isolation.reset())
        self.assertEqual(counting.f1.cache_info().currsize, 0)

    def test_leaked_module_state_is_reported(self):
        import permdom.counting as counting

        counting.extra_memo = {}
        try:
            isolation = harness.Isolation(Fixture.modules)
            counting.extra_memo[(5, 1)] = 1
            self.assertIn("permdom.counting.extra_memo", isolation.reset() or "")
        finally:
            del counting.extra_memo


class Tracing(unittest.TestCase):
    def bindings(self):
        return {(m.__name__, k): v for m in Fixture.modules for k, v in vars(m).items()}

    def test_traced_output_identical_and_bindings_restored(self):
        import permdom.oracle as oracle

        argvs = [("count", "f1", "--n", "30"), ("analyze", "3,1,4,2,6,5")]
        plain = [o.stdout for o in execute_all(argvs)]
        before = self.bindings()
        isolation = harness.Isolation(Fixture.modules)
        t = tracing.Tracer(Fixture.modules, isolation.caches)
        t.install()
        try:
            self.assertIsNot(oracle.build_graph, before[("permdom.oracle", "build_graph")])
            traced = [o.stdout for o in execute_all(argvs)]
        finally:
            t.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual(before, self.bindings())
        # f1 recursion records no spans: one span per t = 0..30 from the CLI.
        self.assertEqual(t.stats["counting.f1"][0], 31)
        self.assertEqual(t.stats["graph.build_graph"][0], 1)

    def test_removed_function_reports_null(self):
        isolation = harness.Isolation(Fixture.modules)
        t = tracing.Tracer(Fixture.modules, isolation.caches)
        for span in ("graph.build_graph", "oracle.iter_permutations"):
            del t.targets[span]
        metrics = t.pass_metrics()
        self.assertIsNone(metrics["graph.build_graph.calls"])
        self.assertIsNone(metrics["oracle.perms_visited"])
        self.assertEqual(metrics["graph.is_connected.self_s"], 0.0)


class Speed(unittest.TestCase):
    def test_normalise_uses_the_samples_near_the_interval(self):
        s = speed.Speedometer()
        s.stamps = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0, 14.0]
        s.durations = [2 * speed.KERNEL_REF_S] * 4 + [speed.KERNEL_REF_S] * 5
        self.assertAlmostEqual(s.normalise(1.0, 10.5, 13.5), 1.0)
        # Too few samples within the window: the five around the middle.
        self.assertAlmostEqual(s.normalise(1.0, 1.0, 2.0), 0.5)

    def test_clock_excludes_sampling_time(self):
        s = speed.Speedometer()
        before, started = s.clock(), time.perf_counter()
        for _ in range(20):
            s.sample()
        self.assertLess(s.clock() - before, 0.2 * (time.perf_counter() - started))


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({(m["name"], m["unit"]) for m in bench["end_to_end"]},
                         set(run.END_TO_END_UNITS.items()))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(tracing.per_layer_units().items()))
        self.assertEqual({w["name"]: w["why"] for w in bench["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})

    def test_checkout_without_program_is_refused(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT / "perfbench") as empty:
            with self.assertRaises(RuntimeError):
                harness.load_permdom(Path(empty))


if __name__ == "__main__":
    unittest.main()
