"""Self-test of the benchmark itself.

    python3 bench/selftest.py        # from the root of a riscreen checkout

Checks the reference solver against the paper's Table 1, runs every
workload's output checks on a few live units, feeds the checks deliberately
wrong outputs and asserts they are caught, and asserts that two traced runs
report identical ``calls`` counts and exactly the metrics BENCHMARK.json
names.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import run as bench  # noqa: E402

SEED = 0


def sweep_units(workload, ks: tuple) -> dict:
    workload.setup(SEED, 1)
    return {k: workload.run_unit(workload.points[k]) for k in ks}


def rows_of(result, i: int = 0) -> list:
    return json.loads(result[i][1])["rows"]


class ReferenceSolver(unittest.TestCase):
    def test_table1_signal(self):
        pi, pi_bar = ref.profile_signal(inputs.Point(0.8, 0.6, 0.07), (ref.HI, ref.LO), 0.3)
        for got, want in zip(pi, (0.0940, 0.7441, 0.9879)):
            self.assertAlmostEqual(got, want, delta=5e-5)
        self.assertAlmostEqual(pi_bar, pi[1], delta=1e-12)

    def test_interior_optimum_next_to_a_corner(self):
        prior, adv = (1e-13, 1.0 - 1e-13), (50.0, -50.0)
        cond, q_bar = ref.solve_logit(prior, adv, 1.0)
        self.assertLess(abs(sum(p * q for p, q in zip(prior, cond)) - q_bar), 1e-20)
        self.assertAlmostEqual(q_bar / 1e-13, 1.0, delta=1e-6)

    def test_cutpoints_sit_on_their_bounds(self):
        point = inputs.points(SEED, "selftest")[3]
        low, star, high, breve = inputs.cutpoints(point)
        c = point.c
        for lam, profile, bound in ((star, (ref.HI, ref.HI), c), (low, (ref.HI, ref.LO), c * point.mu_lo / point.mu_hi)):
            pi, _ = ref.profile_signal(point, profile, lam)
            self.assertAlmostEqual(pi[2] - pi[1], bound, delta=1e-9)
        pi, _ = ref.profile_signal(point, (ref.HI, ref.LO), breve * 1.001)
        self.assertEqual(pi, (1.0, 1.0, 1.0))


class ClosedFormChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = bench.WORKLOADS["regimes-closed-form"]()
        cls.first = sweep_units(cls.wl, (0, 3))
        cls.point = cls.wl.points[3]

    def test_live_outputs_pass(self):
        self.assertEqual(self.wl.check(self.first), [])

    def test_dropped_equilibrium_is_caught(self):
        rows = rows_of(self.first[3])
        row = next(r for r in rows if r["eq_hi_lo"] == 1)
        row["eq_hi_lo"] = 0
        errors = checks.regime_rows(self.point, rows, inputs.GRID_STEPS, False, "mutant")
        self.assertTrue(any("missing" in e for e in errors), errors)
        self.assertTrue(any("without its mirror" in e for e in errors), errors)

    def test_discrimination_under_quota_is_caught(self):
        base, quota = rows_of(self.first[3], 0), rows_of(self.first[3], 1)
        for q, b in zip(quota, base):
            q["eq_hi_lo"], q["eq_lo_hi"] = b["eq_hi_lo"], b["eq_lo_hi"]
        self.assertTrue(checks.regime_rows(self.point, quota, inputs.GRID_STEPS, True, "mutant"))
        self.assertTrue(checks.quota_against_baseline(quota, base, "mutant"))

    def test_mirrored_quota_signal_is_caught(self):
        def mirrored(point, lam, profile):
            prior = ref.state_probs(ref.mu_of(point, profile[0]), ref.mu_of(point, profile[1]))
            nu = 0.1
            cond, q_bar = ref.solve_logit(prior, [d - nu for d in ref.DIFFS], lam)
            return nu, tuple(1.0 - q for q in reversed(cond)), 1.0 - q_bar

        self.assertTrue(checks.quota_multipliers(self.point, [0.3], mirrored, "mutant"))

    def test_wrong_multitask_count_is_caught(self):
        rows = rows_of(self.first[3], 2)
        rows[0]["n_equilibria"] += 1
        self.assertTrue(checks.multitask_rows(self.point, inputs.tasks(self.point), rows, inputs.GRID_STEPS, "mutant"))

    def test_wrong_threshold_is_caught(self):
        rows = rows_of(self.first[3])
        for r in rows:
            r["lambda_star"] *= 1.01
        self.assertTrue(checks.regime_rows(self.point, rows, inputs.GRID_STEPS, False, "mutant"))


class NestedChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = bench.WORKLOADS["regimes-nested"]()
        cls.first = sweep_units(cls.wl, (0, 5))
        cls.point = cls.wl.points[5]

    def test_live_outputs_pass(self):
        self.assertEqual(self.wl.check(self.first), [])

    def test_short_commitment_profit_is_caught(self):
        rows = rows_of(self.first[5])
        for r in rows:
            r["commitment_profit"] -= 1e-3
        errors = checks.variants_rows(self.point, rows, inputs.GRID_STEPS, lambda p, lam: [], "mutant")
        self.assertTrue(any("below equilibrium" in e for e in errors), errors)

    def test_off_indifference_mixed_equilibrium_is_caught(self):
        rows = rows_of(self.first[5])
        row = next(r for r in rows if r["n_mixed"] > 0)
        from riscreen import baseline_game as bg, variants as va

        game = bg.GameParams(self.point.mu_hi, self.point.mu_lo, self.point.cost, row["lam"])
        eq = va.mixed_equilibria(game)[0].profile
        good = checks.mixed_indifference(self.point, row["lam"], eq.sigma_m, eq.sigma_w, "live")
        self.assertEqual(good, [])
        bad = checks.mixed_indifference(self.point, row["lam"], eq.sigma_m * 0.9, eq.sigma_w * 0.9, "mutant")
        self.assertTrue(any("mixes but gains" in e for e in bad), bad)


class ColdCliChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = bench.WORKLOADS["cli-cold"]()
        cls.wl.setup(SEED, 1)
        cls.results = [cls.wl.run_unit(cmd) for cmd in cls.wl.commands]
        cls.out = {name: r[0][1] for (name, _), r in zip(cls.wl.commands, cls.results)}

    def test_only_the_tiny_lambda_command_fails(self):
        failed = [name for (name, _), r in zip(self.wl.commands, self.results) if r[0][0] != 0]
        self.assertEqual(failed, ["heterogeneous-tiny-lambda"])

    def test_live_outputs_pass(self):
        first = {k: r for k, r in enumerate(self.results) if r[0][0] == 0}
        self.assertEqual(self.wl.check(first), [])

    def test_mirrored_signal_is_caught(self):
        pi, pi_bar = ref.profile_signal(self.wl.point, (ref.HI, ref.LO), self.wl.lam)
        mirror = (1.0 - pi[2], 1.0 - pi[1], 1.0 - pi[0])
        text = re.sub(r"^pi\(d\).*$", "pi(d)  " + "  ".join(f"{int(q * 100) / 100:.2f}" for q in mirror[::-1]),
                      self.out["signal"], flags=re.M)
        text = re.sub(r"pi_bar=\S+", f"pi_bar={1.0 - pi_bar:.4f}", text)
        errors = checks.signal_output(self.wl.point, self.wl.lam, text)
        self.assertTrue(any("pi(d)" in e for e in errors), errors)
        self.assertTrue(any("pi_bar" in e for e in errors), errors)

    def test_dropped_equilibrium_is_caught(self):
        text = "\n".join(line for line in self.out["equilibria"].splitlines() if not line.startswith("(lo,hi)"))
        self.assertTrue(checks.equilibria_output(self.wl.point, self.wl.lam, text))
        het = "\n".join(line for line in self.out["heterogeneous"].splitlines() if not line.startswith("(hi,lo)"))
        self.assertTrue(checks.heterogeneous_output(self.wl.point, self.wl.lam, het, self.out["equilibria"]))

    def test_broken_quota_and_reproduce_are_caught(self):
        self.assertTrue(checks.quota_output(self.wl.point, self.wl.lam, self.out["quota"].replace("pi_bar=0.5000", "pi_bar=0.5100", 1)))
        self.assertTrue(checks.reproduce_output(self.out["reproduce"].replace('"passed": true', '"passed": false', 1)))
        self.assertTrue(checks.continuous_output(self.out["continuous"].replace("asymmetric=0", "asymmetric=1", 1), 12))


class TracedRuns(unittest.TestCase):
    def traced(self, workload: str) -> dict:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
             "--seconds", "1", "--trace", "1"],
            cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_calls_repeat_exactly_and_match_the_spec(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        for workload in bench.WORKLOADS:
            a, b = self.traced(workload), self.traced(workload)
            self.assertTrue(a["correct"] and b["correct"], workload)
            self.assertEqual(set(a["metrics"]), names, workload)
            calls_a = {k: v["value"] for k, v in a["metrics"].items() if k.endswith(".calls")}
            calls_b = {k: v["value"] for k, v in b["metrics"].items() if k.endswith(".calls")}
            self.assertEqual(calls_a, calls_b, workload)
            self.assertEqual((a["attempted"], a["failed"]), (b["attempted"], b["failed"]), workload)


if __name__ == "__main__":
    unittest.main()
