"""riscreen benchmark: fixed-work lambda sweeps and cold CLI runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a riscreen checkout; the package is imported from its
``src`` directory. Every run is one closed loop with one caller and does a
fixed amount of work: whole rounds over a seeded list of units, the number
of rounds set from ``--seconds`` by a rate calibrated on a 2-core machine.
No run is cut by a clock. Unit times are scaled to nominal machine speed
by speed probes run between units (README.md, "Times at nominal speed").
After the timed loop every output is checked against ``reference.py`` or
against properties of the model. The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
the end-to-end metrics (``--trace 0``) or the per-layer metrics from the
span tracer (``--trace 1``).

Workloads (see README.md for why each exists):

* ``regimes-closed-form``: a unit is the regimes sweeps baseline, quota and
  multitask over one lambda grid at one parameter point.
* ``regimes-nested``: a unit is the variants sweep (commitment_solve and
  mixed_equilibria at every lambda) over one grid at one point.
* ``cli-cold``: a unit is one fresh ``python -m riscreen`` process, cycling
  through eight commands. The last, ``variants --which heterogeneous
  --lambda 0.001``, fails on every run (exp(1/lam) overflows) and is
  counted in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

#: rounds per second of --seconds; a round is one pass over the unit list
ROUNDS_PER_SECOND = {"regimes-closed-form": 2.5, "regimes-nested": 0.37, "cli-cold": 0.44}
#: speed probe for in-process work: reference solves over a fixed lambda ladder
PROBE_POINT = inputs.Point(0.8, 0.6, 0.07)
PROBE_LAMBDAS = tuple(0.05 * 1.15**i for i in range(24))
#: speed probe for process work: a fresh interpreter importing numpy and the
#: stdlib modules the CLI uses (most of what a cold CLI run does besides riscreen)
PROBE_ARGV = (sys.executable, "-c", "import argparse, csv, dataclasses, json, numpy")
#: median probe wall times on the 2-core machine of the README's numbers
PROBE_NOMINAL_S = {"in-process": 0.0029, "process": 0.19}
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def import_cli():
    """Import riscreen.cli from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import riscreen.cli

    if not Path(riscreen.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"riscreen imported from {riscreen.cli.__file__}, not {SRC}")
    return riscreen.cli


def regimes_validator():
    """Validator for the JSON schema riscreen ships for regimes sweeps."""
    import jsonschema

    schema = json.loads((SRC / "riscreen" / "schemas" / "regimes.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def cpu_speed() -> float:
    """Nominal over measured time of a fixed pure-Python kernel (1.0 = nominal speed)."""
    t = perf_counter()
    for lam in PROBE_LAMBDAS:
        reference.profile_signal(PROBE_POINT, (reference.HI, reference.LO), lam)
    return PROBE_NOMINAL_S["in-process"] / (perf_counter() - t)


def process_speed() -> float:
    """Nominal over measured wall time of the process probe (1.0 = nominal speed)."""
    t = perf_counter()
    run_child(list(PROBE_ARGV))
    return PROBE_NOMINAL_S["process"] / (perf_counter() - t)


def scaled(times: list, probes: list) -> list:
    """Each time at nominal speed: times the mean speed of the probes just before and after it."""
    return [t * (a + b) / 2.0 for t, a, b in zip(times, probes, probes[1:])]


# ---------------------------------------------------------------------------
# in-process sweeps
# ---------------------------------------------------------------------------

class SweepWorkload:
    """Units are regimes sweeps run through riscreen.cli.main in this process."""

    speed_probe = staticmethod(cpu_speed)

    def __init__(self, name: str, analyses: tuple):
        self.name = name
        self.analyses = analyses

    def setup(self, seed: int, seconds: int):
        self.cli = import_cli()
        self.seed = seed
        self.points = inputs.points(seed, self.name)
        self.units = self.points * rounds_for(self.name, seconds)
        self.run_unit(self.points[0])  # warm-up

    def run_unit(self, point) -> tuple:
        results = []
        for analysis in self.analyses:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(inputs.sweep_argv(point, analysis))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a failed unit is counted, not fatal
                traceback.print_exc()
                rc = 1
            results.append((rc, buf.getvalue()))
        return tuple(results)

    def check(self, first: dict) -> list:
        """Check the first output of every point; later rounds were compared to it."""
        validator = regimes_validator()
        errors = []
        for k, point in enumerate(self.points):
            if k not in first:
                continue  # the unit failed and is counted in `failed`
            docs = {}
            for analysis, (_, text) in zip(self.analyses, first[k]):
                doc, problems = checks.parse_sweep(text, validator)
                errors += [f"point {k} {analysis}: {p}" for p in problems]
                docs[analysis] = doc
            if any(doc is None for doc in docs.values()):
                continue
            errors += self.check_point(k, point, {a: d["rows"] for a, d in docs.items()})
        return errors

    def check_point(self, k: int, point, rows: dict) -> list:
        from riscreen import baseline_game as bg, quota_policy as qp, variants as va

        steps = inputs.GRID_STEPS
        where = f"point {k}"
        errors = []
        if "baseline" in rows:
            errors += checks.regime_rows(point, rows["baseline"], steps, False, f"{where} baseline")
        if "quota" in rows:
            errors += checks.regime_rows(point, rows["quota"], steps, True, f"{where} quota")
            errors += checks.quota_against_baseline(rows["quota"], rows["baseline"], f"{where} quota")

            def solve(p, lam, profile):
                sol = qp.find_multiplier(bg.GameParams(p.mu_hi, p.mu_lo, p.cost, lam), profile)
                return sol.nu, sol.signal.as_tuple(), sol.signal.pi_bar

            errors += checks.quota_multipliers(point, [r["lam"] for r in rows["quota"]], solve, f"{where} quota")
        if "multitask" in rows:
            errors += checks.multitask_rows(point, inputs.tasks(point), rows["multitask"], steps,
                                            f"{where} multitask")
        if "variants" in rows:
            def mixed(p, lam):
                found = va.mixed_equilibria(bg.GameParams(p.mu_hi, p.mu_lo, p.cost, lam))
                return [(e.profile.sigma_m, e.profile.sigma_w) for e in found]

            errors += checks.variants_rows(point, rows["variants"], steps, mixed, f"{where} variants")
        return errors

    def traced_runner(self, tracer):
        """run_unit with every unit inside a root span and riscreen patched."""
        tracer.install()

        def run_unit(point):
            with tracer.unit():
                return self.run_unit(point)

        return run_unit

    def trace_totals(self, tracer) -> dict:
        tracer.uninstall()
        tracer.dump(OUT / f"trace-{self.name}-seed{self.seed}.json")
        return tracer.totals()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# cold CLI processes
# ---------------------------------------------------------------------------

class ColdCliWorkload:
    """Units are fresh ``python -m riscreen`` processes, started one at a time."""

    name = "cli-cold"
    speed_probe = staticmethod(process_speed)

    def setup(self, seed: int, seconds: int):
        self.seed = seed
        self.commands = inputs.cli_commands(seed)
        self.point, self.lam = inputs.cli_point(seed)
        self.units = self.commands * rounds_for(self.name, seconds)
        self.span_files = []
        run_child([sys.executable, "-m", "riscreen", *self.commands[0][1]])  # warm-up

    def run_unit(self, command) -> tuple:
        return self._run(command, [sys.executable, "-m", "riscreen"])

    def traced_runner(self, tracer):
        """Each unit runs through cli_child.py, which traces inside the child."""

        def run_unit(command):
            span_file = OUT / f"trace-{self.name}-seed{self.seed}-unit{len(self.span_files)}.json"
            self.span_files.append(span_file)
            return self._run(command, [sys.executable, str(BENCH / "cli_child.py"), str(span_file)])

        return run_unit

    def trace_totals(self, tracer) -> dict:
        totals = {}
        for path in self.span_files:
            if path.exists():
                tracing.merge_totals(totals, tracing.Tracer.load(path).totals())
        return totals

    def _run(self, command, prefix: list) -> tuple:
        try:
            proc = run_child([*prefix, *command[1]])
        except subprocess.TimeoutExpired:
            return ((1, ""),)
        return ((proc.returncode, proc.stdout),)

    def check(self, first: dict) -> list:
        point, lam = self.point, self.lam
        out = {name: first[k][0][1] for k, (name, _) in enumerate(self.commands) if k in first}

        def regimes(text):
            doc, problems = checks.parse_sweep(text, regimes_validator())
            if doc is None:
                return problems
            return problems + checks.regime_rows(point, doc["rows"], inputs.SHORT_GRID_STEPS, False, "regimes")

        by_name = {
            "reproduce": checks.reproduce_output,
            "signal": lambda text: checks.signal_output(point, lam, text),
            "equilibria": lambda text: checks.equilibria_output(point, lam, text),
            "quota": lambda text: checks.quota_output(point, lam, text),
            "regimes": regimes,
            "continuous": lambda text: checks.continuous_output(text, int(inputs.CONTINUOUS[-1])),
            "heterogeneous": lambda text: checks.heterogeneous_output(point, lam, text, out.get("equilibria")),
            "heterogeneous-tiny-lambda": lambda text: checks.heterogeneous_output(point, inputs.TINY_LAMBDA, text, None),
        }
        return [problem for name, text in out.items() for problem in by_name[name](text)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {
    "regimes-closed-form": lambda: SweepWorkload("regimes-closed-form", ("baseline", "quota", "multitask")),
    "regimes-nested": lambda: SweepWorkload("regimes-nested", ("variants",)),
    "cli-cold": ColdCliWorkload,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup(args) -> float:
    """Median wall time, at nominal speed, of fresh processes that do this
    workload's set-up and exit."""
    samples, probes = [], [process_speed()]
    for _ in range(SETUP_SAMPLES):
        t = perf_counter()
        proc = run_child([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                          "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
                          "--setup-only"])
        samples.append(perf_counter() - t)
        probes.append(process_speed())
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
    return statistics.median(scaled(samples, probes))


_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$")


def measure_startup() -> dict:
    """Median import cost of riscreen (numpy included) and numpy, and a bare interpreter."""
    pkg, numpy, bare = [], [], []
    for _ in range(STARTUP_SAMPLES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import riscreen.cli"])
        pkg_us = numpy_us = 0
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            cumulative, depth, module = int(m.group(1)), len(m.group(2)), m.group(3)
            if depth == 1 and (module == "riscreen" or module.startswith("riscreen.")):
                pkg_us += cumulative
            if module == "numpy":
                numpy_us = cumulative
        pkg.append(pkg_us / 1e3)
        numpy.append(numpy_us / 1e3)
        t = perf_counter()
        run_child([sys.executable, "-c", "pass"])
        bare.append((perf_counter() - t) * 1e3)
    return {
        "import.riscreen_ms": statistics.median(pkg),
        "import.numpy_ms": statistics.median(numpy),
        "python.start_ms": statistics.median(bare),
    }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    if not args.trace:
        setup_s = measure_setup(args)
    workload.setup(args.seed, args.seconds)
    round_size = len(workload.units) // rounds_for(args.workload, args.seconds)
    units, run_unit = workload.units, workload.run_unit
    if args.trace:
        # rounds repeat the same units, so one traced round gives the per-unit counts
        units = units[:round_size]
        tracer = tracing.Tracer()
        run_unit = workload.traced_runner(tracer)

    speed = workload.speed_probe
    first, mismatched, failed, unit_s, probes = {}, [], 0, [], [speed()]
    for i, unit in enumerate(units):
        t = perf_counter()
        result = run_unit(unit)
        unit_s.append(perf_counter() - t)
        probes.append(speed())
        k = i % round_size
        if any(rc != 0 for rc, _ in result):
            failed += 1
        elif k not in first:
            first[k] = result
        elif result != first[k]:
            mismatched.append(i)
    rss_mb = workload.peak_rss_mb()
    attempted = len(units)
    print(f"unscaled: {attempted} units in {sum(unit_s):.4f} s, {attempted / sum(unit_s):.4f} units/s, "
          f"unit p50 {statistics.median(unit_s) * 1e3:.4f} ms; probe speed p50 {statistics.median(probes):.4f}")

    if args.trace:
        totals = workload.trace_totals(tracer)
        values = {**tracing.per_unit_metrics(totals, attempted), **measure_startup()}
        metrics = {name: (values[name], unit) for name, unit in tracing.layer_metric_units().items()}
    else:
        scaled_s = scaled(unit_s, probes)
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (attempted / sum(scaled_s), "units/s"),
            "unit_ms_p50": (statistics.median(scaled_s) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    errors = [f"unit {i}: output differs from the same unit's first round" for i in mismatched]
    errors += workload.check(first)
    for problem in errors[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "riscreen" / "__init__.py").is_file():
        print(f"error: no riscreen package under {SRC}; run from a riscreen checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload]().setup(args.seed, args.seconds)
        return 0
    OUT.mkdir(exist_ok=True)
    result = run(args)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
