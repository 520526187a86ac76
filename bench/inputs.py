"""Seeded inputs: parameter points, lambda grids and the cold-CLI command list.

Every seed draws the same design: seven anchor points, three with
mu_lo < 1/2 and four above it, all with mu_hi + mu_lo > 1 and a cost inside
the regular region (Assumption 1: c < mu_hi (1 - mu_hi) / (A + B)). Two
anchors satisfy condition 5, so lambda_star falls between lambda_low and
lambda_high there; at the others it lies above lambda_high. The seed jitters
each anchor by up to 0.004 in mu and 1% in cost. Keeping the mix of regimes
fixed keeps the work per unit comparable from seed to seed, which is what
lets ten seeds agree within the benchmark's bounds.

Each point gets one linear lambda grid from half the smallest cutpoint to
1.25 times the largest, so every grid crosses lambda_low, lambda_star,
lambda_high and lambda_breve. The cutpoints come from the paper's closed
forms, computed here without ``riscreen``.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

#: (mu_hi, mu_lo, cost as a share of the Assumption-1 bound on c)
ANCHORS = (
    (0.90, 0.35, 0.50),
    (0.75, 0.40, 0.60),
    (0.66, 0.45, 0.70),
    (0.80, 0.60, 0.96),
    (0.93, 0.52, 0.50),
    (0.70, 0.59, 0.95),
    (0.64, 0.60, 0.80),
)
GRID_STEPS = 32
SHORT_GRID_STEPS = 8
#: continuous-effort sweep: cost kappa mu^2 / 2 on the default 100-point grid
CONTINUOUS = ("--kappa", "0.65", "--lambda-range", "0.1", "5.0", "--lambda-steps", "12")
#: below about 1/710, exp(1/lam) overflows a double
TINY_LAMBDA = 0.001


class Point(NamedTuple):
    mu_hi: float
    mu_lo: float
    cost: float

    @property
    def c(self) -> float:
        return self.cost / (self.mu_hi - self.mu_lo)

    def game_args(self) -> list:
        return ["--mu-hi", repr(self.mu_hi), "--mu-lo", repr(self.mu_lo), "--cost", repr(self.cost)]


def _ab(mu_hi: float, mu_lo: float) -> tuple:
    return mu_hi * (1.0 - mu_lo), mu_lo * (1.0 - mu_hi)


def cutpoints(point: Point) -> tuple:
    """(lambda_low, lambda_star, lambda_high, lambda_breve) from the closed forms."""
    A, B = _ab(point.mu_hi, point.mu_lo)
    c = point.c

    def lam_where_x(x: float) -> float:
        # the (hi, lo) bonus X = f(gamma) reaches x at the root of a quadratic in gamma
        k = x * (A + B) * A
        gamma = ((A * A + B * B) + math.sqrt((A * A - B * B) ** 2 + 4.0 * k * k)) / (2.0 * (A * B - k))
        return 1.0 / math.log(gamma)

    lambda_star = 1.0 / math.log((1.0 + 2.0 * c) / (1.0 - 2.0 * c))
    lambda_low = lam_where_x(c * point.mu_lo / point.mu_hi)
    lambda_high = lam_where_x(c * (1.0 - point.mu_hi) / (1.0 - point.mu_lo))
    return lambda_low, lambda_star, lambda_high, 1.0 / math.log(A / B)


def lambda_range(point: Point) -> tuple:
    cuts = cutpoints(point)
    return 0.5 * min(cuts), 1.25 * max(cuts)


def points(seed: int, stream: str) -> list:
    """The seven jittered anchors for one seed; ``stream`` separates workloads."""
    rng = random.Random(f"{stream}:{seed}")
    out = []
    for mu_hi, mu_lo, share in ANCHORS:
        mu_hi += rng.uniform(-0.004, 0.004)
        mu_lo += rng.uniform(-0.004, 0.004)
        share *= rng.uniform(0.99, 1.01)
        A, B = _ab(mu_hi, mu_lo)
        c = share * mu_hi * (1.0 - mu_hi) / (A + B)
        out.append(Point(mu_hi, mu_lo, c * (mu_hi - mu_lo)))
    return out


def tasks(point: Point) -> tuple:
    """Two equal-arrival tasks whose effective costs bracket the baseline c."""
    return (f"0.5,1.0,{0.45 * point.cost!r}", f"0.5,1.0,{0.5 * point.cost!r}")


def sweep_argv(point: Point, analysis: str, steps: int = GRID_STEPS) -> list:
    lo, hi = lambda_range(point)
    argv = ["regimes", "--analysis", analysis, *point.game_args(),
            "--lambda-range", repr(lo), repr(hi), "--lambda-steps", str(steps), "--format", "json"]
    if analysis == "multitask":
        task1, task2 = tasks(point)
        argv += ["--task1", task1, "--task2", task2]
    return argv


def cli_point(seed: int) -> tuple:
    """The cold-CLI point: the canonical anchor, jittered, and a lambda inside
    its discriminatory window [lambda_low, lambda_high]."""
    point = points(seed, "cli-cold")[3]
    low, _, high, _ = cutpoints(point)
    lam = low + random.Random(f"cli-cold-lambda:{seed}").uniform(0.25, 0.75) * (high - low)
    return point, lam


def cli_commands(seed: int) -> list:
    """(name, argv) pairs of one round of the cold-CLI workload, in order."""
    point, lam = cli_point(seed)
    at = [*point.game_args(), "--lambda", repr(lam)]
    het = ["--cost-m", repr(point.cost), "--cost-w", repr(point.cost)]
    return [
        ("reproduce", ["reproduce", "--json"]),
        ("signal", ["signal", *at, "--profile", "hi,lo", "--oracle"]),
        ("equilibria", ["equilibria", *at]),
        ("quota", ["quota", *at]),
        ("regimes", sweep_argv(point, "baseline", SHORT_GRID_STEPS)),
        ("continuous", ["variants", "--which", "continuous", *at, *CONTINUOUS]),
        ("heterogeneous", ["variants", "--which", "heterogeneous", *at, *het]),
        ("heterogeneous-tiny-lambda", ["variants", "--which", "heterogeneous", *point.game_args(),
                                       "--lambda", repr(TINY_LAMBDA), *het]),
    ]
