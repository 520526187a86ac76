"""Output checks: each returns a list of problems, empty when the output is right.

Expected values come from :mod:`reference` or from properties the method
must have (mirror symmetry, quota = impartial subset, commitment weakly
beats every equilibrium), never from a stored copy of earlier output.
Values that riscreen keeps internal (quota multipliers, mixed equilibria)
reach the checks through callables the caller passes in.
"""

from __future__ import annotations

import json
import math
import re

import reference as ref
from inputs import Point, cutpoints, lambda_range

#: incentive slack (in payoff units) below which a profile counts as knife-edge
IC_BAND = 1e-9
#: agreement between riscreen's 12-significant-digit output and the reference
VALUE_TOL = 1e-9
#: four-decimal human output, plus rounding dust
PRINT4_TOL = 5e-5 + 1e-9
MIXED_TOL = 1e-8
QUOTA_TOL = 1e-9

_TAG = {profile: f"{profile[0]},{profile[1]}" for profile in ref.PROFILES}
_FLAG = {profile: f"eq_{profile[0]}_{profile[1]}" for profile in ref.PROFILES}
_MIRROR = {(a, b): (b, a) for a, b in ref.PROFILES}


def _n_hi(profile: tuple) -> int:
    return sum(e == ref.HI for e in profile)


def _listing(found: set, status: dict, where: str) -> list:
    """Listed profiles must pass both incentive constraints; absent ones must fail one."""
    errors = []
    for profile, st in status.items():
        if st == "in" and profile not in found:
            errors.append(f"{where}: equilibrium {_TAG[profile]} missing")
        if st == "out" and profile in found:
            errors.append(f"{where}: {_TAG[profile]} listed but fails an incentive constraint")
    for profile in found:
        if _MIRROR[profile] not in found:
            errors.append(f"{where}: {_TAG[profile]} listed without its mirror")
    return errors


def _quota_status(status: dict) -> dict:
    """The quota game's equilibria are the impartial (symmetric) ones."""
    return {p: (st if p[0] == p[1] else "out") for p, st in status.items()}


# ---------------------------------------------------------------------------
# regimes sweeps
# ---------------------------------------------------------------------------

def parse_sweep(text: str, validator) -> tuple:
    """(document, problems): the sweep must be JSON that satisfies the shipped schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"sweep output is not JSON: {exc}"]
    return doc, [f"schema: {e.message}" for e in validator.iter_errors(doc)]


def _grid_errors(rows: list, lo: float, hi: float, steps: int, where: str) -> list:
    lams = [row["lam"] for row in rows]
    if len(lams) != steps:
        return [f"{where}: {len(lams)} rows, expected {steps}"]
    if not (math.isclose(lams[0], lo, rel_tol=1e-11) and math.isclose(lams[-1], hi, rel_tol=1e-11)):
        return [f"{where}: grid [{lams[0]}, {lams[-1]}] is not [{lo}, {hi}]"]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        return [f"{where}: lambda grid not increasing"]
    return []


def _threshold_errors(point: Point, row: dict, where: str) -> list:
    """At each reported cutpoint the reference signal must sit on the matching bound."""
    c = point.c
    errors = []
    checks = (
        ("lambda_star", (ref.HI, ref.HI), c),
        ("lambda_low", (ref.HI, ref.LO), c * point.mu_lo / point.mu_hi),
        ("lambda_high", (ref.HI, ref.LO), c * (1.0 - point.mu_hi) / (1.0 - point.mu_lo)),
    )
    for key, profile, bound in checks:
        pi, _ = ref.profile_signal(point, profile, row[key])
        if abs((pi[2] - pi[1]) - bound) > 1e-8:
            errors.append(f"{where}: X at {key}={row[key]} is {pi[2] - pi[1]!r}, expected {bound!r}")
    if bool(row["condition5"]) != (row["lambda_star"] < row["lambda_high"]):
        errors.append(f"{where}: condition5={row['condition5']} contradicts lambda_star < lambda_high")
    return errors


def regime_rows(point: Point, rows: list, steps: int, quota: bool, where: str) -> list:
    """Checks for a baseline or quota sweep of riscreen's regimes command."""
    errors = _grid_errors(rows, *lambda_range(point), steps, where)
    if rows:
        errors += _threshold_errors(point, rows[0], where)
    keys = ("lambda_low", "lambda_star", "lambda_high", "condition5")
    for row in rows:
        lam = row["lam"]
        at = f"{where} lam={lam!r}"
        if any(row[k] != rows[0][k] for k in keys):
            errors.append(f"{at}: cutpoints change along the lambda grid")
        status, profits = ref.classify(point, lam, point.cost, point.cost, IC_BAND)
        if quota:
            status = _quota_status(status)
        found = {p for p in ref.PROFILES if row[_FLAG[p]] == 1}
        errors += _listing(found, status, at)
        if not found:
            continue
        best = max(profits[p] for p in found)
        if abs(row["best_profit"] - best) > VALUE_TOL:
            errors.append(f"{at}: best_profit {row['best_profit']!r}, reference {best!r}")
        winners = [tuple(t.split(",")) for t in row["most_profitable"].split("|")]
        for p in winners:
            if p not in found or profits[p] < best - VALUE_TOL:
                errors.append(f"{at}: most_profitable names {_TAG[p]}, not a best equilibrium")
            elif _MIRROR[p] not in winners:
                errors.append(f"{at}: most_profitable names {_TAG[p]} without its mirror")
        order = [tuple(t.split(",")) for t in row["welfare_order"].split(">")]
        if sorted(order) != sorted(found) or [_n_hi(p) for p in order] != sorted(_n_hi(p) for p in order):
            errors.append(f"{at}: welfare_order {row['welfare_order']!r} is not by effort cost")
    return errors


def quota_against_baseline(quota_rows: list, base_rows: list, where: str) -> list:
    """Quota equilibria are exactly the impartial baseline equilibria."""
    errors = []
    for q, b in zip(quota_rows, base_rows):
        expected = {p: (b[_FLAG[p]] if p[0] == p[1] else 0) for p in ref.PROFILES}
        if any(q[_FLAG[p]] != v for p, v in expected.items()):
            errors.append(f"{where} lam={q['lam']!r}: quota equilibria differ from the impartial baseline ones")
    return errors


def quota_multipliers(point: Point, lams: list, solve, where: str) -> list:
    """solve(point, lam, profile) -> (nu, pi, pi_bar) from riscreen's quota solver.

    pi_bar must be 1/2, and pi must be the reference optimum of the screen
    taxed by nu (advantage d - nu), whose own average must also be 1/2.
    """
    errors = []
    for lam in lams:
        for profile in ((ref.HI, ref.LO), (ref.LO, ref.HI)):
            nu, pi, pi_bar = solve(point, lam, profile)
            at = f"{where} lam={lam!r} {_TAG[profile]}"
            if abs(pi_bar - 0.5) > QUOTA_TOL:
                errors.append(f"{at}: quota pi_bar {pi_bar!r}")
            prior = ref.state_probs(ref.mu_of(point, profile[0]), ref.mu_of(point, profile[1]))
            cond, q_bar = ref.solve_logit(prior, [d - nu for d in ref.DIFFS], lam)
            if max(abs(a - b) for a, b in zip(cond, pi)) > 1e-8 or abs(q_bar - 0.5) > 1e-8:
                errors.append(f"{at}: quota signal {pi!r} is not the optimum at nu={nu!r}")
    return errors


def _task_point(point: Point, task: str) -> tuple:
    alpha, beta, cost = (float(v) for v in task.split(","))
    return alpha, Point(point.mu_hi, point.mu_lo, cost / (alpha * beta))


def _joint_class(inv_m: tuple, inv_w: tuple) -> str:
    if inv_m == inv_w:
        return "non-specialized"
    if {inv_m, inv_w} == {(ref.HI, ref.LO), (ref.LO, ref.HI)}:
        return "specialized"
    return "hybrid"


def multitask_rows(point: Point, tasks: tuple, rows: list, steps: int, where: str) -> list:
    """A joint profile is an equilibrium iff each task's pair is one of that task's game."""
    errors = _grid_errors(rows, *lambda_range(point), steps, where)
    games = [_task_point(point, t) for t in tasks]
    for row in rows:
        lam = row["lam"]
        at = f"{where} lam={lam!r}"
        statuses = [ref.classify(g, lam, g.cost, g.cost, IC_BAND)[0] for _, g in games]
        sure = [[p for p, s in st.items() if s == "in"] for st in statuses]
        maybe = [[p for p, s in st.items() if s != "out"] for st in statuses]
        if not len(sure[0]) * len(sure[1]) <= row["n_equilibria"] <= len(maybe[0]) * len(maybe[1]):
            errors.append(f"{at}: n_equilibria {row['n_equilibria']}, reference {len(sure[0]) * len(sure[1])}")
        if sure != maybe:
            continue  # a knife-edge task profile leaves the ranking ambiguous
        _, profits = ref.classify(point, lam, point.cost, point.cost, IC_BAND)
        best = {}
        for p1 in sure[0]:
            for p2 in sure[1]:
                cls = _joint_class((p1[0], p2[0]), (p1[1], p2[1]))
                if cls != "hybrid":
                    payoff = games[0][0] * profits[p1] + games[1][0] * profits[p2]
                    best[cls] = max(best.get(cls, -math.inf), payoff)
        if not best:
            if row["most_profitable"] != "" or not math.isnan(row["best_payoff"]):
                errors.append(f"{at}: ranking reported with no ranked equilibrium")
            continue
        top = max(best.values())
        named = set(row["most_profitable"].split("|"))
        if abs(row["best_payoff"] - top) > VALUE_TOL or max(best, key=best.get) not in named or any(
            best.get(cls, -math.inf) < top - VALUE_TOL for cls in named
        ):
            errors.append(f"{at}: ranking {row['most_profitable']!r} at {row['best_payoff']!r}, reference {best!r}")
    return errors


def variants_rows(point: Point, rows: list, steps: int, mixed, where: str) -> list:
    """Commitment weakly beats every equilibrium; every mixed equilibrium is indifferent.

    mixed(point, lam) -> [(sigma_m, sigma_w)] from riscreen's mixed_equilibria.
    """
    errors = _grid_errors(rows, *lambda_range(point), steps, where)
    _, lambda_star, _, _ = cutpoints(point)
    for row in rows:
        lam = row["lam"]
        at = f"{where} lam={lam!r}"
        status, profits = ref.classify(point, lam, point.cost, point.cost, IC_BAND)
        eq_profits = [profits[p] for p, s in status.items() if s == "in"]
        if eq_profits and row["commitment_profit"] < max(eq_profits) - VALUE_TOL:
            errors.append(f"{at}: commitment profit {row['commitment_profit']!r} below equilibrium {max(eq_profits)!r}")
        if lam < lambda_star * (1.0 - 1e-9) and (
            row["commitment_profile"] != "hi,hi"
            or abs(row["commitment_profit"] - profits[(ref.HI, ref.HI)]) > VALUE_TOL
        ):
            errors.append(f"{at}: below lambda_star commitment should keep the impartial (hi,hi) rule")
        found = mixed(point, lam)
        if len(found) != row["n_mixed"]:
            errors.append(f"{at}: n_mixed {row['n_mixed']} but {len(found)} mixed equilibria")
        for sigma_m, sigma_w in found:
            errors += mixed_indifference(point, lam, sigma_m, sigma_w, f"{at} sigma=({sigma_m!r}, {sigma_w!r})")
    return errors


def mixed_indifference(point: Point, lam: float, sigma_m: float, sigma_w: float, where: str) -> list:
    """A mixing agent is indifferent to 1e-8; a pure one weakly prefers its effort."""
    dmu = point.mu_hi - point.mu_lo
    nu_m, nu_w = point.mu_lo + sigma_m * dmu, point.mu_lo + sigma_w * dmu
    pi, _ = ref.signal(nu_m, nu_w, lam)
    gain_m = ref.win_m(pi, point.mu_hi, nu_w) - ref.win_m(pi, point.mu_lo, nu_w) - point.cost
    gain_w = ref.win_m(pi, nu_m, point.mu_lo) - ref.win_m(pi, nu_m, point.mu_hi) - point.cost
    errors = []
    for who, sigma, gain in (("m", sigma_m, gain_m), ("w", sigma_w, gain_w)):
        if 0.0 < sigma < 1.0 and abs(gain) > MIXED_TOL:
            errors.append(f"{where}: {who} mixes but gains {gain!r} from working")
        if (sigma == 1.0 and gain < -MIXED_TOL) or (sigma == 0.0 and gain > MIXED_TOL):
            errors.append(f"{where}: {who} plays pure sigma={sigma} against gain {gain!r}")
    if not (0.0 < sigma_m < 1.0 or 0.0 < sigma_w < 1.0):
        errors.append(f"{where}: no agent mixes")
    return errors


# ---------------------------------------------------------------------------
# cold CLI commands (human-readable output)
# ---------------------------------------------------------------------------

_PROFILE_LINE = re.compile(r"^\((hi|lo),(hi|lo)\) +(impartial|discriminatory) +profit=(-?\d+\.\d+)")


def _profile_lines(text: str) -> dict:
    """{profile: (profit, starred)} from equilibria / heterogeneous output."""
    out = {}
    for line in text.splitlines():
        m = _PROFILE_LINE.match(line)
        if m:
            out[(m.group(1), m.group(2))] = (float(m.group(4)), line.endswith(" *"))
    return out


def reproduce_output(text: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"reproduce: not JSON: {exc}"]
    if doc.get("passed") is not True or not all(c["passed"] for c in doc.get("checks", [])):
        return [f"reproduce: golden checks failed: {[c['name'] for c in doc.get('checks', []) if not c['passed']]}"]
    return []


def signal_output(point: Point, lam: float, text: str) -> list:
    """signal --profile hi,lo --oracle: truncated rows, 4-decimal summary, oracle residual."""
    pi, pi_bar = ref.profile_signal(point, (ref.HI, ref.LO), lam)
    prior = ref.state_probs(point.mu_hi, point.mu_lo)
    fields = {}
    for line in text.splitlines():
        if line.startswith("P(d)") or line.startswith("pi(d)"):
            fields[line.split()[0]] = [float(v) for v in line.split()[1:]]
        for key, value in re.findall(r"(\w+)=(-?[\d.e+-]+)", line):
            fields[key] = float(value)
    errors = []
    for key, exact in (("P(d)", prior), ("pi(d)", pi)):
        shown = fields.get(key)
        # rows print d = 1, 0, -1, truncated to two decimals
        if shown is None or any(not -1e-9 <= e - s < 0.01 + 1e-9 for s, e in zip(shown, exact[::-1])):
            errors.append(f"signal: {key} row {shown} does not truncate {exact[::-1]}")
    expected = {
        "pi_bar": pi_bar, "X": pi[2] - pi[1], "Y": pi[1] - pi[0],
        "profit": ref.profit(point, (ref.HI, ref.LO), pi, lam),
    }
    for key, exact in expected.items():
        if key not in fields or abs(fields[key] - exact) > PRINT4_TOL:
            errors.append(f"signal: {key}={fields.get(key)} but reference {exact!r}")
    if not fields.get("residual", math.inf) <= 1e-8:
        errors.append(f"signal: oracle residual {fields.get('residual')}")
    return errors


def equilibria_output(point: Point, lam: float, text: str, where: str = "equilibria") -> list:
    status, profits = ref.classify(point, lam, point.cost, point.cost, IC_BAND)
    listed = _profile_lines(text)
    errors = _listing(set(listed), status, where)
    for profile, (shown, _) in listed.items():
        if abs(shown - profits[profile]) > PRINT4_TOL:
            errors.append(f"{where}: {_TAG[profile]} profit {shown} but reference {profits[profile]!r}")
    if where == "equilibria" and listed:
        best = max(profits[p] for p in listed)
        starred = {p for p, (_, star) in listed.items() if star}
        if starred != {p for p in listed if profits[p] >= best - VALUE_TOL}:
            errors.append(f"{where}: most profitable marked on {sorted(starred)}")
    return errors


def quota_output(point: Point, lam: float, text: str) -> list:
    errors = []
    bars = re.findall(r"pi_bar=(-?\d+\.\d+)", text)
    if len(bars) != 4 or any(abs(float(b) - 0.5) > PRINT4_TOL for b in bars):
        errors.append(f"quota: pi_bar values {bars}, expected four at 0.5000")
    m = re.search(r"^quota equilibria: (.*)$", text, re.M)
    found = set() if m is None or m.group(1) == "none" else {
        tuple(t.strip("()").split(",")) for t in m.group(1).split(", ")
    }
    status, _ = ref.classify(point, lam, point.cost, point.cost, IC_BAND)
    if m is None:
        errors.append("quota: no equilibrium line")
    errors += _listing(found, _quota_status(status), "quota")
    return errors


def continuous_output(text: str, steps: int) -> list:
    """Every lambda has a symmetric fixed point; asymmetric ones come in mirror pairs."""
    rows = re.findall(r"fixed_points=(\d+) symmetric=(\d+) asymmetric=(\d+)", text)
    errors = [] if len(rows) == steps else [f"continuous: {len(rows)} rows, expected {steps}"]
    for total, sym, asym in rows:
        total, sym, asym = int(total), int(sym), int(asym)
        if total != sym + asym or sym < 1 or asym % 2:
            errors.append(f"continuous: fixed_points={total} symmetric={sym} asymmetric={asym}")
    return errors


def heterogeneous_output(point: Point, lam: float, text: str, equilibria_text: str) -> list:
    """With equal costs the heterogeneous game is the baseline game."""
    errors = equilibria_output(point, lam, text, "heterogeneous")
    if equilibria_text is not None and set(_profile_lines(text)) != set(_profile_lines(equilibria_text)):
        errors.append("heterogeneous: equal-cost profiles differ from the equilibria command")
    return errors
