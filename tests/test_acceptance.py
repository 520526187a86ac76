"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import random
import time

from riscreen import (
    AGENT_M,
    AGENT_W,
    DISCRIMINATORY,
    HI,
    IMPARTIAL,
    LO,
    PROFILES,
    GameParams,
    HeterogeneousParams,
    ReferencePriorProblem,
    commitment_solve,
    continuous_effort_equilibria,
    equilibrium_set,
    find_multiplier,
    heterogeneous_equilibrium_set,
    incentive_gain,
    mixed_equilibria,
    optimal_signal,
    prior_invariant_signal,
    profit,
    quota_equilibrium_set,
    state_distribution,
    thresholds,
)
from riscreen.baseline_game import most_profitable_among, signal_oracle_residual

import helpers

CANON = helpers.canonical()


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_table_reproduction():
    dist = state_distribution(CANON, (HI, LO))
    exact = max(
        abs(dist.p_plus - 0.32), abs(dist.p_zero - 0.56), abs(dist.p_minus - 0.12)
    )
    signal = optimal_signal(CANON, (HI, LO))
    stated = (0.0940, 0.7441, 0.9879)
    gap = max(abs(a - b) for a, b in zip(signal.as_tuple(), stated))
    printed = tuple(math.floor(round(p * 100, 6)) / 100 for p in signal.as_tuple())
    runs = []
    for _ in range(50):
        t0 = time.perf_counter()
        state_distribution(CANON, (HI, LO))
        optimal_signal(CANON, (HI, LO))
        runs.append(time.perf_counter() - t0)
    fastest = min(runs)
    ok = (
        exact <= 1e-12
        and gap <= 5e-3
        and printed == (0.09, 0.74, 0.98)
        and fastest < 1e-3
    )
    _report(
        1,
        ok,
        f"p exact to {exact:.1e}; |pi - (.0940,.7441,.9879)| = {gap:.1e} (tol 5e-3); "
        f"2-decimal row {printed}; runtime {fastest * 1e6:.0f} us < 1 ms",
    )


def test_criterion_02_revenue_checks():
    V = profit(CANON, (HI, LO)).V
    bench = 1 - (1 - CANON.mu_hi) * (1 - CANON.mu_lo)
    v_limit = profit(CANON._replace(lam=0.01), (HI, LO)).V
    ok = abs(V - 0.9048) <= 5e-3 and bench == 0.92 and abs(v_limit - 0.92) <= 1e-9
    _report(
        2,
        ok,
        f"V(lam=.3) = {V:.6f} (=.9048 +/- 5e-3); costless benchmark = {bench} exact; "
        f"V(lam=.01) = {v_limit:.9f}",
    )


def test_criterion_03_incentive_checks():
    signal = optimal_signal(CANON, (HI, LO))
    loss_m = CANON.delta_mu * incentive_gain(CANON, signal, AGENT_M, LO)
    gain_w = CANON.delta_mu * incentive_gain(CANON, signal, AGENT_W, HI)
    brute = (helpers.win_probabilities(signal, CANON.mu_hi, CANON.mu_hi)[1]
             - helpers.win_probabilities(signal, CANON.mu_hi, CANON.mu_lo)[1])
    ok = abs(loss_m - 0.098) <= 1e-3 and abs(gain_w - brute) <= 1e-6 and abs(gain_w - 0.0650) <= 5e-4
    _report(
        3,
        ok,
        f"m deviation loss {loss_m:.6f} (=.098 +/- 1e-3); w gain {gain_w:.6f} vs "
        f"win-probability oracle {brute:.6f} (tol 1e-6)",
    )


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    mus = helpers.linspace(0.02, 0.98, 50)
    lams = helpers.linspace(0.05, 5.0, 20)
    for mu_hi in mus:
        for mu_lo in mus:
            if mu_lo >= mu_hi:
                continue
            for lam in lams:
                game = GameParams(mu_hi, mu_lo, 0.05, lam)
                for profile in PROFILES:
                    worst = max(worst, signal_oracle_residual(game, profile))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(
        4,
        ok,
        f"closed form vs generic solver sup-norm {worst:.2e} (tol 1e-8) over "
        f"50x50x20 grid, all profiles, {elapsed:.1f}s < 10s",
    )


def test_criterion_05_threshold_properties():
    rng = random.Random(33001)
    order_violations = 0
    cond5_mismatches = 0
    bad_values = 0
    regime_mismatches = 0
    brute_mismatches = 0
    for _ in range(500):
        base = helpers.sample_assumption1(rng)
        cuts = thresholds(base)
        if not cuts.lambda_low < cuts.lambda_star:
            order_violations += 1
        if (cuts.lambda_star < cuts.lambda_high) != cuts.condition5:
            cond5_mismatches += 1
        if not all(
            math.isfinite(v) and v > 0
            for v in (cuts.lambda_low, cuts.lambda_star, cuts.lambda_high, cuts.lambda_breve)
        ):
            bad_values += 1
        for lam in (rng.uniform(0.05, 2.5) for _ in range(20)):
            game = base._replace(lam=lam)
            got = [r.profile for r in equilibrium_set(game)]
            brute_mismatches += got != helpers.direct_ic_equilibria(game)
            predicted = []
            if lam <= cuts.lambda_star + 1e-12:
                predicted.append((HI, HI))
            if cuts.lambda_low - 1e-12 <= lam <= cuts.lambda_high + 1e-12:
                predicted.extend([(HI, LO), (LO, HI)])
            if lam >= cuts.lambda_star - 1e-12:
                predicted.append((LO, LO))
            if got != predicted:
                regime_mismatches += 1
    ok = order_violations == cond5_mismatches == bad_values == regime_mismatches == brute_mismatches == 0
    _report(
        5,
        ok,
        "500 draws: lambda_low<lambda_star violations=%d; condition5 mismatches=%d; "
        "non-finite thresholds=%d; regime/IC disagreements=%d; brute-force IC disagreements=%d "
        "(10000 grid points)" % (order_violations, cond5_mismatches, bad_values, regime_mismatches, brute_mismatches),
    )


def test_criterion_06_most_profitable_ranking():
    rng = random.Random(33002)
    checked_upper = checked_lower = 0
    min_margin_upper = min_margin_lower = math.inf
    winner_errors = 0
    for _ in range(40):
        base = helpers.sample_condition5(rng)
        cuts = thresholds(base)
        for frac in (rng.uniform(0.02, 1.0) for _ in range(5)):
            lam = cuts.lambda_star + frac * (cuts.lambda_high - cuts.lambda_star)
            found = equilibrium_set(base._replace(lam=lam))
            records = {r.profile: r for r in found}
            margin = records[(HI, LO)].profit - records[(LO, LO)].profit
            min_margin_upper = min(min_margin_upper, margin)
            # the winners are the two mirror discriminatory records
            winners = most_profitable_among(found)
            winner_errors += {r.profile for r in winners} != {(HI, LO), (LO, HI)} or any(
                r.classification != DISCRIMINATORY for r in winners
            )
            checked_upper += 1
        for frac in (rng.uniform(0.02, 0.98) for _ in range(5)):
            lam = cuts.lambda_low + frac * (min(cuts.lambda_star, cuts.lambda_high) - cuts.lambda_low)
            records = {r.profile: r for r in equilibrium_set(base._replace(lam=lam))}
            margin = records[(HI, HI)].profit - records[(HI, LO)].profit
            min_margin_lower = min(min_margin_lower, margin)
            checked_lower += 1
    ok = min_margin_upper > 1e-10 and min_margin_lower > 1e-10 and winner_errors == 0
    _report(
        6,
        ok,
        f"discriminatory beats low-impartial on (lambda*, lambda_high]: min margin "
        f"{min_margin_upper:.2e} over {checked_upper} points, most profitable not the two "
        f"discriminatory records at {winner_errors}; high-impartial beats "
        f"discriminatory on [lambda_low, lambda*]: min margin {min_margin_lower:.2e} "
        f"over {checked_lower} points (both > 1e-10)",
    )


def test_criterion_07_quota_equivalence():
    rng = random.Random(33003)
    disagreements = 0
    shape_failures = 0
    points = 0
    for _ in range(200):
        base = helpers.sample_assumption1(rng)
        for lam in (rng.uniform(0.05, 2.5) for _ in range(20)):
            game = base._replace(lam=lam)
            quota = quota_equilibrium_set(game)
            impartial = [r.profile for r in equilibrium_set(game) if r.classification == IMPARTIAL]
            points += 1
            if [r.profile for r in quota] != impartial or any(r.classification != IMPARTIAL for r in quota):
                disagreements += 1
        sol = find_multiplier(base._replace(lam=rng.uniform(0.1, 1.5)), (HI, LO))
        if sol.nu > 0 and abs(sol.signal.pi_bar - 0.5) <= 1e-9:
            sig = sol.signal
            if not (sig.pi_zero < 0.5 and sig.X > sig.Y > 0):
                shape_failures += 1
    ok = disagreements == 0 and shape_failures == 0
    _report(
        7,
        ok,
        f"quota set vs impartial subset (every quota record impartial): {disagreements} disagreements "
        f"over {points} draw/lambda points; binding-signal shape (pi(0)<1/2, X>Y>0) failures: {shape_failures}",
    )


def test_criterion_08_task_split_inequalities():
    game = CANON
    worst_identity = 0.0
    ordering_ok = True
    for gamma in helpers.geomspace(game.A / game.B + 1e-3, 1e6, 60):
        g = game._replace(lam=1.0 / math.log(gamma))
        dv1 = profit(g, (HI, HI)).V - profit(g, (HI, LO)).V
        dv2 = profit(g, (HI, LO)).V - profit(g, (LO, LO)).V
        worst_identity = max(
            worst_identity,
            abs(dv1 - dv2 + (gamma - 1) * game.delta_mu**2 / (gamma + 1)),
        )
        di1 = profit(g, (HI, HI)).I - profit(g, (HI, LO)).I
        di2 = profit(g, (HI, LO)).I - profit(g, (LO, LO)).I
        ordering_ok = ordering_ok and di1 > di2

    from riscreen import TaskParams, multitask_most_profitable
    from riscreen.multitask import NON_SPECIALIZED, SPECIALIZED, task_games

    mt_game = GameParams(0.7927, 0.7075, 0.05, 1.0)

    def tasks_for(c1, c2):
        d = mt_game.delta_mu
        return (TaskParams(0.5, 1.0, c1 * 0.5 * d), TaskParams(0.5, 1.0, c2 * 0.5 * d))

    selections_ok = True
    # regime (i): specialized coexists with invest-in-both; non-specialized wins
    tasks = tasks_for(0.30, 0.30)
    k = thresholds(task_games(mt_game, tasks)[0])
    lam = 0.5 * (k.lambda_low + min(k.lambda_star, k.lambda_high))
    win = multitask_most_profitable(mt_game._replace(lam=lam), tasks)
    selections_ok &= {w.classification for w in win} == {NON_SPECIALIZED}
    # regime (ii): specialized coexists with invest-in-nothing; specialized wins
    tasks = tasks_for(0.40, 0.40)
    k = thresholds(task_games(mt_game, tasks)[0])
    lam = 0.5 * (k.lambda_star + k.lambda_high)
    win = multitask_most_profitable(mt_game._replace(lam=lam), tasks)
    selections_ok &= {w.classification for w in win} == {SPECIALIZED}
    # regime (iii): specialized coexists with invest-in-skill-1-only; specialized wins
    tasks = tasks_for(0.36, 0.40)
    k1, k2 = (thresholds(g) for g in task_games(mt_game, tasks))
    lam = 0.5 * (max(k1.lambda_low, k2.lambda_star) + min(k2.lambda_high, k1.lambda_star))
    win = multitask_most_profitable(mt_game._replace(lam=lam), tasks)
    selections_ok &= {w.classification for w in win} == {SPECIALIZED}

    ok = worst_identity <= 1e-10 and ordering_ok and selections_ok
    _report(
        8,
        ok,
        f"revenue-gap identity residual {worst_identity:.2e} (tol 1e-10); information-gap "
        f"ordering holds on the gamma grid: {ordering_ok}; regime (i)-(iii) selections "
        f"correct: {selections_ok}",
    )


def test_criterion_09_variants():
    rng = random.Random(33004)
    reduction_mismatch = 0
    for _ in range(200):
        base = helpers.sample_assumption1(rng)
        game = base._replace(lam=rng.uniform(0.05, 2.0))
        het = HeterogeneousParams(game.cost_C, game.cost_C)
        a = [(r.profile, r.classification) for r in heterogeneous_equilibrium_set(game, het)]
        b = [(r.profile, r.classification) for r in equilibrium_set(game)]
        reduction_mismatch += a != b

    worst_prior = 0.0
    prior_flag_errors = 0
    for profile in PROFILES:
        for lam in (0.1, 0.3, 0.8, 1.5):
            dist = tuple(state_distribution(CANON._replace(lam=lam), profile))
            result = prior_invariant_signal(ReferencePriorProblem(dist, dist, lam))
            base_sig = optimal_signal(CANON._replace(lam=lam), profile)
            if not result.interior:
                # the flag must coincide with baseline degeneracy at q = p
                prior_flag_errors += not base_sig.degenerate
                continue
            worst_prior = max(
                worst_prior,
                max(abs(a - b) for a, b in zip(result.signal.as_tuple(), base_sig.as_tuple())),
            )

    mixed_exceptions = 0
    star = thresholds(CANON).lambda_star
    for lam in helpers.linspace(0.12, 1.4, 30):
        if abs(lam - star) < 1e-6:
            continue
        for eq in mixed_equilibria(helpers.canonical(lam)):
            if eq.classification != DISCRIMINATORY:
                mixed_exceptions += 1

    commit_slack = math.inf
    cond5 = helpers.sample_condition5(rng)
    canon_lams = sorted({*helpers.linspace(0.08, 2.0, 15), *helpers.linspace(0.08, 2.2, 12)})
    cond5_lams = sorted({*helpers.linspace(0.1, 1.6, 10), *helpers.linspace(0.1, 1.5, 10)})
    grids = [helpers.canonical(l) for l in canon_lams] + [cond5._replace(lam=l) for l in cond5_lams]
    for game in grids:
        best = max(r.profit for r in equilibrium_set(game))
        commit_slack = min(commit_slack, commitment_solve(game).profit - best)

    ok = (
        reduction_mismatch == 0
        and worst_prior <= 1e-9
        and prior_flag_errors == 0
        and mixed_exceptions == 0
        and commit_slack >= -1e-9
    )
    _report(
        9,
        ok,
        f"homogeneous reduction (profile, classification) mismatches: {reduction_mismatch}/200; "
        f"reference-prior q=p residual {worst_prior:.1e} (tol 1e-9, corner-flag errors "
        f"{prior_flag_errors}); mixed classification exceptions: {mixed_exceptions}; "
        f"commitment profit slack vs best baseline over {len(grids)} games: {commit_slack:.2e} (>= -1e-9)",
    )


def test_criterion_10_continuous_effort():
    t0 = time.perf_counter()
    lams = helpers.linspace(0.1, 5.0, 100)
    results = continuous_effort_equilibria(0.65, lams, 100)
    elapsed = time.perf_counter() - t0
    missing = [r.lam for r in results if not r.symmetric]
    ok = not missing and elapsed < 60.0
    _report(
        10,
        ok,
        f"symmetric fixed point found at all {len(results)} lambda values "
        f"(missing: {len(missing)}); kappa=.65, 100-point grid, {elapsed:.2f}s < 60s",
    )
