"""The golden checks of ``riscreen reproduce``, in a module that only ``cli.cmd_reproduce``
imports. Library functions are reached as module attributes (``bg.profit``), so a
function patched in its module is the one called."""

import math

from . import baseline_game as bg
from . import quota_policy as qp
from .cli import _trunc2

_TABLE1_SIGNAL = (0.093977614213083, 0.744088048450016, 0.987879461288866)
_TABLE1_PRINT = (0.09, 0.74, 0.98)


def golden_checks() -> list:
    """(name, passed, measured, tolerance) for every golden check."""
    game = bg.GameParams(0.8, 0.6, 0.07, 0.3)
    checks = []

    dist = bg.state_distribution(game, (bg.HI, bg.LO))
    delta = max(abs(dist.p_plus - 0.32), abs(dist.p_zero - 0.56), abs(dist.p_minus - 0.12))
    checks.append(("table1_state_distribution", delta <= 1e-12, f"max|dp|={delta:.2e}", "1e-12"))

    signal = bg.optimal_signal(game, (bg.HI, bg.LO))
    delta = max(abs(a - b) for a, b in zip(signal.as_tuple(), _TABLE1_SIGNAL))
    printed = tuple(float(_trunc2(p)) for p in signal.as_tuple())
    ok = delta <= 5e-3 and printed == _TABLE1_PRINT
    checks.append(("table1_signal", ok, f"max|dpi|={delta:.2e}, 2dp={printed}", "5e-3 and 2dp match"))

    pb = bg.profit(game, (bg.HI, bg.LO))
    checks.append(("revenue_lambda_0.3", abs(pb.V - 0.9048) <= 5e-3, f"V={pb.V:.6f}", "0.9048 +/- 5e-3"))

    bench = 1.0 - (1.0 - game.mu_hi) * (1.0 - game.mu_lo)
    v_small = bg.profit(bg.GameParams(0.8, 0.6, 0.07, 0.01), (bg.HI, bg.LO)).V
    ok = abs(bench - 0.92) <= 1e-12 and abs(v_small - bench) <= 1e-9
    checks.append(("revenue_costless_benchmark", ok, f"benchmark={bench:.6f}, V(lam=.01)={v_small:.6f}", "exact / 1e-9"))

    gain_m = game.delta_mu * bg.incentive_gain(game, signal, bg.AGENT_M, bg.LO)
    checks.append(("deviation_loss_m", abs(gain_m - 0.098) <= 1e-3, f"dmu*gain_m={gain_m:.6f}", "0.098 +/- 1e-3"))

    gain_w = game.delta_mu * bg.incentive_gain(game, signal, bg.AGENT_W, bg.HI)
    brute = _win_probability(game, signal, game.mu_hi, game.mu_hi) - _win_probability(game, signal, game.mu_hi, game.mu_lo)
    ok = abs(gain_w - brute) <= 1e-6 and abs(gain_w - 0.0650) <= 5e-4
    checks.append(("deviation_gain_w_oracle", ok, f"dmu*gain_w={gain_w:.6f}, brute={brute:.6f}", "1e-6 vs oracle"))

    cuts = bg.thresholds(game)
    ok = 0.0 < cuts.lambda_low < cuts.lambda_star and cuts.lambda_low < cuts.lambda_high < cuts.lambda_breve
    measured = f"low={cuts.lambda_low:.4f} star={cuts.lambda_star:.4f} high={cuts.lambda_high:.4f} breve={cuts.lambda_breve:.4f}"
    checks.append(("threshold_ordering", ok, measured, "low < star, low < high < breve"))

    # each cutpoint puts the bonus X of the enumerations' kernel at its bound
    residuals = (bg.optimal_signal(game._replace(lam=cuts.lambda_star), (bg.HI, bg.HI)).X - game.c,
                 bg.optimal_signal(game._replace(lam=cuts.lambda_low), (bg.HI, bg.LO)).X - cuts.X_high,
                 bg.optimal_signal(game._replace(lam=cuts.lambda_high), (bg.HI, bg.LO)).X - cuts.X_low)
    measured = "X-c at star={:.2e}, X-X_high at low={:.2e}, X-X_low at high={:.2e}".format(*residuals)
    checks.append(("threshold_inverse_consistency", max(map(abs, residuals)) <= 1e-9, measured, "1e-9"))

    worst = 0.0
    for profile in bg.PROFILES:
        worst = max(worst, bg.signal_oracle_residual(game, profile))
    checks.append(("signal_oracle", worst <= 1e-8, f"sup residual={worst:.2e}", "1e-8"))

    mismatches = 0
    for i in range(10):
        lam = 0.1 + 1.1 * i / 9
        g_l = bg.GameParams(0.8, 0.6, 0.07, lam)
        quota_profiles = [r.profile for r in qp.quota_equilibrium_set(g_l)]
        impartial = [r.profile for r in bg.equilibrium_set(g_l) if r.classification == bg.IMPARTIAL]
        if quota_profiles != impartial:
            mismatches += 1
    checks.append(("quota_equivalence", mismatches == 0, f"mismatches={mismatches}/10", "exact"))

    worst_id = 0.0
    order_ok = True
    for i in range(40):
        gamma = game.A / game.B + 0.2 + i * 2.0
        lam = 1.0 / math.log(gamma)
        g_l = bg.GameParams(0.8, 0.6, 0.07, lam)
        hh, hl, ll = (bg.profit(g_l, p) for p in ((bg.HI, bg.HI), (bg.HI, bg.LO), (bg.LO, bg.LO)))
        ident = (hh.V - hl.V) - (hl.V - ll.V) + (gamma - 1.0) * game.delta_mu**2 / (gamma + 1.0)
        worst_id = max(worst_id, abs(ident))
        order_ok = order_ok and hh.I - hl.I > hl.I - ll.I
    checks.append(
        ("task_split_inequalities", worst_id <= 1e-10 and order_ok, f"|identity|={worst_id:.2e}, dI ordered={order_ok}", "1e-10 / strict")
    )

    return checks


def _win_probability(game: bg.GameParams, signal, mu_m: float, mu_w: float) -> float:
    """w's winning probability at a fixed signal, by direct enumeration."""
    p_plus = mu_m * (1.0 - mu_w)
    p_minus = mu_w * (1.0 - mu_m)
    p_zero = 1.0 - p_plus - p_minus
    return (
        p_plus * (1.0 - signal.pi_plus)
        + p_zero * (1.0 - signal.pi_zero)
        + p_minus * (1.0 - signal.pi_minus)
    )
