"""Command-line front end: single-point tables, regime sweeps, golden checks.

Subcommands: signal, thresholds, equilibria, regimes, quota, multitask,
variants, reproduce. Exit codes: 0 on success, 1 when a reproduce check fails,
and 2 on a usage error (argparse's usage message) or on an input the model
rejects: a ValueError, BracketError or ConvergenceError, reported on one
`error:` line with no traceback, as is an unreadable config. A config value is
parsed as its flag's text, typed before the command line's tokens: one its flag
would refuse, even under a typed flag, gets the subcommand's usage error, and
null leaves the option unset. The two error types come from the leaf
``riscreen._primitives``, so an error exit does not run the oracle ``ri_core``.
Machine output (csv/json) carries 12 significant digits and is
byte-deterministic for a fixed configuration: a JSON sweep float is the
shortest repr of the value rounded to 12 significant digits, so it equals
float() of the CSV cell. Human tables show 4 decimals, except the compact
probability table of `signal`, which truncates at 2 decimals.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import baseline_game as bg
from . import multitask as mt
from . import quota_policy as qp
from . import variants as va
from ._primitives import BracketError, ConvergenceError

SCHEMA_VERSION = "riscreen.regimes.v1"


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _trunc2(x: float) -> str:
    """Truncate (not round) to 2 decimals, the published-table convention.

    The pre-round at 6 digits keeps representation dust (0.56 stored as
    0.5599...99) from leaking into the truncation.
    """
    return f"{math.floor(round(x * 100.0, 6)) / 100.0:.2f}"


def _parse_profile(text: str) -> tuple:
    parts = tuple(p.strip() for p in text.split(","))
    if len(parts) != 2 or any(p not in (bg.HI, bg.LO) for p in parts):
        raise ValueError(f"profile must look like 'hi,lo', got {text!r}")
    return parts


def _parse_triple(text: str) -> tuple:
    parts = tuple(float(p) for p in text.split(","))
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return parts


def _tasks(args) -> tuple:
    """The two TaskParams of --task1 and --task2."""
    return mt.TaskParams(*_parse_triple(args.task1)), mt.TaskParams(*_parse_triple(args.task2))


def _game(args) -> bg.GameParams:
    """The game of the flags; that of thresholds and regimes, which take no --lambda, is at lam 1."""
    flags = {"--mu-hi": args.mu_hi, "--mu-lo": args.mu_lo, "--lambda": args.lam}
    missing = ", ".join(flag for flag, value in flags.items() if value is None)
    if missing:  # only where the parser leaves them optional
        raise ValueError(f"the following arguments are required: {missing}")
    return bg.GameParams(args.mu_hi, args.mu_lo, args.cost, args.lam)


def _lam_grid(args) -> list:
    """The sweep's lambda grid and the one check of its points: they never decrease from
    lo > 0, so a finite last point, by the grid's own formula, makes all positive and finite."""
    lo, hi = args.lambda_range
    n = args.lambda_steps
    if not (0.0 < lo < hi < math.inf and n >= 2):
        raise ValueError("need 0 < lo < hi and at least two steps in the lambda grid")
    try:
        last = lo + (hi - lo) * (n - 1) / (n - 1)
    except OverflowError:  # a step count past the float range
        last = math.inf
    if not math.isfinite(last):
        raise ValueError("the lambda grid overflows: (hi - lo) * (steps - 1) / (steps - 1) + lo,"
                         " its last point, must be finite")
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_signal(args) -> int:
    game = _game(args)
    profile = _parse_profile(args.profile)
    dist = bg.state_distribution(game, profile)
    rec = bg.evaluate(game, profile, bg.optimal_signal(game, profile))
    signal = rec.signal
    lines = [f"profile ({profile[0]}, {profile[1]})  mu=({game.mu_hi:g}, {game.mu_lo:g})  lambda={game.lam:g}"]
    lines.append("d         1     0    -1")
    lines.append(
        "P(d)   "
        + "  ".join(_trunc2(p) for p in (dist.p_plus, dist.p_zero, dist.p_minus))
    )
    lines.append(
        "pi(d)  "
        + "  ".join(_trunc2(p) for p in (signal.pi_plus, signal.pi_zero, signal.pi_minus))
    )
    if signal.degenerate:
        who = "m" if signal.pi_plus == 1.0 else "w"
        lines.append(f"degenerate: promote {who}")
    lines.append(
        f"pi_bar={_fmt4(signal.pi_bar)}  X={_fmt4(signal.X)}  Y={_fmt4(signal.Y)}"
    )
    lines.append(
        f"V={_fmt4(rec.revenue)}  I={_fmt4(rec.info_cost)}  profit={_fmt4(rec.profit)}"
    )
    if args.oracle:
        residual = bg.signal_oracle_residual(game, profile)
        lines.append(f"oracle residual={residual:.3e}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_thresholds(args) -> int:
    game = _game(args)
    cuts = bg.thresholds(game)
    lines = [
        f"c={_fmt4(game.c)}  A={_fmt4(game.A)}  B={_fmt4(game.B)}",
        f"assumption1={cuts.assumption1}  condition5={cuts.condition5}",
        f"lambda_low={_fmt4(cuts.lambda_low)}  lambda_star={_fmt4(cuts.lambda_star)}"
        f"  lambda_high={_fmt4(cuts.lambda_high)}  lambda_breve={_fmt4(cuts.lambda_breve)}",
        f"X_low={_fmt4(cuts.X_low)}  X_high={_fmt4(cuts.X_high)}"
        + (f"  gamma_hat={_fmt4(cuts.gamma_hat)}" if cuts.gamma_hat is not None else ""),
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


#: the text of each effort profile in tables and sweep cells, "hi,lo" and so on
_TAGS = {profile: f"{profile[0]},{profile[1]}" for profile in bg.PROFILES}


def cmd_equilibria(args) -> int:
    game = _game(args)
    records = bg.equilibrium_set(game)
    best = {r.profile for r in bg.most_profitable_among(records)}
    lines = []
    for rec in records:
        star = " *" if rec.profile in best else ""
        lines.append(
            f"({_TAGS[rec.profile]}) {rec.classification:15s}"
            f" profit={_fmt4(rec.profit)} V={_fmt4(rec.revenue)} I={_fmt4(rec.info_cost)}"
            f" u_m={_fmt4(rec.utility_m)} u_w={_fmt4(rec.utility_w)}{star}"
        )
    lines.append("* most profitable")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_regimes(args) -> int:
    from ._sweep import regimes  # only regimes compiles the sweep

    return regimes(args)


def cmd_quota(args) -> int:
    game = _game(args)
    lines = []
    for profile in bg.PROFILES:
        sol = qp.find_multiplier(game, profile)
        lines.append(
            f"({_TAGS[profile]}) nu={_fmt4(sol.nu)} pi_bar={_fmt4(sol.signal.pi_bar)}"
            f" X={_fmt4(sol.signal.X)} Y={_fmt4(sol.signal.Y)}"
        )
    records = qp.quota_equilibrium_set(game)
    lines.append(
        "quota equilibria: "
        + (", ".join(f"({_TAGS[r.profile]})" for r in records) or "none")
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_multitask(args) -> int:
    game, tasks = _game(args), _tasks(args)
    records = mt.multitask_equilibrium_set(game, tasks)
    lines = []
    for rec in records:
        lines.append(
            f"m=({rec.investment_m[0]},{rec.investment_m[1]})"
            f" w=({rec.investment_w[0]},{rec.investment_w[1]})"
            f" {rec.classification:15s} payoff={_fmt4(rec.payoff)}"
        )
    if mt._equal_arrivals(tasks) and records:
        winners = mt._most_profitable(records)
        lines.append("most profitable: " + ", ".join(sorted({w.classification for w in winners})))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_variants(args) -> int:
    game = None if args.which == "continuous" else _game(args)  # the effort grid reads no game
    lines = []
    if args.which == "heterogeneous":
        het = va.HeterogeneousParams(args.cost_m, args.cost_w, args.du_m, args.du_w)
        for rec in va.heterogeneous_equilibrium_set(game, het):
            lines.append(
                f"({_TAGS[rec.profile]}) {rec.classification:15s}"
                f" profit={_fmt4(rec.profit)} u_m={_fmt4(rec.utility_m)} u_w={_fmt4(rec.utility_w)}"
            )
    elif args.which == "commitment":
        sol = va.commitment_solve(game)
        lines.append(
            f"induced=({_TAGS[sol.induced_profile]}) profit={_fmt4(sol.profit)}"
            f" nu_m={_fmt4(sol.nu_m)} binding={sol.binding_agent or '-'}"
            f" impartial={sol.signal.impartial}"
        )
        for profile in sorted(sol.candidates):
            lines.append(f"  candidate ({_TAGS[profile]}) profit={_fmt4(sol.candidates[profile])}")
    elif args.which == "prior-invariant":
        if args.ref_prior is None:
            raise ValueError("--ref-prior is required for the prior-invariant variant")
        profile = _parse_profile(args.profile)
        dist = bg.state_distribution(game, profile)
        problem = va.ReferencePriorProblem(dist, _parse_triple(args.ref_prior), game.lam)
        result = va.prior_invariant_signal(problem)
        if not result.interior:
            lines.append(f"not interior: pi_bar_q={result.pi_bar_q}")
        else:
            sig = result.signal
            lines.append(
                f"pi=({_fmt4(sig.pi_minus)}, {_fmt4(sig.pi_zero)}, {_fmt4(sig.pi_plus)})"
                f" pi_bar_q={_fmt4(result.pi_bar_q)} impartial={sig.impartial}"
            )
    elif args.which == "mixed":
        found = va.mixed_equilibria(game)
        if not found:
            lines.append("no mixed equilibria")
        for eq in found:
            lines.append(
                f"sigma=({_fmt4(eq.profile.sigma_m)}, {_fmt4(eq.profile.sigma_w)})"
                f" {eq.classification}"
            )
    else:  # continuous
        grid = _lam_grid(args)
        for res in va.continuous_effort_equilibria(args.kappa, grid, args.grid_size):
            lines.append(
                f"lam={res.lam:.4f} fixed_points={len(res.fixed_points)}"
                f" symmetric={len(res.symmetric)} asymmetric={len(res.asymmetric)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_reproduce(args) -> int:
    from ._golden import golden_checks  # only reproduce compiles the checks

    checks = golden_checks()
    failed = [c for c in checks if not c[1]]
    if args.json:
        payload = {
            "schema": "riscreen.reproduce.v1",
            "checks": [
                {"name": n, "passed": ok, "measured": m, "tolerance": tol}
                for n, ok, m, tol in checks
            ],
            "passed": not failed,
        }
        import json
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = []
        for name, ok, measured, tol in checks:
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {measured} (tolerance {tol})")
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_game_args(sub, reads_lam=True, required=True):
    sub.add_argument("--mu-hi", type=float, dest="mu_hi", required=required)
    sub.add_argument("--mu-lo", type=float, dest="mu_lo", required=required)
    sub.add_argument("--cost", type=float, default=0.07)
    if reads_lam:
        sub.add_argument("--lambda", type=float, dest="lam", required=required)
    else:  # the cutpoints read no lambda: the game is built at 1
        sub.set_defaults(lam=1.0)


def _add_sweep_args(sub):
    sub.add_argument("--lambda-range", type=float, nargs=2, default=(0.05, 2.0), metavar=("LO", "HI"))
    sub.add_argument("--lambda-steps", type=int, default=40)


def _signal_args(p):
    _add_game_args(p)
    p.add_argument("--profile", default="hi,lo")
    p.add_argument("--oracle", action="store_true")


def _regimes_args(p):
    _add_game_args(p, reads_lam=False)
    _add_sweep_args(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analysis", choices=("baseline", "quota", "multitask", "variants"), default="baseline")
    p.add_argument("--task1", default="0.5,1.0,0.05", help="alpha,beta,cost of task 1")
    p.add_argument("--task2", default="0.5,1.0,0.05", help="alpha,beta,cost of task 2")
    p.add_argument("--svg", help="also write an SVG regime strip chart")


def _multitask_args(p):
    _add_game_args(p)
    p.add_argument("--task1", required=True, help="alpha,beta,cost of task 1")
    p.add_argument("--task2", required=True, help="alpha,beta,cost of task 2")


def _variants_args(p):
    _add_game_args(p, required=False)  # the continuous grid reads no game
    p.add_argument(
        "--which", required=True, choices=("heterogeneous", "commitment", "prior-invariant", "mixed", "continuous")
    )
    p.add_argument("--cost-m", type=float, default=0.07, dest="cost_m")
    p.add_argument("--cost-w", type=float, default=0.07, dest="cost_w")
    p.add_argument("--du-m", type=float, default=1.0, dest="du_m")
    p.add_argument("--du-w", type=float, default=1.0, dest="du_w")
    p.add_argument("--profile", default="hi,lo")
    p.add_argument("--ref-prior", dest="ref_prior", help="q(-1),q(0),q(1)")
    p.add_argument("--kappa", type=float, default=0.65)
    p.add_argument("--grid-size", type=int, default=100, dest="grid_size")
    _add_sweep_args(p)


def _reproduce_args(p):
    p.add_argument("--json", action="store_true")


#: (name, help, argument code, runner) of every subcommand, in help order
_COMMANDS = (
    ("signal", "optimal signal table for one effort profile", _signal_args, cmd_signal),
    ("thresholds", "regime cutpoints", lambda p: _add_game_args(p, reads_lam=False), cmd_thresholds),
    ("equilibria", "pure equilibria at one parameter point", _add_game_args, cmd_equilibria),
    ("regimes", "sweep lambda and write regime rows", _regimes_args, cmd_regimes),
    ("quota", "equal-promotion quota analysis", _add_game_args, cmd_quota),
    ("multitask", "two-task investment equilibria", _multitask_args, cmd_multitask),
    ("variants", "model variants", _variants_args, cmd_variants),
    ("reproduce", "run the golden checks", _reproduce_args, cmd_reproduce),
)


def _add_command(parser: argparse.ArgumentParser, add_arguments, run) -> None:
    """Fill a subcommand's parser from its _COMMANDS row: the row's arguments, then --out and its runner."""
    add_arguments(parser)
    parser.add_argument("--out")
    parser.set_defaults(func=run)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser with all eight subcommands, for the top-level help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="riscreen",
        description="Promotion-game analysis under mutual-information attention costs.",
    )
    parser.add_argument("--config", default=None, help="JSON file with default option values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, *row in _COMMANDS:
        _add_command(sub.add_parser(name, help=help_text), *row)
    return parser


#: each subcommand's parser by name, stored once complete (racing threads each build a whole one)
_COMMAND_PARSERS = {}


def _command_parser(name: str) -> argparse.ArgumentParser | None:
    """The parser of subcommand ``name`` (no --config), built on first use; None for any other name."""
    parser = _COMMAND_PARSERS.get(name)
    if parser is None:
        for command, _, *row in _COMMANDS:
            if command == name:
                parser = argparse.ArgumentParser(prog=f"riscreen {name}")
                _add_command(parser, *row)
                _COMMAND_PARSERS[name] = parser
    return parser


def _config_flags(parser: argparse.ArgumentParser, cfg: dict) -> list:
    """cfg as command-line text for parser's options, keyed by dest; other keys, help and null give nothing.
    A switch gives its flag for true and nothing for false; an n-value option given n items, the flag and
    each item; any other value ``--flag=TEXT``, TEXT being a JSON string or another value's JSON text."""

    def text(value) -> str:
        import json
        return value if isinstance(value, str) else json.dumps(value)

    flags = []
    for action in parser._actions:
        value, flag = cfg.get(action.dest), action.option_strings[0]
        if value is None or action.dest == "help":
            continue
        if action.nargs == 0 and isinstance(value, bool):
            flags += [flag] if value else []
        elif isinstance(value, list) and len(value) == action.nargs:  # no item spills past the option
            flags += [flag, *map(text, value)]
        else:
            flags.append(f"{flag}={text(value)}")
    return flags


# --config belongs to the top-level parser: look for it before the subcommand only, with its usage error
_PROBE = argparse.ArgumentParser(add_help=False)
_PROBE.error = lambda message: build_parser().error(message)
_PROBE.add_argument("--config", default=None)
_PROBE.add_argument("command", nargs=argparse.REMAINDER)


def main(argv=None) -> int:
    """Run the command line on argv (default ``sys.argv[1:]``) and return its exit code.

    The subcommand's parser alone, built on first use and kept, parses the text of a config
    read before its name (:func:`_config_flags`) and then the tokens after it, so a typed flag
    wins; a leftover token gets its usage error. Any other argv gets :func:`build_parser`'s.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    rest, config = argv, None
    if not argv or _command_parser(argv[0]) is None:
        probe, unknown = _PROBE.parse_known_args(argv)
        rest, config = [] if unknown else probe.command, probe.config
    try:
        cfg = {}
        if config is not None:
            import json
            try:
                with open(config) as fh:
                    cfg = json.load(fh)
            except (OSError, ValueError) as exc:  # ValueError: bad JSON, bytes or integer text
                raise ValueError(f"cannot read config {config!r}: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ValueError(f"config {config!r} must hold a JSON object")
        command = _command_parser(rest[0]) if rest else None
        if command is None:
            args = build_parser().parse_args(argv)
        else:
            args = command.parse_args([*_config_flags(command, cfg), *rest[1:]], argparse.Namespace(config=config, command=rest[0]))
        return args.func(args)
    except (ValueError, BracketError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
