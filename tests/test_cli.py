"""CLI behavior: formats, determinism, exit codes, golden checks."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from riscreen import _golden
from riscreen import baseline_game as bg
from riscreen import cli

import helpers


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


CANON = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07"]
COMMANDS = ["signal", "thresholds", "equilibria", "regimes", "quota", "multitask", "variants", "reproduce"]


def test_help_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.startswith("    ") and line[4] != " "] == COMMANDS


def test_an_unknown_subcommand_gets_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: riscreen [-h] [--config CONFIG]")
    assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("argv", [["--config"], ["--conf"]], ids=["config", "conf"])
def test_a_config_without_a_path_gets_the_top_level_usage(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the usage wraps after [--config CONFIG]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.splitlines()[0] == "usage: riscreen [-h] [--config CONFIG]"
    assert err.splitlines()[-1] == "riscreen: error: argument --config: expected one argument"
    assert "Traceback" not in err


@pytest.mark.parametrize("name", COMMANDS)
def test_every_subcommand_takes_out(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "-h"])
    assert exc.value.code == 0
    assert "\n  --out OUT\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv, error", [
    (["thresholds", *CANON, "--lambda", "1"], "riscreen thresholds: error: unrecognized arguments: --lambda 1"),
    (["regimes", *CANON, "--lambda", "0.3"],
     "riscreen regimes: error: ambiguous option: --lambda could match --lambda-range, --lambda-steps"),
], ids=["thresholds", "regimes"])
def test_the_cutpoint_commands_take_no_lambda(argv, error, tmp_path, capsys):
    # the cutpoints read no lambda: a typed --lambda is a usage error under the subcommand's own usage,
    # and a config's lam is ignored, even one that --lambda would refuse
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.startswith(f"usage: riscreen {argv[0]} [-h]") and captured.err.splitlines()[-1] == error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": "x"}))
    assert run(["--config", str(cfg), argv[0]], capsys) == run([argv[0], *CANON], capsys)


class TestSignalCommand:
    def test_published_table_rows(self, capsys):
        code, out, _ = run(["signal", *CANON, "--lambda", ".3", "--profile", "hi,lo"], capsys)
        assert code == 0
        assert "0.32  0.56  0.12" in out
        assert "0.98  0.74  0.09" in out
        assert "pi_bar=0.7441" in out

    def test_oracle_flag_reports_residual(self, capsys):
        code, out, _ = run(
            ["signal", *CANON, "--lambda", ".3", "--profile", "hi,lo", "--oracle"], capsys
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("oracle residual"))
        assert float(line.split("=")[1]) <= 1e-8

    def test_degenerate_notice(self, capsys):
        code, out, _ = run(["signal", *CANON, "--lambda", "2", "--profile", "hi,lo"], capsys)
        assert code == 0
        assert "degenerate: promote m" in out

    def test_symmetric_profile_row(self, capsys):
        code, out, _ = run(["signal", *CANON, "--lambda", ".3", "--profile", "hi,hi"], capsys)
        assert code == 0
        assert "0.50" in out

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(["signal", "--mu-hi", ".6", "--mu-lo", ".8", "--lambda", ".3"], capsys)
        assert code == 2
        assert "error" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["signal", "--mu-hi", ".8"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestRegimesCommand:
    def test_deterministic_csv(self, tmp_path, capsys):
        args = [
            "regimes",
            *CANON,
            "--lambda-range", "0.05", "2.0",
            "--lambda-steps", "30",
            "--seed", "7",
        ]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second
        assert first.startswith(f"# schema={cli.SCHEMA_VERSION}\n")

    def test_boundaries_within_one_grid_step(self, capsys):
        steps = 140
        code, out, _ = run(
            ["regimes", *CANON, "--lambda-range", "0.05", "2.0", "--lambda-steps", str(steps)],
            capsys,
        )
        assert code == 0
        rows = [
            line.split(",")
            for line in out.splitlines()
            if line and not line.startswith("#") and not line.startswith("lam")
        ]
        lam = [float(r[0]) for r in rows]
        step = lam[1] - lam[0]
        cuts = bg.thresholds(bg.GameParams(0.8, 0.6, 0.07, 1.0))
        hi_flags = [int(r[1]) for r in rows]
        disc_flags = [int(r[2]) for r in rows]
        lo_flags = [int(r[4]) for r in rows]
        # last lambda with the high-effort equilibrium brackets lambda_star
        last_hi = max(l for l, f in zip(lam, hi_flags) if f)
        assert abs(last_hi - cuts.lambda_star) <= step
        first_lo = min(l for l, f in zip(lam, lo_flags) if f)
        assert abs(first_lo - cuts.lambda_star) <= step
        disc_on = [l for l, f in zip(lam, disc_flags) if f]
        assert abs(min(disc_on) - cuts.lambda_low) <= step
        assert abs(max(disc_on) - cuts.lambda_high) <= step

    def test_quota_mode_kills_discrimination_columns(self, capsys):
        code, out, _ = run(
            ["regimes", *CANON, "--analysis", "quota", "--lambda-range", "0.05", "2.0",
             "--lambda-steps", "25"],
            capsys,
        )
        assert code == 0
        for line in out.splitlines():
            if line.startswith("#") or line.startswith("lam") or not line:
                continue
            cells = line.split(",")
            assert cells[2] == "0" and cells[3] == "0"

    def test_json_matches_shipped_schema(self, capsys):
        payloads = []
        for analysis in ("baseline", "quota", "multitask", "variants"):
            code, out, _ = run(
                ["regimes", *CANON, "--analysis", analysis, "--format", "json", "--lambda-steps", "5",
                 "--lambda-range", "0.1", "1.0"],
                capsys,
            )
            assert code == 0, analysis
            payloads.append(json.loads(out))
            # the sweep writer formats every scalar itself, yet writes what json.dumps writes
            assert out == json.dumps(payloads[-1], sort_keys=True, indent=2) + "\n", analysis
        import importlib.resources as resources

        schema = json.loads(
            resources.files("riscreen").joinpath("schemas/regimes.schema.json").read_text()
        )
        jsonschema = pytest.importorskip("jsonschema")
        for payload in payloads:
            jsonschema.validate(payload, schema)

    def test_multitask_mode(self, capsys):
        code, out, _ = run(
            ["regimes", *CANON, "--analysis", "multitask",
             "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03",
             "--lambda-range", "0.1", "1.2", "--lambda-steps", "12"],
            capsys,
        )
        assert code == 0
        assert "most_profitable" in out.splitlines()[6]

    def test_variants_mode(self, capsys):
        code, out, _ = run(
            ["regimes", *CANON, "--analysis", "variants",
             "--lambda-range", "0.3", "0.9", "--lambda-steps", "4"],
            capsys,
        )
        assert code == 0
        assert "commitment_profit" in out

    def test_svg_strip_chart(self, tmp_path, capsys):
        for analysis in ("baseline", "quota"):  # the two analyses with the regime header
            svg = tmp_path / f"{analysis}.svg"
            out_csv = tmp_path / f"{analysis}.csv"
            code, _, _ = run(
                ["regimes", *CANON, "--analysis", analysis, "--lambda-steps", "12", "--lambda-range", "0.05", "1.5",
                 "--out", str(out_csv), "--svg", str(svg)],
                capsys,
            )
            assert code == 0, analysis
            text = svg.read_text()
            assert text.startswith("<svg") and text.count("<rect") == 12, analysis


    @pytest.mark.parametrize("analysis", ["variants", "multitask"])
    def test_svg_rejected_before_any_solve(self, analysis, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(bg, "thresholds", lambda params: solves.append(params))
        svg = tmp_path / "strip.svg"
        code, out, err = run(
            ["regimes", *CANON, "--analysis", analysis, "--lambda-steps", "3", "--svg", str(svg)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: the regime strip chart is defined for baseline/quota sweeps\n"
        assert solves == [] and not svg.exists()


class TestConfigFile:
    def test_config_supplies_required_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
        code, out, _ = run(["--config", str(cfg), "signal"], capsys)
        assert code == 0
        assert "0.98  0.74  0.09" in out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 2.0}))
        code, out, _ = run(["--config", str(cfg), "signal", "--lambda", "0.3"], capsys)
        assert code == 0
        assert "degenerate" not in out

    def test_missing_config_exit_2(self, capsys):
        code, _, err = run(["--config", "/does/not/exist.json", "signal"], capsys)
        assert code == 2
        assert "error" in err

    def test_config_after_the_subcommand_is_not_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["signal", *CANON, "--lambda", ".3", "--config", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: riscreen signal [-h]")
        assert err.endswith(f"riscreen signal: error: unrecognized arguments: --config {missing}\n")
        # a readable config there supplies nothing: the required options stay missing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["signal", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --mu-hi, --mu-lo, --lambda\n")


class TestReproduce:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(["reproduce"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == len(_golden.golden_checks())

    def test_json_report(self, capsys):
        code, out, _ = run(["reproduce", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert payload["passed"] is True
        assert all(set(c) == {"name", "passed", "measured", "tolerance"} for c in payload["checks"])

    def test_tampered_constant_fails_named_check(self, capsys, monkeypatch):
        # thresholds looks lambda_star up by module name; the check reads the kernel's bonus there
        real = bg.lambda_star
        monkeypatch.setattr(bg, "lambda_star", lambda params: real(params) + 1e-3)
        code, out, _ = run(["reproduce"], capsys)
        assert code == 1
        assert any("FAIL threshold_inverse_consistency" in l for l in out.splitlines())


class TestOtherCommands:
    def test_thresholds(self, capsys):
        code, out, _ = run(["thresholds", *CANON], capsys)
        assert code == 0
        assert "lambda_star=0.5765" in out

    @pytest.mark.parametrize(
        "command, cost", [("thresholds", "0.18521755123136274"), ("regimes", "0.04540727445786066")]
    )
    def test_bonus_bound_at_the_cap_of_f(self, command, cost, capsys):
        # X_high (thresholds) or X_low (regimes) is within an ulp of B/(A+B), the
        # cap of the (hi, lo) bonus, met only at lam = 0, the cutpoint
        game = ["--mu-hi", "0.7406087119000457", "--mu-lo", "0.049551753165835107", "--cost", cost]
        code, out, err = run([command, *game], capsys)
        assert code == 0 and out and "Traceback" not in err

    def test_the_discriminatory_window_next_to_lambda_breve(self, capsys):
        # lam sits 1.3e-7 below lambda_breve, inside [lambda_low, lambda_high]: pi(1) of the (hi, lo)
        # signal once rounded above 1, and the information bill printed "error: math domain error"
        argv = ["equilibria", "--mu-hi", "0.9999980454318192", "--mu-lo", "0.07935060592402308",
                "--cost", "1.7857e-07", "--lambda", "0.0641167"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert [line.split()[0] for line in out.splitlines()[:3]] == ["(hi,hi)", "(hi,lo)", "(lo,hi)"]

    #: B = mu_lo (1 - mu_hi) underflows to 0: the (hi, lo) signal is degenerate at every lam
    UNDERFLOW = ["--mu-hi", "0.9999999999999999", "--mu-lo", "5e-324", "--cost", "0.07"]

    @pytest.mark.parametrize("argv", [
        ["signal", "--lambda", ".3", "--profile", "hi,lo", "--oracle"],
        ["thresholds"],
        ["equilibria", "--lambda", ".3"],
        *(["regimes", "--analysis", a, "--lambda-steps", "4"] for a in ("baseline", "quota", "multitask", "variants")),
        ["quota", "--lambda", ".3"],
        ["multitask", "--lambda", ".3", "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"],
        *(["variants", "--which", which, "--lambda", ".3", "--ref-prior", "0.2,0.5,0.3"]
          for which in ("heterogeneous", "commitment", "prior-invariant", "mixed", "continuous")),
    ])
    def test_every_subcommand_where_B_underflows(self, argv, capsys):
        # an exception out of main fails the test; the quota runs too, at mu_hi + mu_lo = 0.9999999999999999
        code, out, err = run([*argv, *self.UNDERFLOW], capsys)
        assert (code, err) == (0, "") and out

    def test_equilibria_marks_most_profitable(self, capsys):
        code, out, _ = run(["equilibria", *CANON, "--lambda", ".3"], capsys)
        assert code == 0
        starred = [l for l in out.splitlines() if l.endswith("*") and "hi,hi" in l]
        assert starred

    def test_quota_command(self, capsys):
        code, out, _ = run(["quota", *CANON, "--lambda", ".3"], capsys)
        assert code == 0
        assert "quota equilibria: (hi,hi)" in out

    def test_multitask_command(self, capsys):
        code, out, _ = run(
            ["multitask", *CANON, "--lambda", ".45",
             "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"],
            capsys,
        )
        assert code == 0
        assert "most profitable:" in out

    @pytest.mark.parametrize(
        "extra",
        [
            ["--which", "heterogeneous", "--cost-m", "0.06", "--cost-w", "0.08"],
            ["--which", "commitment"],
            ["--which", "prior-invariant", "--ref-prior", "0.2,0.5,0.3"],
            ["--which", "mixed"],
            ["--which", "continuous", "--lambda-range", "0.2", "1.0", "--lambda-steps", "4",
             "--grid-size", "40"],
        ],
    )
    def test_variants_subcommands_run(self, extra, capsys):
        code, out, _ = run(["variants", *CANON, "--lambda", ".4", *extra], capsys)
        assert code == 0
        assert out.strip()

    def test_continuous_variant_needs_no_game(self, capsys):
        argv = ["variants", "--which", "continuous", "--kappa", ".65",
                "--lambda-range", ".1", "5", "--lambda-steps", "3"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("lam=0.1000 fixed_points=")
        # the game flags are still accepted, and change nothing
        assert run([*argv, *CANON, "--lambda", ".3"], capsys) == (0, out, "")

    @pytest.mark.parametrize("which, extra", [
        ("heterogeneous", []),
        ("commitment", []),
        ("prior-invariant", ["--ref-prior", "0.2,0.5,0.3"]),
        ("mixed", []),
    ])
    def test_game_variants_name_the_missing_flags(self, which, extra, capsys):
        code, out, err = run(["variants", "--which", which, *extra], capsys)
        assert (code, out) == (2, "")
        assert err == "error: the following arguments are required: --mu-hi, --mu-lo, --lambda\n"
        code, out, err = run(["variants", "--which", which, "--mu-lo", ".6", "--lambda", ".3", *extra], capsys)
        assert (code, out, err) == (2, "", "error: the following arguments are required: --mu-hi\n")

    def test_mixed_with_a_subnormal_mu_lo(self, capsys):
        # mu_lo * (1 - nu) underflows to 0 in the odds edges of m's branch
        argv = ["variants", "--which", "mixed", "--mu-hi", "0.7", "--mu-lo", "5e-324", "--cost", "0.01"]
        assert run([*argv, "--lambda", "0.3"], capsys) == (0, "no mixed equilibria\n", "")
        code, out, err = run([*argv, "--lambda", "1.0"], capsys)
        assert (code, err) == (0, "")
        assert out == run([*argv[:6], "1e-300", *argv[7:], "--lambda", "1.0"], capsys)[1]

    def test_prior_invariant_requires_reference(self, capsys):
        code, _, err = run(["variants", *CANON, "--lambda", ".4", "--which", "prior-invariant"], capsys)
        assert code == 2
        assert "ref-prior" in err

    def test_out_file_writing(self, tmp_path, capsys):
        target = tmp_path / "sig.txt"
        code, out, _ = run(["signal", *CANON, "--lambda", ".3", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert "pi_bar=0.7441" in target.read_text()


def _mixed(mu_hi, mu_lo, cost, lam):
    return ["variants", "--which", "mixed", "--mu-hi", mu_hi, "--mu-lo", mu_lo, "--cost", cost, "--lambda", lam]


def test_cli_never_loads_numpy(tmp_path):
    # numpy is only a test dependency: every subcommand must run with it unimportable
    game = ["--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".3"]
    quota = ["quota", "--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda"]
    sweep = ["--mu-hi", ".8", "--mu-lo", ".6", "--lambda-steps", "8"]
    commands = [
        ["signal", *game, "--profile", "hi,lo", "--oracle"],
        ["thresholds", *game[:4]],
        ["equilibria", *game],
        *(["regimes", "--analysis", a, *sweep] for a in ("baseline", "quota", "multitask", "variants")),
        ["regimes", *sweep, "--format", "json", "--svg", str(tmp_path / "strip.svg")],
        ["quota", *game],
        # both edge branches of the closed-form quota multiplier, and mu near both edges
        [*quota, "0.0001"],
        [*quota, "10000"],
        ["quota", "--mu-hi", ".999", "--mu-lo", ".0011", "--cost", ".07", "--lambda", ".3"],
        ["multitask", *game, "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"],
        ["variants", "--which", "heterogeneous", *game, "--cost-m", "0.06", "--cost-w", "0.08"],
        ["variants", "--which", "commitment", *game],
        ["variants", "--which", "prior-invariant", *game, "--ref-prior", "0.2,0.5,0.3"],
        ["variants", "--which", "mixed", *game],
        # the mixed-equilibrium cubic near r = 1, at r = 6.5e-290 and at r = 0
        _mixed("0.5625", "0.501953125", "0.00070953369140625", "21.32942651096404"),
        _mixed("0.9360937099164971", "0.6245296784819083", "0.03907889662273058", "0.0015017652823926325"),
        _mixed(".8", ".3", ".2", "0.001"),
        # the balanced branch 5.9e-11 below lambda_star, its u - 2 taken without cancellation
        _mixed("0.75", "0.25", "0.005859375", "21.32942650971451"),
        # the balanced branch 1.4e-13 below lambda_star at r = 0.029, where 2c >= 1/2 takes
        # e - 2c(1 + r) as (1 - 2c) - r(1 + 2c)
        _mixed("0.7182399803446649", "0.4931375835895383", "0.10626623731596745", "0.2816839431148405"),
        ["variants", "--which", "continuous", *game, "--lambda-steps", "3", "--grid-size", "40"],
        ["reproduce"],
        ["reproduce", "--json"],
    ]
    assert {c[0] for c in commands} == {name for name, *_ in cli._COMMANDS}
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "import riscreen.cli as cli\n"
        "assert 'dataclasses' not in sys.modules, 'import riscreen.cli loaded dataclasses'\n"
        "assert 'inspect' not in sys.modules, 'import riscreen.cli loaded inspect'\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=helpers.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cli_never_loads_typing():
    # -S skips site, whose startup hooks can load typing on their own
    script = (
        "import sys, riscreen.cli\nassert 'typing' not in sys.modules, 'import riscreen.cli loaded typing'\n"
        # the golden checks are compiled by reproduce only, never on a cold single-point run
        "assert riscreen.cli.main(['equilibria', '--mu-hi', '.8', '--mu-lo', '.6', '--lambda', '.3']) == 0\n"
        "assert 'riscreen._golden' not in sys.modules, 'equilibria loaded riscreen._golden'\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], env=helpers.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


_GAME = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07", "--lambda", ".3"]
_HET = ["--cost-m", ".07", "--cost-w", ".07"]


@pytest.mark.parametrize("argv, code, bodies", [
    (["reproduce", "--json"], "0", {"ri_core", "baseline_game", "quota_policy"}),
    (["signal", *_GAME, "--profile", "hi,lo", "--oracle"], "0", {"ri_core", "baseline_game"}),
    (["signal", *_GAME, "--profile", "hi,lo"], "0", {"baseline_game"}),
    (["thresholds", *_GAME[:6]], "0", {"baseline_game"}),
    (["equilibria", *_GAME], "0", {"baseline_game"}),
    (["quota", *_GAME], "0", {"baseline_game", "quota_policy"}),
    (["regimes", "--analysis", "baseline", *_GAME[:6], "--lambda-steps", "8", "--format", "json"],
     "0", {"baseline_game", "_sweep"}),
    (["variants", "--which", "continuous", *_GAME, "--kappa", ".65", "--lambda-range", ".1", "5", "--lambda-steps", "12"],
     "0", {"baseline_game", "variants"}),
    (["variants", "--which", "heterogeneous", *_GAME, *_HET], "0", {"baseline_game", "variants"}),
    (["variants", "--which", "heterogeneous", *_GAME[:6], "--lambda", "0.001", *_HET], "0", {"baseline_game", "variants"}),
    (["equilibria", "--mu-hi", ".6", "--mu-lo", ".8", *_GAME[4:]], "2", {"baseline_game"}),
    (["variants", "--which", "heterogeneous", *_GAME, "--cost-m", ".08", "--cost-w", ".07"],
     "2", {"baseline_game", "variants"}),
], ids=["reproduce", "signal", "signal-closed-form", "thresholds", "equilibria", "quota", "regimes", "continuous",
        "heterogeneous", "tiny-lambda", "rejected-game", "rejected-cost-order"])
def test_a_cold_command_runs_only_the_module_bodies_it_needs(argv, code, bodies):
    # the benchmark's cold commands, plus signal without --oracle and thresholds: only reproduce
    # and the oracle run ri_core's body; an error exit matches the error types of riscreen._primitives
    # without running it either. A deferred module's class is ModuleType once its body
    # has run (reading its vars() would run it), and _sweep, imported by regimes on first
    # use, has not run while it is absent from sys.modules
    script = (
        "import io, sys, types, riscreen.cli\n"
        "sys.stdout = io.StringIO()\n"
        f"code = riscreen.cli.main({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "deferred = ('ri_core', 'baseline_game', 'quota_policy', 'multitask', 'variants', '_sweep')\n"
        "print(code, *(m for m in deferred if type(sys.modules.get('riscreen.' + m)) is types.ModuleType))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script], env=helpers.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    exit_code, *ran = done.stdout.split()
    assert (exit_code, set(ran)) == (code, bodies)


def test_config_run_does_not_leak_into_later_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu_hi": 0.9, "mu_lo": 0.55, "cost": 0.05, "lam": 0.4}))
    default = ["equilibria", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".3"]
    configured = ["--config", str(cfg), "equilibria"]

    def fresh(argv):
        done = subprocess.run(
            [sys.executable, "-m", "riscreen", *argv], env=helpers.child_env(), capture_output=True, text=True
        )
        return done.returncode, done.stdout

    for argv in (default, configured, default):
        code, out, _ = run(argv, capsys)
        assert (code, out) == fresh(argv)
    # the config's mu_hi, mu_lo and lam must not have become defaults
    with pytest.raises(SystemExit) as exc:
        cli.main(["equilibria"])
    assert exc.value.code == 2


def test_equilibria_enumerates_once(capsys, monkeypatch):
    calls = []
    real = bg.equilibrium_set
    monkeypatch.setattr(bg, "equilibrium_set", lambda params: calls.append(params) or real(params))
    code, out, _ = run(["equilibria", *CANON, "--lambda", ".3"], capsys)
    assert code == 0
    assert len(calls) == 1
    assert [l for l in out.splitlines() if l.endswith(" *")] == [
        l for l in out.splitlines() if l.startswith("(hi,hi)")
    ]


@helpers.draws(200, seed=43001, params=helpers.any_domain_game)
def test_every_subcommand_exits_cleanly_on_the_whole_domain(params):
    # each subcommand, run in-process at a game of the documented domain, exits 0 with output
    # and nothing on stderr: no refusal, no traceback, no bare math error
    game = ["--mu-hi", repr(params.mu_hi), "--mu-lo", repr(params.mu_lo), "--cost", repr(params.cost_C)]
    at = [*game, "--lambda", repr(params.lam)]
    sweep = [*game, "--lambda-range", repr(params.lam / 2.0), repr(params.lam * 2.0), "--lambda-steps", "3"]
    # two equal-arrival tasks priced either side of cost_C
    tasks = ["--task1", f"0.5,1.0,{0.9 * params.cost_C!r}", "--task2", f"0.5,1.0,{1.1 * params.cost_C!r}"]
    commands = [
        *(["signal", *at, "--profile", profile] for profile in ("hi,hi", "hi,lo", "lo,hi", "lo,lo")),
        ["signal", *at, "--oracle"],
        ["thresholds", *game],
        ["equilibria", *at],
        ["quota", *at],
        ["variants", "--which", "mixed", *at],
        ["variants", "--which", "commitment", *at],
        ["variants", "--which", "heterogeneous", *at, "--cost-m", repr(params.cost_C),
         "--cost-w", repr(1.5 * params.cost_C)],
        ["multitask", *at, *tasks],
        *(["regimes", "--analysis", analysis, *sweep] for analysis in ("baseline", "quota", "variants")),
        ["regimes", "--analysis", "multitask", *sweep, *tasks],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert (code, err.getvalue()) == (0, "") and out.getvalue(), argv
