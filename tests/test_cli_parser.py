"""The CLI's subcommand parsers, built on first use and shared, its indented-JSON writer, and JSON sweeps against CSV."""

import argparse
import csv
import json
import math
import random
import struct
import subprocess
import sys
import threading

import pytest

from riscreen import _sweep, cli

import helpers

COMMANDS = [name for name, *_ in cli._COMMANDS]
CANON = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07"]


def outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def uncached_parsers(monkeypatch):
    """Drop the kept subcommand parsers of cli.main before each call: every call builds its parsers anew."""
    main = cli.main
    monkeypatch.setattr(cli, "_COMMAND_PARSERS", {})

    def fresh_main(argv):
        cli._COMMAND_PARSERS.clear()
        return main(argv)

    monkeypatch.setattr(cli, "main", fresh_main)


def leftover(argv, capsys) -> bool:
    """Whether argv leads with a subcommand and the full parser leaves tokens after it; what it prints is dropped."""
    extras = []
    if argv and argv[0] in COMMANDS:
        try:
            extras = cli.build_parser().parse_known_args(argv)[1]
        except SystemExit:
            capsys.readouterr()
    return bool(extras)


def own_outcome(argv, capsys):
    """The exit code, stdout and stderr of argv's subcommand parser alone on the tokens after its name."""
    with pytest.raises(SystemExit) as exc:
        cli._command_parser(argv[0]).parse_args(argv[1:])
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def byte_identity_cases(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
    return [
        ["--help"],
        *([name, "--help"] for name in COMMANDS),
        [],
        ["promote"],
        ["--verbose", "equilibria", *CANON, "--lambda", ".3"],
        ["equilibria", *CANON, "--lambda", ".3", "--verbose"],
        ["equilibria", "--mu-hi", ".8"],
        ["regimes", *CANON, "--analysis", "welfare"],
        ["--config", str(cfg), "signal"],
        ["--config", str(cfg), "signal", "--lambda", ".5", "--profile", "hi,hi"],
    ]


def test_a_subcommand_parser_matches_the_full_parser(tmp_path, capsys, monkeypatch, uncached_parsers):
    monkeypatch.setenv("COLUMNS", "80")
    # the full parser reads no config: test_a_config_run_equals_its_flag_run checks config runs
    cases = [argv for argv in byte_identity_cases(tmp_path) if "--config" not in argv]
    direct = [outcome(argv, capsys) for argv in cases]
    # tokens left after a leading subcommand get that subcommand's own usage error
    own = [own_outcome(argv, capsys) if leftover(argv, capsys) else None for argv in cases]
    assert [argv for argv, mine in zip(cases, own) if mine] == [["equilibria", *CANON, "--lambda", ".3", "--verbose"]]
    monkeypatch.setattr(cli, "_command_parser", lambda name: None)  # every argv through build_parser
    full = [outcome(argv, capsys) for argv in cases]
    for argv, got, want, mine in zip(cases, direct, full, own):
        assert got == (mine or want), argv
        if mine:  # the same error as the full parser's, under the subcommand's usage and name
            assert mine[2].endswith("\nriscreen equilibria: error: unrecognized arguments: --verbose\n"), mine
            assert want[2].endswith("\nriscreen: error: unrecognized arguments: --verbose\n"), want
    # every case reached argparse's output or a run, not an exception
    assert {code for code, _, _ in direct} == {0, 2}
    assert all(out.startswith("usage: riscreen ") for argv, (_, out, _) in zip(cases, direct) if "--help" in argv)


def test_the_sweep_table_names_the_parsers_analyses_in_order():
    # the --analysis choices stay in cli, which loads _sweep only for regimes; _sweep's table must match them
    action = next(a for a in cli._command_parser("regimes")._actions if a.dest == "analysis")
    assert tuple(_sweep._ANALYSES) == action.choices


def test_a_run_adds_arguments_for_its_subcommand_only(capsys, monkeypatch, uncached_parsers):
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return real(self, *args, **kwargs)

    full = []
    parser = cli.build_parser()  # built before add_argument is counted: a run that asks for it shows in full
    monkeypatch.setattr(cli, "build_parser", lambda: full.append(parser) or parser)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    code, _, _ = outcome(["regimes", *CANON, "--lambda-steps", "3"], capsys)
    assert code == 0
    assert {prog for prog, _ in added} == {"riscreen regimes"}
    assert added[0] == ("riscreen regimes", "-h")
    assert len(added) == 13
    assert full == []  # no leftover tokens: the full parser is never built


def test_shared_parsers_give_the_output_of_fresh_ones(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_COMMAND_PARSERS", {})
    cases = byte_identity_cases(tmp_path)
    fresh = []
    for argv in cases:
        cli._COMMAND_PARSERS.clear()
        fresh.append(outcome(argv, capsys))
    cli._COMMAND_PARSERS.clear()
    assert [outcome(argv, capsys) for argv in cases] == fresh  # builds the shared parsers
    shared = dict(cli._COMMAND_PARSERS)
    assert sorted(shared) == sorted(COMMANDS)  # `name --help` led with each subcommand
    assert [outcome(argv, capsys) for argv in cases] == fresh  # only reuses them
    assert len(cli._COMMAND_PARSERS) == len(shared)
    assert all(cli._COMMAND_PARSERS[name] is parser for name, parser in shared.items())


def test_an_edited_config_takes_effect_in_the_same_process(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
    first = outcome(["--config", str(cfg), "signal"], capsys)
    cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.5}))
    second = outcome(["--config", str(cfg), "signal"], capsys)
    assert first == outcome(["signal", *CANON, "--lambda", ".3"], capsys)
    assert second == outcome(["signal", *CANON, "--lambda", ".5"], capsys)
    assert first != second


def dispatch_cases(cfg_path) -> list:
    """Argvs with a leading subcommand and every other shape of argv without a config."""
    game = [*CANON, "--lambda", ".3"]
    cfg_path.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
    path = str(cfg_path)
    return [
        ["signal", *game, "--profile", "hi,hi"],
        ["thresholds", *CANON],
        ["equilibria", *game],
        ["regimes", *CANON, "--lambda-steps", "3", "--format", "json"],
        ["quota", *game],
        ["multitask", *game, "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"],
        ["variants", "--which", "commitment", *game],
        ["reproduce"],
        *([name, "-h"] for name in COMMANDS),
        ["regimes", *CANON, "stray"],
        ["equilibria", *game, "--"],
        ["equilibria", "--", *game],
        ["equilibria", *CANON, "--", "--lambda", ".3"],
        ["equilibria", *CANON, "--lam", ".3"],  # a unique prefix of --lambda
        ["equilibria", "--mu", ".8", "--mu-lo", ".6", "--lambda", ".3"],  # --mu-hi or --mu-lo
        ["equilibria", "--mu-hi", "x", "--mu-lo", ".6", "--lambda", ".3"],
        ["regimes", *CANON, "--format", "xml"],
        ["equilibria", "--mu-hi", ".8"],
        ["equilibria", "--config", path],
        ["equilibria", *game, "--config", path],
        [],
        [""],
        ["-x", "equilibria"],
    ]


def test_a_leading_subcommand_parses_as_the_top_level_parser_would(tmp_path, capsys, monkeypatch, uncached_parsers):
    monkeypatch.setenv("COLUMNS", "80")
    seen = []  # the Namespace of each run that reached its subcommand
    monkeypatch.setattr(cli, "_COMMANDS", tuple(
        (name, help_text, add_arguments, lambda args, run=run: seen.append(args) or run(args))
        for name, help_text, add_arguments, run in cli._COMMANDS))

    def reference(argv):
        # the full parser, except that tokens left after a leading subcommand get its own parser's usage error
        try:
            own = leftover(argv, capsys)
            args = cli._command_parser(argv[0]).parse_args(argv[1:]) if own else cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
        return args.func(args)

    # test_a_config_run_equals_its_flag_run checks --config and --conf runs against flag runs
    cases = dispatch_cases(tmp_path / "cfg.json")
    game, path = [*CANON, "--lambda", ".3"], str(tmp_path / "cfg.json")
    assert [argv for argv in cases if leftover(argv, capsys)] == [
        ["regimes", *CANON, "stray"], ["equilibria", *game, "--"], ["equilibria", *game, "--config", path]]
    for argv in cases:
        got = outcome(list(argv), capsys), seen[:]
        seen.clear()
        want = (reference(list(argv)), *capsys.readouterr()), seen[:]
        seen.clear()
        assert got == want, argv
        assert len(got[1]) == (got[0][0] == 0 and "-h" not in argv), argv


#: (subcommand, a config, the flags that hold its values, flags typed after it that override one)
CONFIG_RUNS = [
    ("signal", {"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3, "profile": "hi,hi", "oracle": True},
     [*CANON, "--lambda", ".3", "--profile", "hi,hi", "--oracle"], ["--lambda", ".5"]),
    ("thresholds", {"mu_hi": 0.9, "mu_lo": 0.35, "cost": 0.04},
     ["--mu-hi", ".9", "--mu-lo", ".35", "--cost", ".04"], ["--cost", ".05"]),
    ("equilibria", {"mu_hi": 0.8, "mu_lo": 0.6, "lam": 0.3, "out": None, "unknown": 1, "help": True},
     ["--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".3"], ["--lambda", ".5"]),
    ("regimes", {"mu_hi": 0.7, "mu_lo": 0.59, "cost": "0.0473", "lambda_range": [0.13, "2.6"], "lambda_steps": 3,
                 "format": "json", "analysis": "quota", "seed": 2},
     ["--mu-hi", ".7", "--mu-lo", ".59", "--cost", ".0473", "--lambda-range", "0.13", "2.6", "--lambda-steps", "3",
      "--format", "json", "--analysis", "quota", "--seed", "2"], ["--lambda-range", "0.2", "0.8"]),
    ("quota", {"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}, [*CANON, "--lambda", ".3"], ["--mu-lo", ".55"]),
    ("multitask", {"mu_hi": 0.8, "mu_lo": 0.6, "lam": 0.45, "task1": "0.5,1.0,0.028", "task2": "0.5,1.0,0.03"},
     ["--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".45", "--task1", "0.5,1.0,0.028", "--task2", "0.5,1.0,0.03"],
     ["--lambda", ".3"]),
    ("variants", {"which": "heterogeneous", "mu_hi": 0.8, "mu_lo": 0.6, "lam": 0.3, "cost_m": 0.06, "du_m": 1.25},
     ["--which", "heterogeneous", "--mu-hi", ".8", "--mu-lo", ".6", "--lambda", ".3", "--cost-m", ".06",
      "--du-m", "1.25"], ["--which", "mixed"]),
    ("reproduce", {"json": False}, [], ["--json"]),
]


@pytest.mark.parametrize("name, cfg, flags, override", CONFIG_RUNS, ids=[row[0] for row in CONFIG_RUNS])
def test_a_config_run_equals_its_flag_run(name, cfg, flags, override, tmp_path, capsys, monkeypatch,
                                          uncached_parsers):
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    seen, added, full = [], [], []
    monkeypatch.setattr(cli, "_COMMANDS", tuple(
        (command, help_text, add_arguments, lambda args, run=run: seen.append(args) or run(args))
        for command, help_text, add_arguments, run in cli._COMMANDS))
    build_parser, add_argument = cli.build_parser, argparse.ArgumentParser.add_argument
    monkeypatch.setattr(cli, "build_parser", lambda: full.append(1) or build_parser())

    def counted(self, *args, **kwargs):
        added.append(self.prog)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    for typed in ([], override):
        want = outcome([name, *flags, *typed], capsys)
        assert want[0] == 0 and len(seen) == 1, typed
        flag_args = vars(seen.pop())
        for prefix in (["--config", str(path)], ["--conf", str(path)], [f"--config={path}"]):
            added.clear()
            assert outcome([*prefix, name, *typed], capsys) == want, (prefix, typed)
            # the path is all the config leaves in the namespace; no full parser, no other subcommand's
            assert vars(seen.pop()) == {**flag_args, "config": str(path)}, (prefix, typed)
            assert set(added) == {f"riscreen {name}"} and full == [], (prefix, typed)


def test_runs_without_config_load_no_json():
    script = (
        "import contextlib, io, sys\n"
        "from riscreen import cli\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['thresholds', '--mu-hi', '.8', '--mu-lo', '.6']) == 0\n"
        "assert 'json' not in sys.modules\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=helpers.child_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_alternating_configs_match_fresh_processes(tmp_path, capsys):
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    one.write_text(json.dumps({"mu_hi": 0.9, "mu_lo": 0.55, "cost": 0.05, "lam": 0.4}))
    two.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "lam": 0.3, "profile": "hi,hi"}))
    runs = {
        "none": ["signal", *CANON, "--lambda", ".7"],
        "one": ["--config", str(one), "signal"],
        "two": ["--config", str(two), "signal"],
    }
    fresh = {}
    for name, argv in runs.items():
        done = subprocess.run([sys.executable, "-m", "riscreen", *argv], env=helpers.child_env(),
                              capture_output=True, text=True)
        fresh[name] = (done.returncode, done.stdout, done.stderr)
    assert len(set(fresh.values())) == 3
    cli._COMMAND_PARSERS.clear()
    for name in ("none", "one", "two", "one", "none", "two", "two", "none", "one"):
        assert outcome(runs[name], capsys) == fresh[name], name


@pytest.mark.parametrize("same", [False, True], ids=["four-commands", "one-command"])
def test_threads_share_parsers_safely(tmp_path, capsys, same):
    game = [*CANON, "--lambda", ".3"]
    argvs = [
        ["signal", *game],
        ["thresholds", *CANON],
        ["equilibria", *game],
        ["quota", *game],
    ]
    if same:
        argvs = [argvs[0]] * 4
    serial = []
    for argv in argvs:
        cli._COMMAND_PARSERS.clear()
        serial.append(outcome(argv, capsys)[1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the parser builds too
    try:
        for round_ in range(30):
            cli._COMMAND_PARSERS.clear()
            outs = [tmp_path / f"out-{round_}-{i}.txt" for i in range(len(argvs))]
            codes = [None] * len(argvs)
            start = threading.Barrier(len(argvs), timeout=60)

            def run(i):
                start.wait()
                codes[i] = cli.main([*argvs[i], "--out", str(outs[i])])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(argvs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert codes == [0] * len(argvs)
            assert [out.read_text() for out in outs] == serial
    finally:
        sys.setswitchinterval(interval)


class _Tagged(int):
    """An int whose repr is not its JSON text."""

    def __repr__(self):
        return f"_Tagged({int(self)})"


class _Padded(float):
    """A float whose repr and .12g text are not its JSON text."""

    def __repr__(self):
        return f"_Padded({float(self)!r})"

    def __format__(self, spec):
        text = float.__format__(self, spec)
        return text + "0" if "." in text and "e" not in text else text


def _around(x: float) -> list:
    """x, the floats an ulp and two ulps either side, and a 12-digit round-up onto x."""
    below = math.nextafter(x, 0.0)
    above = math.nextafter(x, math.inf)
    return [math.nextafter(below, 0.0), below, x, above, math.nextafter(above, math.inf), x * (1.0 - 4e-13)]


def _down(v) -> dict:
    """A three-row sweep whose column "x" holds the object v on every row."""
    return {"header": ["lam", "x"], "cells": [[0.5 * i, v] for i in range(3)], "meta": {}}


#: special floats, and floats that round up across a power of ten at 12 significant digits
_SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    999999999999.5, 9.9999999999995e-5, -99999999999.95, 9.99999999999999e22,
)
_CELL_CHARS, _HEADER_CHARS, _META_CHARS = 'ab"\\/é€😀\n\t\x00\x1f\x7f', 'ab_"\\é😀\n', 'mk"\\é'


def _text(rng, alphabet: str, max_size: int) -> str:
    """Up to max_size characters of alphabet."""
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_size)))


def _float_cell(rng) -> float:
    """A float of any bit pattern, or one of _SPECIAL_FLOATS."""
    if rng.random() < 0.5:
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
    return rng.choice(_SPECIAL_FLOATS)


#: the three kinds of sweep cell, each column holding one of them
_KINDS = (
    _float_cell,
    lambda rng: rng.randint(-(2**80), 2**80),
    lambda rng: _text(rng, _CELL_CHARS, 8),
)


def _header(rng) -> list:
    """One to six column names of up to four characters."""
    return [_text(rng, _HEADER_CHARS, 4) for _ in range(rng.randint(1, 6))]


def _one_kind_rows(rng) -> list:
    """Up to five rows of six cells, each column of one kind of _KINDS."""
    kinds = [rng.choice(_KINDS) for _ in range(6)]
    return [[kind(rng) for kind in kinds] for _ in range(rng.randint(0, 5))]


def _meta(rng) -> dict:
    """Up to three keys of up to three characters, each with a text of _KINDS."""
    return {_text(rng, _META_CHARS, 3): _KINDS[2](rng) for _ in range(rng.randint(0, 3))}


def test_cell_samplers_stay_in_their_boxes():
    rng = random.Random(31023)
    for _ in range(300):
        header, rows, meta = _header(rng), _one_kind_rows(rng), _meta(rng)
        assert 1 <= len(header) <= 6 and all(len(name) <= 4 and set(name) <= set(_HEADER_CHARS) for name in header)
        assert len(rows) <= 5 and all(len(row) == 6 for row in rows)
        for column in zip(*rows):
            kinds = {float if isinstance(v, float) else int if isinstance(v, int) else str for v in column}
            assert len(kinds) == 1, column
            assert all(abs(v) <= 2**80 for v in column if isinstance(v, int))
            assert all(len(v) <= 8 and set(v) <= set(_CELL_CHARS) for v in column if isinstance(v, str))
        assert len(meta) <= 3 and all(set(k) <= set(_META_CHARS) and len(k) <= 3 for k in meta)
        assert all(isinstance(v, str) and len(v) <= 8 and set(v) <= set(_CELL_CHARS) for v in meta.values())


@helpers.draws(
    50,
    seed=31004,
    cases=[
        dict(header=["lam", "x"], cells=[[999999999999.5, 9.9999999999995e-5, 0, 0, 0, 0]], meta={}),
        # where .12g and repr switch to exponent form, and an ulp either side
        dict(header=list("abcdef"), cells=[_around(1e-4), _around(1e12), _around(1e16)], meta={}),
        dict(header=list("abcdef"), cells=[[-x for x in _around(1e-4)], [-x for x in _around(1e12)]], meta={}),
        dict(header=list("abcdef"), cells=[[3.0, -0.0, 5e-324, math.nan, math.inf, -math.inf], [1e15, 2.0**60, -7.0, 0.0, 1e300, 1.0]], meta={}),
        dict(header=[], cells=[[1.5, 2, "x", 0.1, None, True], [0.0, 1, "y", 2.5, False, 3.0]], meta={}),
        dict(header=[], cells=[], meta={}),
        # one object down a column is formatted once, into the row template
        _down(0.1 + 0.2),
        _down(math.nan),
        _down(-0.0),
        _down(2**70),
        _down("hi,lo"),
        dict(header=["%", "%s", "%%", "%(x)s"], cells=[["%", "%s", "%%", "%(x)s"], ["%(x)s", "%s", "%", "%%"]], meta={"%s": "%(x)s"}),
        dict(header=list("ab"), cells=[[1e-7, "%s"]] * 3, meta={}),
        dict(header=list("abcdef"), cells=[[1.5, 2, "x%", 0.1, "%", 7]], meta={}),
        dict(header=["a", "b", "a"], cells=[[1.0, 2, -0.0], [3.0, 4, -0.0]], meta={}),
        dict(header=["a", "b", "a", "a", "c", "b"], cells=[[1.5, 2, "x", 0.1, "", 7], [0.0, 1, "y", 2.5, "%", 3]], meta={}),
        # equal cells that are not one object keep their own texts
        dict(header=["x", "y"], cells=[[0.0, 1], [-0.0, 1]], meta={}),
        # float columns of point texts but one cell that needs the per-cell rule: no point, an exponent, a nan,
        # and an exponent after a point
        dict(header=list("abcd"), cells=[[0.1, 0.1, 0.5, 0.1], [0.2, 1e-7, math.nan, 1.5e-7], [3.0, 0.3, 0.25, 0.3]],
             meta={}),
    ],
    header=_header,
    cells=_one_kind_rows,
    meta=_meta,
)
def test_sweep_writer_equals_dumps_of_the_rounded_rows(header, cells, meta):
    rows = [row[: len(header)] for row in cells]
    payload = {
        "schema": cli.SCHEMA_VERSION,
        "meta": meta,
        "rows": [
            {k: (float(f"{v:.12g}") if isinstance(v, float) else v) for k, v in zip(header, row)}
            for row in rows
        ],
    }
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _sweep._rows_to_json(header, rows, meta) == expected


@pytest.mark.parametrize("header, cells, column", [
    (["n", "flag"], [[_Tagged(3), _Tagged(-2**70)]], "flag"),
    (list("abcdef"), [[_Padded(0.25), _Padded(3.0), _Padded(1e-7), _Padded(math.nan), 0.25, 1]], "a"),
    (["a", "b", "a", "a", "c", "b"], [[1.5, 2, "x", 0.1, None, True], [0.0, 1, "y", 2.5, False, 3.0]], "b"),
    (_down(_Padded(0.25))["header"], _down(_Padded(0.25))["cells"], "x"),
    (_down(True)["header"], _down(True)["cells"], "x"),
    (_down(None)["header"], _down(None)["cells"], "x"),
    (list("abc"), [[1e-7, "%s", None]] * 3, "c"),
    (list("abcdef"), [[1.5, 2, "x%", 0.1, None, True]], "e"),
    (["x", "y"], [[0.0, 1], [-0.0, True]], "y"),
])
def test_sweep_writer_rejects_a_column_of_another_kind(header, cells, column):
    # None, a bool, a subclass or a mix is no sweep cell: the first such column in key order is named
    with pytest.raises(TypeError, match=f"^sweep column {column!r} holds "):
        _sweep._rows_to_json(header, cells, {"k": "v"})


def _cell_text(v) -> str:
    """The text of v in a one-column sweep row."""
    text = _sweep._rows_to_json(["x"], [[v]], {})
    return text.split('\n      "x": ', 1)[1].split("\n", 1)[0]


def _draw_double(rng) -> float:
    """Any bit pattern, a 17-digit decimal anywhere in the double range, or a
    decimal of 1 to 17 digits near the switches to exponent form."""
    kind = rng.randrange(3)
    if kind == 0:
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
    digits = 17 if kind == 1 else rng.randint(1, 17)
    exponent = rng.randint(-346, 292) if kind == 1 else rng.randint(-6, 18) - digits
    return float(f"{rng.choice('+-')}{rng.randrange(10 ** (digits - 1), 10**digits)}e{exponent}")


@helpers.draws(20, seed=31005, stream=lambda rng: rng.randrange(2**32))
def test_one_pass_cell_is_repr_of_the_rounded_float(stream):
    rng = random.Random(stream)
    for v in (_draw_double(rng) for _ in range(500)):
        text = repr(float(f"{v:.12g}"))
        assert _cell_text(v) == _sweep._WORDS.get(text, text), v


def _csv_table(text: str) -> tuple:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header, *rows = list(csv.reader(lines))
    return header, rows


@pytest.mark.parametrize("analysis", ["baseline", "quota", "multitask", "variants"])
@pytest.mark.parametrize(
    "point",
    [
        # condition 5 fails: lambda_star lies above lambda_high
        ["--mu-hi", ".9", "--mu-lo", ".35", "--cost", ".04", "--lambda-range", "0.14", "4.3",
         "--task1", "0.5,1.0,0.018", "--task2", "0.5,1.0,0.02"],
        # condition 5 holds: lambda_star lies between lambda_low and lambda_high
        ["--mu-hi", ".7", "--mu-lo", ".59", "--cost", ".0473", "--lambda-range", "0.13", "2.6",
         "--task1", "0.5,1.0,0.0213", "--task2", "0.5,1.0,0.0237"],
    ],
    ids=["condition5-fails", "condition5-holds"],
)
def test_json_sweep_cells_equal_the_csv_cells(point, analysis, capsys):
    argv = ["regimes", "--analysis", analysis, *point, "--lambda-steps", "12"]
    code, out, _ = outcome([*argv, "--format", "json"], capsys)
    assert code == 0
    json_rows = json.loads(out)["rows"]
    code, out, _ = outcome([*argv, "--format", "csv"], capsys)
    assert code == 0
    header, csv_rows = _csv_table(out)
    assert len(json_rows) == len(csv_rows) == 12
    for json_row, csv_row in zip(json_rows, csv_rows):
        assert sorted(json_row) == sorted(header)
        for key, cell in zip(header, csv_row):
            value = json_row[key]
            if isinstance(value, float):
                assert float(cell) == value or (math.isnan(value) and math.isnan(float(cell))), (key, cell, value)
            else:
                assert isinstance(value, (int, str)) and str(value) == cell, (key, cell, value)
