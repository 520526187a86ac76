"""The CLI's lazily built subcommand parsers and its indented-JSON writer."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from riscreen import cli

COMMANDS = [name for name, _, _ in cli._COMMANDS]
CANON = ["--mu-hi", ".8", "--mu-lo", ".6", "--cost", ".07"]


def outcome(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lazy_parser_matches_the_parser_built_up_front(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu_hi": 0.8, "mu_lo": 0.6, "cost": 0.07, "lam": 0.3}))
    cases = [
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
    lazy = [outcome(argv, capsys) for argv in cases]

    built = []
    lazy_init = cli._CommandParser.__init__

    def eager_init(self, **kwargs):
        lazy_init(self, **kwargs)
        self.build()
        built.append(self.prog)

    monkeypatch.setattr(cli._CommandParser, "__init__", eager_init)
    eager = [outcome(argv, capsys) for argv in cases]

    assert len(built) == len(cases) * len(COMMANDS)
    for argv, got, want in zip(cases, lazy, eager):
        assert got == want, argv
    # every case reached argparse's output or a run, not an exception
    assert {code for code, _, _ in lazy} == {0, 2}
    assert all(out.startswith("usage: riscreen ") for argv, (_, out, _) in zip(cases, lazy) if "--help" in argv)


def test_a_run_adds_arguments_for_its_subcommand_only(capsys, monkeypatch):
    added = []
    real = cli._CommandParser.add_argument

    def counted(self, *args, **kwargs):
        added.append((self.prog, args[0]))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._CommandParser, "add_argument", counted)
    code, _, _ = outcome(["regimes", *CANON, "--lambda-steps", "3"], capsys)
    assert code == 0
    assert {prog for prog, _ in added} == {"riscreen regimes"}
    assert added[0] == ("riscreen regimes", "-h")
    assert len(added) == 14


_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300]),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.sampled_from('ab"\\/é€😀\n\t\x00'), max_size=8),
)
_KEYS = st.text(alphabet=st.sampled_from('kz"\\é😀 '), max_size=5)
_FLAT = st.dictionaries(_KEYS, _SCALARS, max_size=6)
_PAYLOADS = st.dictionaries(
    _KEYS,
    st.one_of(_SCALARS, _FLAT, st.lists(_FLAT, max_size=4), st.lists(_SCALARS, max_size=4)),
    max_size=6,
)


@given(payload=_PAYLOADS)
@settings(max_examples=300, deadline=None, derandomize=True)
@example(payload={"rows": [], "meta": {}, "schema": "riscreen.regimes.v1"})
@example(payload={"checks": [{"name": "x", "passed": True, "measured": "1e-9", "tolerance": "1e-8"}],
                  "passed": False, "schema": 'q"\\é'})
@example(payload={"x": [-0.0, math.nan, math.inf, -math.inf, 3, True]})
def test_json_writer_equals_indented_dumps(payload):
    assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--json"],
        ["regimes", *CANON, "--lambda-steps", "6", "--format", "json"],
        ["regimes", *CANON, "--analysis", "multitask", "--lambda-steps", "4", "--format", "json"],
    ],
)
def test_json_output_is_indented_dumps(argv, capsys):
    code, out, _ = outcome(argv, capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
