"""The regimes sweep: its analysis table, its rows, its CSV and JSON writers and its SVG strip chart.

``cli.cmd_regimes`` imports it on first use, so no other command compiles it.
A baseline, quota or multitask row starts at its analysis's decision step
(``baseline_game._decide``, ``multitask._decide``): a lone verdict is valued
by ``baseline_game._bill`` alone, and only a row with a choice builds its
records and ranks them. Machine output carries 12 significant digits and is
byte-deterministic for a fixed configuration (see ``cli``).
"""

from __future__ import annotations

import io
import math
from functools import partial
from itertools import repeat
from operator import is_

from . import baseline_game as bg
from . import multitask as mt
from . import quota_policy as qp
from . import variants as va
from .cli import _TAGS, SCHEMA_VERSION, _emit, _game, _lam_grid, _tasks

_REGIME_HEADER = [
    "lam",
    "eq_hi_hi",
    "eq_hi_lo",
    "eq_lo_hi",
    "eq_lo_lo",
    "most_profitable",
    "best_profit",
    "welfare_order",
    "lambda_low",
    "lambda_star",
    "lambda_high",
    "condition5",
]


#: a lone verdict, by the verdicts of a decision step: the index in a _Game's priors of its profile, its tag and its
#: eq_* cells; with equal costs (hi, lo) and (lo, hi) pass together, so a lone verdict is (hi, hi) or (lo, lo)
_LONE = {(True, False, False, False): (0, "hi,hi", [1, 0, 0, 0]),
         (False, False, False, True): (2, "lo,lo", [0, 0, 0, 1])}


def _regime_row(lam: float, records: list, cut_cells: list) -> list:
    """A baseline or quota sweep row from the equilibrium records at lam and the sweep's cutpoint cells: their
    profits listed once and ranked by most_profitable_among's tie rule; the best profit, the highest of all, is
    also the highest among the ties. The row step (:func:`_regime_step`) calls it only where there is a choice."""
    if not records:
        raise ValueError("no equilibrium records to rank")
    tags, profits = [_TAGS[r.profile] for r in records], [r.profit for r in records]
    welfare = ">".join([_TAGS[r.profile] for r in bg.welfare_ordering(records)])
    return [lam, *[int(tag in tags) for tag in _TAGS.values()],  # _TAGS is in PROFILES order
            "|".join(sorted(bg._ties_at_best(tags, profits))), max(profits), welfare, *cut_cells]


def _regime_svg(rows: list) -> str:
    colors = {
        (1, 0, 0, 0): "#2166ac",  # impartial high only
        (1, 1, 1, 0): "#92c5de",  # high + discriminatory
        (1, 1, 1, 1): "#f4a582",  # all four
        (0, 1, 1, 1): "#d6604d",  # low + discriminatory
        (0, 0, 0, 1): "#b2182b",  # impartial low only
    }
    width, height = 800.0, 60.0
    n = len(rows)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height + 30:g}">'
    ]
    for i, row in enumerate(rows):
        key = (row[1], row[2], row[3], row[4])
        color = colors.get(key, "#999999")
        x = width * i / n
        parts.append(
            f'<rect x="{x:.2f}" y="0" width="{width / n:.2f}" height="{height:g}" fill="{color}"/>'
        )
    parts.append(
        f'<text x="0" y="{height + 20:g}" font-size="12">lambda from {rows[0][0]:.12g} to {rows[-1][0]:.12g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _regime_step(game, tilt, base):
    """The baseline or quota row step of the game prepared from base whose (hi, lo) signal is tilt(game, lam).

    The decision step (baseline_game._decide) comes first. A lone verdict is no choice: its tag is the most
    profitable and the welfare order, its profit V - lam I of baseline_game._bill at the impartial rule, its
    eq_* cells are looked up in _LONE, and no record is built; past the slope bound it is (lo, lo). Two or more
    verdicts have their records built (baseline_game._records) and ranked by :func:`_regime_row`.
    """
    cuts = bg.thresholds(base)
    cut_cells = [cuts.lambda_low, cuts.lambda_star, cuts.lambda_high, int(cuts.condition5)]
    priors, c, costs = game.priors, game.c, game.costs

    def row(lam):
        impartial, tilted, verdicts = bg._decide(game, lam, tilt, c, c)
        lone = _LONE.get(verdicts)
        if lone is None:
            return _regime_row(lam, bg._records(game, lam, impartial, tilted, verdicts, costs, (1.0, 1.0)), cut_cells)
        k, tag, eq_cells = lone
        V, I = bg._bill(priors[k], impartial)
        return [lam, *eq_cells, tag, V - lam * I, tag, *cut_cells]

    return row


def _multitask_step(base, args):
    tasks = _tasks(args)
    game = mt._multitask_game(base, tasks)  # a task-order error comes before the ranking's
    mt._check_equal_arrivals(tasks)
    return partial(_multitask_row, game)


def _multitask_row(game, lam: float) -> list:
    """A multitask sweep row. A lone verdict in each task game is one joint equilibrium, whose investments
    agree ((hi, hi) or (lo, lo) per task): a non-specialized row, valued by baseline_game._bill without a record.
    Otherwise the records are built (multitask._records) and ranked as multitask_most_profitable ranks them."""
    impartial, tilted, first, second = mt._decide(game, lam)
    one, two = _LONE.get(first), _LONE.get(second)
    if one is None or two is None:
        records = mt._records(game, lam, impartial, tilted, first, second)
        winners = mt._most_profitable(records)
        classes = "|".join(sorted({w.classification for w in winners}))
        return [lam, len(records), classes, winners[0].payoff if winners else math.nan]
    base, _, alpha1, alpha2 = game
    V, I = bg._bill(base.priors[one[0]], impartial)
    p = q = V - lam * I
    if two is not one:
        V, I = bg._bill(base.priors[two[0]], impartial)
        q = V - lam * I
    return [lam, 1, mt.NON_SPECIALIZED, alpha1 * p + alpha2 * q]


def _variants_row(game, lam: float) -> list:
    """A variants sweep row: the best committed outcome, ranked as commitment_solve ranks it, and the mixed count."""
    reach = bg._gains_can_reach(game.base.c, lam)  # the slope-bound gate, once for both steps
    _, _, profile, profit, _ = max(va._commitment(game, lam, reach), key=va._profit)
    return [lam, _TAGS[profile], profit, len(va._mixed(game, lam, reach))]


#: each --analysis in the parser's order: (header, prepare); prepare(base, args) does the lam-free work, returns lam -> row
_ANALYSES = {
    "baseline": (_REGIME_HEADER, lambda base, args: _regime_step(bg._game(base), bg._odds_tilt, base)),
    "quota": (_REGIME_HEADER, lambda base, args: _regime_step(bg._game(base), qp._quota_tilted, base)),
    "multitask": (["lam", "n_equilibria", "most_profitable", "best_payoff"], _multitask_step),
    "variants": (["lam", "commitment_profile", "commitment_profit", "n_mixed"],
                 lambda base, args: partial(_variants_row, va._variants_game(base))),
}


def regimes(args) -> int:
    header, prepare = _ANALYSES[args.analysis]
    base = _game(args)  # each analysis's lambda-independent part reads no lam
    grid = _lam_grid(args)
    if args.svg is not None and header is not _REGIME_HEADER:
        raise ValueError("the regime strip chart is defined for baseline/quota sweeps")
    meta = {
        "analysis": args.analysis,
        "mu_hi": f"{args.mu_hi:.12g}",
        "mu_lo": f"{args.mu_lo:.12g}",
        "cost": f"{args.cost:.12g}",
        "seed": str(args.seed),
    }
    step = prepare(base, args)
    rows = [step(lam) for lam in grid]
    write = _rows_to_json if args.format == "json" else _rows_to_csv
    _emit(write(header, rows, meta), args.out)
    if args.svg is not None:
        _emit(_regime_svg(rows), args.svg)
    return 0


def _g12(cells: tuple) -> str:
    """The ``.12g`` texts of a column of floats, each ended by a newline, formatted in one ``%`` pass."""
    return ("%.12g\n" * len(cells)) % cells


def _rows_to_csv(header: list, rows: list, meta: dict) -> str:
    """The sweep as CSV: ``#`` lines of the schema and the sorted meta, the header, then the rows with each float
    as its ``.12g`` text. A column of ``float`` alone takes its texts from one :func:`_g12` pass; any other column
    formats its floats cell by cell."""
    import csv
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA_VERSION}\n")
    for key in sorted(meta):
        buf.write(f"# {key}={meta[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[_g12(col).splitlines() if set(map(type, col)) == {float}
                           else [f"{v:.12g}" if isinstance(v, float) else v for v in col] for col in zip(*rows)]))
    return buf.getvalue()


def _rows_to_json(header: list, rows: list, meta: dict) -> str:
    """``json.dumps(sweep, sort_keys=True, indent=2)`` and a newline: the rows as dicts of
    header names, floats at 12 digits, and the flat meta dict of strings.

    A column holds only ``float``, only ``int`` or only ``str``; any other
    column (``None``, a bool, a subclass, a mix) raises ``TypeError`` naming
    it. The header is sorted into key order once; a repeated name keeps its
    last column, as in a dict. The rows are transposed once into columns
    (``zip``), and each column is scanned by C-level calls: ``is_``
    for sameness and ``type`` for its kinds. The rows are written column by
    column into one row template: a column that holds the same object on every
    row (by identity, so -0.0 and 0.0 or two nans never merge) is formatted
    once into the template, and each row is ``template % cells`` of the other
    columns, an int column's cells through ``%d``.
    A float column's ``.12g`` texts come from one :func:`_g12` pass. A float is
    its ``.12g`` text when that has a point and no exponent, which is then its
    repr (a decimal of at most 12 digits is the shortest repr of its double,
    and repr writes [1e-4, 1e16) positionally), and otherwise the repr of that
    text's value, or its _WORDS word (a nan or an infinity has no point). So
    the texts stand as they are when the joined text has no ``e`` and one point
    per cell, and go through that rule cell by cell otherwise. Strings go
    through ``json.encoder.encode_basestring_ascii``, each distinct one once.
    """
    from json.encoder import encode_basestring_ascii as quote
    pieces, columns, cols = [], [], list(zip(*rows)) or [()] * len(header)
    for name, i in sorted({k: i for i, k in enumerate(header)}.items()):
        cells = cols[i]
        key = "\n      " + quote(name) + ": "
        once = rows and all(map(is_, cells, repeat(cells[0])))
        if once:
            cells = cells[:1]
        kinds, slot = set(map(type, cells)), "%s"
        if kinds == {float}:
            joined = _g12(cells)
            cells = joined.splitlines()
            if "e" in joined or joined.count(".") != len(cells):
                cells = [t if "." in t and "e" not in t else _WORDS.get(t) or repr(float(t)) for t in cells]
        elif kinds == {int}:
            slot = "%d"
        elif kinds <= {str}:  # no rows: no kind
            quoted = {text: quote(text) for text in set(cells)}
            cells = list(map(quoted.__getitem__, cells))
        else:
            held = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise TypeError(f"sweep column {name!r} holds {held}; a column holds only float, only int or only str")
        if once:
            pieces.append((key + slot % cells[0]).replace("%", "%%"))
        else:
            pieces.append(key.replace("%", "%%") + slot)
            columns.append(cells)
    template = "{" + ",".join(pieces) + "\n    }" if pieces else "{}"
    texts = [template % cells for cells in (zip(*columns) if columns else [()] * len(rows))]
    body = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    head = "{" + ",".join(f"\n    {quote(k)}: {quote(v)}" for k, v in sorted(meta.items())) + ("\n  }" if meta else "}")
    return f'{{\n  "meta": {head},\n  "rows": {body},\n  "schema": {quote(SCHEMA_VERSION)}\n}}\n'


#: json's text of the non-finite floats by their ``.12g`` text, which is also their repr
_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
