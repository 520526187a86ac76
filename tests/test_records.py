"""Records are immutable named tuples: their repr, equality, hashing and validation."""

import math
import re

import pytest

import riscreen
from riscreen import (
    HI,
    IMPARTIAL,
    LO,
    NON_SPECIALIZED,
    BinaryRIProblem,
    ChoiceRule,
    EffortGridResult,
    GameParams,
    HeterogeneousParams,
    MixedEquilibrium,
    MixedProfile,
    MultitaskRecord,
    PromotionSignal,
    QuotaSolution,
    ReferencePriorProblem,
    StateDistribution,
    TaskParams,
    bind_high_effort,
    commitment_solve,
    equilibrium_set,
    find_multiplier,
    optimal_signal,
    prior_invariant_signal,
    profit,
    solve_binary_ri,
    thresholds,
)

GAME = GameParams(0.8, 0.6, 0.07, 0.3)
REF = ReferencePriorProblem((0.2, 0.5, 0.3), (0.3, 0.4, 0.3), 0.3)
SIGNAL = PromotionSignal(0.1, 0.5, 0.9, 0.5)
PROBLEM = BinaryRIProblem((-1, 0, 1), (0.2, 0.5, 0.3), (-1.0, 0.0, 1.0), 0.3)
#: one instance of every record the package exports, the first five as before
RECORDS = [
    GAME,
    SIGNAL,
    TaskParams(0.5, 1.0, 0.02),
    REF,
    MixedProfile(0.25, 0.5),
    StateDistribution(0.2, 0.5, 0.3),
    thresholds(GAME),
    profit(GAME, (HI, LO)),
    equilibrium_set(GAME)[0],
    PROBLEM,
    solve_binary_ri(PROBLEM),
    find_multiplier(GAME, (HI, LO)),
    MultitaskRecord((HI, LO), (LO, HI), NON_SPECIALIZED, 0.5, (SIGNAL, SIGNAL)),
    HeterogeneousParams(0.07, 0.08),
    commitment_solve(GAME),
    bind_high_effort(GAME),
    prior_invariant_signal(REF),
    MixedEquilibrium(MixedProfile(0.5, 0.5), SIGNAL, IMPARTIAL),
    EffortGridResult(0.3, ((0.0, 0.0),)),
]


def test_reprs_name_every_field():
    assert repr(GAME) == "GameParams(mu_hi=0.8, mu_lo=0.6, cost_C=0.07, lam=0.3)"
    assert repr(ChoiceRule([0, 1], 0.5, False, 0.25)) == (
        "ChoiceRule(conditional=(0.0, 1.0), unconditional=0.5, degenerate=False, info_cost=0.25)"
    )
    assert repr(QuotaSolution(0.0, PromotionSignal(0.25, 0.5, 0.75, 0.5))) == (
        "QuotaSolution(nu=0.0, signal=PromotionSignal(pi_minus=0.25, pi_zero=0.5, pi_plus=0.75, "
        "pi_bar=0.5, X=0.25, Y=0.25))"
    )
    assert repr(TaskParams(0.5, 1.0, 0.02)) == "TaskParams(alpha=0.5, beta=1.0, cost_C=0.02)"
    assert repr(HeterogeneousParams(0.07, 0.08)) == (
        "HeterogeneousParams(cost_m=0.07, cost_w=0.08, du_m=1.0, du_w=1.0)"
    )
    assert repr(MixedProfile(0.25, 0.5)) == "MixedProfile(sigma_m=0.25, sigma_w=0.5)"


def test_equality_and_hash_follow_the_fields():
    same = GameParams(0.8, 0.6, 0.07, 0.3)
    assert same == GAME and hash(same) == hash(GAME)
    assert GAME != GAME._replace(lam=0.4)
    assert len({GAME, same, GAME._replace(lam=0.4)}) == 2
    sig = optimal_signal(GAME, (HI, LO))
    assert sig == optimal_signal(GAME, (HI, LO)) and hash(sig) == hash(optimal_signal(GAME, (HI, LO)))
    # the one difference from a class record: a record is the tuple of its fields
    assert GAME == (0.8, 0.6, 0.07, 0.3) and tuple(GAME) == (0.8, 0.6, 0.07, 0.3)
    assert GAME._fields == ("mu_hi", "mu_lo", "cost_C", "lam")


@pytest.mark.parametrize("record", RECORDS)
def test_records_are_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        record.extra = 1.0


def test_every_exported_record_is_a_collections_namedtuple():
    exported = {v for v in (getattr(riscreen, name) for name in riscreen.__all__) if isinstance(v, type) and issubclass(v, tuple)}
    assert exported == {type(r) for r in RECORDS}
    for cls in exported:
        base = cls.__mro__[-3]  # the class collections.namedtuple made, right above tuple
        assert base is not cls and base._fields == cls._fields, cls
        assert "__annotations__" not in vars(base) and vars(cls)["__slots__"] == (), cls


def test_replace_revalidates():
    with pytest.raises(ValueError, match="lam must be positive and finite, got -1.0"):
        GAME._replace(lam=-1.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1/2\], got 0.9"):
        TaskParams(0.5, 1.0, 0.02)._replace(alpha=0.9)
    with pytest.raises(ValueError, match="state probabilities must sum to 1"):
        StateDistribution(0.2, 0.2, 0.2)
    with pytest.raises(ValueError, match="negative probability"):
        StateDistribution(0.5, 0.6, -0.1)
    with pytest.raises(ValueError, match="du_w must be positive"):
        HeterogeneousParams(0.07, 0.08)._replace(du_w=0.0)
    assert GAME._replace(lam=0.4) == GameParams(0.8, 0.6, 0.07, 0.4)


def test_sequence_inputs_become_float_tuples():
    problem = BinaryRIProblem([-1, 0, 1], [0, 1, 0], [-1, 0, 1], 0.3)
    assert problem.states == (-1, 0, 1)
    assert problem.prior == (0.0, 1.0, 0.0) and problem.advantage == (-1.0, 0.0, 1.0)
    assert all(type(v) is float for v in problem.prior + problem.advantage)
    rule = ChoiceRule([0, 1, 1], 2 / 3, False, 0.5)
    assert rule.conditional == (0.0, 1.0, 1.0) and all(type(v) is float for v in rule.conditional)
    ref = ReferencePriorProblem([0, 1, 0], [0.25, 0.5, 0.25], 0.3)
    assert ref.true_prior == (0.0, 1.0, 0.0) and ref.reference_prior == (0.25, 0.5, 0.25)
    assert all(type(v) is float for v in ref.true_prior)
    with pytest.raises(ValueError, match="invalid distribution"):
        ref._replace(reference_prior=[1, 2, 1])


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_every_record_with_a_lam_checks_it_by_one_rule(lam):
    message = re.escape(f"lam must be positive and finite, got {lam!r}")
    with pytest.raises(ValueError, match=message):
        GAME._replace(lam=lam)
    with pytest.raises(ValueError, match=message):
        PROBLEM._replace(lam=lam)
    with pytest.raises(ValueError, match=message):
        REF._replace(lam=lam)
