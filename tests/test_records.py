"""predim's records, pinned: construction by position and by keyword with
defaults, the exact repr, same-type equality, hash equal to the hash of the
tuple of compared fields, and refusal of field assignment on read-only
records."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from predim.amalgams import AmalgamResult
from predim.audits import AuditResult, _Tally
from predim.builder import BlockedRecord, DischargeRecord, RichnessReport
from predim.collapse import MuFunction, MuReport, ThriftyOutcome
from predim.extensions import ExtensionClass
from predim.predimension import FreeOracle, PredimensionSpec
from predim.richness import _Plan
from predim.strongsets import StrongReport
from predim.structures import Embedding, FinStructure, Signature

SIG = Signature((("E", 2),))
S = FinStructure(SIG, range(2), {"E": [(0, 1)]})
T = FinStructure(SIG, range(3), {"E": [(0, 1)]})
EMB = Embedding(S, T, ((0, 0), (1, 1)))
S_R, T_R = "FinStructure(n=2, E:1)", "FinStructure(n=3, E:1)"
EMB_R = f"Embedding(source={S_R}, target={T_R}, pairs=((0, 0), (1, 1)))"

# (class, field names, values, defaults of the trailing fields, a different
#  last value, repr of the record built from the values, read-only)
RECORDS = [
    (Signature, "symbols weights ordered", ((("E", 2), ("R", 3)), (("R", F(1, 2)),), True),
     ((), (), False), False,
     "Signature(symbols=(('E', 2), ('R', 3)), weights=(('R', Fraction(1, 2)),), ordered=True)", True),
    (Embedding, "source target pairs", (S, T, ((0, 0), (1, 1))), (), ((0, 0), (1, 2)), EMB_R, True),
    (FreeOracle, "name", ("cardinality",), ("free",), "free", "FreeOracle(name='cardinality')", True),
    (PredimensionSpec, "relational components violations", (False, ((FreeOracle(), F(-1)),), ("x",)),
     (True, (), ()), (),
     "PredimensionSpec(relational=False, components=((FreeOracle(name='free'), Fraction(-1, 1)),),"
     " violations=('x',))", True),
    (StrongReport, "verdict deficiency witness", (False, F(-1), (0, 1)), (None,), None,
     "StrongReport(verdict=False, deficiency=Fraction(-1, 1), witness=(0, 1))", True),
    (ExtensionClass,
     "base ext new_elements delta_over_base minimal prealgebraic code",
     (S, T, (2,), F(1), False, False, b"\x01"), (), b"\x02",
     f"ExtensionClass(base={S_R}, ext={T_R}, new_elements=(2,), delta_over_base=Fraction(1, 1),"
     " minimal=False, prealgebraic=False, code=b'\\x01')", True),
    (_Plan, "places free_parts", (((0, (("E", ()),)),), ((S, b"\x02"),)), (), (),
     f"_Plan(places=((0, (('E', ()),)),), free_parts=(({S_R}, b'\\x02'),))", True),
    (DischargeRecord, "step base code new_elements", (3, (0, 1), b"\x01", (2,)), (), (),
     "DischargeRecord(step=3, base=(0, 1), code=b'\\x01', new_elements=(2,))", True),
    (BlockedRecord, "base code needed", ((0,), b"\x01", 2), (), 3,
     "BlockedRecord(base=(0,), code=b'\\x01', needed=2)", True),
    (RichnessReport, "k total satisfied unmet", (3, 4, 2, (((0,), b"\x01"),)), (), (),
     "RichnessReport(k=3, total=4, satisfied=2, unmet=(((0,), b'\\x01'),))", True),
    (MuFunction, "table formula params", (((b"\x01", 2),), "linear", (3, 1)), ((), "linear", (8, 4)),
     (8, 4), "MuFunction(table=((b'\\x01', 2),), formula='linear', params=(3, 1))", True),
    (MuReport, "ok violations", (False, (((0,), b"\x01", 3, 2),)), (), (),
     "MuReport(ok=False, violations=(((0,), b'\\x01', 3, 2),))", True),
    (ThriftyOutcome, "free struct mapping violations", (True, S, ((0, 0),), ()), (), ((S,),),
     f"ThriftyOutcome(free=True, struct={S_R}, mapping=((0, 0),), violations=())", True),
    (AuditResult, "name checked violations witness", ("exchange", 5, 1, "w"), (None,), None,
     "AuditResult(name='exchange', checked=5, violations=1, witness='w')", True),
    (_Tally, "name checked violations witness", ("exchange", 5, 1, "w"), (0, 0, None), None,
     "_Tally(name='exchange', checked=5, violations=1, witness='w')", False),
    (AmalgamResult, "amalgam left right base", (T, EMB, EMB, EMB), (), None,
     f"AmalgamResult(amalgam={T_R}, left={EMB_R}, right={EMB_R}, base={EMB_R})", True),
]


@pytest.mark.parametrize("cls, names, values, defaults, other, text, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour_is_pinned(cls, names, values, defaults, other, text, frozen):
    names = names.split()
    rec = cls(*values)
    assert cls(**dict(zip(names, values))) == rec
    assert not rec != cls(*values)
    if defaults:
        head = len(values) - len(defaults)
        assert cls(*values[:head]) == cls(*values[:head], *defaults)
        assert [getattr(cls(*values[:head]), n) for n in names[head:]] == list(defaults)
    assert [getattr(rec, n) for n in names] == list(values)
    assert repr(rec) == text
    changed = cls(*values[:-1], other)
    assert rec != changed and not rec == changed
    if frozen:
        assert hash(rec) == hash(tuple(values))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, values[0])
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, names[-1], other)
        assert rec == changed
