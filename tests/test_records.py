"""The library's result records: their reprs, defaults, properties,
immutability and hashing."""

from fractions import Fraction

import pytest

from djkm.cocycle import PsiReport, RMonomial
from djkm.diffops import LinearDiffOp, OdeRow
from djkm.exact import LaurentSeries, RationalPoly
from djkm.families import FamilyId
from djkm.oracle import OracleResult
from djkm.ortho import UNKNOWNS, NonclassicalWitness

RECORDS = [
    (
        lambda: RMonomial(3),
        "RMonomial(exponent=3, has_u=False)",
        {},
    ),
    (
        lambda: PsiReport(2, 20, ((1, -2),)),
        "PsiReport(bound=2, cases=20, failures=((1, -2),))",
        {"passed": False},
    ),
    (
        lambda: LinearDiffOp((RationalPoly.constant(Fraction(1, 2)), RationalPoly((0, 1)))),
        "LinearDiffOp(coeffs=(RationalPoly(1/2), RationalPoly(c)))",
        {},
    ),
    (
        lambda: OdeRow(4, False, RationalPoly.zero()),
        "OdeRow(n=4, member_zero=False, residual=RationalPoly(0), identity=None)",
        {"ok": True},
    ),
    (
        lambda: OracleResult(
            FamilyId.P4, 2, LaurentSeries.from_terms({0: RationalPoly.one()}, 2), True, None
        ),
        "OracleResult(family=<FamilyId.P4: 'P-4'>, truncation=2,"
        " series=LaurentSeries((1)*z^0 + O(z^3)), matched=True, first_mismatch=None)",
        {},
    ),
    (
        lambda: NonclassicalWitness("q", 0, UNKNOWNS, (), 1, ((0, 0, 0, 0, 0, 1),)),
        "NonclassicalWitness(family='q', max_n=0, unknowns=('a', 'b', 'c', 'e', 'f', 'g'),"
        " equations=(), solution_space_dim=1, basis=((0, 0, 0, 0, 0, 1),))",
        {"verified": True},
    ),
]


@pytest.mark.parametrize(
    "make, text, properties", RECORDS, ids=[text.partition("(")[0] for _, text, _ in RECORDS]
)
def test_record(make, text, properties):
    record = make()
    # the repr callers already read; it also shows the defaults
    assert repr(record) == text
    assert {name: getattr(record, name) for name in properties} == properties
    first_field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, first_field, None)
    twin = make()
    assert twin is not record and twin == record and hash(twin) == hash(record)


def test_record_properties_read_their_fields():
    zero = RationalPoly.zero()
    assert PsiReport(2, 20, ()).passed
    assert not OdeRow(4, False, zero, identity=False).ok
    assert not OdeRow(4, False, RationalPoly.one()).ok
    assert not NonclassicalWitness("q", 0, UNKNOWNS, (), 2, ((1, 0, 0, 0, 0, 0),)).verified
