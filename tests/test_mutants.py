"""Every row of ``djkm all`` can fail: each entry of MUTANTS is a patch and the
rows of ``all --profile quick`` that must then fail, each with exactly the
fields it must carry (MEASURES aside), and every row fails under some entry
(mutation adequacy: DeMillo, Lipton & Sayward, IEEE Computer 11(4), 1978)."""

import json
import os
from fractions import Fraction as F

import pytest

from djkm import battery, cocycle, diffops, families, oracle, ortho
from djkm.cli import main
from djkm.exact import RationalPoly

from test_cli import ALL_ITEMS
from test_oracle import _integrate_plus_one, _quartic_with_odd_term

C = RationalPoly.variable()
ONE = RationalPoly.one()

#: Fields that report a measure, not where a row failed: left out of the comparison.
MEASURES = {"determinants", "max_offdiag"}


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def sweep(family, first_failure, *residual):
    """The family's ode row under the quick profile, failing first at first_failure
    with that residual."""
    cases, nonzero = {"P-4": (61, 30), "P-2": (61, 29), "P-1": (39, 39), "P-3": (39, 39)}[family]
    fields = {"cases": cases, "nonzero_cases": nonzero, "first_failure": first_failure}
    return {f"ode-{family}": {**fields, "residual": RationalPoly(residual).to_json()}}


def oracles(*first_mismatches):
    """The oracle rows failing at these first mismatches (None: it passes)."""
    pairs = zip(battery.ORACLES, first_mismatches)
    return {name: {"first_mismatch": m} for (name, *_), m in pairs if m is not None}


def patched(target, name, value):
    """The patch setting target[name], target a dict, or else target.name to value."""
    if isinstance(target, dict):
        return lambda mp, _: mp.setitem(target, name, value)
    return lambda mp, _: mp.setattr(target, name, value)


def wrap(target, name, wrong):
    """The patch of target.name to wrong(real, *args), real the function it replaces."""
    real = getattr(target, name)
    return patched(target, name, lambda *args, **kw: wrong(real, *args, **kw))


def constant_plus_one(family):
    """1 added to f_0's constant in the family's ODES table: each residual is the member."""
    ((first, *c_rest), *rows), *rest = diffops.ODES[families.FamilyId(family)]
    table = (((first[0] + 1, *first[1:]), *c_rest), *rows)
    return patched(diffops.ODES, families.FamilyId(family), (table, *rest))


def nonzero_p4_parity_entry(mp, _):
    # P_{-3} of P-4, which must be zero, made 1: a generation past k = 0 raises
    fam = families.PolynomialFamily(families.FamilyId.P4)
    fam._vals[1] = ONE
    mp.setitem(families._REGISTRY, families.FamilyId.P4, fam)


def m2_plus_one(tag):
    """m_2 = V_2 / L^2 of tag's moments raised by 1."""

    def wrong(real, given, max_order):
        nums, den = real(given, max_order)
        return ([*nums[:2], nums[2] + den**2, *nums[3:]] if given == tag else nums), den

    return wrap(ortho, "_moment_numerators", wrong)


def legendre(tag):
    """tag's members made the Legendre polynomials C_n^(1/2)."""

    def member(real, given, n):
        return families.gegenbauer(F(1, 2), n) if given == tag else real(given, n)

    return wrap(ortho, "_member", member)


#: A wrong master recurrence, z = 8 + 2k.  The members follow it, so
#: favard-lambdas ties them and fails on its written-out lambda_1^2 alone.
WRONG_RECURRENCE = {
    **oracles(4, 6, 4),
    **sweep("P-4", 8, -16),
    **sweep("P-2", 10, F(-96, 5)),
    **sweep("P-1", 4, 0, 0, 0, F(8, 63)),
    **sweep("P-3", 4, F(8, 63)),
    "gegenbauer-link": {"first_failure": 2},
    "favard-lambdas": {"family": "q", "lambda1_sq": "1/12"},
    **dict.fromkeys(
        ["family-tables", "generating-function-ode", "wimp-discrepancy", "cocycle-psi-table",
         "assoc-ultraspherical-identification"],
        {},
    ),
}

#: The rows beside the oracles that read p(t) and fail when it is wrong.
FROM_P = {"generating-function-ode": {}, "cocycle-psi-table": {}, "cocycle-uu-central-terms": {}}

NO_DIVISION = {"error": "p(t) has t^4 coefficient RationalPoly(c), not a nonzero constant"}
NO_UNIT = {"error": "(-3/2) power needs constant term 1 at order 0"}
NO_ROOT = {"error": "square root supported only for unit leading coefficient"}
LOG_TERM = {"error": "nonzero z^-1 coefficient: integral has a log term"}
PARITY = {"error": "P-4: parity entry k=1 not zero"}
NO_NODE = {"error": "Sturm counts do not put node 6 of 12 within 0.0e+00 of eigenvalue 6 of J"}

#: name: (patch(monkeypatch, tamper_three_term), {failing row: its fields}).
MUTANTS = {
    # the P-4 row is also the q-form operator of the Wimp discrepancy
    "odes-P-4": (constant_plus_one("P-4"), {**sweep("P-4", 0, 1), "wimp-discrepancy": {}}),
    "odes-P-3": (constant_plus_one("P-3"), sweep("P-3", 2, F(1, 2))),
    "odes-P-2": (constant_plus_one("P-2"), sweep("P-2", 2, 1)),
    "odes-P-1": (constant_plus_one("P-1"), sweep("P-1", 2, 0, F(1, 2))),
    # P-2's operator on its odd original indices, where every member is 0
    "odes-P-2-odd": (
        patched(diffops.ODES, families.FamilyId.P2, (diffops.ELLIPTIC2_TABLE, 2, -3, 2)),
        {"ode-P-2": {"error": "the P-2 sweep to 60 meets no nonzero member"}},
    ),
    # C_n^(lam) + 1 from n = 5
    "gegenbauer-from-5": (
        wrap(families, "gegenbauer", lambda real, lam, n: real(lam, n) + ONE * (n >= 5)),
        {"gegenbauer-link": {"first_failure": 5}},
    ),
    # the ties catch the step at p_5, which the moments and the Gauss rules read
    "three-term-A5": (
        lambda mp, tamper: tamper(mp, "A", 5, lambda v: v + 1),
        {
            "favard-lambdas": {"family": "q", "first_failure": 4},
            **{f"hankel-{tag}": {"family": tag, "first_failure": 4} for tag in ("q", "qbar")},
            **dict.fromkeys(["gram-q", "gram-qbar", "quadrature-q", "quadrature-qbar"], {}),
        },
    ),
    # favard_lambdas(tag, 200) reads A_1..A_200; a wrong A_100 used to pass
    "three-term-A100": (
        lambda mp, tamper: tamper(mp, "A", 100, lambda v: v + 1),
        {"favard-lambdas": {"family": "q", "first_failure": 99}},
    ),
    "master-step": (
        patched(families, "master_step", lambda k: (4 * k, 6 - 2 * k, 8 + 2 * k)), WRONG_RECURRENCE
    ),
    "master-table": (patched(families, "MASTER", ((0, 4), (6, -2), (8, 2))), WRONG_RECURRENCE),
    # t^4 coefficient c, by which the reduction cannot divide
    "quartic-t4-c": (
        patched(families.QUARTIC, 4, C),
        {**oracles(4, 6, 4), **FROM_P, "cocycle-psi-table": NO_DIVISION},
    ),
    # no p can fail antisymmetry (see cocycle.verify_antisymmetry)
    "quartic-minus-3c": (patched(families.QUARTIC, 2, C * -3), {**oracles(2, 8, 2), **FROM_P}),
    # constant term 2: the series' square root and (-3/2) power need a unit one
    "quartic-constant-2": (
        patched(families.QUARTIC, 0, 2),
        {"oracle-elliptic-1": NO_UNIT, "oracle-elliptic-2": NO_UNIT, **FROM_P,
         "oracle-gegenbauer-sum": NO_ROOT},
    ),
    # every other row that generates P-4 past k = 0 fails with the message
    "p4-parity-entry": (
        nonzero_p4_parity_entry,
        {
            **oracles(1, None, 1),
            **dict.fromkeys(
                ["family-tables", "generating-function-ode", "ode-P-4", "wimp-discrepancy",
                 "cocycle-psi-table", "favard-lambdas", "hankel-q", "gram-q", "nonclassical-q",
                 "assoc-ultraspherical-identification", "quadrature-q"],
                PARITY,
            ),
        },
    ),
    "node-radius-0": (
        patched(ortho, "_NODE_RADIUS", 0), {"quadrature-q": NO_NODE, "quadrature-qbar": NO_NODE}
    ),
    "integration-constant": (lambda mp, _: _integrate_plus_one(mp), oracles(1, 1)),
    # 1 + z - 2cz^2 + z^4: the elliptic-1 integrand gets a z^-1 term
    "odd-quartic": (
        patched(oracle, "_quartic", _quartic_with_odd_term),
        {**oracles(None, 3, 1), "oracle-elliptic-1": LOG_TERM},
    ),
    "psi-doubled-at-3": (
        wrap(cocycle, "psi", lambda real, i, j: real(i, j).scale(2 if i + j == 3 else 1)),
        {"cocycle-psi-table": {}},
    ),
    "uu-shifted-at-2": (
        wrap(cocycle, "uu_central_term", lambda real, i, j: real(i, j + (i + j == 2))),
        {"cocycle-uu-central-terms": {}},
    ),
    # t^0 dt = d(t) is exact; calling it w0 breaks only the plain-plain pairs
    "plain-t0-is-w0": (
        wrap(cocycle, "reduce_plain", lambda real, a: real(-1 if a == 0 else a)),
        {"cocycle-antisymmetry": {}},
    ),
    "moment-m2-q": (m2_plus_one("q"), {"hankel-q": {"family": "q"}, "gram-q": {}}),
    "moment-m2-qbar": (m2_plus_one("qbar"), {"hankel-qbar": {"family": "qbar"}, "gram-qbar": {}}),
    **{
        f"legendre-{tag}": (
            legendre(tag),
            {
                "favard-lambdas": {"family": tag, "first_failure": 0},
                f"hankel-{tag}": {"family": tag, "first_failure": 0},
                **dict.fromkeys([f"gram-{tag}", f"nonclassical-{tag}", f"quadrature-{tag}"], {}),
            },
        )
        for tag in ("q", "qbar")
    },
    "association-c-5-halves": (
        wrap(ortho, "assoc_ultraspherical", lambda real, nu, c, count: real(nu, F(5, 2), count)),
        {"assoc-ultraspherical-identification": {}},
    ),
    "hyp2f1-plus-1e-9": (
        wrap(ortho, "hyp2f1", lambda real, *args, **kw: real(*args, **kw) + 1e-9),
        {"hyp2f1-log-identity": {}},
    ),
    "hyp2f1-zero": (
        patched(ortho, "hyp2f1", lambda *args, **kw: 0.0),
        {"hyp2f1-log-identity": {}, "hyp2f1-domain-guard": {}},
    ),
}


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_fails_exactly_its_rows(
    cold_caches, monkeypatch, tamper_three_term, capsys, tmp_path, name
):
    patch, failing = MUTANTS[name]
    patch(monkeypatch, tamper_three_term)
    target = tmp_path / "all.json"
    assert main(["all", "--profile", "quick", "--out", str(target)]) == 1
    assert no_child_left()
    assert capsys.readouterr() == ("", "")
    report = json.loads(target.read_text())
    assert report["status"] == "fail"
    assert [i["check"] for i in report["items"]] == ALL_ITEMS
    failed = [i for i in report["items"] if i["status"] == "fail"]
    got = {i["check"]: {k: v for k, v in i.items() if k not in MEASURES} for i in failed}
    assert got == {row: {"check": row, "status": "fail", **failing[row]} for row in failing}


def test_every_row_of_all_fails_under_some_mutant():
    failing = set().union(*(rows for _, rows in MUTANTS.values()))
    assert failing == {name for name, _, _ in battery.ROWS}
