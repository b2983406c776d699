"""The check table of djkm.battery: its shape, the three-term ties of the
orthogonality checks, and the cocycle checks one by one."""

import pytest

from djkm import battery, cocycle, families
from djkm.cocycle import OmegaVector
from djkm.exact import RationalPoly


def test_every_row_has_one_argument_tuple_per_profile():
    for name, _, args in battery.ROWS:
        assert len(args) == len(battery.PROFILES), name
        assert all(isinstance(a, tuple) for a in args), name


def test_rows_hold_only_battery_checks():
    # library functions are looked up when a check runs, so that patches and
    # traces of their module see the call
    for name, check, args in battery.ROWS:
        callables = [check] + [a for column in args for a in column if callable(a)]
        assert all(f.__module__ == "djkm.battery" for f in callables), name


def test_run_rejects_an_unknown_profile():
    with pytest.raises(ValueError):
        battery.run("deep")


def _tied_rows(profile):
    """(name, check, args, first sequence, bound) of the all rows that run a
    check on ThreeTermData."""
    column = battery.PROFILES.index(profile)
    for name, check, args in battery.ROWS:
        if args[column][:1] in ((battery.favard,), (battery.hankel,)):
            _, tags, bound = args[column]
            yield name, check, args[column], tags[0], bound


@pytest.mark.parametrize("profile", battery.PROFILES)
@pytest.mark.parametrize("method, offset", [("A", 0), ("C", -1)])
def test_a_tamper_at_the_last_coefficient_read_fails_the_item(
    monkeypatch, tamper_three_term, profile, method, offset
):
    # favard and hankel at bound N read A_1..A_N and C_0..C_{N-1}
    rows = list(_tied_rows(profile))
    assert [r[0] for r in rows] == ["favard-lambdas", "hankel-q", "hankel-qbar"]
    for name, check, args, tag, bound in rows:
        with monkeypatch.context() as patch:
            tamper_three_term(patch, method, bound + offset, lambda v: v + 1)
            got = battery.item(name, check, *args)
        assert got["status"] == "fail", (name, bound)
        assert got["family"] == tag
        assert got["first_failure"] == (bound - 1 if method == "A" else bound)


@pytest.mark.parametrize("size", [1, 3, 8])
def test_orthogonality_checks_tie_exactly_what_they_read(monkeypatch, tamper_three_term, size):
    for check in (battery.favard, battery.hankel):
        with monkeypatch.context() as patch:
            tamper_three_term(patch, "A", size, lambda v: v + 1)
            ok, fields = check("qbar", size)
        assert (ok, fields) == (False, {"first_failure": size - 1})
        with monkeypatch.context() as patch:
            # beyond A_{size+1}, the last one tied
            tamper_three_term(patch, "A", size + 2, lambda v: v + 1)
            ok, fields = check("qbar", size)
        assert ok, check


#: The three cocycle checks, by short name.
COCYCLE_CHECKS = {
    "psi": battery.psi_table,
    "uu": battery.uu_central_terms,
    "antisymmetry": battery.antisymmetry,
}


def cocycle_verdicts():
    return {name: battery.item(name, check, 4)["status"] for name, check in COCYCLE_CHECKS.items()}


def test_each_cocycle_check_fails_alone(monkeypatch):

    assert set(cocycle_verdicts().values()) == {"pass"}
    real_psi, real_uu, real_plain = cocycle.psi, cocycle.uu_central_term, cocycle.reduce_plain
    mutants = {
        "psi": ("psi", lambda i, j: real_psi(i, j).scale(2) if i + j == 3 else real_psi(i, j)),
        "uu": ("uu_central_term", lambda i, j: real_uu(i, j + (i + j == 2))),
        # t^0 dt = d(t) is exact; calling it w0 breaks only the plain-plain pairs
        "antisymmetry": (
            "reduce_plain",
            lambda a: OmegaVector.basis_w0() if a == 0 else real_plain(a),
        ),
    }
    for broken, (attr, mutant) in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(cocycle, attr, mutant)
            got = cocycle_verdicts()
        assert got == {name: "fail" if name == broken else "pass" for name in COCYCLE_CHECKS}, broken


def test_a_wrong_ring_fails_the_psi_table(cold_caches, monkeypatch):
    # the reduction reads p(t) alone, so with p = t^4 - 3ct^2 + 1 it no longer
    # meets the paper's table, which the families' recurrence generates
    monkeypatch.setitem(families.QUARTIC, 2, RationalPoly.variable() * -3)
    assert cocycle_verdicts() == {"psi": "fail", "uu": "fail", "antisymmetry": "pass"}


def test_gegenbauer_link_rejects_an_empty_sweep():
    # max_n = 1 would check no link and pass
    with pytest.raises(ValueError):
        battery.gegenbauer_link(1)


@pytest.mark.parametrize("count", [0, -1])
def test_favard_rejects_a_count_without_lambda_1(count):
    # count 0 computes only lambda_0^2 = 1, and the check reads lambda_1^2
    with pytest.raises(ValueError, match="count must be >= 1"):
        battery.favard("q", count)


@pytest.mark.parametrize("max_n", [0, -1])
def test_assoc_ultraspherical_rejects_a_bound_that_checks_nothing(max_n):
    # max_n = 0 compares only C_0 = q_0 = 1, which holds by construction
    with pytest.raises(ValueError, match="max_n must be >= 1"):
        battery.assoc_ultraspherical(max_n)


@pytest.mark.parametrize("profile", battery.PROFILES)
def test_a_psi_wrong_at_one_pair_of_one_sum_fails_the_table(monkeypatch, profile):
    # psi depends on s = i + j alone; a psi wrong only at i = 2 of s = 5 must
    # still fail, so the table has to evaluate psi at every (i, j)
    real = cocycle.psi
    monkeypatch.setattr(
        cocycle, "psi", lambda i, j: real(i, j).scale(2) if (i, j) == (2, 3) else real(i, j)
    )
    name, check, args = next(row for row in battery.ROWS if row[0] == "cocycle-psi-table")
    column = args[battery.PROFILES.index(profile)]
    assert battery.item(name, check, *column) == {"check": name, "status": "fail"}
    assert battery.psi_table(*column[1:])[1]["failures"] == [[2, 3]]
