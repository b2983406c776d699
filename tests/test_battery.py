"""The check table of djkm.battery: its shape, the forked run of ``all``, the
three-term ties of the orthogonality checks, and the cocycle checks one by
one."""

import os
import traceback

import pytest

from djkm import battery, cocycle, diffops, families, oracle, ortho
from djkm.cocycle import OmegaVector
from djkm.exact import RationalPoly, VerificationError


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


def test_every_check_returns_a_verdict_or_a_verdict_and_fields():
    # item splits any tuple into (ok, fields), so a bare result record, itself
    # a tuple, would be split into its first two fields
    quick = battery.PROFILES.index("quick")
    for name, check, args in battery.ROWS:
        result = check(*args[quick])
        if isinstance(result, tuple):
            assert len(result) == 2 and type(result[1]) is dict, name
            result = result[0]
        assert type(result) is bool, name


def test_run_rejects_an_unknown_profile():
    with pytest.raises(ValueError):
        battery.run("deep")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_the_child_rows_are_ten_rows_of_all():
    assert sorted(battery.CHILD_ROWS) == sorted([
        "family-tables", "oracle-elliptic-1", "oracle-elliptic-2", "oracle-gegenbauer-sum",
        "generating-function-ode", "gegenbauer-link", "wimp-discrepancy",
        "cocycle-psi-table", "cocycle-uu-central-terms", "cocycle-antisymmetry",
    ])
    names = [name for name, _, _ in battery.ROWS]
    assert len(set(battery.CHILD_ROWS)) == 10 and set(battery.CHILD_ROWS) <= set(names)


@pytest.mark.parametrize("profile", battery.PROFILES)
def test_the_forked_run_gives_the_serial_result(cold_caches, monkeypatch, profile):
    forked = battery.run(profile)
    assert no_child_left()
    monkeypatch.delattr(os, "fork")
    assert battery.run(profile) == forked
    assert [i["check"] for i in forked] == [name for name, _, _ in battery.ROWS]
    assert {i["status"] for i in forked} == {"pass"}


def raise_(exc):
    def check(*args):
        raise exc

    return check


def outcome(monkeypatch, fork: bool):
    """The type and message that battery.run("quick") raises, forked or not."""
    with monkeypatch.context() as patch:
        if not fork:
            patch.delattr(os, "fork")
        with pytest.raises(Exception) as info:
            battery.run("quick")
    assert no_child_left()
    return info.type, str(info.value)


def test_an_error_in_a_child_row_is_raised_as_in_one_process(monkeypatch):
    monkeypatch.setattr(cocycle, "verify_psi_table", raise_(ValueError("psi bound")))
    assert outcome(monkeypatch, True) == outcome(monkeypatch, False) == (ValueError, "psi bound")


def test_a_child_rows_traceback_names_the_failing_function(monkeypatch):
    # pickle drops the traceback of an exception raised in the forked child;
    # it comes back as the cause, so the report names the code that failed
    def verify_uu_terms_that_raises(bound):
        raise ValueError("no u-u terms")

    monkeypatch.setattr(cocycle, "verify_uu_terms", verify_uu_terms_that_raises)
    with pytest.raises(ValueError) as info:
        battery.run("quick")
    assert no_child_left()
    text = "".join(traceback.format_exception(info.type, info.value, info.tb))
    assert "in verify_uu_terms_that_raises" in text
    if hasattr(os, "fork"):
        assert isinstance(info.value.__cause__, battery.ChildTraceback)


@pytest.mark.parametrize(
    "first, later",
    [
        ((diffops, "ode_sweep"), (cocycle, "verify_psi_table")),  # ode-P-4 in this process
        ((oracle, "check_funde"), (ortho, "recurrence_mismatch")),  # the child's funde
    ],
    ids=["parent-row-first", "child-row-first"],
)
def test_the_earlier_row_wins_when_both_processes_raise(monkeypatch, first, later):
    monkeypatch.setattr(*first, raise_(KeyError("first")))
    monkeypatch.setattr(*later, raise_(ZeroDivisionError("later")))
    assert outcome(monkeypatch, True) == outcome(monkeypatch, False) == (KeyError, "'first'")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="in-process, os._exit would end the tests")
def test_a_child_that_ends_without_a_result_is_an_error(monkeypatch):
    monkeypatch.setattr(cocycle, "verify_antisymmetry", lambda bound: os._exit(3))
    with pytest.raises(Exception) as info:
        battery.run("quick")
    assert info.type is RuntimeError and not isinstance(info.value, VerificationError)
    assert "status 3" in str(info.value)
    assert no_child_left()


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
    items = {"psi": "cocycle-psi-table", "uu": "cocycle-uu-central-terms",
             "antisymmetry": "cocycle-antisymmetry"}
    for broken, (attr, mutant) in mutants.items():
        with monkeypatch.context() as patch:
            patch.setattr(cocycle, attr, mutant)
            got = cocycle_verdicts()
            # through all, where the cocycle rows run in the forked child
            failed = [i["check"] for i in battery.run("quick") if i["status"] == "fail"]
        assert got == {name: "fail" if name == broken else "pass" for name in COCYCLE_CHECKS}, broken
        assert failed == [items[broken]], broken
        assert no_child_left()


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
