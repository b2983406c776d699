"""The check table of djkm.battery: its shape, the forked run of ``all``, the
three-term ties of the orthogonality checks, and the cocycle checks one by
one."""

import os
import traceback

import pytest

from djkm import battery, cocycle, diffops, families, oracle
from djkm.exact import VerificationError

from test_mutants import MUTANTS, no_child_left


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
    # a tuple, would be split into its first two fields; the checks that only
    # the nonclassical and oracle-compare subcommands call are held to it too
    quick = battery.PROFILES.index("quick")
    calls = [(name, check, args[quick]) for name, check, args in battery.ROWS]
    calls += [(tag, battery.nonclassical, (tag, 4)) for tag in families.SEQUENCES]
    calls += [(name, battery.oracle_expansion, (expand, 8)) for name, _, _, expand in battery.ORACLES]
    for name, check, args in calls:
        result = check(*args)
        if isinstance(result, tuple):
            assert len(result) == 2 and type(result[1]) is dict, name
            result = result[0]
        assert type(result) is bool, name


def test_run_rejects_an_unknown_profile():
    with pytest.raises(ValueError):
        battery.run("deep")


def test_the_child_rows_are_seven_rows_of_all():
    assert sorted(battery.CHILD_ROWS) == sorted([
        "family-tables", "oracle-elliptic-1", "oracle-elliptic-2", "oracle-gegenbauer-sum",
        "ode-P-1", "ode-P-3", "wimp-discrepancy",
    ])
    names = [name for name, _, _ in battery.ROWS]
    assert len(set(battery.CHILD_ROWS)) == 7 and set(battery.CHILD_ROWS) <= set(names)


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
    monkeypatch.setattr(oracle, "expand_elliptic2", raise_(ValueError("elliptic-2 order")))
    expected = (ValueError, "elliptic-2 order")
    assert outcome(monkeypatch, True) == outcome(monkeypatch, False) == expected


def test_a_child_rows_traceback_names_the_failing_function(monkeypatch):
    # pickle drops the traceback of an exception raised in the forked child;
    # it comes back as the cause, so the report names the code that failed
    def build_wimp_op_that_raises(*args):
        raise ValueError("no Wimp operator")

    monkeypatch.setattr(diffops, "build_wimp_op", build_wimp_op_that_raises)
    with pytest.raises(ValueError) as info:
        battery.run("quick")
    assert no_child_left()
    text = "".join(traceback.format_exception(info.type, info.value, info.tb))
    assert "in build_wimp_op_that_raises" in text
    if hasattr(os, "fork"):
        assert isinstance(info.value.__cause__, battery.ChildTraceback)


@pytest.mark.parametrize(
    "first, later",
    [
        ((oracle, "check_funde"), (diffops, "build_wimp_op")),  # funde in this process
        ((oracle, "expand_elliptic1"), (cocycle, "verify_psi_table")),  # the child's elliptic-1
    ],
    ids=["parent-row-first", "child-row-first"],
)
def test_the_earlier_row_wins_when_both_processes_raise(monkeypatch, first, later):
    monkeypatch.setattr(*first, raise_(KeyError("first")))
    monkeypatch.setattr(*later, raise_(ZeroDivisionError("later")))
    assert outcome(monkeypatch, True) == outcome(monkeypatch, False) == (KeyError, "'first'")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="in-process, os._exit would end the tests")
def test_a_child_that_ends_without_a_result_is_an_error(monkeypatch):
    monkeypatch.setattr(oracle, "expand_elliptic2", lambda order: os._exit(3))
    with pytest.raises(Exception) as info:
        battery.run("quick")
    assert info.type is RuntimeError and not isinstance(info.value, VerificationError)
    assert "status 3" in str(info.value)
    assert no_child_left()


def _tied_rows(profile):
    """(name, check, args, first sequence, bound) of the all rows that run a
    check on ortho.three_term's steps."""
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


#: The three cocycle checks, by the entry of MUTANTS that fails each alone.
COCYCLE_CHECKS = {
    "psi-doubled-at-3": battery.psi_table,
    "uu-shifted-at-2": battery.uu_central_terms,
    "plain-t0-is-w0": battery.antisymmetry,
}


def cocycle_verdicts():
    return {name: battery.item(name, check, 4)["status"] for name, check in COCYCLE_CHECKS.items()}


def test_each_cocycle_check_fails_alone(monkeypatch):
    # called directly at bound 4; MUTANTS runs each through all
    assert set(cocycle_verdicts().values()) == {"pass"}
    for broken in COCYCLE_CHECKS:
        with monkeypatch.context() as patch:
            MUTANTS[broken][0](patch, None)
            got = cocycle_verdicts()
        assert got == {name: "fail" if name == broken else "pass" for name in COCYCLE_CHECKS}, broken


def test_a_wrong_ring_fails_the_psi_table(cold_caches, monkeypatch):
    # p = t^4 - 3ct^2 + 1, called directly at bound 4 (its entry runs all)
    MUTANTS["quartic-minus-3c"][0](monkeypatch, None)
    assert cocycle_verdicts() == {
        "psi-doubled-at-3": "fail", "uu-shifted-at-2": "fail", "plain-t0-is-w0": "pass"
    }


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
