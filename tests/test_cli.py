"""CLI driver: subcommand output schemas, exit codes, determinism."""

import json
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from djkm import battery, cli, diffops, families, ortho
from djkm.cli import GEN_FAMILIES, main
from djkm.exact import RationalPoly, VerificationError
from djkm.families import VIEW_START, FamilyId, IndexView, generate


#: The items of `djkm all`, in report order.
ALL_ITEMS = [
    "family-tables",
    "oracle-elliptic-1",
    "oracle-elliptic-2",
    "oracle-gegenbauer-sum",
    "generating-function-ode",
    "ode-P-4",
    "ode-P-2",
    "ode-P-1",
    "ode-P-3",
    "gegenbauer-link",
    "wimp-discrepancy",
    "cocycle-psi-table",
    "cocycle-uu-central-terms",
    "cocycle-antisymmetry",
    "favard-lambdas",
    "hankel-q",
    "gram-q",
    "nonclassical-q",
    "hankel-qbar",
    "gram-qbar",
    "nonclassical-qbar",
    "assoc-ultraspherical-identification",
    "quadrature-q",
    "quadrature-qbar",
    "hyp2f1-log-identity",
    "hyp2f1-domain-guard",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_emits_shifted_table(capsys):
    code, out = run_cli(
        capsys, "gen", "--family", "P-4", "--view", "shifted", "--max-n", "12"
    )
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "P-4"
    assert data["view"] == "shifted"
    assert [e["n"] for e in data["entries"]] == list(range(13))
    by_n = {e["n"]: e["poly"]["coeffs"] for e in data["entries"]}
    assert by_n[6] == [["0", "1"], ["4", "5"]]
    assert by_n[12] == [["5", "77"], ["0", "1"], ["-416", "385"], ["0", "1"], ["2048", "1155"]]


def test_gen_accepts_max_alias(capsys):
    code, out = run_cli(capsys, "gen", "--family", "P-2", "--max", "6")
    assert code == 0
    data = json.loads(out)
    assert data["view"] == "shifted"
    assert data["entries"][6]["poly"]["coeffs"] == [["1", "5"]]


def test_gen_q_view_families(capsys):
    code, out = run_cli(capsys, "gen", "--family", "qbar", "--max-n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["view"] == "qbar"
    assert data["entries"][0]["n"] == -1
    assert data["entries"][1]["poly"]["coeffs"] == [["1", "5"]]


def _reference_gen_text(family, view_flag, max_n):
    """gen's payload through json.dumps, from the Fraction coefficients."""
    family_id, view = GEN_FAMILIES[family]
    if view_flag is not None:
        view = IndexView(view_flag)
    start = VIEW_START[view]
    payload = {
        "family": family_id.value,
        "view": view.value,
        "entries": [
            {
                "n": start + offset,
                "poly": {
                    "coeffs": [
                        [str(f.numerator), str(f.denominator)] for f in poly.coeffs
                    ]
                },
            }
            for offset, poly in enumerate(generate(family_id, view, max_n))
        ],
    }
    return json.dumps(payload, indent=2)


def _gen_cases():
    for family, (_, view) in sorted(GEN_FAMILIES.items()):
        start = VIEW_START[view]
        for max_n in (start, start + 1, 12, 40):
            yield family, None, max_n
    for family in ("P-4", "P-3"):
        for view_flag in ("original", "shifted", "q"):
            start = VIEW_START[IndexView(view_flag)]
            for max_n in (start, start + 1, 12, 40):
                yield family, view_flag, max_n


def test_gen_bytes_match_json_dumps(capsys):
    # zero members, negative n and one-entry tables, byte for byte
    for family, view_flag, max_n in _gen_cases():
        argv = ["gen", "--family", family, "--max-n", str(max_n)]
        if view_flag is not None:
            argv += ["--view", view_flag]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.endswith("\n")
        assert out[:-1] == _reference_gen_text(family, view_flag, max_n), argv


def test_gen_view_conflict_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "--family", "q", "--view", "shifted", "--max-n", "4")
    assert exc.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "--family", "P-4", "--no-such-flag")
    assert exc.value.code == 2


def test_verify_ode_report_shape(capsys):
    code, out = run_cli(capsys, "verify-ode", "--family", "P-2", "--max-n", "24")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "verify-ode"
    assert data["status"] == "pass"
    assert len(data["items"]) == 25
    odd = [i for i in data["items"] if i["n"] % 2]
    assert odd and all(i["member_zero"] for i in odd)


def test_verify_ode_report_shape_follows_the_stride(capsys, monkeypatch):
    # member_zero goes with a stride-1 row, which meets the other parity's
    # zeros, whichever family holds it.  P-2 gets P-3's stride-2 row on its
    # even, nonzero members: on the odd ones the sweep would test nothing.
    table, _, offset, first = diffops.ODES[families.FamilyId.P3]
    monkeypatch.setitem(diffops.ODES, families.FamilyId.P2, (table, 2, offset - 1, first))
    monkeypatch.setitem(diffops.ODES, families.FamilyId.P3, (table, 1, offset, first))
    _, out = run_cli(capsys, "verify-ode", "--family", "P-2", "--max-n", "12")
    items = json.loads(out)["items"]
    assert items and not any("member_zero" in i for i in items)
    _, out = run_cli(capsys, "verify-ode", "--family", "P-3", "--max-n", "12")
    items = json.loads(out)["items"]
    assert items and all(isinstance(i["member_zero"], bool) for i in items)


def test_a_sweep_of_zero_members_fails(capsys, monkeypatch):
    # P-2's operator on its odd original indices, where every member is 0:
    # each residual vanishes, but no case tests the operator
    monkeypatch.setitem(
        diffops.ODES, families.FamilyId.P2, (diffops.ELLIPTIC2_TABLE, 2, -3, 2)
    )
    message = "the P-2 sweep to 60 meets no nonzero member"
    with pytest.raises(VerificationError, match=message):
        battery.ode("P-2", 60)
    assert main(["verify-ode", "--family", "P-2", "--max-n", "60"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: verification failed: {message}\n")
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    failing = [i for i in json.loads(out)["items"] if i["status"] == "fail"]
    assert failing == [{"check": "ode-P-2", "status": "fail", "error": message}]


@pytest.mark.parametrize("max_n", [0, 1])
def test_a_bound_below_the_first_nonzero_member_is_a_usage_error(capsys, monkeypatch, max_n):
    # P-2's sweep to 0 or 1 ends at original index -4 or -3 and meets only
    # zero initial values: nothing failed, the bound is too small (exit 2)
    with pytest.raises(SystemExit) as exc:
        main(["verify-ode", "--family", "P-2", "--max-n", str(max_n)])
    assert exc.value.code == 2
    message = f"the P-2 sweep to {max_n} ends at original index {max_n - 4} < 0"
    assert capsys.readouterr() == ("", f"error: --max-n: {message}\n")
    with pytest.raises(ValueError, match=message):
        battery.ode("P-2", max_n)
    # the sweep to 2 reaches P_{-2,-2}, a nonzero member
    assert run_cli(capsys, "verify-ode", "--family", "P-2", "--max-n", "2")[0] == 0
    # a wrong ODES row whose sweep ends past 0 among zero members still fails (exit 1)
    monkeypatch.setitem(
        diffops.ODES, families.FamilyId.P2, (diffops.ELLIPTIC2_TABLE, 2, -3, 2)
    )
    assert main(["verify-ode", "--family", "P-2", "--max-n", "60"]) == 1
    assert capsys.readouterr().err.startswith("error: verification failed: ")


def test_ode_items_count_the_nonzero_members():
    # P-4 and P-2 walk every shifted index and meet the other parity's zeros
    desk = {name: args for name, _, (args, _) in battery.ROWS if name.startswith("ode-")}
    counts = {name: battery.ode(*args) for name, args in desk.items()}
    assert counts == {
        "ode-P-4": (True, {"cases": 401, "nonzero_cases": 200}),
        "ode-P-2": (True, {"cases": 401, "nonzero_cases": 199}),
        "ode-P-1": (True, {"cases": 199, "nonzero_cases": 199}),
        "ode-P-3": (True, {"cases": 199, "nonzero_cases": 199}),
    }


def _first_constant_plus_one(table):
    """The table with 1 added to the n^0 coefficient of f_0's c^0 coefficient."""
    (first, *c_rest), *rows = table
    return (((first[0] + 1, *first[1:]), *c_rest), *rows)


#: One mutant per row of ODES: the failing items of ``all --profile quick``
#: and the first failing index of each failing sweep.  The elliptic-1 row is
#: also the q-form operator that the Wimp discrepancy must annihilate q_2 with.
ODES_MUTANTS = {
    families.FamilyId.P4: {"ode-P-4": 0, "wimp-discrepancy": None},
    families.FamilyId.P3: {"ode-P-3": 2},
    families.FamilyId.P2: {"ode-P-2": 2},
    families.FamilyId.P1: {"ode-P-1": 2},
}


@pytest.mark.parametrize("family_id", list(ODES_MUTANTS))
def test_a_wrong_odes_row_fails_its_items(cold_caches, monkeypatch, capsys, family_id):
    table, *rest = diffops.ODES[family_id]
    monkeypatch.setitem(diffops.ODES, family_id, (_first_constant_plus_one(table), *rest))
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = json.loads(out)["items"]
    assert [i["check"] for i in items] == ALL_ITEMS
    failing = {i["check"]: i.get("first_failure") for i in items if i["status"] == "fail"}
    assert failing == ODES_MUTANTS[family_id]
    assert not any("error" in i for i in items)


def test_verify_ode_reports_wrong_operators(capsys, monkeypatch):
    # the identity operator leaves every member as its own residual, so every
    # nonzero member fails; the sweep must read its row of ODES at call time
    identity = (((1,),),)
    for fid in (families.FamilyId.P4, families.FamilyId.P1):
        monkeypatch.setitem(diffops.ODES, fid, (identity, *diffops.ODES[fid][1:]))
    first_residual = {}
    for family, max_n in (("P-4", "12"), ("P-1", "8")):
        code, out = run_cli(capsys, "verify-ode", "--family", family, "--max-n", max_n)
        assert code == 1
        data = json.loads(out)
        assert data["status"] == "fail"
        failing = [i for i in data["items"] if i["status"] == "fail"]
        assert failing
        assert all(isinstance(i["residual"], dict) for i in failing)
        first_residual[family] = failing[0]["residual"]
        if family == "P-1":
            assert len(failing) == len(data["items"])
            assert all(i["identity"] == "pass" for i in data["items"])
        else:
            assert all(i["member_zero"] for i in data["items"] if i["status"] == "pass")
    # `all` names the first failing index of each failing sweep and of the link
    real_gegenbauer = families.gegenbauer

    def wrong_from_5(lam, n):
        return real_gegenbauer(lam, n) + (RationalPoly.one() if n >= 5 else RationalPoly.zero())

    monkeypatch.setattr(families, "gegenbauer", wrong_from_5)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = {i["check"]: i for i in json.loads(out)["items"]}
    # a failing sweep also carries the residual of its first failing row
    for family in ("P-4", "P-1"):
        residual = items[f"ode-{family}"].pop("residual")
        assert not RationalPoly.from_json(residual).is_zero()
        assert RationalPoly.from_json(residual).to_json() == residual
        assert residual == first_residual[family]
    assert items["ode-P-4"] == {
        "check": "ode-P-4", "status": "fail", "cases": 61, "nonzero_cases": 30, "first_failure": 0
    }
    assert items["ode-P-1"] == {
        "check": "ode-P-1", "status": "fail", "cases": 39, "nonzero_cases": 39, "first_failure": 2
    }
    assert items["ode-P-2"] == {
        "check": "ode-P-2", "status": "pass", "cases": 61, "nonzero_cases": 29
    }
    assert items["gegenbauer-link"] == {
        "check": "gegenbauer-link", "status": "fail", "first_failure": 5
    }


def test_verification_error_exits_1(capsys, monkeypatch):
    fam = families.PolynomialFamily(families.FamilyId.P4)
    fam._vals[1] = RationalPoly.one()  # tamper with P_{-3}, which must be zero
    monkeypatch.setitem(families._REGISTRY, families.FamilyId.P4, fam)
    code = main(["gen", "--family", "P-4", "--max-n", "8"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: verification failed: P-4: parity entry k=1")


def test_all_reports_a_raising_check_as_a_failing_item(capsys, monkeypatch, tmp_path):
    # the same tamper under `all`: the items that reach P-4 past k = 0 fail
    # with the message, the others still run, and the report is written
    fam = families.PolynomialFamily(families.FamilyId.P4)
    fam._vals[1] = RationalPoly.one()
    monkeypatch.setitem(families._REGISTRY, families.FamilyId.P4, fam)
    target = tmp_path / "all.json"
    code = main(["all", "--profile", "quick", "--out", str(target)])
    assert code == 1
    assert capsys.readouterr().err == ""
    data = json.loads(target.read_text())
    assert data["status"] == "fail"
    assert [i["check"] for i in data["items"]] == ALL_ITEMS
    items = {i["check"]: i for i in data["items"]}
    assert items["family-tables"]["status"] == "fail"
    assert items["family-tables"]["error"].startswith("P-4: parity entry k=1")
    assert items["cocycle-psi-table"]["error"] == items["family-tables"]["error"]
    # both reach P-4 through their three-term check on the members
    for name in ("hankel-q", "favard-lambdas"):
        assert items[name]["error"] == items["family-tables"]["error"]
    for name in ("ode-P-2", "hankel-qbar", "hyp2f1-log-identity", "hyp2f1-domain-guard"):
        assert items[name]["status"] == "pass"
        assert "error" not in items[name]


def test_hankel_and_favard_items_check_the_three_term_data(
    monkeypatch, tamper_three_term, tmp_path
):
    tamper_three_term(monkeypatch, "A", 5, lambda v: v + 1)
    target = tmp_path / "all.json"
    assert main(["all", "--profile", "quick", "--out", str(target)]) == 1
    items = {i["check"]: i for i in json.loads(target.read_text())["items"]}
    assert items["favard-lambdas"] == {
        "check": "favard-lambdas", "status": "fail", "family": "q", "first_failure": 4
    }
    for tag in ("q", "qbar"):
        assert items[f"hankel-{tag}"] == {
            "check": f"hankel-{tag}", "status": "fail", "family": tag, "first_failure": 4
        }


def test_favard_item_checks_every_a_it_reads(monkeypatch, tamper_three_term, tmp_path):
    # favard_lambdas(tag, 200) reads A_1..A_200; a wrong A_100 used to pass
    tamper_three_term(monkeypatch, "A", 100, lambda v: v + 1)
    target = tmp_path / "all.json"
    assert main(["all", "--profile", "quick", "--out", str(target)]) == 1
    failing = [i for i in json.loads(target.read_text())["items"] if i["status"] == "fail"]
    assert failing == [
        {"check": "favard-lambdas", "status": "fail", "family": "q", "first_failure": 99}
    ]


def test_battery_rows_are_the_all_items():
    assert [row[0] for row in battery.ROWS] == ALL_ITEMS


def test_orthogonality_checks_the_three_term_data(monkeypatch, tamper_three_term, capsys):
    tamper_three_term(monkeypatch, "A", 5, lambda v: v + 1)
    code, out = run_cli(
        capsys, "orthogonality", "--family", "q", "--hankel", "8", "--gram", "8"
    )
    assert code == 1
    items = json.loads(out)["items"]
    assert items[:2] == [
        {"check": "favard-lambdas", "status": "fail", "first_failure": 4},
        {"check": "hankel-positivity", "status": "fail", "first_failure": 4},
    ]


def test_second_order_verify_includes_identity(capsys):
    code, out = run_cli(capsys, "verify-ode", "--family", "P-1", "--max-n", "20")
    assert code == 0
    data = json.loads(out)
    assert all(i["identity"] == "pass" for i in data["items"])
    assert [i["n"] for i in data["items"]] == list(range(2, 21))


def test_oracle_compare_both_routes(capsys):
    code, out = run_cli(capsys, "oracle-compare", "--family", "P-4", "--order", "20")
    assert code == 0
    data = json.loads(out)
    assert [i["oracle"] for i in data["items"]] == ["elliptic-integral", "gegenbauer-sum"]
    assert all(i["matched"] for i in data["items"])
    code, out = run_cli(capsys, "oracle-compare", "--family", "P-2", "--order", "20")
    assert code == 0
    data = json.loads(out)
    assert [i["oracle"] for i in data["items"]] == ["elliptic-integral"]
    assert [i["family"] for i in data["items"]] == ["P-2"]


def test_cocycle_single_value(capsys):
    code, out = run_cli(capsys, "cocycle", "--i", "2", "--j", "1")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"w0", "w-1", "w-2", "w-3", "w-4"}
    assert data["w-3"]["coeffs"] == [["1", "2"]]
    assert data["w-1"]["coeffs"] == [["0", "1"], ["1", "2"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["cocycle", "--i", "2"],
        ["cocycle", "--verify", "--bound", "2", "--i", "3", "--j", "1"],
        ["cocycle", "--i", "3", "--j", "1", "--bound", "99"],
    ],
    ids=" ".join,
)
def test_cocycle_requires_indices_or_verify(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def test_cocycle_verify_report(capsys):
    code, out = run_cli(capsys, "cocycle", "--verify", "--bound", "4")
    assert code == 0
    data = json.loads(out)
    checks = {i["check"]: i["status"] for i in data["items"]}
    assert checks == {
        "psi-table": "pass",
        "uu-central-terms": "pass",
        "antisymmetry": "pass",
    }


def test_orthogonality_report(capsys):
    # each family reports its own lambda_1^2
    for family, lambda1_sq in (("q", "1/10"), ("qbar", "2/7")):
        code, out = run_cli(
            capsys, "orthogonality", "--family", family, "--hankel", "6", "--gram", "4"
        )
        assert code == 0
        data = json.loads(out)
        checks = {i["check"]: i for i in data["items"]}
        assert checks["favard-lambdas"]["lambda1_sq"] == lambda1_sq
        assert len(checks["hankel-positivity"]["determinants"]) == 6
        assert data["status"] == "pass"


def test_quadrature_csv_format(capsys):
    code, out = run_cli(capsys, "quadrature", "--family", "qbar", "--nodes", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "node,weight"
    assert len(lines) == 6
    total = sum(float(line.split(",")[1]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-12


def test_quadrature_has_no_csv_flag(capsys):
    # CSV is the default output; the flag that asked for it did nothing
    with pytest.raises(SystemExit) as exc:
        main(["quadrature", "--family", "qbar", "--nodes", "5", "--csv"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


def test_nonclassical_report(capsys):
    code, out = run_cli(capsys, "nonclassical", "--family", "q", "--max-n", "6")
    assert code == 0
    data = json.loads(out)
    item = data["items"][0]
    assert item["solution_space_dim"] == 1
    assert item["verified"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["quadrature", "--family", "q", "--nodes", "0"],
        ["orthogonality", "--family", "q", "--hankel", "0"],
        ["orthogonality", "--family", "q", "--gram", "0"],
        ["nonclassical", "--family", "q", "--max-n", "0"],
        ["nonclassical", "--family", "q", "--max-n", "3"],
        ["cocycle", "--verify", "--bound", "0"],
        ["verify-ode", "--family", "P-1", "--max-n", "1"],
        ["verify-ode", "--family", "P-3", "--max-n", "-5"],
        ["verify-ode", "--family", "P-4", "--max-n", "-3"],
        ["gen", "--family", "P-4", "--max-n", "-10"],
        ["oracle-compare", "--family", "P-4", "--order", "2"],
        ["gen", "--family", "P-4", "--max-n", "2", "--out", "{tmp}/missing/x.json"],
        ["verify-ode", "--family", "P-4", "--max-n", "2", "--out", "{tmp}/missing/x.json"],
    ],
    ids=" ".join,
)
def test_bad_algebra_size_is_usage_error(argv, tmp_path):
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "djkm.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith(f"error: {argv[-2]}: ")
    assert proc.stdout == ""


def test_unwritable_out_fails_before_the_command_runs(tmp_path, capsys, monkeypatch):
    calls = []

    def stub(*args):
        calls.append(args)
        raise AssertionError("the battery ran")

    monkeypatch.setattr(battery, "run", stub)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--profile", "desk", "--out", str(tmp_path / "missing" / "x.json")])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: --out: ")
    assert calls == []


@pytest.mark.parametrize(
    "sizes, flag", [(["30", "0"], "--gram"), (["0", "16"], "--hankel")], ids=["gram", "hankel"]
)
def test_orthogonality_checks_sizes_before_any_work(sizes, flag, capsys, monkeypatch):
    calls = []

    def stub(*args):
        calls.append(args)
        raise AssertionError("the Hankel determinants were computed")

    monkeypatch.setattr(ortho, "hankel", stub)
    with pytest.raises(SystemExit) as exc:
        main(["orthogonality", "--family", "q", "--hankel", sizes[0], "--gram", sizes[1]])
    assert exc.value.code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {flag}: ")
    assert calls == []


def gen_into_a_closed_pipe(max_n: int, size: int):
    """The exit code and stderr of gen at max_n, its reader gone after size bytes."""
    with subprocess.Popen(
        [sys.executable, "-m", "djkm.cli", "gen", "--family", "P-4", "--max-n", str(max_n)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(size)) == size
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(), err


def test_closed_stdout_is_not_an_error():
    # 1.5 MB of output, far beyond a pipe buffer; the reader stops after 10 bytes
    assert gen_into_a_closed_pipe(300, 10) == (0, b"")


def test_stdout_closed_mid_stream_is_not_an_error():
    # 9.6 MB of output, written entry by entry; the reader stops after 1 MiB,
    # while gen is still writing
    assert gen_into_a_closed_pipe(600, 2**20) == (0, b"")


def test_gen_holds_one_entry_at_a_time(tmp_path):
    # the 1.5 MB payload of P-4:300 is written as it is formatted, so gen's
    # own allocations stay near the largest entry (4.4 MiB when the payload
    # was joined before one write)
    generate(FamilyId.P4, IndexView.SHIFTED, 300)  # the members, outside the trace
    argv = ["gen", "--family", "P-4", "--max-n", "300", "--out", str(tmp_path / "gen.json")]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_a_generation_that_raises_late_writes_no_byte(monkeypatch, tmp_path, capsys):
    # P_249 of P-4, which must be zero, made 1: the parity check of the
    # extension raises at k = 251, near the end of max-n 300, and by then
    # not one entry has been written
    fam = families.PolynomialFamily(FamilyId.P4)
    fam.original(250)
    fam._vals[249 + 4] = RationalPoly.one()
    monkeypatch.setitem(families._REGISTRY, FamilyId.P4, fam)
    target = tmp_path / "gen.json"
    assert main(["gen", "--family", "P-4", "--max-n", "300", "--out", str(target)]) == 1
    assert target.read_bytes() == b""
    assert main(["gen", "--family", "P-4", "--max-n", "300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "P-4: parity entry k=251 not zero" in captured.err


def test_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "gen", "--family", "P-4", "--max-n", "10")
    _, out2 = run_cli(capsys, "gen", "--family", "P-4", "--max-n", "10")
    assert out1 == out2


def test_cold_and_warm_caches_give_the_same_report(cold_caches, tmp_path):
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    assert main(["all", "--profile", "quick", "--out", str(cold)]) == 0
    assert main(["all", "--profile", "quick", "--out", str(warm)]) == 0
    reports = [json.loads(path.read_text()) for path in (cold, warm)]
    for report in reports:
        del report["wall_time_ms"]
    assert reports[0] == reports[1]


def test_a_wrong_master_step_fails_the_pinned_closed_forms(cold_caches, monkeypatch, capsys):
    # z = 8 + 2k in the one statement of the recurrence: the families and the
    # three-term data both follow it, so the ties agree, and the typed tables
    # and the written-out lambda_1^2 are what catch it
    monkeypatch.setattr(families, "master_step", lambda k: (4 * k, 6 - 2 * k, 8 + 2 * k))
    assert ortho.three_term("q").A(1) == F(12, 8)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = {item["check"]: item for item in json.loads(out)["items"]}
    assert list(items) == ALL_ITEMS
    assert items["family-tables"]["status"] == "fail"
    favard = items["favard-lambdas"]
    assert favard["status"] == "fail"
    assert "first_failure" not in favard and favard["lambda1_sq"] != "1/10"


def test_a_wrong_master_table_fails_the_generating_function_ode(cold_caches, monkeypatch, capsys):
    # z = 8 + 2k in MASTER: the families follow it, and the ODE's row, which
    # reads p and never MASTER, meets members that do not solve the ODE
    monkeypatch.setattr(families, "MASTER", ((0, 4), (6, -2), (8, 2)))
    assert families.master_step(1) == (4, 4, 10)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = {item["check"]: item for item in json.loads(out)["items"]}
    assert list(items) == ALL_ITEMS
    assert items["family-tables"]["status"] == "fail"
    assert items["generating-function-ode"]["status"] == "fail"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "gen", "--family", "P-4", "--max-n", "4", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["family"] == "P-4"


def test_quick_profile_all(capsys):
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert all(i["status"] == "pass" for i in data["items"])
    assert [i["check"] for i in data["items"]] == ALL_ITEMS


def test_desk_profile_all_within_budget(capsys):
    code, out = run_cli(capsys, "all", "--profile", "desk")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    # stays inside the summed per-criterion runtime budgets (1+30+60+5 s)
    assert data["wall_time_ms"] < 96_000


def test_failing_report_exits_1(capsys):
    started = time.perf_counter()
    items = [{"check": "x", "status": "pass"}, {"check": "y", "status": "fail"}]
    assert cli._report("demo", {"k": 1}, items, started, None) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "fail"
    assert list(data) == ["command", "parameters", "status", "items", "wall_time_ms"]
    assert data["items"] == items
    assert cli._report("demo", {}, items[:1], started, None) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"


def test_a_ring_the_reduction_cannot_solve_fails_the_psi_item_with_an_error(
    cold_caches, monkeypatch, capsys
):
    # p with t^4 coefficient c: the reduction cannot divide by it, so the psi
    # item reports the error and the others still run
    monkeypatch.setitem(families.QUARTIC, 4, RationalPoly.variable())
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = {item["check"]: item for item in json.loads(out)["items"]}
    assert list(items) == ALL_ITEMS
    psi = items["cocycle-psi-table"]
    assert psi["status"] == "fail"
    assert "not a nonzero constant" in psi["error"]


def test_a_wrong_curve_fails_every_item_read_from_it(cold_caches, monkeypatch, capsys):
    # p = t^4 - 3ct^2 + 1 in the one statement of the curve: the oracles'
    # quartic, the generating-function ODE's left side, the reduction and the
    # u-u term follow it, and the typed closed forms they meet catch it
    monkeypatch.setitem(families.QUARTIC, 2, RationalPoly.variable() * -3)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = json.loads(out)["items"]
    assert [i["check"] for i in items] == ALL_ITEMS
    assert [i["check"] for i in items if i["status"] == "fail"] == [
        "oracle-elliptic-1",
        "oracle-elliptic-2",
        "oracle-gegenbauer-sum",
        "generating-function-ode",
        "cocycle-psi-table",
        "cocycle-uu-central-terms",
    ]
    assert not any("error" in i for i in items)


def test_a_curve_the_series_cannot_root_fails_the_oracles_with_an_error(
    cold_caches, monkeypatch, capsys
):
    # constant term 2: the quartic's square root and (-3/2) power need a unit
    # constant term, so the three oracle items report that and the rest run
    monkeypatch.setitem(families.QUARTIC, 0, 2)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = {i["check"]: i for i in json.loads(out)["items"]}
    assert list(items) == ALL_ITEMS
    errors = {name: i["error"] for name, i in items.items() if "error" in i}
    assert errors == {
        "oracle-elliptic-1": "(-3/2) power needs constant term 1 at order 0",
        "oracle-elliptic-2": "(-3/2) power needs constant term 1 at order 0",
        "oracle-gegenbauer-sum": "square root supported only for unit leading coefficient",
    }
    assert all(items[name]["status"] == "fail" for name in errors)


def test_a_numeric_failure_fails_the_quadrature_items_alone(monkeypatch, capsys):
    # no node is certified within a radius of 0: the two quadrature items
    # fail with the message, and every other item, the domain guard of hyp2f1
    # included, still passes
    monkeypatch.setattr(ortho, "_NODE_RADIUS", 0)
    code, out = run_cli(capsys, "all", "--profile", "quick")
    assert code == 1
    items = json.loads(out)["items"]
    assert [i["check"] for i in items] == ALL_ITEMS
    failing = [i for i in items if i["status"] == "fail"]
    assert [i["check"] for i in failing] == ["quadrature-q", "quadrature-qbar"]
    assert all(i["error"].startswith("Sturm counts do not put node ") for i in failing)
    # the command itself prints one error line instead of a table
    assert main(["quadrature", "--family", "q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: verification failed: Sturm counts do not put node ")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "djkm.cli", "gen", "--family", "P-4", "--max-n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["family"] == "P-4"
