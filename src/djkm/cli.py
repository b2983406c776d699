"""Batch driver exposing generation and every verification as subcommands.

Output is JSON (CSV only for quadrature tables) and deterministic byte for
byte for identical flags.  Exit codes: 0 all checks passed, 1 at least one
verification failed, 2 usage error.  Verification failures never abort a
sweep; they are collected into the report.  A failed internal consistency
check (``VerificationError``) also exits 1: under ``all`` it fails its own
item, which carries the message as ``error``, and the battery goes on; any
other command prints one ``error:`` line instead of a report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, List, Optional, TextIO

# djkm.ortho, which loads numpy, is imported only by the four commands that
# use it: orthogonality, quadrature, nonclassical and all.
from . import diffops, oracle, reference
from .cocycle import cocycle as cocycle_of, t_pow, t_pow_u, verify_items
from .cocycle import verify_psi_table  # noqa: F401  (perfbench's span test reads this binding)
from .exact import VerificationError
from .families import (
    FamilyId,
    IndexView,
    VIEW_START,
    generate,
    get_family,
    verify_gegenbauer_link,
)

GEN_FAMILIES = {
    "P-4": (FamilyId.P4, IndexView.SHIFTED),
    "P-3": (FamilyId.P3, IndexView.ORIGINAL),
    "P-2": (FamilyId.P2, IndexView.SHIFTED),
    "P-1": (FamilyId.P1, IndexView.ORIGINAL),
    "q": (FamilyId.P4, IndexView.Q),
    "qbar": (FamilyId.P2, IndexView.QBAR),
}

class UsageError(SystemExit):
    """Domain-level usage error; exits with the argparse convention code 2."""

    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


@contextlib.contextmanager
def _usage_errors(flag: str):
    """Report a library ValueError about the value of flag as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _emit(text: str, out: Optional[TextIO]) -> None:
    """Write text to the open --out file, or to stdout with a final newline.

    A reader that closes stdout early (``djkm gen ... | head``) is not an
    error: the rest of the output is dropped, and stdout is pointed at
    os.devnull so the flush at exit stays quiet.
    """
    if out is not None:
        out.write(text)
        return
    try:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _report(
    command: str, parameters: dict, items: List[dict], started: float, out: Optional[TextIO]
) -> int:
    """Write the JSON report of a checking command; 1 if any item failed, else 0."""
    status = "fail" if any(i.get("status") == "fail" for i in items) else "pass"
    report = {
        "command": command,
        "parameters": parameters,
        "status": status,
        "items": items,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }
    _emit(json.dumps(report, indent=2), out)
    return 0 if status == "pass" else 1


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# lambda_1^2 = C_0 / A_1 of each orthogonal sequence, written out.
_LAMBDA1_SQ = {"q": Fraction(1, 10), "qbar": Fraction(2, 7)}


def _favard_ok(tag: str, lambdas: List[Fraction]) -> bool:
    """Favard's verdict on the normalisers: the sequence's own lambda_1^2 and
    every one > 0."""
    return lambdas[1] == _LAMBDA1_SQ[tag] and all(x > 0 for x in lambdas)


# The generating-function oracles: the ``all`` item, the family, the
# ``oracle-compare`` name and the expansion in djkm.oracle.  The expansion is
# looked up by name at call time, so patches and traces of the module see it.
_ORACLES = (
    ("oracle-elliptic-1", "P-4", "elliptic-integral", "expand_elliptic1"),
    ("oracle-elliptic-2", "P-2", "elliptic-integral", "expand_elliptic2"),
    ("oracle-gegenbauer-sum", "P-4", "gegenbauer-sum", "expand_gegenbauer_sum"),
)


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> int:
    family_id, view = GEN_FAMILIES[args.family]
    if args.view is not None:
        if args.family in ("q", "qbar"):
            raise UsageError(f"--view conflicts with family {args.family}")
        view = IndexView(args.view)
    with _usage_errors("--max-n"):
        polys = generate(family_id, view, args.max_n)
    _emit(_gen_text(family_id, view, polys), args.out)
    return 0


def _gen_text(family_id: FamilyId, view: IndexView, polys) -> str:
    """The gen payload in exactly the layout of ``json.dumps(..., indent=2)``.

    Written directly because ``json.dumps`` falls back to its pure-Python
    encoder whenever ``indent`` is set.  Every string in the payload holds
    only letters, digits and ``-``, so nothing needs escaping.  ``polys`` is
    nonempty, as ``generate`` returns it.
    """
    start = VIEW_START[view]
    entries = []
    for offset, poly in enumerate(polys):
        pairs = ",\n".join(
            f'          [\n            "{num}",\n            "{den}"\n          ]'
            for num, den in poly.to_json()["coeffs"]
        )
        coeffs = f"[\n{pairs}\n        ]" if pairs else "[]"
        entries.append(
            f'    {{\n      "n": {start + offset},\n      "poly": {{\n'
            f'        "coeffs": {coeffs}\n      }}\n    }}'
        )
    body = ",\n".join(entries)
    return (
        f'{{\n  "family": "{family_id.value}",\n  "view": "{view.value}",\n'
        f'  "entries": [\n{body}\n  ]\n}}'
    )


def _verify_ode_items(family: str, max_n: int) -> List[dict]:
    """Per-index residual status; failures carry the residual polynomial."""
    items = []
    for row in diffops.ode_sweep(FamilyId(family), max_n):
        item = {"n": row.n}
        if family in ("P-4", "P-2"):
            item["member_zero"] = row.member_zero
        if row.identity is not None:
            item["identity"] = _status(row.identity)
        item["status"] = _status(row.ok)
        if not row.residual.is_zero():
            item["residual"] = row.residual.to_json()
        items.append(item)
    return items


def _cmd_verify_ode(args) -> int:
    started = time.perf_counter()
    with _usage_errors("--max-n"):
        items = _verify_ode_items(args.family, args.max_n)
    parameters = {"family": args.family, "max_n": args.max_n}
    return _report("verify-ode", parameters, items, started, args.out)


def _cmd_oracle_compare(args) -> int:
    started = time.perf_counter()
    items = []
    for _, family, name, expand in _ORACLES:
        if family == args.family:
            with _usage_errors("--order"):
                res = getattr(oracle, expand)(args.order)
            items.append({**res.to_json(), "oracle": name, "status": _status(res.matched)})
    parameters = {"family": args.family, "order": args.order}
    return _report("oracle-compare", parameters, items, started, args.out)


def _cmd_cocycle(args) -> int:
    started = time.perf_counter()
    if args.verify:
        if args.i is not None or args.j is not None:
            raise UsageError("--i/--j: not allowed with --verify")
        bound = 12 if args.bound is None else args.bound
        with _usage_errors("--bound"):
            items = verify_items(bound)
        return _report("cocycle", {"verify": True, "bound": bound}, items, started, args.out)
    if args.bound is not None:
        raise UsageError("--bound: only used with --verify")
    if args.i is None or args.j is None:
        raise UsageError("cocycle requires --i and --j (or --verify)")
    vec = cocycle_of(t_pow_u(args.i - 1), t_pow(args.j))
    _emit(json.dumps(vec.to_json(), indent=2), args.out)
    return 0


def _cmd_orthogonality(args) -> int:
    from . import ortho

    # Both sizes are checked before any work, so a bad --gram does not wait
    # for all the Hankel determinants.
    for flag, size in (("--hankel", args.hankel), ("--gram", args.gram)):
        if size < 1:
            raise UsageError(f"{flag}: must be >= 1, got {size}")
    started = time.perf_counter()
    count = max(args.hankel, 8)
    # favard_lambdas and hankel read ortho.ThreeTermData, never the family:
    # that data is first checked exactly on the generated members, as in all
    bad = ortho.recurrence_mismatch(args.family, 2 * count)
    if bad is None:
        lambdas = ortho.favard_lambdas(args.family, count)
        dets = ortho.hankel(args.family, args.hankel)
        favard = {
            "lambda1_sq": str(lambdas[1]),
            "status": _status(_favard_ok(args.family, lambdas)),
        }
        hankel = {
            "determinants": [str(d) for d in dets],
            "status": _status(all(d > 0 for d in dets)),
        }
    else:
        favard = hankel = {"first_failure": bad, "status": "fail"}
    items = [
        {"check": "favard-lambdas", **favard},
        {"check": "hankel-positivity", **hankel},
        {"check": "gram-diagonal", "status": _status(ortho.gram_check(args.family, args.gram))},
    ]
    parameters = {"family": args.family, "hankel": args.hankel, "gram": args.gram}
    return _report("orthogonality", parameters, items, started, args.out)


def _cmd_quadrature(args) -> int:
    from . import ortho

    with _usage_errors("--nodes"):
        nodes, weights = ortho.golub_welsch(args.family, args.nodes)
    if args.json:
        payload = {
            "family": args.family,
            "nodes": [f"{x:.17g}" for x in nodes],
            "weights": [f"{w:.17g}" for w in weights],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = ["node,weight"]
        lines += [f"{x:.17g},{w:.17g}" for x, w in zip(nodes, weights)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_nonclassical(args) -> int:
    from . import ortho

    # The eigen-system of both families has a 5-, 3- and 2-dimensional
    # solution space at max-n 1, 2 and 3, and only the constants from 4 on:
    # below 4 a failure would not be a counterexample.
    if args.max_n < 4:
        raise UsageError(
            "--max-n: must be >= 4; below that the order <= 2 eigen-system "
            "is underdetermined"
        )
    started = time.perf_counter()
    witness = ortho.nonclassical_check(args.family, args.max_n)
    items = [{**witness.to_json(), "status": _status(witness.verified)}]
    parameters = {"family": args.family, "max_n": args.max_n}
    return _report("nonclassical", parameters, items, started, args.out)


# The nonclassical eigen-system has six unknowns for every max-n (gamma_n is
# eliminated), so its equations at 6 are a subset of those at any larger
# max-n, and a one-dimensional solution space at 6 holds for every n.
_NONCLASSICAL_MAX = 6

_PROFILES = {
    "desk": {
        "oracle_order": 120,
        "funde_order": 40,
        "fourth_max": 400,
        "second_max": 200,
        "link_max": 50,
        "cocycle_bound": 12,
        "hankel": 14,
        "gram": 8,
        "assoc_max": 50,
        "quad_nodes": 20,
        "quad_deg": 8,
    },
    "quick": {
        "oracle_order": 40,
        "funde_order": 20,
        "fourth_max": 60,
        "second_max": 40,
        "link_max": 12,
        "cocycle_bound": 6,
        "hankel": 8,
        "gram": 6,
        "assoc_max": 12,
        "quad_nodes": 12,
        "quad_deg": 6,
    },
}


def _cmd_all(args) -> int:
    from . import ortho

    started = time.perf_counter()
    prof = _PROFILES[args.profile]
    items: List[dict] = []

    def record(name: str, check: Callable, *check_args) -> None:
        # check returns ok, or ok and the item's extra fields.  A raised
        # VerificationError fails this item alone, with its message as "error".
        try:
            result = check(*check_args)
        except VerificationError as exc:
            result = False, {"error": str(exc)}
        ok, extra = result if isinstance(result, tuple) else (result, {})
        items.append({"check": name, "status": _status(ok), **extra})

    def family_tables() -> bool:
        p4, p2 = reference.P4_SHIFTED_TABLE, reference.P2_SHIFTED_TABLE
        return (
            tuple(generate(FamilyId.P4, IndexView.SHIFTED, len(p4) - 1)) == p4
            and tuple(generate(FamilyId.P2, IndexView.SHIFTED, len(p2) - 1)) == p2
            and tuple(generate(FamilyId.P4, IndexView.Q, 3)) == reference.Q_BOX
            and tuple(generate(FamilyId.P2, IndexView.QBAR, 4))[1:] == reference.QBAR_BOX
        )

    def oracle_check(expand: str):
        res = getattr(oracle, expand)(prof["oracle_order"])
        return res.matched, {"first_mismatch": res.first_mismatch}

    def ode_check(family: str, bound: int):
        rows = _verify_ode_items(family, bound)
        failing = next((i for i in rows if i["status"] == "fail"), None)
        if failing is None:
            return True, {"cases": len(rows)}
        residual = {"residual": failing["residual"]} if "residual" in failing else {}
        return False, {"cases": len(rows), "first_failure": failing["n"], **residual}

    def link_check():
        links = range(2, prof["link_max"] + 1)
        failing = next((n for n in links if not verify_gegenbauer_link(n)), None)
        return failing is None, {} if failing is None else {"first_failure": failing}

    def wimp_check() -> bool:
        q2 = get_family(FamilyId.P4).q(2)
        wimp_residual = diffops.build_wimp_op(2, -1, -1, Fraction(3, 2)).apply(q2)
        return not wimp_residual.is_zero() and diffops.build_qform_op(2).apply(q2).is_zero()

    # verify_items makes the three cocycle items in one run.
    cocycle_verdicts = functools.cache(
        lambda: {i["check"]: i["status"] == "pass" for i in verify_items(prof["cocycle_bound"])}
    )

    def assoc_check() -> bool:
        ultra = ortho.assoc_ultraspherical(Fraction(-1, 2), Fraction(3, 2), prof["assoc_max"])
        p4 = get_family(FamilyId.P4)
        return all(ultra[n] == p4.q(n) for n in range(prof["assoc_max"] + 1))

    # hankel and favard_lambdas read ortho.ThreeTermData, never the family:
    # their items first check that data exactly on the generated members
    recurrence = functools.cache(
        lambda tag: ortho.recurrence_mismatch(tag, 2 * prof["hankel"])
    )

    def favard_check():
        for tag in ortho.ORTHO_TAGS:
            bad = recurrence(tag)
            if bad is not None:
                return False, {"family": tag, "first_failure": bad}
            if not _favard_ok(tag, ortho.favard_lambdas(tag, 200)):
                return False, {"family": tag}
        return True

    def hankel_check(tag: str):
        bad = recurrence(tag)
        if bad is not None:
            return False, {"family": tag, "first_failure": bad}
        return all(d > 0 for d in ortho.hankel(tag, prof["hankel"]))

    def quadrature_check(family: str):
        err = ortho.quad_orthogonality(family, prof["quad_nodes"], prof["quad_deg"])
        return err <= 1e-10, {"max_offdiag": f"{err:.3e}"}

    def domain_guard() -> bool:
        try:
            ortho.hyp2f1(1, 1, 2, 1.5)
        except ortho.NoConvergenceError:
            return True
        return False

    record("family-tables", family_tables)
    for name, _, _, expand in _ORACLES:
        record(name, oracle_check, expand)
    record(
        "generating-function-ode",
        lambda: oracle.check_funde(prof["funde_order"], FamilyId.P4)
        and oracle.check_funde(prof["funde_order"], FamilyId.P2),
    )
    for family in ("P-4", "P-2", "P-1", "P-3"):
        bound = prof["fourth_max"] if family in ("P-4", "P-2") else prof["second_max"]
        record(f"ode-{family}", ode_check, family, bound)
    record("gegenbauer-link", link_check)
    record("wimp-discrepancy", wimp_check)
    for check in ("psi-table", "uu-central-terms", "antisymmetry"):
        record(f"cocycle-{check}", lambda check: cocycle_verdicts()[check], check)
    record("favard-lambdas", favard_check)
    for fam in ("q", "qbar"):
        record(f"hankel-{fam}", hankel_check, fam)
        record(f"gram-{fam}", ortho.gram_check, fam, prof["gram"])
        record(
            f"nonclassical-{fam}",
            lambda f: ortho.nonclassical_check(f, _NONCLASSICAL_MAX).verified,
            fam,
        )
    record("assoc-ultraspherical-identification", assoc_check)
    for family in ("q", "qbar"):
        record(f"quadrature-{family}", quadrature_check, family)
    record(
        "hyp2f1-log-identity",
        lambda: abs(ortho.hyp2f1(1, 1, 2, 0.5, tol=1e-15) - 2 * math.log(2)) <= 1e-12,
    )
    record("hyp2f1-domain-guard", domain_guard)
    return _report("all", {"profile": args.profile}, items, started, args.out)


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djkm",
        description="Exact DJKM polynomial families, identities, and quadrature",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate family members")
    p.add_argument("--family", required=True, choices=sorted(GEN_FAMILIES))
    p.add_argument("--view", choices=[v.value for v in IndexView], default=None)
    p.add_argument("--max-n", "--max", dest="max_n", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-ode", help="exact ODE residual sweeps")
    p.add_argument("--family", required=True, choices=["P-4", "P-3", "P-2", "P-1"])
    p.add_argument("--max-n", type=int, default=100)
    p.set_defaults(func=_cmd_verify_ode)

    p = sub.add_parser("oracle-compare", help="generating-function reconstruction")
    p.add_argument("--family", required=True, choices=["P-4", "P-2"])
    p.add_argument("--order", type=int, default=120)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("cocycle", help="central-extension cocycle values/checks")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("orthogonality", help="Favard data, Hankel, Gram checks")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--hankel", type=int, default=14)
    p.add_argument("--gram", type=int, default=8)
    p.set_defaults(func=_cmd_orthogonality)

    p = sub.add_parser("quadrature", help="Gauss nodes and weights")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--nodes", type=int, default=20)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true")
    group.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quadrature)

    p = sub.add_parser("nonclassical", help="order <= 2 eigenoperator system")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=_cmd_nonclassical)

    p = sub.add_parser("all", help="run the full verification battery")
    p.add_argument("--profile", choices=sorted(_PROFILES), default="desk")
    p.set_defaults(func=_cmd_all)

    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE", default=None)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.ExitStack() as stack:
        # --out is opened before the command runs, so an unwritable path is
        # a usage error before any work is done.
        if args.out is not None:
            try:
                args.out = stack.enter_context(open(args.out, "w"))
            except OSError as exc:
                raise UsageError(f"--out: {exc}") from None
        try:
            return args.func(args)
        except VerificationError as exc:
            print(f"error: verification failed: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
