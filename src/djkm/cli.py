"""Batch driver exposing generation and every verification as subcommands.

Output is JSON (CSV only for quadrature tables) and deterministic byte for
byte for identical flags.  Exit codes: 0 all checks passed, 1 at least one
verification failed, 2 usage error.  Verification failures never abort a
sweep; they are collected into the report.  A failed internal consistency
check (``VerificationError``) also exits 1, with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, TextIO

from . import diffops, oracle, ortho, reference
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


@dataclass
class RunReport:
    command: str
    parameters: dict
    status: str = "pass"
    items: List[dict] = field(default_factory=list)
    wall_time_ms: int = 0

    def add(self, item: dict) -> None:
        self.items.append(item)

    def finish(self, started: float) -> "RunReport":
        self.wall_time_ms = int((time.perf_counter() - started) * 1000)
        if any(i.get("status") == "fail" for i in self.items):
            self.status = "fail"
        return self

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "status": self.status,
            "items": self.items,
            "wall_time_ms": self.wall_time_ms,
        }


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


def _emit_report(report: RunReport, out: Optional[TextIO]) -> int:
    _emit(json.dumps(report.to_json(), indent=2), out)
    return 0 if report.status == "pass" else 1


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
            item["identity"] = "pass" if row.identity else "fail"
        item["status"] = "pass" if row.ok else "fail"
        if not row.residual.is_zero():
            item["residual"] = row.residual.to_json()
        items.append(item)
    return items


def _cmd_verify_ode(args) -> int:
    started = time.perf_counter()
    report = RunReport(
        command="verify-ode",
        parameters={"family": args.family, "max_n": args.max_n},
    )
    with _usage_errors("--max-n"):
        items = _verify_ode_items(args.family, args.max_n)
    for item in items:
        report.add(item)
    return _emit_report(report.finish(started), args.out)


def _cmd_oracle_compare(args) -> int:
    started = time.perf_counter()
    report = RunReport(
        command="oracle-compare",
        parameters={"family": args.family, "order": args.order},
    )
    with _usage_errors("--order"):
        if args.family == "P-4":
            pairs = (
                ("elliptic-integral", oracle.expand_elliptic1(args.order)),
                ("gegenbauer-sum", oracle.expand_gegenbauer_sum(args.order)),
            )
        else:
            pairs = (("elliptic-integral", oracle.expand_elliptic2(args.order)),)
    for name, res in pairs:
        item = res.to_json()
        item["oracle"] = name
        item["status"] = "pass" if res.matched else "fail"
        report.add(item)
    return _emit_report(report.finish(started), args.out)


def _cmd_cocycle(args) -> int:
    started = time.perf_counter()
    if args.verify:
        if args.i is not None or args.j is not None:
            raise UsageError("--i/--j: not allowed with --verify")
        bound = 12 if args.bound is None else args.bound
        report = RunReport(command="cocycle", parameters={"verify": True, "bound": bound})
        with _usage_errors("--bound"):
            items = verify_items(bound)
        for item in items:
            report.add(item)
        return _emit_report(report.finish(started), args.out)
    if args.bound is not None:
        raise UsageError("--bound: only used with --verify")
    if args.i is None or args.j is None:
        raise UsageError("cocycle requires --i and --j (or --verify)")
    vec = cocycle_of(t_pow_u(args.i - 1), t_pow(args.j))
    _emit(json.dumps(vec.to_json(), indent=2), args.out)
    return 0


def _cmd_orthogonality(args) -> int:
    # Both sizes are checked before any work, so a bad --gram does not wait
    # for all the Hankel determinants.
    for flag, size in (("--hankel", args.hankel), ("--gram", args.gram)):
        if size < 1:
            raise UsageError(f"{flag}: must be >= 1, got {size}")
    started = time.perf_counter()
    report = RunReport(
        command="orthogonality",
        parameters={"family": args.family, "hankel": args.hankel, "gram": args.gram},
    )
    lambdas = ortho.favard_lambdas(max(args.hankel, 8))
    report.add(
        {
            "check": "favard-lambdas",
            "lambda1_sq": str(lambdas[1]),
            "status": "pass"
            if lambdas[1] == Fraction(2, 7) and all(x > 0 for x in lambdas)
            else "fail",
        }
    )
    dets = ortho.hankel(args.family, args.hankel)
    report.add(
        {
            "check": "hankel-positivity",
            "determinants": [str(d) for d in dets],
            "status": "pass" if all(d > 0 for d in dets) else "fail",
        }
    )
    ok = ortho.gram_check(args.family, args.gram)
    report.add({"check": "gram-diagonal", "status": "pass" if ok else "fail"})
    return _emit_report(report.finish(started), args.out)


def _cmd_quadrature(args) -> int:
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
    report = RunReport(
        command="nonclassical",
        parameters={"family": args.family, "max_n": args.max_n},
    )
    item = witness.to_json()
    item["status"] = "pass" if witness.verified else "fail"
    report.add(item)
    return _emit_report(report.finish(started), args.out)


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
        "nonclassical_max": 6,
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
        "nonclassical_max": 6,
        "assoc_max": 12,
        "quad_nodes": 12,
        "quad_deg": 6,
    },
}


def _cmd_all(args) -> int:
    started = time.perf_counter()
    prof = _PROFILES[args.profile]
    report = RunReport(command="all", parameters={"profile": args.profile})

    def record(name: str, ok: bool, **extra) -> None:
        item = {"check": name, "status": "pass" if ok else "fail"}
        item.update(extra)
        report.add(item)

    def record_first_failure(
        name: str, failing: Optional[int], residual: Optional[dict] = None, **extra
    ) -> None:
        if failing is not None:
            extra["first_failure"] = failing
        if residual is not None:
            extra["residual"] = residual
        record(name, failing is None, **extra)

    record(
        "family-tables",
        tuple(generate(FamilyId.P4, IndexView.SHIFTED, len(reference.P4_SHIFTED_TABLE) - 1))
        == reference.P4_SHIFTED_TABLE
        and tuple(generate(FamilyId.P2, IndexView.SHIFTED, len(reference.P2_SHIFTED_TABLE) - 1))
        == reference.P2_SHIFTED_TABLE
        and tuple(generate(FamilyId.P4, IndexView.Q, 3)) == reference.Q_BOX
        and tuple(generate(FamilyId.P2, IndexView.QBAR, 4))[1:] == reference.QBAR_BOX,
    )
    for name, res in (
        ("oracle-elliptic-1", oracle.expand_elliptic1(prof["oracle_order"])),
        ("oracle-elliptic-2", oracle.expand_elliptic2(prof["oracle_order"])),
        ("oracle-gegenbauer-sum", oracle.expand_gegenbauer_sum(prof["oracle_order"])),
    ):
        record(name, res.matched, first_mismatch=res.first_mismatch)
    record(
        "generating-function-ode",
        oracle.check_funde(prof["funde_order"], FamilyId.P4)
        and oracle.check_funde(prof["funde_order"], FamilyId.P2),
    )
    for fam in ("P-4", "P-2", "P-1", "P-3"):
        bound = prof["fourth_max"] if fam in ("P-4", "P-2") else prof["second_max"]
        items = _verify_ode_items(fam, bound)
        failing = next((i for i in items if i["status"] == "fail"), {})
        record_first_failure(
            f"ode-{fam}", failing.get("n"), failing.get("residual"), cases=len(items)
        )
    record_first_failure(
        "gegenbauer-link",
        next(
            (n for n in range(2, prof["link_max"] + 1) if not verify_gegenbauer_link(n)),
            None,
        ),
    )
    q2 = get_family(FamilyId.P4).q(2)
    wimp_residual = diffops.build_wimp_op(2, -1, -1, Fraction(3, 2)).apply(q2)
    record(
        "wimp-discrepancy",
        (not wimp_residual.is_zero()) and diffops.build_qform_op(2).apply(q2).is_zero(),
    )
    for item in verify_items(prof["cocycle_bound"]):
        record(f"cocycle-{item['check']}", item["status"] == "pass")
    lambdas = ortho.favard_lambdas(200)
    record(
        "favard-lambdas",
        lambdas[1] == Fraction(2, 7) and all(x > 0 for x in lambdas),
    )
    for fam in ("q", "qbar"):
        dets = ortho.hankel(fam, prof["hankel"])
        record(f"hankel-{fam}", all(d > 0 for d in dets))
        record(f"gram-{fam}", ortho.gram_check(fam, prof["gram"]))
        record(
            f"nonclassical-{fam}",
            ortho.nonclassical_check(fam, prof["nonclassical_max"]).verified,
        )
    ultra = ortho.assoc_ultraspherical(Fraction(-1, 2), Fraction(3, 2), prof["assoc_max"])
    p4 = get_family(FamilyId.P4)
    record(
        "assoc-ultraspherical-identification",
        all(ultra[n] == p4.q(n) for n in range(prof["assoc_max"] + 1)),
    )
    for fam in ("q", "qbar"):
        err = ortho.quad_orthogonality(fam, prof["quad_nodes"], prof["quad_deg"])
        record(f"quadrature-{fam}", err <= 1e-10, max_offdiag=f"{err:.3e}")
    value = ortho.hyp2f1(1, 1, 2, 0.5, tol=1e-15)
    record("hyp2f1-log-identity", abs(value - 2 * math.log(2)) <= 1e-12)
    try:
        ortho.hyp2f1(1, 1, 2, 1.5)
    except ortho.NoConvergenceError:
        record("hyp2f1-domain-guard", True)
    else:
        record("hyp2f1-domain-guard", False)
    return _emit_report(report.finish(started), args.out)


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="djkm",
        description="Exact DJKM polynomial families, identities, and quadrature",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", metavar="FILE", default=None)

    p = sub.add_parser("gen", help="generate family members")
    p.add_argument("--family", required=True, choices=sorted(GEN_FAMILIES))
    p.add_argument("--view", choices=[v.value for v in IndexView], default=None)
    p.add_argument("--max-n", "--max", dest="max_n", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify-ode", help="exact ODE residual sweeps")
    p.add_argument("--family", required=True, choices=["P-4", "P-3", "P-2", "P-1"])
    p.add_argument("--max-n", type=int, default=100)
    add_common(p)
    p.set_defaults(func=_cmd_verify_ode)

    p = sub.add_parser("oracle-compare", help="generating-function reconstruction")
    p.add_argument("--family", required=True, choices=["P-4", "P-2"])
    p.add_argument("--order", type=int, default=120)
    add_common(p)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("cocycle", help="central-extension cocycle values/checks")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--bound", type=int, default=None)
    add_common(p)
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("orthogonality", help="Favard data, Hankel, Gram checks")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--hankel", type=int, default=14)
    p.add_argument("--gram", type=int, default=8)
    add_common(p)
    p.set_defaults(func=_cmd_orthogonality)

    p = sub.add_parser("quadrature", help="Gauss nodes and weights")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--nodes", type=int, default=20)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--csv", action="store_true")
    group.add_argument("--json", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_quadrature)

    p = sub.add_parser("nonclassical", help="order <= 2 eigenoperator system")
    p.add_argument("--family", required=True, choices=["q", "qbar"])
    p.add_argument("--max-n", type=int, default=6)
    add_common(p)
    p.set_defaults(func=_cmd_nonclassical)

    p = sub.add_parser("all", help="run the full verification battery")
    p.add_argument("--profile", choices=sorted(_PROFILES), default="desk")
    add_common(p)
    p.set_defaults(func=_cmd_all)

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
