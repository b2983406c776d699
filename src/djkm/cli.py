"""Command-line interface: argument parsing, usage errors and report writing.

Every check, and every bound of ``all``, lives in ``djkm.battery``.  Output
is JSON (CSV only for quadrature tables) and deterministic byte for byte for
identical flags.  Exit codes: 0 all checks passed, 1 at least one failed, 2
usage error.  A failed internal consistency check (``VerificationError``)
also exits 1: under ``all`` it fails its own item, which carries the message
as ``error``, and the battery goes on; any other command prints one
``error:`` line instead of a report.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Iterable, Iterator, List, Optional, TextIO

from . import battery
from .cocycle import cocycle as cocycle_of, t_pow, t_pow_u
from .cocycle import verify_psi_table  # noqa: F401  (perfbench's span test reads this binding)
from .diffops import ODES
from .exact import VerificationError
from .families import SEQUENCES, FamilyId, IndexView, VIEW_START, generate

GEN_FAMILIES = {
    "P-4": (FamilyId.P4, IndexView.SHIFTED),
    "P-3": (FamilyId.P3, IndexView.ORIGINAL),
    "P-2": (FamilyId.P2, IndexView.SHIFTED),
    "P-1": (FamilyId.P1, IndexView.ORIGINAL),
    **SEQUENCES,
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


def _emit(chunks: Iterable[str], out: Optional[TextIO]) -> None:
    """Write the chunks, as they come, to the open --out file, or to stdout
    with a final newline.

    A reader that closes stdout early (``djkm gen ... | head``) is not an
    error: the remaining chunks are dropped, and stdout is pointed at
    os.devnull so the flush at exit stays quiet.
    """
    if out is not None:
        for chunk in chunks:
            out.write(chunk)
        return
    try:
        chunk = ""
        for chunk in chunks:
            sys.stdout.write(chunk)
        if not chunk.endswith("\n"):
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
    _emit((json.dumps(report, indent=2),), out)
    return 0 if status == "pass" else 1


# -- subcommands -------------------------------------------------------------


def _cmd_gen(args) -> None:
    family_id, view = GEN_FAMILIES[args.family]
    if args.view is not None:
        if args.family in SEQUENCES:
            raise UsageError(f"--view conflicts with family {args.family}")
        view = IndexView(args.view)
    with _usage_errors("--max-n"):
        polys = generate(family_id, view, args.max_n)
    _emit(_gen_text(family_id, view, polys), args.out)


def _gen_text(family_id: FamilyId, view: IndexView, polys) -> Iterator[str]:
    """The gen payload in exactly the layout of ``json.dumps(..., indent=2)``,
    one chunk per entry, so that no more than one entry is held as text.

    Written directly because ``json.dumps`` falls back to its pure-Python
    encoder whenever ``indent`` is set.  Every string in the payload holds
    only letters, digits and ``-``, so nothing needs escaping.  ``polys`` is
    nonempty, as ``generate`` returns it.
    """
    start = VIEW_START[view]
    head = f'{{\n  "family": "{family_id.value}",\n  "view": "{view.value}",\n  "entries": [\n'
    for offset, poly in enumerate(polys):
        pairs = ",\n".join(
            f'          [\n            "{num}",\n            "{den}"\n          ]'
            for num, den in poly.to_json()["coeffs"]
        )
        coeffs = f"[\n{pairs}\n        ]" if pairs else "[]"
        yield (
            f'{head}    {{\n      "n": {start + offset},\n      "poly": {{\n'
            f'        "coeffs": {coeffs}\n      }}\n    }}'
        )
        head = ",\n"
    yield "\n  ]\n}"


def _cmd_verify_ode(args) -> tuple:
    with _usage_errors("--max-n"):
        items, _ = battery.ode_rows(args.family, args.max_n)
    return {"family": args.family, "max_n": args.max_n}, items


def _cmd_oracle_compare(args) -> tuple:
    items = []
    for _, family, name, expand in battery.ORACLES:
        if family == args.family:
            with _usage_errors("--order"):
                ok, fields = battery.oracle_expansion(expand, args.order)
            items.append({**fields, "oracle": name, "status": battery.status(ok)})
    return {"family": args.family, "order": args.order}, items


def _cmd_cocycle(args) -> Optional[tuple]:
    if args.verify:
        if args.i is not None or args.j is not None:
            raise UsageError("--i/--j: not allowed with --verify")
        bound = 12 if args.bound is None else args.bound
        with _usage_errors("--bound"):
            items = [
                battery.item("psi-table", battery.psi_table, bound),
                battery.item("uu-central-terms", battery.uu_central_terms, bound),
                battery.item("antisymmetry", battery.antisymmetry, bound),
            ]
        return {"verify": True, "bound": bound}, items
    if args.bound is not None:
        raise UsageError("--bound: only used with --verify")
    if args.i is None or args.j is None:
        raise UsageError("cocycle requires --i and --j (or --verify)")
    vec = cocycle_of(t_pow_u(args.i - 1), t_pow(args.j))
    _emit((json.dumps(vec.to_json(), indent=2),), args.out)
    return None


def _cmd_orthogonality(args) -> tuple:
    # Both sizes are checked before any work, so a bad --gram does not wait
    # for all the Hankel determinants.
    for flag, size in (("--hankel", args.hankel), ("--gram", args.gram)):
        if size < 1:
            raise UsageError(f"{flag}: must be >= 1, got {size}")
    items = [
        battery.item("favard-lambdas", battery.favard, args.family, max(args.hankel, 8)),
        battery.item("hankel-positivity", battery.hankel, args.family, args.hankel),
        battery.item("gram-diagonal", battery.gram, args.family, args.gram),
    ]
    return {"family": args.family, "hankel": args.hankel, "gram": args.gram}, items


def _cmd_quadrature(args) -> None:
    from . import ortho  # loads numpy, so only the commands that need it import it

    with _usage_errors("--nodes"):
        nodes, weights = ortho.golub_welsch(args.family, args.nodes)
    if args.json:
        payload = {
            "family": args.family,
            "nodes": [f"{x:.17g}" for x in nodes],
            "weights": [f"{w:.17g}" for w in weights],
        }
        _emit((json.dumps(payload, indent=2),), args.out)
    else:
        lines = ["node,weight"]
        lines += [f"{x:.17g},{w:.17g}" for x, w in zip(nodes, weights)]
        _emit(("\n".join(lines) + "\n",), args.out)


def _cmd_nonclassical(args) -> tuple:
    # The eigen-system of both families has a 5-, 3- and 2-dimensional
    # solution space at max-n 1, 2 and 3, and only the constants from 4 on:
    # below 4 a failure would not be a counterexample.
    if args.max_n < 4:
        raise UsageError(
            "--max-n: must be >= 4; below that the order <= 2 eigen-system "
            "is underdetermined"
        )
    ok, fields = battery.nonclassical(args.family, args.max_n)
    items = [{**fields, "status": battery.status(ok)}]
    return {"family": args.family, "max_n": args.max_n}, items


def _cmd_all(args) -> tuple:
    return {"profile": args.profile}, battery.run(args.profile)


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
    p.add_argument("--family", required=True, choices=[fid.value for fid in ODES])
    p.add_argument("--max-n", type=int, default=100)
    p.set_defaults(func=_cmd_verify_ode)

    p = sub.add_parser("oracle-compare", help="generating-function reconstruction")
    oracle_families = dict.fromkeys(family for _, family, _, _ in battery.ORACLES)
    p.add_argument("--family", required=True, choices=list(oracle_families))
    p.add_argument("--order", type=int, default=120)
    p.set_defaults(func=_cmd_oracle_compare)

    p = sub.add_parser("cocycle", help="central-extension cocycle values/checks")
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_cocycle)

    p = sub.add_parser("orthogonality", help="Favard data, Hankel, Gram checks")
    p.add_argument("--family", required=True, choices=list(SEQUENCES))
    p.add_argument("--hankel", type=int, default=14)
    p.add_argument("--gram", type=int, default=8)
    p.set_defaults(func=_cmd_orthogonality)

    p = sub.add_parser("quadrature", help="Gauss nodes and weights")
    p.add_argument("--family", required=True, choices=list(SEQUENCES))
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_quadrature)

    p = sub.add_parser("nonclassical", help="order <= 2 eigenoperator system")
    p.add_argument("--family", required=True, choices=list(SEQUENCES))
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=_cmd_nonclassical)

    p = sub.add_parser("all", help="run the full verification battery")
    p.add_argument("--profile", choices=battery.PROFILES, default="desk")
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
        # A checking subcommand returns its report's parameters and items,
        # written here; any other writes its own output and returns None.
        started = time.perf_counter()
        try:
            result = args.func(args)
        except VerificationError as exc:
            print(f"error: verification failed: {exc}", file=sys.stderr)
            return 1
        if result is None:
            return 0
        return _report(args.subcommand, *result, started, args.out)


if __name__ == "__main__":
    sys.exit(main())
