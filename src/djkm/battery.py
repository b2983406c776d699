"""One table of checks for ``djkm all`` and the checking subcommands.

A check returns ok, or ok and the extra fields of its report item.  ``all``
runs every row of ROWS; the other checking subcommands call the same checks
at the bounds their flags give.  Checks look library functions up through
their module when they run, so patches and traces of a module see the call.
Where ``os.fork`` exists, ``run`` runs the CHILD_ROWS in one forked child: a
patch made before reaches both processes, a trace only this one's rows, and
an exception from a child row is raised here with the child's traceback as
its cause.
``favard`` and ``hankel`` first tie exactly the A_n and C_n they read from
``ortho.ThreeTermData`` to the generated members.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import djkm  # djkm.ortho, which loads numpy, is imported on first use
from . import cocycle, diffops, families, oracle, reference
from .exact import VerificationError
from .families import FamilyId, IndexView

PROFILES = ("desk", "quick")


def status(ok: bool) -> str:
    return "pass" if ok else "fail"


def item(name: str, check: Callable, *args) -> dict:
    """The report item of check(*args): name, status, then the check's fields."""
    result = check(*args)
    ok, extra = result if isinstance(result, tuple) else (result, {})
    return {"check": name, "status": status(ok), **extra}


def run(profile: str) -> List[dict]:
    """The items of ``djkm all``; a raised VerificationError fails its item alone."""
    column = PROFILES.index(profile)
    got = _forked(column) if hasattr(os, "fork") else _rows(column, range(len(ROWS)))
    items = [got[at] for at in sorted(got)]
    error = _error(items)
    if error is not None:
        raise error
    return items


def _error(items) -> Optional[Exception]:
    """The first exception among items, or None."""
    return next((i for i in items if isinstance(i, Exception)), None)


def _rows(column: int, positions) -> dict:
    """{position: item} of the ROWS at positions, run in order; the first
    exception other than a VerificationError ends the run in its item's place."""
    items = {}
    for at in positions:
        name, check, args = ROWS[at]
        try:
            items[at] = item(name, check, *args[column])
        except VerificationError as exc:
            items[at] = {"check": name, "status": "fail", "error": str(exc)}
        except Exception as exc:
            return {**items, at: exc}
    return items


class ChildTraceback(Exception):
    """The traceback of an exception raised in the forked child, which pickle
    drops: set as the cause of that exception where it is raised again, as
    ``concurrent.futures`` does with a worker's exception."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _forked(column: int) -> dict:
    """_rows of the CHILD_ROWS in one forked child, and of the others here meanwhile."""
    import pickle  # here, not at module level, where it adds 3 ms to each import
    forked = [at for at, row in enumerate(ROWS) if row[0] in CHILD_ROWS]
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # never returns; os._exit flushes no file the child inherited
        try:
            os.close(read)
            got = _rows(column, forked)
            error, text = _error(got.values()), None
            if error is not None:
                import traceback

                text = "".join(traceback.format_exception(type(error), error, error.__traceback__))
            with open(write, "wb") as pipe:
                pickle.dump((got, text), pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)
    try:
        with open(read, "rb") as pipe:
            here = _rows(column, (at for at in range(len(ROWS)) if at not in forked))
            sent = pipe.read()
    finally:  # reaped on every path, after the close ends a child blocked on a full pipe
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not sent:
        raise RuntimeError(f"the forked battery rows ended with status {code} and no result")
    got, text = pickle.loads(sent)
    if text is not None:
        _error(got.values()).__cause__ = ChildTraceback(text)
    return {**got, **here}


def family_tables() -> bool:
    p4, p2 = reference.P4_SHIFTED_TABLE, reference.P2_SHIFTED_TABLE
    return (
        tuple(families.generate(FamilyId.P4, IndexView.SHIFTED, len(p4) - 1)) == p4
        and tuple(families.generate(FamilyId.P2, IndexView.SHIFTED, len(p2) - 1)) == p2
        and tuple(families.generate(FamilyId.P4, IndexView.Q, 3)) == reference.Q_BOX
        and tuple(families.generate(FamilyId.P2, IndexView.QBAR, 4))[1:] == reference.QBAR_BOX
    )


#: The generating-function oracles: the ``all`` item, the family, the
#: ``oracle-compare`` name and the expansion in djkm.oracle.
ORACLES = (
    ("oracle-elliptic-1", "P-4", "elliptic-integral", "expand_elliptic1"),
    ("oracle-elliptic-2", "P-2", "elliptic-integral", "expand_elliptic2"),
    ("oracle-gegenbauer-sum", "P-4", "gegenbauer-sum", "expand_gegenbauer_sum"),
)


def oracle_expansion(expand: str, order: int):
    """Whether the expansion named expand matched its family, and the OracleResult."""
    res = getattr(oracle, expand)(order)
    return res.matched, res


def funde(order: int) -> bool:
    return all(oracle.check_funde(order, family_id) for family_id in FamilyId)


def ode_rows(family: str, max_n: int) -> Tuple[List[dict], int]:
    """Per-index residual status, failures with their residual polynomial, and
    the number of nonzero members.  A stride-1 ODES row meets the other
    parity's zeros, so it adds member_zero.  A sweep with no nonzero member
    tests no operator: ValueError if it is empty or ends below original index
    0, else VerificationError (a wrong ODES row)."""
    _, stride, offset, _ = diffops.ODES[FamilyId(family)]
    items = []
    nonzero = 0
    for row in diffops.ode_sweep(FamilyId(family), max_n):
        nonzero += not row.member_zero
        entry = {"n": row.n}
        if stride == 1:
            entry["member_zero"] = row.member_zero
        if row.identity is not None:
            entry["identity"] = status(row.identity)
        entry["status"] = status(row.ok)
        if not row.residual.is_zero():
            entry["residual"] = row.residual.to_json()
        items.append(entry)
    if not nonzero:
        last = stride * max_n + offset
        if last < 0:
            raise ValueError(f"the {family} sweep to {max_n} ends at original index {last} < 0")
        raise VerificationError(f"the {family} sweep to {max_n} meets no nonzero member")
    return items, nonzero


def ode(family: str, max_n: int):
    """The sweep's case and nonzero-member counts, and its first failing
    index and residual."""
    rows, nonzero = ode_rows(family, max_n)
    counts = {"cases": len(rows), "nonzero_cases": nonzero}
    failing = next((i for i in rows if i["status"] == "fail"), None)
    if failing is None:
        return True, counts
    residual = {"residual": failing["residual"]} if "residual" in failing else {}
    return False, {**counts, "first_failure": failing["n"], **residual}


def gegenbauer_link(max_n: int):
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2 for the link, got {max_n}")
    links = range(2, max_n + 1)
    failing = next((n for n in links if not families.verify_gegenbauer_link(n)), None)
    return failing is None, {} if failing is None else {"first_failure": failing}


def wimp_discrepancy() -> bool:
    q2 = families.get_family(FamilyId.P4).q(2)
    wimp_residual = diffops.build_wimp_op(2, -1, -1, Fraction(3, 2)).apply(q2)
    return not wimp_residual.is_zero() and diffops.build_qform_op(2).apply(q2).is_zero()


def psi_table(bound: int):
    report = cocycle.verify_psi_table(bound)
    return report.passed, report.to_json()


def uu_central_terms(bound: int) -> bool:
    return cocycle.verify_uu_terms(bound)


def antisymmetry(bound: int) -> bool:
    return cocycle.verify_antisymmetry(bound)


def favard(tag: str, count: int):
    """lambda_1^2..lambda_count^2 from A_1..A_count and C_0..C_{count-1}: the
    sequence's own lambda_1^2, and every one > 0."""
    if count < 1:
        raise ValueError(f"count must be >= 1 for lambda_1^2, got {count}")
    bad = djkm.ortho.recurrence_mismatch(tag, count + 1)
    if bad is not None:
        return False, {"first_failure": bad}
    lambdas = djkm.ortho.favard_lambdas(tag, count)
    # lambda_1^2 = C_0 / A_1 of each orthogonal sequence, written out
    own = {"q": Fraction(1, 10), "qbar": Fraction(2, 7)}[tag]
    ok = lambdas[1] == own and all(x > 0 for x in lambdas)
    return ok, {"lambda1_sq": str(lambdas[1])}


def hankel(tag: str, size: int):
    """H_1..H_size > 0, from moments that read A_1..A_size and C_0..C_{size-1}."""
    bad = djkm.ortho.recurrence_mismatch(tag, size + 1)
    if bad is not None:
        return False, {"first_failure": bad}
    dets = djkm.ortho.hankel(tag, size)
    return all(d > 0 for d in dets), {"determinants": [str(d) for d in dets]}


def gram(tag: str, max_deg: int) -> bool:
    return djkm.ortho.gram_check(tag, max_deg)


def nonclassical(tag: str, max_n: int):
    """Whether only the constants solve the eigen-system, and the witness."""
    witness = djkm.ortho.nonclassical_check(tag, max_n)
    return witness.verified, witness


def assoc_ultraspherical(max_n: int) -> bool:
    """C_n^(-1/2)(x; 3/2) = q_n for n <= max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, C_0 = q_0 = 1 by construction, got {max_n}")
    ultra = djkm.ortho.assoc_ultraspherical(Fraction(-1, 2), Fraction(3, 2), max_n)
    p4 = families.get_family(FamilyId.P4)
    return all(ultra[n] == p4.q(n) for n in range(max_n + 1))


def quadrature(tag: str, nodes: int, max_deg: int):
    err = djkm.ortho.quad_orthogonality(tag, nodes, max_deg)
    return err <= 1e-10, {"max_offdiag": f"{err:.3e}"}


def hyp2f1_log_identity() -> bool:
    return abs(djkm.ortho.hyp2f1(1, 1, 2, 0.5, tol=1e-15) - 2 * math.log(2)) <= 1e-12


def hyp2f1_domain_guard() -> bool:
    try:
        djkm.ortho.hyp2f1(1, 1, 2, 1.5)
    except djkm.ortho.NoConvergenceError:
        return True
    return False


# -- the all items: the shared checks above, reduced to the fields all reports
def _verdict(check: Callable, *args) -> bool:
    return check(*args)[0]


def _first_mismatch(expand: str, order: int):
    ok, res = oracle_expansion(expand, order)
    return ok, {"first_mismatch": res.first_mismatch}


def _sequences(check: Callable, tags: tuple, bound: int):
    """check on each sequence: a bare pass, or the first failure's tag and fields."""
    for tag in tags:
        ok, extra = check(tag, bound)
        if not ok:
            return False, {"family": tag, **extra}
    return True


#: The rows ``run`` runs in its forked child: members to shifted index 120, and no numpy.
CHILD_ROWS = (
    "family-tables", "oracle-elliptic-1", "oracle-elliptic-2", "oracle-gegenbauer-sum",
    "generating-function-ode", "gegenbauer-link", "wimp-discrepancy",
    "cocycle-psi-table", "cocycle-uu-central-terms", "cocycle-antisymmetry",
)

#: The items of ``djkm all`` in report order: name, check, and the check's
#: arguments under each of PROFILES.  With gamma_n eliminated the nonclassical
#: system has six unknowns at every max-n, so its equations at max-n 6 are
#: among those at any larger one, and its verdict at 6 holds for every n.
ROWS = (
    ("family-tables", family_tables, ((), ())),
    *((name, _first_mismatch, ((expand, 120), (expand, 40))) for name, _, _, expand in ORACLES),
    ("generating-function-ode", funde, ((40,), (20,))),
    ("ode-P-4", ode, (("P-4", 400), ("P-4", 60))),
    ("ode-P-2", ode, (("P-2", 400), ("P-2", 60))),
    ("ode-P-1", ode, (("P-1", 200), ("P-1", 40))),
    ("ode-P-3", ode, (("P-3", 200), ("P-3", 40))),
    ("gegenbauer-link", gegenbauer_link, ((50,), (12,))),
    ("wimp-discrepancy", wimp_discrepancy, ((), ())),
    ("cocycle-psi-table", _verdict, ((psi_table, 12), (psi_table, 6))),
    ("cocycle-uu-central-terms", uu_central_terms, ((12,), (6,))),
    ("cocycle-antisymmetry", antisymmetry, ((12,), (6,))),
    ("favard-lambdas", _sequences, ((favard, ("q", "qbar"), 200),) * 2),
    ("hankel-q", _sequences, ((hankel, ("q",), 14), (hankel, ("q",), 8))),
    ("gram-q", gram, (("q", 8), ("q", 6))),
    ("nonclassical-q", _verdict, ((nonclassical, "q", 6),) * 2),
    ("hankel-qbar", _sequences, ((hankel, ("qbar",), 14), (hankel, ("qbar",), 8))),
    ("gram-qbar", gram, (("qbar", 8), ("qbar", 6))),
    ("nonclassical-qbar", _verdict, ((nonclassical, "qbar", 6),) * 2),
    ("assoc-ultraspherical-identification", assoc_ultraspherical, ((50,), (12,))),
    ("quadrature-q", quadrature, (("q", 20, 8), ("q", 12, 6))),
    ("quadrature-qbar", quadrature, (("qbar", 20, 8), ("qbar", 12, 6))),
    ("hyp2f1-log-identity", hyp2f1_log_identity, ((), ())),
    ("hyp2f1-domain-guard", hyp2f1_domain_guard, ((), ())),
)
