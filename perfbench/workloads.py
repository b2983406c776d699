"""The benchmark's workloads: what each one runs, and its known answer.

Each workload has a ``run(size, seed, tmp)`` that makes the djkm calls and
returns their raw outputs (this is the timed verdict interval), and a
``check(outputs, size, expected)`` that compares those outputs with the known
answer and returns one ``Check`` per verdict.  The seed only permutes the
order of the calls; it never changes the total work.  Every workload has a
``full`` size, which the benchmark measures, and a ``tiny`` size, which the
benchmark's tests run.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple

from djkm import cli, diffops, families, ortho, reference
from djkm.exact import RationalPoly
from djkm.families import FamilyId


class Check(NamedTuple):
    name: str
    want: Any
    got: Any

    @property
    def wrong(self) -> bool:
        return self.want != self.got


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: Dict[str, dict]
    expected: dict
    run: Callable[[dict, int, Path], dict]
    check: Callable[[dict, dict, dict], List[Check]]


def _shuffled(items, seed: int) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _report_checks(prefix: str, report: dict, want_status: str) -> List[Check]:
    return [
        Check(f"{prefix}/{item.get('check', item.get('family', i))}", want_status, item["status"])
        for i, item in enumerate(report["items"])
    ]


# -- desk: the headline battery ------------------------------------------------

#: Item names `djkm all` reports, in order; each must come out as "pass".
DESK_ITEMS = (
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
)


def run_desk(size: dict, seed: int, tmp: Path) -> dict:
    out = str(tmp / "all.json")
    rc = cli.main(["all", "--profile", size["profile"], "--out", out])
    return {"rc": rc, "report": out, "files": [out]}


def check_desk(outputs: dict, size: dict, expected: dict) -> List[Check]:
    report = _read_json(outputs["report"])
    got = {item["check"]: item["status"] for item in report["items"]}
    checks = [Check("exit-code", expected["exit_code"], outputs["rc"])]
    checks.append(Check("item-names", list(expected["items"]), list(got)))
    checks += [
        Check(name, want, got.get(name, "missing")) for name, want in expected["items"].items()
    ]
    return checks


# -- deep-sweep: generation and exact residuals on big coefficients ------------

FOURTH_ORDER = ("P-4", "P-2")
SECOND_ORDER = ("P-1", "P-3")


def run_deep_sweep(size: dict, seed: int, tmp: Path) -> dict:
    sweeps = {}
    for fam in _shuffled(FOURTH_ORDER + SECOND_ORDER, seed):
        if fam in FOURTH_ORDER:
            sweeps[fam] = diffops.fourth_order_sweep(FamilyId(fam), size["fourth_max"])
        else:
            sweeps[fam] = diffops.second_order_sweep(FamilyId(fam), size["second_max"])
    link = [(n, families.verify_gegenbauer_link(n)) for n in range(2, size["link_max"] + 1)]
    return {"sweeps": sweeps, "link": link, "files": []}


def check_deep_sweep(outputs: dict, size: dict, expected: dict) -> List[Check]:
    checks = []
    zero = expected["residual_zero"]
    for fam in FOURTH_ORDER:
        rows = outputs["sweeps"][fam]
        indices = list(range(size["fourth_max"] + 1))
        checks.append(Check(f"{fam}/indices", indices, [r[0] for r in rows]))
        for n, member_zero, residual_zero in rows:
            checks.append(Check(f"{fam}/n={n}/residual-zero", zero, residual_zero))
            if n % 2:
                want = expected["odd_member_zero"]
                checks.append(Check(f"{fam}/n={n}/odd-member-zero", want, member_zero))
    for fam in SECOND_ORDER:
        rows = outputs["sweeps"][fam]
        indices = list(range(2, size["second_max"] + 1))
        checks.append(Check(f"{fam}/indices", indices, [r[0] for r in rows]))
        checks += [Check(f"{fam}/n={n}/residual-zero", zero, ok) for n, ok in rows]
    checks += [Check(f"link/n={n}", expected["link"], ok) for n, ok in outputs["link"]]
    return checks


# -- tables: `djkm gen` output for all six families ----------------------------

#: SHA-256 of the bytes `djkm gen --family F --max-n N --out FILE` writes, keyed
#: "F:N".  `gen` output is byte-deterministic, so any change is a wrong answer.
GEN_SHA256 = {
    "P-4:24": "3ffad327ff00e8972081117d26c6857d1cd8d96242b06db4b6d05ac025a4f5f4",
    "P-3:24": "9bda5e44f86b37eb02c26058deea53854b373aab46dbbd59aa17cb981ef5c49d",
    "P-2:24": "29af4b41f6648cd4f59ce05eedb38d76c89c1ef8b103bf8f0c07cd46056e6538",
    "P-1:24": "3762c028cf2d36ef0079014876d97d816d7c1cb6a20d712fcad2cb9a0d3dfbd3",
    "q:12": "4a46080dee8aedc25cd488c3904dec04d279d320b06aad3d9c619baf26fa9f02",
    "qbar:12": "6794e7d5446194206d0596b5ffdacbe40e98826b071c89c70044a681f979003c",
    "P-4:300": "011bb6e3f42dd3986ec3006e6afbebf4df79200e16e32615290cd5de0c612de9",
    "P-3:300": "1380f4776888a9262b73e7ecb37d782eaeb5d80ce6c2bd5345e8ee7a9ea43dd0",
    "P-2:300": "7d791b83326272c9321355ee49694d1abc1943456ba90e8df04a3b6c0002dc04",
    "P-1:300": "591f82a28a7d72b5128744c496d38021d264d9c541621c9790ba8a20469c98d4",
    "q:150": "7145d53b703e703c25f99139bedf69a5b4bc19fe619f2679bcaaa598b24cc935",
    "qbar:150": "3290fe3848d1c48424032aa2e3ebf91cfb8fde33fd74daddb54037639ef8c544",
}

#: Reference entries `gen` must start with: (reference table, first entry index).
TABLE_REFERENCES = {
    "P-4": (reference.P4_SHIFTED_TABLE, 0),
    "P-2": (reference.P2_SHIFTED_TABLE, 0),
    "q": (reference.Q_BOX, 0),
    "qbar": (reference.QBAR_BOX, 1),
}


def run_tables(size: dict, seed: int, tmp: Path) -> dict:
    rcs, files = {}, {}
    for fam in _shuffled(cli.GEN_FAMILIES, seed):
        files[fam] = str(tmp / f"gen-{fam}.json")
        argv = ["gen", "--family", fam, "--max-n", str(size[fam]), "--out", files[fam]]
        rcs[fam] = cli.main(argv)
    return {"rc": rcs, "gen": files, "files": list(files.values())}


def check_tables(outputs: dict, size: dict, expected: dict) -> List[Check]:
    checks = []
    for fam in sorted(cli.GEN_FAMILIES):
        path = outputs["gen"][fam]
        data = Path(path).read_bytes()
        checks.append(Check(f"{fam}/exit-code", 0, outputs["rc"][fam]))
        digest = expected["sha256"].get(f"{fam}:{size[fam]}")
        checks.append(Check(f"{fam}/sha256", digest, hashlib.sha256(data).hexdigest()))
        if fam in TABLE_REFERENCES:
            table, skip = TABLE_REFERENCES[fam]
            entries = json.loads(data)["entries"][skip : skip + len(table)]
            got = tuple(RationalPoly.from_json(e["poly"]) for e in entries)
            want = expected["reference_match"]
            checks.append(Check(f"{fam}/reference-entries", want, got == table))
    return checks


# -- algebra: cocycle reduction and orthogonality, scalar Fraction algebra ------


def _algebra_steps(size: dict) -> Dict[str, Callable[[Path], Any]]:
    def cli_step(name: str, argv: List[str]) -> Callable[[Path], Any]:
        def step(tmp: Path) -> dict:
            out = str(tmp / f"{name}.json")
            return {"rc": cli.main(argv + ["--out", out]), "report": out}

        return step

    steps = {
        "cocycle": cli_step("cocycle", ["cocycle", "--verify", "--bound", str(size["bound"])])
    }
    for fam in ("q", "qbar"):
        steps[f"orthogonality-{fam}"] = cli_step(
            f"orthogonality-{fam}",
            ["orthogonality", "--family", fam,
             "--hankel", str(size["hankel"]), "--gram", str(size["gram"])],
        )
        steps[f"nonclassical-{fam}"] = cli_step(
            f"nonclassical-{fam}",
            ["nonclassical", "--family", fam, "--max-n", str(size["nonclassical_max"])],
        )
        steps[f"quadrature-{fam}"] = lambda tmp, fam=fam: ortho.quad_orthogonality(
            fam, size["quad_nodes"], size["quad_deg"]
        )
        steps[f"golub-welsch-{fam}"] = lambda tmp, fam=fam: ortho.golub_welsch(
            fam, size["gw_nodes"]
        )
    return steps


def run_algebra(size: dict, seed: int, tmp: Path) -> dict:
    steps = _algebra_steps(size)
    results = {name: steps[name](tmp) for name in _shuffled(steps, seed)}
    files = [r["report"] for r in results.values() if isinstance(r, dict)]
    return {"results": results, "files": files}


def check_algebra(outputs: dict, size: dict, expected: dict) -> List[Check]:
    results = outputs["results"]
    checks = []
    for name in sorted(results):
        result = results[name]
        if isinstance(result, dict):
            report = _read_json(result["report"])
            checks.append(Check(f"{name}/exit-code", 0, result["rc"]))
            checks += _report_checks(name, report, expected["item_status"])
            if name == "cocycle":
                want = expected["psi_cases"].get(size["bound"])
                psi = next(i for i in report["items"] if i["check"] == "psi-table")
                checks.append(Check("cocycle/psi-cases", want, psi["cases"]))
            if name.startswith("nonclassical"):
                want = expected["solution_space_dim"]
                dim = report["items"][0]["solution_space_dim"]
                checks.append(Check(f"{name}/solution-space-dim", want, dim))
        elif name.startswith("quadrature"):
            ok = result <= expected["quad_max_offdiag"]
            checks.append(Check(f"{name}/max-offdiag<={expected['quad_max_offdiag']}", True, ok))
        else:
            nodes, weights = result
            n = size["gw_nodes"]
            tol = expected["gw_tolerance"]
            checks.append(Check(f"{name}/nodes", n, len(nodes)))
            checks.append(Check(f"{name}/weights-sum-to-m0", True, abs(sum(weights) - 1) <= tol))
            symmetric = all(abs(nodes[i] + nodes[n - 1 - i]) <= tol for i in range(n))
            checks.append(Check(f"{name}/nodes-symmetric", True, symmetric))
    return checks


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            sizes={"full": {"profile": "desk"}, "tiny": {"profile": "quick"}},
            expected={"exit_code": 0, "items": {name: "pass" for name in DESK_ITEMS}},
            run=run_desk,
            check=check_desk,
        ),
        Workload(
            name="deep-sweep",
            sizes={
                "full": {"fourth_max": 480, "second_max": 240, "link_max": 80},
                "tiny": {"fourth_max": 24, "second_max": 12, "link_max": 8},
            },
            expected={"residual_zero": True, "odd_member_zero": True, "link": True},
            run=run_deep_sweep,
            check=check_deep_sweep,
        ),
        Workload(
            name="tables",
            sizes={
                "full": {"P-4": 300, "P-3": 300, "P-2": 300, "P-1": 300, "q": 150, "qbar": 150},
                "tiny": {"P-4": 24, "P-3": 24, "P-2": 24, "P-1": 24, "q": 12, "qbar": 12},
            },
            expected={"sha256": GEN_SHA256, "reference_match": True},
            run=run_tables,
            check=check_tables,
        ),
        Workload(
            name="algebra",
            sizes={
                "full": {
                    "bound": 16,
                    "hankel": 30,
                    "gram": 16,
                    "nonclassical_max": 24,
                    "quad_nodes": 60,
                    "quad_deg": 20,
                    "gw_nodes": 1000,
                },
                "tiny": {
                    "bound": 4,
                    "hankel": 6,
                    "gram": 4,
                    "nonclassical_max": 6,
                    "quad_nodes": 12,
                    "quad_deg": 6,
                    "gw_nodes": 40,
                },
            },
            expected={
                "item_status": "pass",
                "psi_cases": {b: 2 * b * (2 * b + 1) for b in (4, 16)},
                "solution_space_dim": 1,
                "quad_max_offdiag": 1e-10,
                "gw_tolerance": 1e-10,
            },
            run=run_algebra,
            check=check_algebra,
        ),
    )
}
