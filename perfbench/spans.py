"""Per-layer spans for one traced verification job.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and the
index of the enclosing span (-1 for the root).  djkm is single-threaded, so
the open spans form a stack and no locking is needed.  Spans stay in memory
while the job runs and are written as JSON lines only after it ends.

``installed(tracer)`` wraps the public functions and methods listed in
TARGETS.  Every binding of a wrapped function inside the package is replaced:
the defining attribute, every ``from .module import name`` alias such as
``cli.cocycle_of`` or ``diffops.get_family``, and class aliases such as
``RationalPoly.__rmul__ = __mul__``.  A call through a binding left unwrapped
would escape the trace and show up as its caller's self time.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the root span, which
covers exactly the timed verdict interval.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional

_BUILDERS = (
    "build_case3_op",
    "build_case4_op",
    "build_elliptic1_op",
    "build_elliptic2_op",
    "build_gegenbauer_op",
    "build_qform_op",
    "build_wimp_op",
)

#: (module, attribute path, span name).  Span names are "<layer>.<operation>".
TARGETS = (
    ("djkm.exact", "RationalPoly.__mul__", "exact.poly_mul"),
    ("djkm.exact", "RationalPoly.exact_divide", "exact.poly_divide"),
    ("djkm.exact", "RationalPoly.to_json", "exact.to_json"),
    ("djkm.exact", "LaurentSeries.__mul__", "exact.series_mul"),
    ("djkm.exact", "LaurentSeries.sqrt", "exact.series_power"),
    ("djkm.exact", "LaurentSeries.pow_neg_3_2", "exact.series_power"),
    ("djkm.exact", "LaurentSeries.integrate", "exact.series_integrate"),
    ("djkm.families", "get_family", "families.get_family"),
    ("djkm.families", "generate", "families.generate"),
    ("djkm.families", "gegenbauer", "families.gegenbauer"),
    ("djkm.families", "verify_gegenbauer_link", "families.gegenbauer"),
    *(("djkm.diffops", name, "diffops.build") for name in _BUILDERS),
    ("djkm.diffops", "LinearDiffOp.apply", "diffops.apply"),
    ("djkm.diffops", "eigencheck", "diffops.sweep"),
    ("djkm.diffops", "fourth_order_sweep", "diffops.sweep"),
    ("djkm.diffops", "second_order_sweep", "diffops.sweep"),
    ("djkm.oracle", "expand_elliptic1", "oracle.expand"),
    ("djkm.oracle", "expand_elliptic2", "oracle.expand"),
    ("djkm.oracle", "expand_gegenbauer_sum", "oracle.expand"),
    ("djkm.oracle", "check_funde", "oracle.funde"),
    ("djkm.cocycle", "reduce_u_monomial", "cocycle.reduce"),
    ("djkm.cocycle", "reduce_plain", "cocycle.reduce"),
    ("djkm.cocycle", "cocycle", "cocycle.cocycle"),
    ("djkm.cocycle", "psi", "cocycle.psi"),
    ("djkm.cocycle", "verify_psi_table", "cocycle.psi"),
    ("djkm.ortho", "moments", "ortho.moments"),
    ("djkm.ortho", "hankel", "ortho.hankel"),
    ("djkm.ortho", "gram_matrix", "ortho.gram"),
    ("djkm.ortho", "gram_check", "ortho.gram"),
    ("djkm.ortho", "nonclassical_check", "ortho.nonclassical"),
    ("djkm.ortho", "golub_welsch", "ortho.golub_welsch"),
    ("djkm.ortho", "quad_orthogonality", "ortho.quadrature"),
    ("djkm.ortho", "favard_lambdas", "ortho.other"),
    ("djkm.ortho", "three_term", "ortho.other"),
    ("djkm.ortho", "assoc_ultraspherical", "ortho.other"),
    ("djkm.ortho", "assoc_jacobi", "ortho.other"),
    ("djkm.ortho", "hyp2f1", "ortho.other"),
    ("djkm.cli", "main", "cli.main"),
)

#: Layers in report order; "root" is the benchmark's own code between spans.
LAYERS = ("families", "diffops", "exact", "oracle", "cocycle", "ortho", "cli", "root")

#: per-layer metric -> span name whose total self time it reports.
SELF_TIME_METRICS = {
    "families.generate_s": "families.generate",
    "families.gegenbauer_s": "families.gegenbauer",
    "diffops.build_s": "diffops.build",
    "diffops.apply_s": "diffops.apply",
    "exact.poly_mul_s": "exact.poly_mul",
    "exact.poly_divide_s": "exact.poly_divide",
    "exact.series_mul_s": "exact.series_mul",
    "exact.series_power_s": "exact.series_power",
    "exact.series_integrate_s": "exact.series_integrate",
    "exact.to_json_s": "exact.to_json",
    "cli.self_s": "cli.main",
    "oracle.expand_s": "oracle.expand",
    "oracle.funde_s": "oracle.funde",
    "cocycle.reduce_s": "cocycle.reduce",
    "cocycle.cocycle_s": "cocycle.cocycle",
    "cocycle.psi_s": "cocycle.psi",
    "ortho.moments_s": "ortho.moments",
    "ortho.hankel_s": "ortho.hankel",
    "ortho.gram_s": "ortho.gram",
    "ortho.nonclassical_s": "ortho.nonclassical",
    "ortho.golub_welsch_s": "ortho.golub_welsch",
    "ortho.quadrature_s": "ortho.quadrature",
}

#: per-layer metric -> span name whose number of spans it reports.
CALL_COUNT_METRICS = {
    "diffops.apply_calls": "diffops.apply",
    "exact.poly_mul_calls": "exact.poly_mul",
    "exact.series_mul_calls": "exact.series_mul",
    "cocycle.reduce_calls": "cocycle.reduce",
    "cocycle.cocycle_calls": "cocycle.cocycle",
}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    """Span stack, counters and the family-cache bookkeeping of one job."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        # PolynomialFamily instance -> highest original index generated so far
        self.family_top: Dict[object, int] = {}
        self._family_original: Optional[Callable] = None

    # -- recording ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_family_lookup(self, original: Callable) -> Callable:
        """PolynomialFamily.original: a lookup past the highest generated index
        extends the family and is a generation span; any other is a cache hit."""
        self._family_original = original
        counts, top = self.counts, self.family_top
        extend = self.wrap(original, "families.generate")

        @functools.wraps(original)
        def lookup(fam, k):
            counts["families.lookups"] += 1
            if k <= top.get(fam, -1):
                counts["families.hits"] += 1
                return original(fam, k)
            result = extend(fam, k)
            top[fam] = k
            return result

        return lookup

    # -- result hooks -----------------------------------------------------------

    def hooks(self) -> Dict[str, Callable]:
        """Per-target callbacks that turn a return value into a counter."""
        counts = self.counts

        def add(key: str, value: int) -> None:
            counts[key] += value

        def peak(key: str, value: int) -> None:
            counts[key] = max(counts[key], value)

        def max_order(result) -> None:
            peak("oracle.max_order", result.truncation)

        return {
            "LinearDiffOp.apply": lambda r: add("diffops.nonzero_residuals", not r.is_zero()),
            "expand_elliptic1": max_order,
            "expand_elliptic2": max_order,
            "expand_gegenbauer_sum": max_order,
            "verify_psi_table": lambda r: add("cocycle.cases", r.cases),
            "hankel": lambda dets: peak(
                "ortho.hankel_max_det_bits", max((_bits(d) for d in dets), default=0)
            ),
        }

    # -- analysis ---------------------------------------------------------------

    def self_times(self) -> List[float]:
        spans = self.spans
        own = [rec[2] - rec[1] for rec in spans]
        for rec in spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def family_stats(self) -> Dict[str, float]:
        lookups = self.counts["families.lookups"]
        members = 0
        max_bits = 0
        for fam, k_top in self.family_top.items():
            members += max(k_top + 1, 0)
            for k in range(0, k_top + 1):
                for x in self._family_original(fam, k).coeffs:
                    max_bits = max(max_bits, _bits(x))
        return {
            "families.members": members,
            "families.hit_ratio": self.counts["families.hits"] / lookups if lookups else 0.0,
            "families.max_coeff_bits": max_bits,
        }

    def summary(self) -> Dict[str, object]:
        """Per-span-name and per-layer self times, and the per-layer metrics."""
        own = self.self_times()
        by_name: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for rec, t in zip(self.spans, own):
            by_name[rec[0]] += t
            calls[rec[0]] += 1
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, t in by_name.items():
            by_layer[name.split(".")[0]] += t
        metrics: Dict[str, float] = {m: by_name.get(s, 0.0) for m, s in SELF_TIME_METRICS.items()}
        metrics.update({m: calls.get(s, 0) for m, s in CALL_COUNT_METRICS.items()})
        for key in (
            "diffops.nonzero_residuals",
            "oracle.max_order",
            "cocycle.cases",
            "ortho.hankel_max_det_bits",
        ):
            metrics[key] = self.counts[key]
        metrics.update(self.family_stats())
        for layer in LAYERS:
            metrics.setdefault(f"{layer}.self_s", by_layer[layer])
        root = self.spans[0]
        return {
            "verdict_s": root[2] - root[1],
            "spans": len(self.spans),
            "self_s_by_span": dict(sorted(by_name.items())),
            "calls_by_span": dict(sorted(calls.items())),
            "self_s_by_layer": by_layer,
            "metrics": metrics,
        }

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                span = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(span) + "\n")


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _bindings(fn) -> Iterator[tuple]:
    """Every (namespace object, attribute) in the loaded package bound to fn."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "djkm" and not mod_name.startswith("djkm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr
            elif isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is fn:
                        yield value, cattr


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every TARGETS binding (and PolynomialFamily.original) while active."""
    import djkm  # noqa: F401  (loads every submodule the targets live in)
    from djkm.families import PolynomialFamily

    hooks = tracer.hooks()
    replaced = []
    try:
        for module_name, path, span in TARGETS:
            owner, attr = _resolve(module_name, path)
            fn = vars(owner)[attr]
            hook = hooks.get(path)
            wrapper = tracer.wrap(fn, span, hook)
            for namespace, name in set(_bindings(fn)):
                replaced.append((namespace, name, fn))
                setattr(namespace, name, wrapper)
        original = vars(PolynomialFamily)["original"]
        replaced.append((PolynomialFamily, "original", original))
        PolynomialFamily.original = tracer.wrap_family_lookup(original)
        yield tracer
    finally:
        for namespace, name, fn in reversed(replaced):
            setattr(namespace, name, fn)
