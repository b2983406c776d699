"""Cold-process verdict benchmark for djkm.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

Run it from the repository root.  Every sample is a fresh interpreter
(``child.py``) that imports djkm from ``src/``, runs one workload and checks
each verdict against its known answer; children run one at a time, so the
loop is closed with a single client.  The run keeps starting children while
the next one is expected to finish within ``--seconds``, and always runs at
least one.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json as
medians over the run's children; ``setup_s`` also takes three extra
set-up-only children.  The times are rescaled to a reference host speed
(``hostspeed.py``), because the host's own speed drifts by more than the
bounds; the unscaled medians are printed and recorded beside them.  With
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_s``, the traced
minus the untraced median of the unscaled verdict time.

The children get ``PYTHONPATH=src``, no ``DJKM_THREADS`` and one BLAS thread,
so the job is single-threaded whatever the caller's environment says.
Per-run records (samples, metrics, Python version, CPU count and git SHA)
go to ``perfbench/out/results``; traced runs also leave their spans in
``perfbench/out/trace``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
#: Every run, and so every child, must end within this many seconds.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("DJKM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(
    root: Path, out_dir: Path, deadline: float, workload: Optional[str] = None,
    seed: int = 0, traced: bool = False, size: str = "full",
) -> dict:
    """Start one child, wait for it to end, and return its measurements."""
    src = root / "src"
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(src), "--out-dir", str(out_dir)]
    if workload:
        cmd += ["--workload", workload, "--seed", str(seed), "--size", size,
                "--trace", str(int(traced))]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(src), capture_output=True, text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {workload or 'setup'} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"child {workload or 'setup'} exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {workload or 'setup'} printed no result")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - spawned
    return result


def collect(
    root: Path, out_dir: Path, workload: str, seed: int, seconds: float, traced: bool
) -> dict:
    """Run children until the next one would overrun ``seconds``."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    samples: Dict[str, List[dict]] = {"setup": [], "plain": [], "traced": []}
    if not traced:
        for _ in range(SETUP_PROBES):
            samples["setup"].append(run_child(root, out_dir, deadline))
    kinds = ("plain", "traced") if traced else ("plain",)
    while True:
        for kind in kinds:
            samples[kind].append(
                run_child(root, out_dir, deadline, workload, seed, kind == "traced")
            )
        last = sum(samples[kind][-1]["wall_s"] for kind in kinds)
        if time.monotonic() - start + last > seconds:
            return samples


def summarize(samples: Dict[str, List[dict]], bench: dict, traced: bool) -> dict:
    jobs = samples["plain"] + samples["traced"]
    attempted = sum(j["checks"] for j in jobs)
    failed = sum(j["wrong_verdicts"] for j in jobs)

    def median(key: str, group: List[dict]) -> float:
        return statistics.median(j[key] for j in group)

    if traced:
        values = {
            name: statistics.median(j["layers"][name] for j in samples["traced"])
            for name in samples["traced"][0]["layers"]
        }
        values["trace.overhead_s"] = median("raw_verdict_s", samples["traced"]) - median(
            "raw_verdict_s", samples["plain"]
        )
        wanted = bench["per_layer"]
    else:
        values = {
            "verdict_s": median("verdict_s", samples["plain"]),
            "verdict_cpu_s": median("verdict_cpu_s", samples["plain"]),
            "setup_s": median("setup_s", samples["setup"] + samples["plain"]),
            "peak_rss_mb": median("peak_rss_mb", samples["plain"]),
        }
        wanted = bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no measurement for metrics {missing}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def environment(root: Path) -> dict:
    sha = None
    if (root / ".git").is_dir():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Cold-process verdict benchmark for djkm")
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "djkm" / "__init__.py").is_file():
            raise BenchError(f"no djkm sources under {root / 'src'}; run from the repository root")
        bench = json.loads((root / "BENCHMARK.json").read_text())
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        out_dir = HERE / "out"
        samples = collect(root, out_dir, args.workload, args.seed, args.seconds, bool(args.trace))
        result = summarize(samples, bench, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(root)
    record = {"args": vars(args), "environment": env, "samples": samples, "result": result}
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))

    jobs = samples["plain"] + samples["traced"]
    print(f"workload {args.workload}  seed {args.seed}  children {len(jobs)}  "
          f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha']}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name in ("raw_verdict_s", "raw_verdict_cpu_s", "raw_setup_s"):
        group = [j for j in samples["setup"] + samples["plain"] if name in j]
        print(f"{name} (not rescaled) = {statistics.median(j[name] for j in group):.6g} s")
    print(f"wrong_verdicts = {result['failed']} of {result['attempted']} checks")
    for job in jobs:
        for name, want, got in job["first_wrong"]:
            print(f"  wrong: {name}: want {want}, got {got}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
