"""Steadiness check: is the benchmark's run-to-run spread inside its bounds?

    python3 perfbench/steady.py

Run it from the repository root.  Each of two sets runs ``run.py`` once per
seed, ten seeds, on every workload of BENCHMARK.json (seeds outermost, so
drift on the host hits all workloads alike), with a fresh seed for every run.
For each workload and end-to-end metric it prints the median, first and third
quartile of each set and the spread, (q3 - q1) / median, against the metric's
bound.  Two things must hold: every spread is within its bound, and for every
metric the second set's median is no worse than the first's by more than the
bound.  The table also goes to ``perfbench/out/steady.json``; the exit code is
1 when a check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETS = 2
SEEDS = 10
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"run.py {workload} seed {seed}: wrong verdicts\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    runs = {(s, w): [] for s in range(SETS) for w in names}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(SEEDS):
            for w in names:
                runs[s, w].append(one_run(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} seed {seed} {w}: "
                      + "  ".join(f"{k}={v:.4g}" for k, v in runs[s, w][-1].items()), flush=True)
            seed += 1

    ok = True
    table = {}
    print(f"\n{'workload':<11} {'metric':<14} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = [stats([r[name] for r in runs[s, w]]) for s in range(SETS)]
            table[f"{w}/{name}"] = per_set
            for s, st in enumerate(per_set):
                notes = []
                if st["spread"] > bound:
                    notes.append("SPREAD OVER BOUND")
                if s > 0:
                    first = per_set[0]["median"]
                    worse = (st["median"] - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        notes.append(f"MEDIAN WORSE BY {worse:.3f}")
                ok = ok and not notes
                verdict = " ".join(notes) or "ok"
                print(f"{w:<11} {name:<14} {s + 1:>3} {st['median']:>10.4g} {st['q1']:>10.4g} "
                      f"{st['q3']:>10.4g} {st['spread']:>7.3f} {bound:>6}  {verdict}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(table, indent=2))
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
