"""One cold verification job in a fresh interpreter.

    python3 perfbench/child.py --src SRC --spawned T --out-dir DIR
        [--workload NAME --seed N --size full|tiny --trace 0|1]

``run.py`` starts one of these per sample, one at a time, so every sample
pays for family generation and cocycle reduction the way a real ``djkm``
invocation does (the family registry and the reduction cache are
process-global).  ``T`` is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is shared by all processes, so set-up
time is measured from before interpreter start until ``djkm`` and ``djkm.cli``
are imported.  Without ``--workload`` the job only measures set-up.

Set-up and the untraced verdict interval run under a ``hostspeed.Probe``:
``setup_s``, ``verdict_s`` and ``verdict_cpu_s`` are rescaled to the
reference host speed, and the ``raw_`` keys hold the unscaled times.  A
traced job has no probe; its ``raw_verdict_s`` is the root span.

The last line of stdout is one JSON object with the job's measurements.
"""

import time

import hostspeed

SETUP_PROBE = hostspeed.Probe(0.02)
SETUP_PROBE.start()

import djkm  # noqa: E402
import djkm.cli  # noqa: E402  (what the `djkm` command loads, so set-up covers it too)

SETUP_DONE, SETUP_CPU = SETUP_PROBE.stop()

import argparse  # noqa: E402  (everything below is outside the set-up interval)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def run_job(workload: str, seed: int, size_name: str, traced: bool, out_dir: Path) -> dict:
    """Run one workload, check its verdicts, and return the measurements."""
    wl = workloads.WORKLOADS[workload]
    size = wl.sizes[size_name]
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                cpu0 = time.process_time()
                outputs = tracer.wrap(wl.run, "root")(size, seed, tmp)
                cpu1 = time.process_time()
            root = tracer.spans[0]
            times = {"raw_verdict_s": root[2] - root[1], "raw_verdict_cpu_s": cpu1 - cpu0}
        else:
            probe = hostspeed.Probe(0.1)
            cpu0, t0 = time.process_time(), time.monotonic()
            probe.start()
            outputs = wl.run(size, seed, tmp)
            t1, cpu1 = probe.stop()
            scaled = probe.rescale(t0, t1, cpu0, cpu1)
            times = {
                "verdict_s": scaled["wall"],
                "verdict_cpu_s": scaled["cpu"],
                "raw_verdict_s": scaled["raw_wall"],
                "raw_verdict_cpu_s": scaled["raw_cpu"],
            }
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks = wl.check(outputs, size, wl.expected)
        bytes_out = sum(os.path.getsize(f) for f in outputs["files"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wrong = [c for c in checks if c.wrong]
    result = {
        **times,
        "peak_rss_mb": peak_rss_mb,
        "checks": len(checks),
        "wrong_verdicts": len(wrong),
        "first_wrong": [[c.name, repr(c.want), repr(c.got)] for c in wrong[:10]],
    }
    if traced:
        summary = tracer.summary()
        summary["metrics"]["cli.bytes_out"] = bytes_out
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(trace_dir / f"{workload}.jsonl"))
        with open(trace_dir / f"{workload}-summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        result["layers"] = summary["metrics"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    loaded = os.path.realpath(djkm.__file__)
    if not loaded.startswith(os.path.realpath(args.src) + os.sep):
        print(f"error: imported djkm from {loaded}, not from {args.src}", file=sys.stderr)
        return 2
    setup = SETUP_PROBE.rescale(args.spawned, SETUP_DONE, 0.0, SETUP_CPU)
    result = {"setup_s": setup["wall"], "raw_setup_s": setup["raw_wall"]}
    if args.workload:
        result.update(
            run_job(args.workload, args.seed, args.size, bool(args.trace), Path(args.out_dir))
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
