"""Tests of the benchmark itself (not of djkm).

    python3 -m pytest -q perfbench

Every workload runs at its tiny size in a child process, untraced and
traced, and must pass its gate; a wrong expected answer must show up as
wrong verdicts; traced self times must add up to the traced verdict time.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import djkm  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from djkm import cli, cocycle, diffops, families, oracle  # noqa: E402
from djkm.exact import RationalPoly  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def tiny_job(workload: str, traced: bool, tmp_path: Path) -> dict:
    return run.run_child(
        ROOT, tmp_path, time.monotonic() + 120, workload, seed=3, traced=traced, size="tiny"
    )


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_workload_passes_its_gate(workload, tmp_path):
    job = tiny_job(workload, False, tmp_path)
    assert job["checks"] > 0
    assert job["wrong_verdicts"] == 0, job["first_wrong"]
    assert job["verdict_s"] > 0 and job["setup_s"] > 0 and job["peak_rss_mb"] > 0
    assert job["raw_verdict_s"] > 0 and job["raw_setup_s"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_self_times_add_up_to_verdict(workload, tmp_path):
    job = tiny_job(workload, True, tmp_path)
    assert job["wrong_verdicts"] == 0, job["first_wrong"]
    layers = job["layers"]
    expected = {m["name"] for m in BENCH["per_layer"]} - {"trace.overhead_s"}
    assert expected | {"exact.to_json_s"} <= set(layers)
    total = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(job["raw_verdict_s"], rel=1e-9, abs=1e-9)
    assert (tmp_path / "trace" / f"{workload}.jsonl").stat().st_size > 0


def _mutations():
    desk = workloads.WORKLOADS["desk"].expected
    tables = workloads.WORKLOADS["tables"].expected
    algebra = workloads.WORKLOADS["algebra"].expected
    bad_digest = dict(tables["sha256"], **{"P-3:24": "0" * 64})
    return [
        ("desk", dict(desk, items=dict(desk["items"], **{"wimp-discrepancy": "fail"}))),
        ("desk", dict(desk, exit_code=1)),
        ("deep-sweep", dict(workloads.WORKLOADS["deep-sweep"].expected, residual_zero=False)),
        ("deep-sweep", dict(workloads.WORKLOADS["deep-sweep"].expected, odd_member_zero=False)),
        ("tables", dict(tables, sha256=bad_digest)),
        ("tables", dict(tables, reference_match=False)),
        ("algebra", dict(algebra, psi_cases={4: 73})),
        ("algebra", dict(algebra, solution_space_dim=2)),
    ]


@pytest.mark.parametrize("workload,expected", _mutations())
def test_wrong_expected_answer_gives_wrong_verdicts(workload, expected, tmp_path):
    wl = workloads.WORKLOADS[workload]
    size = wl.sizes["tiny"]
    outputs = wl.run(size, 3, tmp_path)
    assert not any(c.wrong for c in wl.check(outputs, size, wl.expected))
    assert any(c.wrong for c in wl.check(outputs, size, expected))


def test_rescale_weights_each_slice_by_its_probe():
    probe = hostspeed.Probe(0.1)
    ref = hostspeed.REFERENCE_S
    # a probe at 4 s ran at half speed; the closing probe after 10 s at full speed
    probe.marks = [(4.0, 3.0, 2 * ref, 2 * ref), (10.5, 9.0, ref, ref)]
    times = probe.rescale(0.0, 10.0, 0.0, 8.0)
    assert times["raw_wall"] == pytest.approx(10.0 - 2 * ref)
    assert times["wall"] == pytest.approx(4.0 / 2 + (10.0 - 4.0 - 2 * ref))
    assert times["raw_cpu"] == pytest.approx(8.0 - 2 * ref)
    assert times["cpu"] == pytest.approx(3.0 / 2 + (8.0 - 3.0 - 2 * ref))


def test_probe_samples_a_running_job_and_leaves_its_time_out():
    probe = hostspeed.Probe(0.02)
    t0, cpu0 = time.monotonic(), time.process_time()
    probe.start()
    while time.monotonic() - t0 < 0.3:
        pass
    t1, cpu1 = probe.stop()
    assert len(probe.marks) >= 5
    inside = sum(m[2] for m in probe.marks if m[0] < t1)
    assert probe.rescale(t0, t1, cpu0, cpu1)["raw_wall"] == pytest.approx(t1 - t0 - inside)


def test_failing_job_makes_the_result_incorrect():
    job = {"checks": 5, "wrong_verdicts": 1, "verdict_s": 1.0, "verdict_cpu_s": 1.0,
           "setup_s": 0.2, "peak_rss_mb": 40.0}
    result = run.summarize({"setup": [], "plain": [job], "traced": []}, BENCH, False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (5, 1)


def test_every_binding_of_a_target_is_wrapped_and_restored():
    before = (cli.cocycle_of, cli.verify_psi_table, cli.generate, diffops.get_family,
              oracle.gegenbauer, RationalPoly.__rmul__)
    assert not any(hasattr(fn, "__wrapped__") for fn in before)
    with spans.installed(spans.Tracer()):
        during = (cli.cocycle_of, cli.verify_psi_table, cli.generate, diffops.get_family,
                  oracle.gegenbauer, RationalPoly.__rmul__)
        assert all(hasattr(fn, "__wrapped__") for fn in during)
        assert cli.cocycle_of is cocycle.cocycle
        assert djkm.verify_psi_table is cocycle.verify_psi_table
        assert RationalPoly.__rmul__ is RationalPoly.__mul__
        assert hasattr(families.PolynomialFamily.original, "__wrapped__")
    after = (cli.cocycle_of, cli.verify_psi_table, cli.generate, diffops.get_family,
             oracle.gegenbauer, RationalPoly.__rmul__)
    assert all(a is b for a, b in zip(before, after))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
