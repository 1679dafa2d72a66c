"""Self-tests of the benchmark's output gates and tracer.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import gates  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from swarmlift import mu, simulate  # noqa: E402
from swarmlift.mu import MarginResult, default_frequency_grid  # noqa: E402
from swarmlift.scenario import scenario_from_dict  # noqa: E402


def short_sim_plan(tmp_path):
    """The sim_ekf_n4 plan on a 2-agent, 0.4 s scenario with early events."""
    plan = workloads.make_plan("sim_ekf_n4", 0, str(tmp_path))
    cfg = workloads.sim_config(workloads.WORKLOADS["sim_ekf_n4"], 0)
    cfg.update(n_agents=2, duration=0.4)
    cfg["events"][0]["t"], cfg["events"][1]["t"] = 0.02, 0.05
    plan.scenario = scenario_from_dict(cfg)
    return plan


def test_corrupted_payload_digest_counts_as_failed(tmp_path):
    plan = short_sim_plan(tmp_path)
    log = plan.op()
    good = gates.payload_digest(log)
    plan.expected_digest = good
    assert plan.failures(log) == 0
    assert plan.failures(log) == 0  # same digest as the first call
    plan.expected_digest = ("0" if good[0] != "0" else "1") + good[1:]
    assert plan.failures(log) == 1
    plan.expected_digest = None
    plan.first_digest = good[::-1]
    assert plan.failures(log) == 1
    assert plan.failures(None) == 1  # the call raised


def margin_plan_with_limit(tmp_path, limit):
    plan = workloads.make_plan("margin_n3", 0, str(tmp_path))
    key = gates.point_key(3, 4.0, 12.0, 80)
    plan.checks._limits[key] = limit
    return plan, workloads.PINNED["margins"][key]


def result(rs, rp, M=4.0, C=12.0):
    return MarginResult(M, C, rs, rp, 1.0, 1.0, rs > 0.0)


def test_margin_above_rho_limit_counts_as_failed(tmp_path):
    plan, pinned = margin_plan_with_limit(tmp_path, limit=10.0)
    assert plan.failures([result(pinned["rs"], pinned["rp"])]) == 0
    plan, pinned = margin_plan_with_limit(tmp_path, limit=pinned["rs"] * 0.99)
    assert plan.failures([result(pinned["rs"], pinned["rp"])]) == 1


def test_margin_looser_than_pinned_counts_as_failed(tmp_path):
    plan, pinned = margin_plan_with_limit(tmp_path, limit=10.0)
    rs, rp = pinned["rs"], pinned["rp"]
    assert plan.failures([result(rs * (1 - 1e-10), rp)]) == 0  # rounding
    assert plan.failures([result(rs * 1.01, rp * 1.01)]) == 0  # tighter
    assert plan.failures([result(rs * (1 - 1e-6), rp)]) == 1
    assert plan.failures([result(rs, rp * (1 - 1e-6))]) == 1
    assert plan.failures([result(rs, rp), result(0.0, 0.0, 0.0, 10.0)]) == 0
    assert plan.failures(None) == plan.ops_per_call


def test_sweep_output_that_changes_between_calls_fails_every_point(tmp_path):
    plan = workloads.make_plan("sweep_n2_fine", 0, str(tmp_path))
    pinned = workloads.PINNED["margins"][gates.point_key(2, 8.0, 6.0, 200)]
    plan.checks._limits[gates.point_key(2, 8.0, 6.0, 200)] = 10.0
    csv = ("M,C,rs_margin,rp_margin,peak_freq_rs,peak_freq_rp\n"
           "0.0,6.0,0.0,0.0,nan,nan\n"
           f"8.0,6.0,{pinned['rs']!r},{pinned['rp']!r},3.7,3.3\n").encode()
    assert plan.failures((csv, b"{}")) == 0
    assert plan.failures((csv, b"{}")) == 0
    assert plan.failures((csv, b"{ }")) == plan.ops_per_call


def traced_calls(fn):
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        fn()
    finally:
        tr.restore()
    counts = {k: v for k, v in tr.metrics(0, 0.0).items()
              if k.endswith((".calls", ".solves", "_retries"))}
    counts.update(("span " + k, v) for k, v in tr.calls.items())
    return counts


def test_traced_call_counts_repeat_exactly(tmp_path):
    plan = short_sim_plan(tmp_path)
    freqs = default_frequency_grid(4)

    def work():
        plan.op()
        mu.margin_point(2, 8.0, 6.0, freqs=freqs, polish=False)

    first, second = traced_calls(work), traced_calls(work)
    assert first == second
    for name in ("attitude.euler_to_rotmat.calls", "ekf.predict.calls",
                 "mu.svd.calls", "analysis.full_rhs.calls"):
        assert first[name] > 0
    # the calls made through the modules were traced
    assert first["span simulate.run_scenario"] == 1
    assert first["span mu.margin_point"] == 1
    # margin_point evaluates the rest and the transport plant
    assert first["lti.freq_response.solves"] == 2 * freqs.size
    # restore put every original back
    assert not hasattr(simulate.run_scenario, "__wrapped__")
    assert not hasattr(mu.margin_point, "__wrapped__")


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(tracer_mod.Tracer().metrics(0, 0.0))
    assert names == {m["name"] for m in spec["per_layer"]}
    assert set(spec["paths"]) == {"bench"}
    assert set(workloads.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_run_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_ekf_n4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_calibrator_samples_long_calls_and_excludes_kernel_time(monkeypatch):
    import time

    samples = []
    kernel = calibration.kernel_seconds
    monkeypatch.setattr(calibration, "INTERVAL_S", 0.05)
    monkeypatch.setattr(calibration, "kernel_seconds",
                        lambda: samples.append(kernel()) or samples[-1])
    calibrator = calibration.Calibrator()

    def busy():  # runs until the kernel has been sampled twice inside it
        t0 = time.perf_counter()
        while len(samples) < 3 and time.perf_counter() - t0 < 10.0:
            pass
        return time.perf_counter() - t0

    elapsed, wall, calibrated = calibrator.call(busy)
    assert len(samples) == 4  # before, twice during, after
    assert calibrator.kernels == samples
    assert calibrator.during == samples[1:3]
    assert calibrator.between == [samples[0], samples[3]]
    assert wall < elapsed - sum(samples[1:3]) + 1e-3
    assert calibrated > 0.0


def test_calibrator_fails_a_call_that_runs_in_parallel(monkeypatch):
    import time

    calibrator = calibration.Calibrator()
    # processor time passing twice as fast as wall time: two busy threads
    monkeypatch.setattr(calibration, "cpu_seconds",
                        lambda: 2.0 * time.perf_counter())
    with pytest.raises(RuntimeError, match="parallel"):
        calibrator.call(lambda: time.sleep(0.2))
    monkeypatch.undo()
    calibrator.call(lambda: sum(range(100_000)))  # serial: passes


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_margin_fails(bad):
    assert gates.margin_failures(bad, 0.1, {"rs": 1.0, "rp": 0.1}, None)
