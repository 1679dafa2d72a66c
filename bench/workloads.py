"""The benchmark's workloads.

Each workload turns a seed into inputs for swarmlift's public API and
returns a plan: ``op()`` performs one timed call, ``failures(output)``
checks its output outside the timed region. The program itself only ever
receives the generated scenario dict or tuning grid.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from swarmlift import analysis, mu, scenario, simulate, sweep
from swarmlift.uncertainty import performance_weight

import gates

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())

# The seed the pinned simulation digests were recorded with.
DEFAULT_SEED = 0

# Simulated seconds per run_scenario call. The master's velocity ramp and
# step drive the slaves' admittance FSMs into GENERATING (all of them for
# the seeds tried; the gate asks for at least one).
SIM_DURATION = 2.0
SIM_EVENTS = [
    {"t": 0.2, "action": "master_velocity", "v": [0.4, 0.3, 0.0]},
    {"t": 0.6, "action": "master_step", "dp": [0.2, -0.2, 0.0]},
]
SIM_NOISE = {"p": 0.01, "v": 0.02, "att": 0.005, "rate": 0.01}

WORKLOADS = {
    "sim_ekf_n4": {"kind": "sim", "n_agents": 4, "estimator": "ekf",
                   "thrust_model": "attitude"},
    "sim_ukf_n8_lag": {"kind": "sim", "n_agents": 8, "estimator": "ukf",
                       "thrust_model": "lag"},
    # The default tuning (8, 6) would add another ~12 s call; it is left
    # out so that all runs of all workloads fit the benchmark's time budget.
    "margin_n3": {"kind": "margin", "n_agents": 3, "n_freqs": 80,
                  "points": [(4.0, 12.0), (0.0, 10.0)]},
    "sweep_n2_fine": {"kind": "sweep", "n_agents": 2, "n_freqs": 200,
                      "M": [0.0, 8.0], "C": [6.0]},
}


def sim_config(spec: dict, seed: int) -> dict:
    """The scenario dict of a simulation workload; the seed drives the
    sensor noise."""
    return {
        "n_agents": spec["n_agents"],
        "duration": SIM_DURATION,
        "estimator": spec["estimator"],
        "thrust_model": spec["thrust_model"],
        "rates": {"Ts_dyn": 1e-3, "controller": 100.0, "estimator": 100.0},
        "seed": seed,
        "noise": dict(SIM_NOISE),
        "events": [dict(ev) for ev in SIM_EVENTS],
    }


class SimPlan:
    """One operation is one run_scenario call."""

    ops_per_call = 1
    min_calls = 2  # determinism is checked between calls of one run

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.scenario = scenario.scenario_from_dict(sim_config(spec, seed))
        self.expected_digest = (PINNED["sim_payload_sha256"][name]
                                if seed == DEFAULT_SEED else None)
        self.first_digest = None

    def op(self):
        return simulate.run_scenario(self.scenario)

    def failures(self, log) -> int:
        if log is None:
            return 1
        reasons = gates.sim_failures(log, self.expected_digest,
                                     self.first_digest)
        if self.first_digest is None:
            self.first_digest = gates.payload_digest(log)
        return int(gates.report(self.name, reasons) > 0)

    def describe(self, wall_per_call: float) -> list[str]:
        return [f"sim_rtf {SIM_DURATION / wall_per_call:.6g} x "
                f"(simulated s per wall s, {SIM_DURATION} s per run)"]


def rs_limit(n_agents: int, M: float, C: float, freqs, blocks,
             perf_weight) -> float:
    """1 / max over frequency and both operating points of the spectral
    radius of G11: a valid robust-stability margin can never exceed it."""
    cfg = analysis.AnalysisConfig(n_agents=n_agents, tuning_M=M, tuning_C=C)
    rho = 0.0
    for plant in (analysis.build_closed_loop(cfg),
                  analysis.linearize(cfg, "transport")):
        N, structure = mu.assemble_n_delta(
            analysis.margin_plant(plant)[0], blocks, perf_weight)
        G11, _ = mu.rs_partition(N.freq_response(freqs), structure)
        rho = max(rho, float(np.max(np.abs(np.linalg.eigvals(G11)))))
    return 1.0 / rho


def margin_point_line(wall_per_call: float, points: int) -> str:
    return (f"margin_point_s {wall_per_call / points:.6g} s "
            f"(wall s per tuning point, {points} points)")


class _MarginChecks:
    """Per-point margin gates with the 1/rho limit computed once per point."""

    def __init__(self, n_agents: int, n_freqs: int, freqs, blocks,
                 perf_weight):
        self.n_agents, self.n_freqs = n_agents, n_freqs
        self.freqs, self.blocks, self.perf_weight = freqs, blocks, perf_weight
        self._limits = {}

    def point_reasons(self, M, C, rs, rp, nominal_stable) -> list[str]:
        key = gates.point_key(self.n_agents, M, C, self.n_freqs)
        pinned = PINNED["margins"][key]
        limit = None
        if nominal_stable and rs > 0.0:
            if key not in self._limits:
                self._limits[key] = rs_limit(self.n_agents, M, C, self.freqs,
                                             self.blocks, self.perf_weight)
            limit = self._limits[key]
        return [f"{key}: {r}" for r in
                gates.margin_failures(rs, rp, pinned, limit)]


class MarginPlan:
    """One call is a pass over the tuning points in a seeded order; each
    point is one operation."""

    min_calls = 1  # each point is checked against its pinned margins

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.n_agents = spec["n_agents"]
        order = np.random.default_rng(seed).permutation(len(spec["points"]))
        self.points = [spec["points"][i] for i in order]
        self.ops_per_call = len(self.points)
        self.freqs = mu.default_frequency_grid(spec["n_freqs"])
        self.blocks = mu.default_blocks(self.n_agents)
        self.perf_weight = performance_weight()
        self.checks = _MarginChecks(self.n_agents, spec["n_freqs"],
                                    self.freqs, self.blocks, self.perf_weight)

    def op(self):
        return [mu.margin_point(self.n_agents, M, C, freqs=self.freqs,
                             blocks=self.blocks, perf_weight=self.perf_weight,
                             polish=True)
                for (M, C) in self.points]

    def failures(self, results) -> int:
        if results is None:
            return self.ops_per_call
        failed = 0
        for r in results:
            failed += gates.report(self.name, self.checks.point_reasons(
                r.M, r.C, r.rs_margin, r.rp_margin, r.nominal_stable)) > 0
        return failed

    def describe(self, wall_per_call: float) -> list[str]:
        return [margin_point_line(wall_per_call, self.ops_per_call)]


class SweepPlan:
    """One call is a grid_sweep writing its CSV and manifest; each grid
    point is one operation. The grid has no random part, so the seed does
    not change it."""

    min_calls = 2  # byte-identical output is checked between calls

    def __init__(self, name: str, spec: dict, seed: int, out_dir: str):
        self.name = name
        self.n_agents = spec["n_agents"]
        self.n_freqs = spec["n_freqs"]
        self.grid = mu.TuningGrid(M_values=np.array(spec["M"]),
                               C_values=np.array(spec["C"]))
        self.ops_per_call = len(self.grid.points())
        self.out_dir = out_dir
        freqs = mu.default_frequency_grid(self.n_freqs)
        self.checks = _MarginChecks(self.n_agents, self.n_freqs, freqs,
                                    mu.default_blocks(self.n_agents),
                                    performance_weight())
        self.first_output = None

    def op(self):
        csv_path = sweep.grid_sweep(self.n_agents, self.grid, self.out_dir,
                              n_freqs=self.n_freqs, n_jobs=1)
        manifest = csv_path[:-len(".csv")] + "_manifest.json"
        return Path(csv_path).read_bytes(), Path(manifest).read_bytes()

    def failures(self, output) -> int:
        if output is None:
            return self.ops_per_call
        values = gates.margin_csv_values(output[0])
        if self.first_output is None:
            self.first_output = output
        if output != self.first_output or len(values) != self.ops_per_call:
            gates.report(self.name, ["CSV or manifest differs between calls"])
            return self.ops_per_call
        failed = 0
        for (M, C), (rs, rp) in zip(self.grid.points(), values):
            failed += gates.report(self.name, self.checks.point_reasons(
                M, C, rs, rp, rs > 0.0)) > 0
        return failed

    def describe(self, wall_per_call: float) -> list[str]:
        return [margin_point_line(wall_per_call, self.ops_per_call),
                f"output sha256 {self._output_digest()}"]

    def _output_digest(self) -> str:
        if self.first_output is None:
            return "none"
        return hashlib.sha256(b"".join(self.first_output)).hexdigest()[:16]


def make_plan(name: str, seed: int, out_dir: str):
    spec = WORKLOADS[name]
    if spec["kind"] == "sim":
        return SimPlan(name, spec, seed)
    if spec["kind"] == "margin":
        return MarginPlan(name, spec, seed)
    return SweepPlan(name, spec, seed, out_dir)
