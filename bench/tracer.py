"""Per-layer tracing from outside the package.

While a ``Tracer`` is installed, the public swarmlift functions on the hot
paths are replaced, wherever a module binds them, by wrappers that record
wall time, self time (minus wrapped callees) and call counts. Nothing inside
``src/swarmlift`` is changed; ``restore`` puts the originals back. Code
outside the package sees the wrappers when it calls through the module
(``mu.margin_point(...)``), as the benchmark's workloads do.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import calibration
from swarmlift import (
    admittance,
    analysis,
    attitude,
    ekf,
    lti,
    mav,
    mu,
    scenario,
    simulate,
    sweep,
    ukf,
)

# (span name, owner, attribute). Several attributes may share a span.
SPANS = [
    ("simulate.run_scenario", simulate, "run_scenario"),
    ("attitude.euler_to_rotmat", attitude, "euler_to_rotmat"),
    ("attitude.quat_to_rotmat", attitude, "quat_to_rotmat"),
    ("ekf.predict", ekf, "ekf_predict"),
    ("ekf.update", ekf, "ekf_update"),
    ("ukf.predict", ukf, "ukf_predict"),
    ("ukf.update", ukf, "ukf_update"),
    ("ukf.sigma_points", ukf, "sigma_points"),
    ("admittance.fsm_step", admittance, "fsm_step"),
    ("admittance.step", admittance, "admittance_step"),
    ("mav.control", mav, "pd_position_control"),
    ("mav.control", mav, "thrust_to_attitude"),
    ("mav.control", mav, "rotor_speeds_from_wrench"),
    ("analysis.build_closed_loop", analysis, "build_closed_loop"),
    ("analysis.linearize", analysis, "linearize"),
    ("analysis.preroll", analysis, "preroll_transport"),
    ("analysis.full_rhs", analysis, "full_rhs"),
    ("analysis.cs_jacobian", analysis, "complex_step_jacobian"),
    ("analysis.margin_plant", analysis, "margin_plant"),
    ("lti.freq_response", lti.LinearSystem, "freq_response"),
    # margins and margin_point are spans only so that grid_sweep's self
    # time is its output path (sweep.write_s)
    ("mu.margins", mu, "margins"),
    ("mu.margin_point", mu, "margin_point"),
    ("mu.ssv", mu, "ssv_upper_bound"),
    ("mu.assemble_n_delta", mu, "assemble_n_delta"),
    ("sweep.grid_sweep", sweep, "grid_sweep"),
    ("scenario.load", scenario, "scenario_from_dict"),
]

# numpy calls counted only while inside the given span:
# (counter name, owner, attribute, enclosing span)
COUNTERS = [
    ("mu.svd", np.linalg, "svd", "mu.ssv"),
    ("ukf.cholesky", np.linalg, "cholesky", "ukf.sigma_points"),
]


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = Counter()
        self.units = Counter()
        self.depth = Counter()
        self.ssv_calls = []  # (G, structure, polished bound) per polish call
        self._stack = []
        self._patches = []

    # ----------------------------------------------------------- patching
    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.startswith("swarmlift")]
        for span, owner, attr in SPANS:
            original = getattr(owner, attr)
            wrapper = self._span(span, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        self._set(mod, name, wrapper)
        for counter, owner, attr, inside in COUNTERS:
            self._set(owner, attr, self._counter(counter, inside,
                                                 getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span(self, name, fn):
        count_solves = name == "lti.freq_response"
        capture = name == "mu.ssv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self.depth[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.depth[name] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.total[name] += dt
                self.child[name] += frame[0]
                self.calls[name] += 1
            if count_solves:
                w = args[1] if len(args) > 1 else kwargs["w"]
                self.units[name] += int(np.size(w))
            if capture and kwargs.get("polish", True):
                self.ssv_calls.append((args[0], args[1], out))
            return out

        return wrapper

    def _counter(self, name, inside, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth[inside]:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ metrics
    def self_time(self, name) -> float:
        return self.total[name] - self.child[name]

    def metrics(self, csv_bytes: int, overhead: float,
                scale: float = 1.0) -> dict:
        """Per-layer metrics of the traced call. Every ``_s`` value is
        multiplied by ``scale``, the calibration factor of the traced call
        (NOMINAL_S / kernel seconds around it). Call after ``restore``: the
        balance-only bound is re-run, untraced, on the matrices the
        polished calls received, and calibrated by its own kernel samples."""
        balance_s, tightening = self._balance_rerun()
        t, c = self.total, self.calls
        values = {
            "simulate.run_scenario_s": t["simulate.run_scenario"],
            "simulate.self_s": self.self_time("simulate.run_scenario"),
            "attitude.euler_to_rotmat.calls": c["attitude.euler_to_rotmat"],
            "attitude.euler_to_rotmat_s": t["attitude.euler_to_rotmat"],
            "attitude.quat_to_rotmat.calls": c["attitude.quat_to_rotmat"],
            "attitude.quat_to_rotmat_s": t["attitude.quat_to_rotmat"],
            "ekf.predict.calls": c["ekf.predict"],
            "ekf.predict_s": t["ekf.predict"],
            "ekf.update_s": t["ekf.update"],
            "ukf.predict.calls": c["ukf.predict"],
            "ukf.predict_s": t["ukf.predict"],
            "ukf.update_s": t["ukf.update"],
            "ukf.cholesky_retries": c["ukf.cholesky"] - c["ukf.sigma_points"],
            "admittance.fsm_step_s": t["admittance.fsm_step"],
            "admittance.step_s": t["admittance.step"],
            "admittance.step.calls": c["admittance.step"],
            "mav.control_s": t["mav.control"],
            "mav.control.calls": c["mav.control"],
            "analysis.build_closed_loop_s": t["analysis.build_closed_loop"],
            "analysis.linearize_s": t["analysis.linearize"],
            "analysis.preroll_s": t["analysis.preroll"],
            "analysis.full_rhs.calls": c["analysis.full_rhs"],
            "analysis.cs_jacobian_s": t["analysis.cs_jacobian"],
            "analysis.margin_plant_s": t["analysis.margin_plant"],
            "lti.freq_response_s": t["lti.freq_response"],
            "lti.freq_response.solves": self.units["lti.freq_response"],
            "mu.ssv_s": t["mu.ssv"],
            "mu.ssv.calls": c["mu.ssv"],
            "mu.svd.calls": c["mu.svd"],
            "mu.polish_tightening": (statistics.fmean(tightening)
                                     if tightening else 0.0),
            "mu.assemble_n_delta_s": t["mu.assemble_n_delta"],
            "sweep.write_s": self.self_time("sweep.grid_sweep"),
            "sweep.csv_bytes": csv_bytes,
            "scenario.load_s": t["scenario.load"],
            "trace.overhead": overhead,
        }
        values = {k: v * scale if k.endswith("_s") else v
                  for k, v in values.items()}
        values["mu.ssv_balance_s"] = balance_s
        # Not clamped: a negative value means the two calibrations disagree.
        values["mu.ssv_polish_s"] = values["mu.ssv_s"] - balance_s
        return values

    def _balance_rerun(self):
        """Calibrated seconds of the balance-only bound on the captured
        matrices, and each call's 1 - polished peak / balanced peak."""
        if not self.ssv_calls:
            return 0.0, []
        tightening = []
        before = calibration.kernel_seconds()
        t0 = time.perf_counter()
        for G, structure, polished in self.ssv_calls:
            balanced = mu.ssv_upper_bound(G, structure, polish=False)
            tightening.append(1.0 - np.max(polished) / np.max(balanced))
        wall = time.perf_counter() - t0
        kernel = 0.5 * (before + calibration.kernel_seconds())
        return calibration.NOMINAL_S * wall / kernel, tightening
