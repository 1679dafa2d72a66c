"""Admittance control: reference generation from estimated force.

Each slave reshapes its apparent dynamics by integrating, per axis,

    M (dd_d - dd_r) + C (d_d - d_r) + K (x_d - x_r) = -F_hat

so the reference trajectory accelerates with the estimated external force.
The controller is wrapped in the engagement FSM that debounces noisy force
estimates against the engagement/disengagement thresholds and supports
offset calibration by time-averaging the estimate while hovering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .errors import InvalidCommand
from .mav import real_array

SNAP_EPS = 1e-6  # rest threshold for freezing an inactive axis exactly


class AdmittanceMode(enum.Enum):
    DISENGAGED = "disengaged"
    IDLE = "idle"
    CALIBRATING = "calibrating"
    TRACKING = "tracking"  # engaged, every axis below threshold
    GENERATING = "generating"  # at least one axis follows the force


@dataclass(frozen=True)
class AdmittanceParams:
    M: np.ndarray = field(default_factory=lambda: np.array([8.0, 8.0, 8.0]))
    C: np.ndarray = field(default_factory=lambda: np.array([6.0, 6.0, 120.0]))
    K: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 400.0]))
    F_hi: float = 0.6
    F_lo: float = 0.3
    T_hi: float = 0.1
    T_lo: float = 0.05
    T_avg: float = 2.0

    def __post_init__(self):
        for name in ("M", "C", "K"):
            object.__setattr__(self, name,
                               real_array(name, getattr(self, name), (3,)))
        for name in ("F_hi", "F_lo", "T_hi", "T_lo", "T_avg"):
            real_array(name, getattr(self, name), ())
        if np.any(self.M <= 0) or np.any(self.C <= 0) or np.any(self.K < 0):
            raise ValueError("need M > 0, C > 0, K >= 0 per axis")
        if not self.F_hi > self.F_lo > 0:
            raise ValueError("need F_hi > F_lo > 0")
        if min(self.T_hi, self.T_lo, self.T_avg) <= 0:
            raise ValueError("FSM times must be positive")

    def lateral(self, M: float, C: float) -> "AdmittanceParams":
        """Copy with the horizontal-plane virtual mass/damping replaced."""
        return replace(self, M=np.array([M, M, self.M[2]]),
                       C=np.array([C, C, self.C[2]]))


@dataclass
class AdmittanceState:
    params: AdmittanceParams
    Lambda_d: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dLambda_d: np.ndarray = field(default_factory=lambda: np.zeros(3))
    z: np.ndarray = field(default_factory=lambda: np.zeros(3))
    zdot: np.ndarray = field(default_factory=lambda: np.zeros(3))
    mode: AdmittanceMode = AdmittanceMode.DISENGAGED
    axis_generating: np.ndarray = field(
        default_factory=lambda: np.zeros(3, dtype=bool))
    timer_above: np.ndarray = field(default_factory=lambda: np.zeros(3))
    timer_below: np.ndarray = field(default_factory=lambda: np.zeros(3))
    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    calib_sum: np.ndarray = field(default_factory=lambda: np.zeros(3))
    calib_time: float = 0.0
    t: float = 0.0
    transitions: list = field(default_factory=list)
    mode_after_calib: AdmittanceMode = AdmittanceMode.IDLE

    @property
    def Lambda_r(self) -> np.ndarray:
        return self.Lambda_d + self.z

    @property
    def dLambda_r(self) -> np.ndarray:
        return self.dLambda_d + self.zdot

    @property
    def engaged(self) -> bool:
        return self.mode is not AdmittanceMode.DISENGAGED

    def corrected(self, F_raw) -> np.ndarray:
        return np.asarray(F_raw, dtype=float) - self.offset


@lru_cache(maxsize=128)
def _zoh_axis(M: float, C: float, K: float, Ts: float):
    """Exact ZOH discretization of one admittance axis (z, zdot) <- force."""
    blk = np.array([[0.0, 1.0, 0.0],
                    [-K / M, -C / M, 1.0 / M],
                    [0.0, 0.0, 0.0]])
    E = expm(blk * Ts)
    return E[:2, :2].copy(), E[:2, 2].copy()


def engage(st: AdmittanceState, current_pose) -> AdmittanceState:
    """Latch the desired trajectory to the current position and hold."""
    st.Lambda_d = np.array(current_pose, dtype=float)
    st.dLambda_d = np.zeros(3)
    st.z = np.zeros(3)
    st.zdot = np.zeros(3)
    st.axis_generating[:] = False
    st.timer_above[:] = 0.0
    st.timer_below[:] = 0.0
    st.mode = AdmittanceMode.IDLE
    st.transitions.append((st.t, "x", None))
    return st


def fsm_step(st: AdmittanceState, F_raw, dt: float, command: str = "none",
             current_pose=None) -> AdmittanceState:
    """Advance the engagement FSM by one tick.

    Commands: engage (needs current_pose), disengage, compute_offset,
    remove_offset, none. Per-axis |F_j| must exceed the upper threshold for
    T_hi before that axis starts generating, and stay under the lower
    threshold for T_lo before it freezes again.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    p = st.params
    st.t += dt

    if command == "engage":
        if st.engaged:
            raise InvalidCommand("already engaged")
        if current_pose is None:
            raise InvalidCommand("engage requires the current pose")
        return engage(st, current_pose)
    if command == "disengage":
        if not st.engaged:
            raise InvalidCommand("not engaged")
        # hand the reference back continuously: desired <- current reference
        st.Lambda_d = st.Lambda_r.copy()
        st.dLambda_d = st.dLambda_r.copy()
        st.z = np.zeros(3)
        st.zdot = np.zeros(3)
        st.mode = AdmittanceMode.DISENGAGED
        st.axis_generating[:] = False
        st.transitions.append((st.t, "y", None))
        return st
    if command == "compute_offset":
        if st.mode in (AdmittanceMode.DISENGAGED, AdmittanceMode.CALIBRATING):
            raise InvalidCommand(f"cannot calibrate in {st.mode.value}")
        st.mode_after_calib = st.mode
        st.mode = AdmittanceMode.CALIBRATING
        st.calib_sum = np.zeros(3)
        st.calib_time = 0.0
        st.transitions.append((st.t, "b", None))
        return st
    if command == "remove_offset":
        if not st.engaged:
            raise InvalidCommand("not engaged")
        st.offset = np.zeros(3)
        st.transitions.append((st.t, "d", None))
        return st
    if command != "none":
        raise InvalidCommand(f"unknown command {command!r}")

    if st.mode is AdmittanceMode.DISENGAGED:
        return st

    F_raw = np.asarray(F_raw, dtype=float)

    if st.mode is AdmittanceMode.CALIBRATING:
        st.calib_sum = st.calib_sum + F_raw * dt
        st.calib_time += dt
        if st.calib_time >= p.T_avg - 1e-12:
            st.offset = st.calib_sum / st.calib_time
            st.mode = st.mode_after_calib
            st.transitions.append((st.t, "c", None))
        return st

    if st.mode is AdmittanceMode.IDLE:
        st.mode = AdmittanceMode.TRACKING
        st.transitions.append((st.t, "A", None))

    F = np.abs(st.corrected(F_raw))
    for j in range(3):
        st.timer_above[j] = st.timer_above[j] + dt if F[j] > p.F_hi else 0.0
        st.timer_below[j] = st.timer_below[j] + dt if F[j] < p.F_lo else 0.0
        if not st.axis_generating[j] and st.timer_above[j] >= p.T_hi - 1e-12:
            st.axis_generating[j] = True
            st.transitions.append((st.t, "w", j))
        elif st.axis_generating[j] and st.timer_below[j] >= p.T_lo - 1e-12:
            st.axis_generating[j] = False
            st.transitions.append((st.t, "v", j))
    st.mode = (AdmittanceMode.GENERATING if st.axis_generating.any()
               else AdmittanceMode.TRACKING)
    return st


def admittance_step(st: AdmittanceState, F_hat, Ts: float) -> AdmittanceState:
    """Integrate the translational admittance law by one controller tick.

    Axes above threshold integrate the offset-corrected force; axes below
    threshold integrate zero force (noise rejected) and freeze exactly once
    at rest, keeping the reference C1-continuous across FSM transitions.
    """
    if st.mode not in (AdmittanceMode.TRACKING, AdmittanceMode.GENERATING):
        return st
    p = st.params
    F = st.corrected(F_hat)
    for j in range(3):
        u = F[j] if st.axis_generating[j] else 0.0
        if not st.axis_generating[j]:
            at_rest = abs(st.zdot[j]) < SNAP_EPS and (
                p.K[j] == 0.0 or abs(st.z[j]) < SNAP_EPS)
            if at_rest:
                st.zdot[j] = 0.0
                if p.K[j] > 0.0:
                    st.z[j] = 0.0
                continue
        Ad, Bd = _zoh_axis(p.M[j], p.C[j], p.K[j], Ts)
        zj = Ad @ np.array([st.z[j], st.zdot[j]]) + Bd * u
        st.z[j], st.zdot[j] = zj
    return st
