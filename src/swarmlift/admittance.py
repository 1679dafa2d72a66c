"""Admittance control: reference generation from estimated force.

Each slave reshapes its apparent dynamics by integrating, per axis,

    M (dd_d - dd_r) + C (d_d - d_r) + K (x_d - x_r) = -F_hat

so the reference trajectory accelerates with the estimated external force.
The controller is wrapped in the engagement FSM that debounces noisy force
estimates against the engagement/disengagement thresholds and supports
offset calibration by time-averaging the estimate while hovering.

An AdmittanceState holds one slave, or a team along the leading axes of
its Lambda_d (..., 3); each row has the bits of its own unstacked state. A
command acts on every row, so the team engages, calibrates and disengages
as one, and its rows differ only in TRACKING against GENERATING.
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


class AdmittanceMode(enum.IntEnum):
    """The FSM's modes, valued as the codes the simulation log writes."""
    DISENGAGED = 0
    IDLE = 1
    CALIBRATING = 2
    TRACKING = 3  # engaged, every axis below threshold
    GENERATING = 4  # at least one axis follows the force


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
    """A disengaged state shaped like Lambda_d. The modes are (...) arrays
    of AdmittanceMode codes; calib_time is the team's."""
    params: AdmittanceParams
    Lambda_d: np.ndarray = field(default_factory=lambda: np.zeros(3))
    dLambda_d: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)
    zdot: np.ndarray = field(init=False)
    mode: np.ndarray = field(init=False)
    axis_generating: np.ndarray = field(init=False)
    timer_above: np.ndarray = field(init=False)
    timer_below: np.ndarray = field(init=False)
    offset: np.ndarray = field(init=False)
    calib_sum: np.ndarray = field(init=False)
    calib_time: float = field(init=False, default=0.0)
    mode_after_calib: np.ndarray = field(init=False)

    def __post_init__(self):
        self.offset, self.calib_sum = np.zeros((2,) + np.shape(self.Lambda_d))
        _latch(self, self.Lambda_d, AdmittanceMode.DISENGAGED)
        self.mode_after_calib = self.mode

    @property
    def Lambda_r(self) -> np.ndarray:
        return self.Lambda_d + self.z

    @property
    def dLambda_r(self) -> np.ndarray:
        return self.dLambda_d + self.zdot

    @property
    def engaged(self) -> np.ndarray:
        return self.mode != AdmittanceMode.DISENGAGED.value

    def corrected(self, F_raw) -> np.ndarray:
        return np.asarray(F_raw, dtype=float) - self.offset


def _latch(st: AdmittanceState, pose, mode: AdmittanceMode) -> None:
    """Desired trajectory at pose, every row at rest in mode."""
    st.Lambda_d = np.array(pose, dtype=float)
    st.dLambda_d, st.z, st.zdot, st.timer_above, st.timer_below = np.zeros(
        (5,) + st.Lambda_d.shape)
    st.axis_generating = np.zeros(st.Lambda_d.shape, dtype=bool)
    st.mode = np.full(st.Lambda_d.shape[:-1], mode)


def _team_mode(st: AdmittanceState) -> int:
    """The largest row mode, as the rows differ only in TRACKING against
    GENERATING; DISENGAGED for a team of no rows."""
    return int(np.asarray(st.mode).max(
        initial=AdmittanceMode.DISENGAGED.value))


@lru_cache(maxsize=128)
def _zoh(M: bytes, C: bytes, K: bytes, Ts: float):
    """Exact ZOH discretization of the three admittance axes, (z, zdot) <-
    force, as one stack: Ad (3, 2, 2) and Bd (3, 2). M, C and K are the
    parameter arrays' bytes, which lru_cache can hash."""
    M, C, K = map(np.frombuffer, (M, C, K))
    blocks = np.zeros((3, 3, 3))  # one 3 x 3 block per axis
    blocks[:, 0, 1] = 1.0
    blocks[:, 1] = np.stack((-K / M, -C / M, 1.0 / M), axis=-1)
    E = expm(blocks * Ts)
    return E[:, :2, :2].copy(), E[:, :2, 2].copy()


def fsm_step(st: AdmittanceState, F_raw, dt: float, command: str = "none",
             current_pose=None) -> AdmittanceState:
    """Advance the engagement FSM by one tick, in place.

    Commands: engage (needs current_pose), disengage, compute_offset,
    remove_offset, none. A command acts on every row: engage needs no row
    engaged, disengage and remove_offset every row engaged, compute_offset
    every row engaged and none calibrating. Per-axis |F_j| must exceed the
    upper threshold for T_hi before that axis starts generating, and stay
    under the lower threshold for T_lo before it freezes again.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    p = st.params
    if command == "engage":
        if st.engaged.any():
            raise InvalidCommand("already engaged")
        if current_pose is None:
            raise InvalidCommand("engage requires the current pose")
        # latch the desired trajectory to the current position and hold
        _latch(st, current_pose, AdmittanceMode.IDLE)
        return st
    if command != "none":
        if command not in ("disengage", "compute_offset", "remove_offset"):
            raise InvalidCommand(f"unknown command {command!r}")
        if not st.engaged.all():
            raise InvalidCommand("not engaged")
        if command == "disengage":
            # hand the reference back continuously: desired <- reference
            st.Lambda_d, st.dLambda_d = st.Lambda_r, st.dLambda_r
            st.z, st.zdot = np.zeros_like(st.z), np.zeros_like(st.zdot)
            st.axis_generating = np.zeros_like(st.axis_generating)
            st.mode = np.full_like(st.mode, AdmittanceMode.DISENGAGED)
        elif command == "compute_offset":
            if (st.mode == AdmittanceMode.CALIBRATING).any():
                raise InvalidCommand("already calibrating")
            st.mode_after_calib = st.mode
            st.mode = np.full_like(st.mode, AdmittanceMode.CALIBRATING)
            st.calib_sum = np.zeros_like(st.calib_sum)
            st.calib_time = 0.0
        else:
            st.offset = np.zeros_like(st.offset)
        return st

    team = _team_mode(st)
    if team == AdmittanceMode.DISENGAGED:
        return st
    if team == AdmittanceMode.CALIBRATING:
        st.calib_sum = st.calib_sum + np.asarray(F_raw, dtype=float) * dt
        st.calib_time += dt
        if st.calib_time >= p.T_avg - 1e-12:
            st.offset = st.calib_sum / st.calib_time
            st.mode = st.mode_after_calib
        return st

    # engaged: an idle team starts tracking
    F = np.abs(st.corrected(F_raw))
    st.timer_above = np.where(F > p.F_hi, st.timer_above + dt, 0.0)
    st.timer_below = np.where(F < p.F_lo, st.timer_below + dt, 0.0)
    st.axis_generating = np.where(st.axis_generating,
                                  st.timer_below < p.T_lo - 1e-12,
                                  st.timer_above >= p.T_hi - 1e-12)
    # the codes as plain ints: numpy converts an enum member slowly
    st.mode = np.where(st.axis_generating.any(axis=-1),
                       AdmittanceMode.GENERATING.value,
                       AdmittanceMode.TRACKING.value)
    return st


def admittance_step(st: AdmittanceState, F_hat, Ts: float) -> AdmittanceState:
    """Integrate the translational admittance law by one controller tick, in
    place.

    Axes above threshold integrate the offset-corrected force; axes below
    threshold integrate zero force (noise rejected) and freeze exactly once
    at rest, keeping the reference C1-continuous across FSM transitions.
    """
    if _team_mode(st) < AdmittanceMode.TRACKING:
        return st
    p, gen = st.params, st.axis_generating
    Ad, Bd = _zoh(p.M.tobytes(), p.C.tobytes(), p.K.tobytes(), Ts)
    # each axis's 2 x 2 block times its (z, zdot) column, as one matmul
    zz = np.concatenate((st.z[..., None, None], st.zdot[..., None, None]),
                        axis=-2)
    zz = (Ad @ zz)[..., 0] + Bd * np.where(gen, st.corrected(F_hat),
                                           0.0)[..., None]
    # an idle axis at rest stops: zdot, and z on a spring axis, snap to 0
    spring = p.K > 0.0
    rest = (~gen & (np.abs(st.zdot) < SNAP_EPS)
            & (~spring | (np.abs(st.z) < SNAP_EPS)))
    st.z = np.where(rest, np.where(spring, 0.0, st.z), zz[..., 0])
    st.zdot = np.where(rest, 0.0, zz[..., 1])
    return st
