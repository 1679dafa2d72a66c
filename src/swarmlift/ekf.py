"""Reduced-model external-wrench EKF.

State (18): position, velocity, Z-Y-X Euler attitude, body rate, external
force (inertial frame), external torque (body frame). The process model is
the reduced agent model: translational dynamics driven by the commanded
collective thrust rotated by the Euler attitude, and per-axis second-order
closed-loop attitude dynamics. The external wrench is a random walk. Inputs
are the attitude commands and the commanded collective thrust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attitude import euler_to_rotmat
from .mav import MavParams, attitude_accel, translational_dynamics

NX = 18
NZ = 6

# state slices
P_SL = slice(0, 3)
V_SL = slice(3, 6)
ETA_SL = slice(6, 9)
W_SL = slice(9, 12)
F_SL = slice(12, 15)
M_SL = slice(15, 18)


def default_ekf_Q(rate_hz: float = 100.0) -> np.ndarray:
    """Per-step process noise diag for the given estimator rate.

    The force random-walk intensity is tuned so the closed-loop force
    estimate behaves as a first-order lag with a time constant of about
    0.2 s against MCS-grade measurement noise.
    """
    Ts = 1.0 / rate_hz
    q = np.concatenate([
        np.full(3, 1e-10),        # position
        np.full(3, 1e-8),         # velocity
        np.full(3, 1e-10),        # attitude
        np.full(3, 1e-8),         # rate
        np.full(3, 3.4e-3 * Ts),  # external force random walk
        np.full(3, 1.0e-4 * Ts),  # external torque random walk
    ])
    return q


def default_ekf_R() -> np.ndarray:
    """Measurement noise diag for (p, eta): MCS-grade millimeter position
    and milliradian attitude."""
    return np.concatenate([np.full(3, 1e-6), np.full(3, 1e-6)])


@dataclass
class EkfState:
    x: np.ndarray
    P: np.ndarray

    @property
    def F_ext(self) -> np.ndarray:
        return self.x[F_SL]


P0_DIAG = np.concatenate([
    np.full(3, 1e-4), np.full(3, 1e-3), np.full(3, 1e-4),
    np.full(3, 1e-3), np.full(3, 1.0), np.full(3, 1e-1)])


def ekf_init(p0, v0, eta0, omega0) -> EkfState:
    x = np.zeros(NX)
    x[P_SL], x[V_SL], x[ETA_SL], x[W_SL] = p0, v0, eta0, omega0
    return EkfState(x=x, P=np.diag(P0_DIAG))


def process_rhs(x, u, params: MavParams):
    """Continuous-time reduced-model state derivative: the translational
    and attitude-loop kernels of the agent plus the external torque. It
    follows the dtype of x, so it is complex-step safe.

    u = (phi_cmd, theta_cmd, psi_cmd, F_cmd).
    """
    phi_c, theta_c, psi_c, F_cmd = u
    v, eta, omega = x[V_SL], x[ETA_SL], x[W_SL]
    v_dot = translational_dynamics(euler_to_rotmat(eta), v, F_cmd,
                                   params.K_drag, x[F_SL], params)
    cmd = np.array([phi_c, theta_c, psi_c])
    w_dot = (attitude_accel(eta, omega, cmd, params.omega_n_att)
             + x[M_SL] / params.J)
    # the wrench is a random walk: zero drift
    return np.concatenate([v, v_dot, omega, w_dot, np.zeros(6)])


def _euler_rotmat_partials(eta):
    """dR/dphi, dR/dtheta, dR/dpsi for the Z-Y-X composition."""
    phi, theta, psi = eta
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    Rx = np.array([[1, 0, 0], [0, cph, -sph], [0, sph, cph]])
    Ry = np.array([[cth, 0, sth], [0, 1, 0], [-sth, 0, cth]])
    Rz = np.array([[cps, -sps, 0], [sps, cps, 0], [0, 0, 1]])
    dRx = np.array([[0, 0, 0], [0, -sph, -cph], [0, cph, -sph]])
    dRy = np.array([[-sth, 0, cth], [0, 0, 0], [-cth, 0, -sth]])
    dRz = np.array([[-sps, -cps, 0], [cps, -sps, 0], [0, 0, 0]])
    return Rz @ Ry @ dRx, Rz @ dRy @ Rx, dRz @ Ry @ Rx


def process_jacobian(x, u, params: MavParams):
    """Analytic Jacobian of :func:`process_rhs` (continuous time)."""
    _, _, _, F_cmd = u
    v, eta = x[V_SL], x[ETA_SL]
    R = euler_to_rotmat(eta)
    Kd = np.diag(params.K_drag)
    A = np.zeros((NX, NX))
    A[P_SL, V_SL] = np.eye(3)
    A[V_SL, V_SL] = -R @ Kd @ R.T / params.m
    A[V_SL, F_SL] = np.eye(3) / params.m
    c = np.array([0.0, 0.0, F_cmd]) - params.K_drag * (R.T @ v)
    for k, Rk in enumerate(_euler_rotmat_partials(eta)):
        A[V_SL, 6 + k] = (Rk @ c - R @ (params.K_drag * (Rk.T @ v))) / params.m
    A[ETA_SL, W_SL] = np.eye(3)
    wn = params.omega_n_att
    A[W_SL, ETA_SL] = -wn**2 * np.eye(3)
    A[W_SL, W_SL] = -2.0 * wn * np.eye(3)
    A[W_SL, M_SL] = np.diag(1.0 / params.J)
    return A


def ekf_predict(s: EkfState, u, Q, Ts: float, params: MavParams) -> EkfState:
    """Forward-Euler mean propagation with first-order covariance update."""
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    x = s.x + Ts * process_rhs(s.x, u, params)
    Fd = np.eye(NX) + Ts * process_jacobian(s.x, u, params)
    P = Fd @ s.P @ Fd.T + np.diag(np.asarray(Q, dtype=float))
    return EkfState(x=x, P=0.5 * (P + P.T))


_H = np.zeros((NZ, NX))
_H[0:3, P_SL] = np.eye(3)
_H[3:6, ETA_SL] = np.eye(3)


def ekf_update(s: EkfState, z, R) -> EkfState:
    """Linear measurement update on (p, eta); Joseph-form covariance."""
    z = np.asarray(z, dtype=float)
    Rm = np.diag(np.asarray(R, dtype=float))
    innov = z - _H @ s.x
    # wrap angle innovations into (-pi, pi]
    innov[3:6] = np.mod(innov[3:6] + np.pi, 2 * np.pi) - np.pi
    S = _H @ s.P @ _H.T + Rm
    K = np.linalg.solve(S.T, (_H @ s.P.T)).T
    x = s.x + K @ innov
    IKH = np.eye(NX) - K @ _H
    P = IKH @ s.P @ IKH.T + K @ Rm @ K.T
    return EkfState(x=x, P=0.5 * (P + P.T))
