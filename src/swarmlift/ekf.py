"""Reduced-model external-wrench EKF.

State (18): position, velocity, Z-Y-X Euler attitude, body rate, external
force (inertial frame), external torque (body frame). The process model is
the reduced agent model: translational dynamics driven by the commanded
collective thrust rotated by the Euler attitude, and per-axis second-order
closed-loop attitude dynamics. The external wrench is a random walk. Inputs
are the attitude commands and the commanded collective thrust.

Every filter function takes an optional leading slave axis: ``x (S, 18)``,
``P (S, 18, 18)``, inputs ``u (S, 4)`` and measurements ``z (S, 6)`` run S
independent filters in one call, with the same bits as S calls on the
unstacked arrays. The process and measurement noise covariances are shared
by all slaves; each run builds them once.
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
_I = np.eye(NX)


def default_ekf_Q(rate_hz: float = 100.0) -> np.ndarray:
    """Per-step process noise covariance (diagonal) at the estimator rate.

    The force random-walk intensity is tuned so the closed-loop force
    estimate behaves as a first-order lag with a time constant of about
    0.2 s against MCS-grade measurement noise.
    """
    Ts = 1.0 / rate_hz
    return np.diag(np.concatenate([
        np.full(3, 1e-10),        # position
        np.full(3, 1e-8),         # velocity
        np.full(3, 1e-10),        # attitude
        np.full(3, 1e-8),         # rate
        np.full(3, 3.4e-3 * Ts),  # external force random walk
        np.full(3, 1.0e-4 * Ts),  # external torque random walk
    ]))


def default_ekf_R() -> np.ndarray:
    """Measurement noise covariance (diagonal) for (p, eta): MCS-grade
    millimeter position and milliradian attitude."""
    return np.diag(np.concatenate([np.full(3, 1e-6), np.full(3, 1e-6)]))


@dataclass
class EkfState:
    x: np.ndarray   # (..., 18)
    P: np.ndarray   # (..., 18, 18)

    @property
    def F_ext(self) -> np.ndarray:
        return self.x[..., F_SL]


P0_DIAG = np.concatenate([
    np.full(3, 1e-4), np.full(3, 1e-3), np.full(3, 1e-4),
    np.full(3, 1e-3), np.full(3, 1.0), np.full(3, 1e-1)])


def ekf_init(p0, v0, eta0, omega0) -> EkfState:
    """Filter state at (p0, v0, eta0, omega0); leading axes of the
    arguments give a stack of filters with the same initial covariance."""
    p0 = np.asarray(p0, dtype=float)
    x = np.zeros(p0.shape[:-1] + (NX,))
    x[..., P_SL], x[..., V_SL], x[..., ETA_SL], x[..., W_SL] = \
        p0, v0, eta0, omega0
    return EkfState(x=x, P=np.broadcast_to(np.diag(P0_DIAG),
                                           x.shape + (NX,)).copy())


def process_rhs(x, u, params: MavParams):
    """Continuous-time reduced-model state derivative: the translational
    and attitude-loop kernels of the agent plus the external torque. It
    follows the dtype of x, so it is complex-step safe.

    u = (phi_cmd, theta_cmd, psi_cmd, F_cmd), or (..., 4) for a stack.
    """
    return _rhs(x, u, euler_to_rotmat(x[..., ETA_SL]), params)


def _rhs(x, u, R, params: MavParams):
    """:func:`process_rhs` at x, whose attitude matrix is R."""
    u = np.asarray(u)
    v, eta, omega = x[..., V_SL], x[..., ETA_SL], x[..., W_SL]
    v_dot = translational_dynamics(R, v, u[..., 3], params.K_drag,
                                   x[..., F_SL], params)
    w_dot = (attitude_accel(eta, omega, u[..., :3], params.omega_n_att)
             + x[..., M_SL] / params.J)
    # the wrench is a random walk: zero drift
    return np.concatenate([v, v_dot, omega, w_dot,
                           np.zeros(np.shape(v)[:-1] + (6,))], axis=-1)


def _partial_factor_index():
    """Where each entry of the factors of the Euler partials comes from,
    for (factor z/y/x, partial k, row, col) in C order: an index into
    [cos(eta), 1, sin(eta), 0] of one eta, and a sign.

    The factor of angle a has 1 on axis a, cos on the other two diagonal
    entries and -sin, sin off them; partial a replaces it by its
    derivative, the same pattern with 0, -sin and -cos, cos.
    """
    idx = np.full((3, 3, 3, 3), 7)
    sign = np.ones((3, 3, 3, 3))
    for f, a in enumerate((2, 1, 0)):
        i, j = (a + 1) % 3, (a + 2) % 3
        for k in range(3):
            d = k == a
            idx[f, k, a, a] = 7 if d else 3
            idx[f, k, i, i] = idx[f, k, j, j] = 4 + a if d else a
            sign[f, k, i, i] = sign[f, k, j, j] = -1.0 if d else 1.0
            idx[f, k, i, j] = idx[f, k, j, i] = a if d else 4 + a
            sign[f, k, i, j] = -1.0
    return idx.ravel(), sign.ravel()


_PARTIAL_INDEX, _PARTIAL_SIGN = _partial_factor_index()


def _euler_rotmat_partials(eta):
    """dR/dphi, dR/dtheta, dR/dpsi of the Z-Y-X composition, stacked on
    axis -3: (..., 3, 3, 3). Partial k is Rz Ry Rx with the factor of
    angle k replaced by its derivative."""
    # cos and sin of a fourth angle 0 give the entries 1 and 0
    eta0 = np.concatenate([eta, np.zeros(eta.shape[:-1] + (1,))], axis=-1)
    entries = np.concatenate([np.cos(eta0), np.sin(eta0)], axis=-1)
    F = (np.take(entries, _PARTIAL_INDEX, axis=-1) * _PARTIAL_SIGN).reshape(
        eta.shape[:-1] + (3, 3, 3, 3))
    return F[..., 0, :, :, :] @ F[..., 1, :, :, :] @ F[..., 2, :, :, :]


def process_jacobian(x, u, params: MavParams):
    """Analytic Jacobian of :func:`process_rhs` (continuous time)."""
    return _jacobian(x, u, euler_to_rotmat(x[..., ETA_SL]), params)


def _jacobian(x, u, R, params: MavParams):
    """:func:`process_jacobian` at x, whose attitude matrix is R."""
    F_cmd = np.asarray(u)[..., 3]
    # matrix-vector products on a trailing unit axis: one gemv per slave,
    # as for an unstacked vector
    v, eta = x[..., V_SL, None], x[..., ETA_SL]
    RT = R.swapaxes(-1, -2)
    Kd = params.K_drag
    A = np.zeros(x.shape[:-1] + (NX, NX))
    # the constant diagonal blocks, written once for the whole stack as
    # strided views of the flat matrices; -wn^2 I and -2 wn I keep the
    # -0.0 off their diagonals that a scaled identity has
    wn = params.omega_n_att
    A[..., W_SL, ETA_SL] = A[..., W_SL, W_SL] = -0.0
    flat = A.reshape(x.shape[:-1] + (NX * NX,))
    for rows, cols, value in ((P_SL, V_SL, 1.0), (V_SL, F_SL, 1.0 / params.m),
                              (ETA_SL, W_SL, 1.0), (W_SL, ETA_SL, -wn**2),
                              (W_SL, W_SL, -2.0 * wn),
                              (W_SL, M_SL, 1.0 / params.J)):
        start = rows.start * NX + cols.start
        flat[..., start:start + 3 * (NX + 1):NX + 1] = value
    A[..., V_SL, V_SL] = -R @ np.diag(Kd) @ RT / params.m
    c = np.zeros(np.shape(v))
    c[..., 2, 0] = F_cmd
    c = c - Kd[:, None] * (RT @ v)
    # column k: (Rk c - R (K_drag * Rk^T v)) / m, for the three partials Rk
    Rk = _euler_rotmat_partials(eta)
    d = (Rk @ c[..., None, :, :]
         - R[..., None, :, :] @ (Kd[:, None] * (Rk.swapaxes(-1, -2)
                                                @ v[..., None, :, :])))
    A[..., V_SL, ETA_SL] = (d / params.m)[..., 0].swapaxes(-1, -2)
    return A


def ekf_predict(s: EkfState, u, Q, Ts: float, params: MavParams) -> EkfState:
    """Forward-Euler mean propagation with first-order covariance update;
    Q is the (18, 18) process noise covariance of :func:`default_ekf_Q`.

    A stacked state (leading slave axis S) takes inputs u (S, 4) and
    predicts every slave's filter in one call."""
    if Ts <= 0:
        raise ValueError("Ts must be positive")
    # the derivative and its Jacobian share the attitude matrix
    R = euler_to_rotmat(s.x[..., ETA_SL])
    x = s.x + Ts * _rhs(s.x, u, R, params)
    Fd = _I + Ts * _jacobian(s.x, u, R, params)
    P = Fd @ s.P @ Fd.swapaxes(-1, -2) + Q
    return EkfState(x=x, P=0.5 * (P + P.swapaxes(-1, -2)))


_H = np.zeros((NZ, NX))
_H[0:3, P_SL] = np.eye(3)
_H[3:6, ETA_SL] = np.eye(3)


def kalman_update(x, P, H, innov, R):
    """Linear Kalman update of x (..., n) and P (..., n, n) by the
    innovation innov of the measurement matrix H with noise covariance R:
    the updated state and the Joseph-form covariance, not symmetrized.
    Matrix-vector products run on a trailing unit axis, one gemv per row
    of a stack, as for an unstacked vector."""
    S = H @ P @ H.T + R
    K = np.linalg.solve(S.mT, H @ P.mT).mT
    IKH = np.eye(x.shape[-1]) - K @ H
    return (x + (K @ innov[..., None])[..., 0],
            IKH @ P @ IKH.mT + K @ R @ K.mT)


def ekf_update(s: EkfState, z, R) -> EkfState:
    """Linear measurement update on (p, eta); Joseph-form covariance. R is
    the (6, 6) measurement noise covariance of :func:`default_ekf_R`.

    A stacked state (leading slave axis S) takes measurements z (S, 6) and
    updates every slave's filter in one call."""
    z = np.asarray(z, dtype=float)
    innov = z - (_H @ s.x[..., None])[..., 0]
    # wrap angle innovations into (-pi, pi]
    innov[..., 3:6] = np.mod(innov[..., 3:6] + np.pi, 2 * np.pi) - np.pi
    x, P = kalman_update(s.x, s.P, _H, innov, R)
    return EkfState(x=x, P=0.5 * (P + P.mT))
