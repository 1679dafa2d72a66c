"""Full-model external-wrench UKF with quaternion attitude.

The filter follows the unscented-quaternion-estimator construction: the
16-state error vector carries a 3-component attitude error that maps to and
from the attitude quaternion through Modified Rodrigues Parameters, and the
covariance receives a correction whenever the attitude error mean is folded
back into the reference quaternion. The sigma points take lambda = 0: the
mean and the covariance share the weights 0 (center) and 1 / 2n (others).

State layout of the error vector xi (16):
    [p(3), v(3), eps(3), omega(3), F_ext(3), M_ext_z(1)]
propagated alongside the reference unit quaternion. Only the torque about
body z is estimated. The filter input is the measured rotor speed vector.

Every filter function takes an optional leading slave axis: ``xi (S, 16)``,
``P (S, 16, 16)``, ``q (S, 4)``, rotor speeds ``(S, rotor_count)`` and
measurements ``(S, 3)`` / ``(S, 4)`` run S independent filters in one call,
with the same bits as S calls on the unstacked arrays. The process and
measurement noise covariances are shared by all slaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attitude as att
from .ekf import kalman_update
from .errors import CholeskyFailure
from .mav import G_EZ, MavParams, allocate_wrench, rotational_dynamics

NXI = 16
NZ = 12

P_SL = slice(0, 3)
V_SL = slice(3, 6)
E_SL = slice(6, 9)
W_SL = slice(9, 12)
F_SL = slice(12, 15)
MZ_IDX = 15

LAM = 0.0  # sigma-point scaling lambda
WEIGHTS = np.full(2 * NXI + 1, 1.0 / (2.0 * (NXI + LAM)))
WEIGHTS[0] = LAM / (NXI + LAM)


def default_ukf_Q(rate_hz: float = 100.0) -> np.ndarray:
    """Per-step process noise covariance, diagonal, force random walk tuned
    for a ~0.2 s closed-loop estimate lag (velocity is directly measured
    here, so the intensity differs from the reduced-model filter)."""
    Ts = 1.0 / rate_hz
    return np.diag(np.concatenate([
        np.full(3, 1e-10),
        np.full(3, 1e-8),
        np.full(3, 1e-10),
        np.full(3, 1e-8),
        np.full(3, 7.0e-4 * Ts),
        [1.0e-4 * Ts],
    ]))


def default_ukf_R() -> np.ndarray:
    """(p, v, eps, omega) measurement noise covariance (diagonal)."""
    return np.diag(np.concatenate([np.full(3, 1e-6), np.full(3, 4e-6),
                                   np.full(3, 1e-6), np.full(3, 4e-6)]))


@dataclass
class UkfState:
    xi: np.ndarray   # (..., 16) with eps folded to zero after every step
    P: np.ndarray    # (..., 16, 16)
    q: np.ndarray    # (..., 4) reference attitude quaternion

    @property
    def F_ext(self) -> np.ndarray:
        return self.xi[..., F_SL]


def ukf_init(p0, v0, q0, omega0, P0_diag=None) -> UkfState:
    """Filter state at (p0, v0, q0, omega0); leading axes of the arguments
    give a stack of filters with the same initial covariance."""
    p0 = np.asarray(p0, dtype=float)
    xi = np.zeros(p0.shape[:-1] + (NXI,))
    xi[..., P_SL], xi[..., V_SL], xi[..., W_SL] = p0, v0, omega0
    if P0_diag is None:
        P0_diag = np.concatenate([
            np.full(3, 1e-4), np.full(3, 1e-3), np.full(3, 1e-4),
            np.full(3, 1e-3), np.full(3, 1.0), [1e-1]])
    P = np.diag(np.asarray(P0_diag, dtype=float))
    return UkfState(xi=xi, P=np.broadcast_to(P, xi.shape + (NXI,)).copy(),
                    q=np.broadcast_to(np.asarray(q0, dtype=float),
                                      xi.shape[:-1] + (4,)).copy())


def _cholesky(A):
    """Lower Cholesky factor of each matrix of the stack A. If the stack
    fails, each matrix is retried alone, so only a non-PSD one gets the
    jitter retry (1e-9 I); a second failure raises CholeskyFailure."""
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if A.ndim > 2:
            return np.stack([_cholesky(a) for a in A])
        try:
            return np.linalg.cholesky(A + 1e-9 * np.eye(A.shape[-1]))
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure("covariance not PSD after jitter") from exc


def sigma_points(xi_hat, P):
    """2n+1 points: the mean plus +-columns of the scaled Cholesky factor,
    shape (..., 2n+1, n).

    A non-PSD covariance gets one jitter retry (1e-9 I); a second failure
    raises CholeskyFailure.
    """
    n = xi_hat.shape[-1]
    L_T = _cholesky((LAM + n) * P).swapaxes(-1, -2)
    mean = xi_hat[..., None, :]
    pts = np.empty(xi_hat.shape[:-1] + (2 * n + 1, n))
    pts[..., 0, :] = xi_hat
    pts[..., 1:n + 1, :] = mean + L_T
    pts[..., n + 1:, :] = mean - L_T
    return pts


def _canonical(q):
    """Flip sign so the scalar part is non-negative (error < pi branch)."""
    s = np.where(q[..., 3:4] < 0.0, -1.0, 1.0)
    return q * s


def propagate_full(p, v, q, omega, F_ext, M_z, n_rotors, params: MavParams,
                   Ts: float):
    """One forward-Euler step of the full model for a batch of states; the
    quaternion uses the exact constant-rate propagator. The leading axes of
    n_rotors (..., rotor_count) match the leading axes of the states, which
    may carry more axes after them."""
    w = allocate_wrench(n_rotors, params)
    # unit axes broadcast each rotor row over the axes that its state has
    # beyond the rows' own (the sigma points)
    shape = np.shape(w.F_prop) + (1,) * (np.ndim(p) - np.ndim(n_rotors))
    F_prop = np.reshape(w.F_prop, shape)
    M_prop = np.reshape(w.M_prop, shape + (3,))
    d = params.k_drag * np.reshape(np.square(n_rotors).sum(axis=-1), shape)
    R = att.quat_to_rotmat(q)
    v_body = np.einsum("...ji,...j->...i", R, v)
    f_body = np.stack([
        -d * v_body[..., 0], -d * v_body[..., 1],
        np.broadcast_to(F_prop, v_body.shape[:-1])], axis=-1)
    v_dot = (np.einsum("...ij,...j->...i", R, f_body) + F_ext) / params.m \
        - G_EZ
    M_ext = np.zeros(omega.shape)
    M_ext[..., 2] = M_z
    w_dot = rotational_dynamics(omega, M_prop, M_ext, params.J)
    return (p + Ts * v, v + Ts * v_dot, att.quat_integrate(q, omega, Ts),
            omega + Ts * w_dot, F_ext, M_z)


def _reset_matrix(eps, dq):
    """Covariance correction for folding the attitude-error mean into the
    reference quaternion: diag(I6, R(half rotation of eps), I7), one per
    row of eps (..., 3) and of its quaternion dq = mrp_to_quat(eps)."""
    angle = att.quat_rotation_angle(dq)
    vn = att.row_norms(dq[..., :3])[..., None]
    axis = np.where(vn > 0.0, dq[..., :3] / np.where(vn > 0.0, vn, 1.0),
                    np.array([1.0, 0.0, 0.0]))
    rot = att.rotvec_to_rotmat(axis * (0.5 * angle)[..., None])
    T = np.broadcast_to(np.eye(NXI), eps.shape[:-1] + (NXI, NXI)).copy()
    # eps = 0 keeps the exact identity block
    moved = (att.row_norms(eps) > 0.0)[..., None, None]
    T[..., E_SL, E_SL] = np.where(moved, rot, np.eye(3))
    return T


def _fold(xi, P, q) -> UkfState:
    """Fold the attitude-error mean of xi, zeroed in place, into the
    reference quaternion q, and reset the covariance P to match."""
    eps = xi[..., E_SL].copy()
    dq = att.mrp_to_quat(eps)
    T = _reset_matrix(eps, dq)
    P = T @ P @ T.mT
    xi[..., E_SL] = 0.0
    return UkfState(xi=xi, P=0.5 * (P + P.mT), q=att.quat_multiply(dq, q))


def ukf_predict(s: UkfState, n_rotors, Q, params: MavParams,
                Ts: float) -> UkfState:
    """Sigma-point prediction with quaternion inflation/deflation via MRPs
    and the attitude-reset covariance correction. Q is the (16, 16) process
    noise covariance of :func:`default_ukf_Q`.

    A stacked state (leading slave axis S) takes rotor speeds
    (S, rotor_count) and predicts every slave's filter in one call."""
    X = sigma_points(s.xi, s.P)
    dq = att.mrp_to_quat(X[..., E_SL])
    q_pts = att.quat_multiply(dq, s.q[..., None, :])
    p2, v2, q2, w2, F2, M2 = propagate_full(
        X[..., P_SL], X[..., V_SL], q_pts, X[..., W_SL], X[..., F_SL],
        X[..., MZ_IDX], n_rotors, params, Ts)
    q_pred = q2[..., 0, :]
    dq2 = _canonical(att.quat_multiply(q2,
                                       att.quat_inverse(q_pred)[..., None, :]))
    eps2 = att.quat_to_mrp(dq2)
    Xp = np.concatenate([p2, v2, eps2, w2, F2, M2[..., None]], axis=-1)
    xi_mean = WEIGHTS @ Xp
    dev = Xp - xi_mean[..., None, :]
    return _fold(xi_mean, dev.mT @ (WEIGHTS[:, None] * dev) + Q, q_pred)


_H = np.hstack([np.eye(NZ), np.zeros((NZ, NXI - NZ))])


def measurement_error_vector(q_meas, q_ref):
    """Attitude measurement mapped into error space relative to q_ref."""
    dq = _canonical(att.quat_multiply(q_meas, att.quat_inverse(q_ref)))
    return att.quat_to_mrp(dq)


def ukf_update(s: UkfState, p_meas, v_meas, q_meas, omega_meas,
               R) -> UkfState:
    """Linear Kalman update on (p, v, eps, omega) followed by the attitude
    commit and its covariance reset. R is the (12, 12) measurement noise
    covariance of :func:`default_ukf_R`.

    A stacked state (leading slave axis S) takes measurements (S, 3) and
    quaternions (S, 4) and updates every slave's filter in one call."""
    eps_m = measurement_error_vector(np.asarray(q_meas, dtype=float), s.q)
    z = np.concatenate([p_meas, v_meas, eps_m, omega_meas], axis=-1)
    innov = z - (_H @ s.xi[..., None])[..., 0]
    return _fold(*kalman_update(s.xi, s.P, _H, innov, R), s.q)

