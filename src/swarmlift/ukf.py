"""Full-model external-wrench UKF with quaternion attitude.

The filter follows the unscented-quaternion-estimator construction: the
16-state error vector carries a 3-component attitude error that maps to and
from the attitude quaternion through Modified Rodrigues Parameters, and the
covariance receives a correction whenever the attitude error mean is folded
back into the reference quaternion.

State layout of the error vector xi (16):
    [p(3), v(3), eps(3), omega(3), F_ext(3), M_ext_z(1)]
propagated alongside the reference unit quaternion. Only the torque about
body z is estimated. The filter input is the measured rotor speed vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attitude as att
from .attitude import DEFAULT_MRP, MrpConfig
from .errors import CholeskyFailure
from .mav import EZ, GRAVITY, MavParams, allocate_wrench, rotational_dynamics

NXI = 16
NZ = 12

P_SL = slice(0, 3)
V_SL = slice(3, 6)
E_SL = slice(6, 9)
W_SL = slice(9, 12)
F_SL = slice(12, 15)
MZ_IDX = 15


@dataclass
class UkfConfig:
    lam: float = 0.0
    mrp: MrpConfig = DEFAULT_MRP

    def weights(self, n: int = NXI):
        w = np.full(2 * n + 1, 1.0 / (2.0 * (n + self.lam)))
        w[0] = self.lam / (n + self.lam)
        return w, w.copy()  # mean and covariance weights coincide


def default_ukf_Q(rate_hz: float = 100.0) -> np.ndarray:
    """Per-step process noise diag, force random walk tuned for a ~0.2 s
    closed-loop estimate lag (velocity is directly measured here, so the
    intensity differs from the reduced-model filter)."""
    Ts = 1.0 / rate_hz
    return np.concatenate([
        np.full(3, 1e-10),
        np.full(3, 1e-8),
        np.full(3, 1e-10),
        np.full(3, 1e-8),
        np.full(3, 7.0e-4 * Ts),
        [1.0e-4 * Ts],
    ])


def default_ukf_R() -> np.ndarray:
    """(p, v, eps, omega) measurement noise diag."""
    return np.concatenate([
        np.full(3, 1e-6), np.full(3, 4e-6), np.full(3, 1e-6), np.full(3, 4e-6)])


@dataclass
class UkfState:
    xi: np.ndarray   # (16,) with eps folded to zero after every step
    P: np.ndarray    # (16, 16)
    q: np.ndarray    # reference attitude quaternion

    @property
    def F_ext(self) -> np.ndarray:
        return self.xi[F_SL]

    @property
    def M_ext_z(self) -> float:
        return float(self.xi[MZ_IDX])


def ukf_init(p0, v0, q0, omega0, P0_diag=None) -> UkfState:
    xi = np.zeros(NXI)
    xi[P_SL], xi[V_SL], xi[W_SL] = p0, v0, omega0
    if P0_diag is None:
        P0_diag = np.concatenate([
            np.full(3, 1e-4), np.full(3, 1e-3), np.full(3, 1e-4),
            np.full(3, 1e-3), np.full(3, 1.0), [1e-1]])
    return UkfState(xi=xi, P=np.diag(np.asarray(P0_diag, dtype=float)),
                    q=np.asarray(q0, dtype=float))


def sigma_points(xi_hat, P, cfg: UkfConfig):
    """2n+1 points: the mean plus +-columns of the scaled Cholesky factor.

    A non-PSD covariance gets one jitter retry (1e-9 I); a second failure
    raises CholeskyFailure.
    """
    n = xi_hat.shape[0]
    scaled = (cfg.lam + n) * P
    try:
        L = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        try:
            L = np.linalg.cholesky(scaled + 1e-9 * np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise CholeskyFailure("covariance not PSD after jitter") from exc
    pts = np.empty((2 * n + 1, n))
    pts[0] = xi_hat
    pts[1:n + 1] = xi_hat[None, :] + L.T
    pts[n + 1:] = xi_hat[None, :] - L.T
    return pts


def _canonical(q):
    """Flip sign so the scalar part is non-negative (error < pi branch)."""
    s = np.where(q[..., 3:4] < 0.0, -1.0, 1.0)
    return q * s


def propagate_full(p, v, q, omega, F_ext, M_z, n_rotors, params: MavParams,
                   Ts: float):
    """One forward-Euler step of the full model for a batch of states; the
    quaternion uses the exact constant-rate propagator."""
    w = allocate_wrench(n_rotors, params)
    R = att.quat_to_rotmat(q)
    v_body = np.einsum("...ji,...j->...i", R, v)
    d = params.k_drag * float(np.sum(np.square(n_rotors)))
    f_body = np.stack([
        -d * v_body[..., 0], -d * v_body[..., 1],
        np.broadcast_to(w.F_prop, v_body.shape[:-1])], axis=-1)
    v_dot = (np.einsum("...ij,...j->...i", R, f_body) + F_ext) / params.m \
        - GRAVITY * EZ
    M_ext = np.zeros(omega.shape)
    M_ext[..., 2] = M_z
    w_dot = rotational_dynamics(omega, w.M_prop, M_ext, params.J)
    return (p + Ts * v, v + Ts * v_dot, att.quat_integrate(q, omega, Ts),
            omega + Ts * w_dot, F_ext, M_z)


def _reset_matrix(eps):
    """Covariance correction for folding the attitude-error mean into the
    reference quaternion: diag(I6, R(half rotation of eps), I7)."""
    T = np.eye(NXI)
    nrm = np.linalg.norm(eps)
    if nrm > 0.0:
        dq = att.mrp_to_quat(eps)
        angle = att.quat_rotation_angle(dq)
        axis = dq[:3] / np.linalg.norm(dq[:3]) if np.linalg.norm(dq[:3]) > 0 \
            else np.array([1.0, 0.0, 0.0])
        T[E_SL, E_SL] = att.rotvec_to_rotmat(axis * (0.5 * angle))
    return T


def ukf_predict(s: UkfState, n_rotors, Q, params: MavParams, Ts: float,
                cfg: UkfConfig = UkfConfig()) -> UkfState:
    """Sigma-point prediction with quaternion inflation/deflation via MRPs
    and the attitude-reset covariance correction."""
    wm, wc = cfg.weights()
    X = sigma_points(s.xi, s.P, cfg)
    dq = att.mrp_to_quat(X[:, E_SL], cfg.mrp)
    q_pts = att.quat_multiply(dq, s.q[None, :])
    p2, v2, q2, w2, F2, M2 = propagate_full(
        X[:, P_SL], X[:, V_SL], q_pts, X[:, W_SL], X[:, F_SL], X[:, MZ_IDX],
        n_rotors, params, Ts)
    q_pred = q2[0]
    dq2 = _canonical(att.quat_multiply(q2, att.quat_inverse(q_pred)[None, :]))
    eps2 = att.quat_to_mrp(dq2, cfg.mrp)
    Xp = np.concatenate([p2, v2, eps2, w2, F2, M2[:, None]], axis=1)
    xi_mean = wm @ Xp
    dev = Xp - xi_mean[None, :]
    P_pre = dev.T @ (wc[:, None] * dev) + np.diag(np.asarray(Q, dtype=float))
    eps_mean = xi_mean[E_SL].copy()
    T = _reset_matrix(eps_mean)
    P = T @ P_pre @ T.T
    # fold the mean error into the reference attitude
    q_pred = att.quat_multiply(att.mrp_to_quat(eps_mean, cfg.mrp), q_pred)
    xi_mean[E_SL] = 0.0
    return UkfState(xi=xi_mean, P=0.5 * (P + P.T), q=q_pred)


_H = np.hstack([np.eye(NZ), np.zeros((NZ, NXI - NZ))])


def measurement_error_vector(q_meas, q_ref, cfg: UkfConfig = UkfConfig()):
    """Attitude measurement mapped into error space relative to q_ref."""
    dq = _canonical(att.quat_multiply(q_meas, att.quat_inverse(q_ref)))
    return att.quat_to_mrp(dq, cfg.mrp)


def ukf_update(s: UkfState, p_meas, v_meas, q_meas, omega_meas, R,
               cfg: UkfConfig = UkfConfig()) -> UkfState:
    """Linear Kalman update on (p, v, eps, omega) followed by the attitude
    commit and its covariance reset."""
    eps_m = measurement_error_vector(np.asarray(q_meas, dtype=float), s.q, cfg)
    z = np.concatenate([p_meas, v_meas, eps_m, omega_meas])
    Rm = np.diag(np.asarray(R, dtype=float))
    innov = z - _H @ s.xi
    S = _H @ s.P @ _H.T + Rm
    K = np.linalg.solve(S.T, (_H @ s.P.T)).T
    xi = s.xi + K @ innov
    IKH = np.eye(NXI) - K @ _H
    P = IKH @ s.P @ IKH.T + K @ Rm @ K.T
    eps_hat = xi[E_SL].copy()
    T = _reset_matrix(eps_hat)
    P = T @ P @ T.T
    q_new = att.quat_multiply(att.mrp_to_quat(eps_hat, cfg.mrp), s.q)
    xi[E_SL] = 0.0
    return UkfState(xi=xi, P=0.5 * (P + P.T), q=q_new)

