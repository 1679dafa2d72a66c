import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift import attitude as att
from swarmlift import ukf
from swarmlift.analysis import (
    AnalysisConfig,
    full_rhs,
    rest_state,
    unpack_state,
    zero_input,
)
from swarmlift.errors import CholeskyFailure
from swarmlift.identify import run_force_step
from swarmlift.mav import GRAVITY, MavParams, rotor_speeds_from_wrench
from test_ekf import fit_first_order_tau

PARAMS = MavParams()
TS = 0.01


def hover_rotors():
    return rotor_speeds_from_wrench(np.zeros(3), PARAMS.m * GRAVITY, PARAMS)


def hover_filter(P0=None):
    s = ukf.ukf_init(np.zeros(3), np.zeros(3), att.IDENTITY_QUAT.copy(),
                     np.zeros(3))
    if P0 is not None:  # the initial covariance diag(P0)
        s.P = np.diag(P0)
    return s


# ------------------------------------------------------------- sigma points

def test_sigma_points_zero_covariance():
    # P = 0 goes through the jitter retry; spread collapses to the mean at
    # the 1e-9 jitter floor
    s = hover_filter(P0=np.zeros(ukf.NXI))
    pts = ukf.sigma_points(s.xi, s.P)
    assert pts.shape == (33, 16)
    assert np.max(np.abs(pts - s.xi[None, :])) < 1e-3


def test_sigma_points_identity_covariance():
    xi = np.zeros(ukf.NXI)  # lambda + n = 16
    pts = ukf.sigma_points(xi, np.eye(ukf.NXI))
    offsets = pts[1:] - xi[None, :]
    norms = np.linalg.norm(offsets, axis=1)
    assert_allclose(norms, 4.0, rtol=1e-12)
    # offsets along coordinate axes
    assert np.count_nonzero(np.abs(offsets) > 1e-12) == 32


def test_sigma_point_moments_reconstruct():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(ukf.NXI, ukf.NXI))
    P = A @ A.T + 0.1 * np.eye(ukf.NXI)
    xi = rng.normal(size=ukf.NXI)
    pts = ukf.sigma_points(xi, P)
    w = ukf.WEIGHTS
    mean = w @ pts
    dev = pts - mean[None, :]
    cov = dev.T @ (w[:, None] * dev)
    assert np.max(np.abs(mean - xi)) < 1e-10
    assert np.max(np.abs(cov - P)) < 1e-9


def test_unscented_transform_affine_exactness():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(ukf.NXI, ukf.NXI))
    P = A @ A.T + 0.5 * np.eye(ukf.NXI)
    xi = rng.normal(size=ukf.NXI)
    M = rng.normal(size=(7, ukf.NXI))
    b = rng.normal(size=7)
    pts = ukf.sigma_points(xi, P)
    ypts = pts @ M.T + b[None, :]
    w = ukf.WEIGHTS
    ymean = w @ ypts
    dev = ypts - ymean[None, :]
    ycov = dev.T @ (w[:, None] * dev)
    assert np.max(np.abs(ymean - (M @ xi + b))) < 1e-10
    assert np.max(np.abs(ycov - M @ P @ M.T)) < 1e-9


# ----------------------------------------------------------------- predict

def test_predict_hover_fixed_point():
    s = hover_filter(P0=np.zeros(ukf.NXI))
    s2 = ukf.ukf_predict(s, hover_rotors(), np.zeros((ukf.NXI, ukf.NXI)),
                         PARAMS, TS)
    assert np.max(np.abs(s2.xi - s.xi)) < 1e-6
    assert_allclose(s2.q, s.q, atol=1e-7)


def test_reset_matrix_identity_at_zero():
    eps = np.zeros(3)
    assert_allclose(ukf._reset_matrix(eps, att.mrp_to_quat(eps)),
                    np.eye(ukf.NXI))


def test_reset_matrix_half_rotation():
    eps = np.array([0.2, -0.1, 0.05])
    dq = att.mrp_to_quat(eps)
    T = ukf._reset_matrix(eps, dq)
    angle = att.quat_rotation_angle(dq)
    axis = dq[:3] / np.linalg.norm(dq[:3])
    assert_allclose(T[6:9, 6:9], att.rotvec_to_rotmat(axis * angle / 2),
                    atol=1e-12)
    assert_allclose(T[:6, :6], np.eye(6))
    assert_allclose(T[9:, 9:], np.eye(7))


def test_predict_covariance_matches_linearization():
    # for small P the UT covariance should match F P F^T + Q computed from a
    # finite-difference Jacobian of the one-step map
    scale = 1e-5
    P0 = scale * np.ones(ukf.NXI)
    s = hover_filter(P0=P0)
    n_rot = hover_rotors()
    Q = np.zeros((ukf.NXI, ukf.NXI))
    s2 = ukf.ukf_predict(s, n_rot, Q, PARAMS, TS)

    q_ref = s.q

    def step_map(xi):
        dq = att.mrp_to_quat(xi[ukf.E_SL])
        q_full = att.quat_multiply(dq, q_ref)
        p2, v2, q2, w2, F2, M2 = ukf.propagate_full(
            xi[ukf.P_SL], xi[ukf.V_SL], q_full, xi[ukf.W_SL], xi[ukf.F_SL],
            xi[ukf.MZ_IDX], n_rot, PARAMS, TS)
        # deflate against the propagated mean attitude
        q_mean = ukf.propagate_full(s.xi[ukf.P_SL], s.xi[ukf.V_SL], q_ref,
                                    s.xi[ukf.W_SL], s.xi[ukf.F_SL],
                                    s.xi[ukf.MZ_IDX], n_rot, PARAMS, TS)[2]
        dq2 = att.quat_multiply(q2, att.quat_inverse(q_mean))
        if dq2[3] < 0:
            dq2 = -dq2
        eps2 = att.quat_to_mrp(dq2)
        return np.concatenate([p2, v2, eps2, w2, F2, [M2]])

    eps_fd = 1e-7
    F = np.empty((ukf.NXI, ukf.NXI))
    for j in range(ukf.NXI):
        d = np.zeros(ukf.NXI)
        d[j] = eps_fd
        F[:, j] = (step_map(s.xi + d) - step_map(s.xi - d)) / (2 * eps_fd)
    P_lin = F @ s.P @ F.T
    dominant = np.abs(P_lin) > 0.05 * np.abs(P_lin).max()
    rel = np.abs(s2.P - P_lin)[dominant] / np.abs(P_lin)[dominant]
    assert rel.max() < 0.05


# ------------------------------------------------------------------ update

def test_update_at_prediction_contracts():
    s = hover_filter()
    s = ukf.ukf_predict(s, hover_rotors(), ukf.default_ukf_Q(), PARAMS, TS)
    s2 = ukf.ukf_update(s, s.xi[ukf.P_SL], s.xi[ukf.V_SL], s.q,
                        s.xi[ukf.W_SL], ukf.default_ukf_R())
    assert np.max(np.abs(s2.xi - s.xi)) < 1e-12
    assert np.trace(s2.P) < np.trace(s.P)
    assert_allclose(s2.q, s.q, atol=1e-15)


def test_update_gain_structure_attitude_only():
    # with a block-diagonal covariance, an attitude offset moves only the
    # attitude/rate/torque blocks it is correlated with
    s = hover_filter()
    P = np.zeros((ukf.NXI, ukf.NXI))
    P[0:3, 0:3] = 1e-4 * np.eye(3)
    P[3:6, 3:6] = 1e-4 * np.eye(3)
    blk = slice(6, 16)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(10, 10))
    P[blk, blk] = 1e-4 * (A @ A.T / 10 + np.eye(10))
    s.P = P
    dq = att.quat_from_axis_angle([0, 0, 1], 0.02)
    q_meas = att.quat_multiply(dq, s.q)
    s2 = ukf.ukf_update(s, np.zeros(3), np.zeros(3), q_meas, np.zeros(3),
                        ukf.default_ukf_R())
    assert np.max(np.abs(s2.xi[0:6] - s.xi[0:6])) < 1e-12  # p, v untouched
    moved = att.quat_rotation_angle(
        att.quat_multiply(s2.q, att.quat_inverse(s.q)))
    assert moved > 1e-3  # attitude moved toward the measurement


def test_update_commit_then_reextract_zero():
    s = hover_filter()
    s = ukf.ukf_predict(s, hover_rotors(), ukf.default_ukf_Q(), PARAMS, TS)
    dq = att.quat_from_axis_angle([1, 1, 0], 0.05)
    q_meas = att.quat_multiply(dq, s.q)
    s2 = ukf.ukf_update(s, np.zeros(3), np.zeros(3), q_meas, np.zeros(3),
                        ukf.default_ukf_R())
    # the committed estimate re-measured against itself gives zero error
    eps = ukf.measurement_error_vector(s2.q, s2.q)
    assert_allclose(eps, np.zeros(3), atol=1e-15)
    assert_allclose(s2.xi[ukf.E_SL], np.zeros(3))


def test_covariance_hygiene_through_steps():
    rng = np.random.default_rng(11)
    s = hover_filter()
    Q, R = ukf.default_ukf_Q(), ukf.default_ukf_R()
    n_rot = hover_rotors()
    for _ in range(150):
        s = ukf.ukf_predict(s, n_rot, Q, PARAMS, TS)
        s = ukf.ukf_update(
            s, s.xi[ukf.P_SL] + rng.normal(scale=1e-3, size=3),
            s.xi[ukf.V_SL] + rng.normal(scale=2e-3, size=3),
            att.quat_multiply(att.quat_from_axis_angle(
                rng.normal(size=3), abs(rng.normal(scale=1e-3))), s.q),
            s.xi[ukf.W_SL] + rng.normal(scale=2e-3, size=3), R)
        assert np.max(np.abs(s.P - s.P.T)) < 1e-10
        assert np.linalg.eigvalsh(s.P).min() > -1e-9


def test_closed_loop_force_step_convergence():
    tr = run_force_step(PARAMS, "ukf", magnitude=1.0, t_step=1.0, duration=8.0)
    t, Fx = tr.t, tr.F_hat[:, 0]
    assert abs(Fx[t > 7.0].mean() - 1.0) < 0.05
    tau = fit_first_order_tau(t, Fx, 1.0, t_start=1.0)
    assert 0.1 < tau < 0.4


def test_nominal_estimator_model():
    # the first-order unit-gain estimator lag the margins integrate: a
    # slave's F_hat error decays at 1 / tau_est and leaves the others alone
    cfg = AnalysisConfig(n_agents=3)
    x0 = rest_state(cfg)
    dF_hat0 = unpack_state(cfg, full_rhs(cfg, x0, zero_input(cfg)))[6]
    delta = np.array([0.5, -0.3, 0.2])
    for slave in range(cfg.n_slaves):
        x = x0.copy()
        i = 16 + 3 * cfg.n_agents + 9 * slave  # F_hat rows of this slave
        assert_allclose(x[i:i + 3], cfg.F_int_trim)
        x[i:i + 3] += delta
        dF_hat = unpack_state(cfg, full_rhs(cfg, x, zero_input(cfg)))[6]
        assert_allclose(dF_hat[slave] - dF_hat0[slave],
                        -delta / PARAMS.tau_est, rtol=1e-9)
        others = [j for j in range(cfg.n_slaves) if j != slave]
        assert np.array_equal(dF_hat[others], dF_hat0[others])


# ----------------------------------------------------------- stacked filter

S = 4


def random_stack(rng):
    """S distinct filter states, each with its own covariance and
    reference attitude."""
    xi = rng.normal(scale=0.1, size=(S, ukf.NXI))
    xi[:, ukf.E_SL] = 0.0
    A = rng.normal(scale=1e-2, size=(S, ukf.NXI, ukf.NXI))
    P = A @ A.swapaxes(-1, -2) + 1e-4 * np.eye(ukf.NXI)
    q = np.array([att.quat_from_axis_angle(rng.normal(size=3),
                                           rng.uniform(0.0, 0.3))
                  for _ in range(S)])
    return ukf.UkfState(xi=xi, P=P, q=q)


def random_inputs(rng):
    rotors = hover_rotors() + rng.normal(scale=5.0, size=(S, 6))
    meas = (rng.normal(scale=0.1, size=(S, 3)),
            rng.normal(scale=0.1, size=(S, 3)),
            np.array([att.quat_from_axis_angle(rng.normal(size=3),
                                               rng.uniform(0.0, 0.3))
                      for _ in range(S)]),
            rng.normal(scale=0.1, size=(S, 3)))
    return rotors, meas


def row(s, k):
    return ukf.UkfState(xi=s.xi[k].copy(), P=s.P[k].copy(), q=s.q[k].copy())


def assert_rows_identical(stacked, singles):
    for k, s in enumerate(singles):
        for name in ("xi", "P", "q"):
            assert getattr(stacked, name)[k].tobytes() \
                == getattr(s, name).tobytes(), (k, name)


def test_stacked_filter_matches_per_slave_calls_bit_for_bit():
    rng = np.random.default_rng(21)
    Q, R = ukf.default_ukf_Q(), ukf.default_ukf_R()
    stacked = random_stack(rng)
    singles = [row(stacked, k) for k in range(S)]
    for _ in range(3):
        rotors, meas = random_inputs(rng)
        stacked = ukf.ukf_predict(stacked, rotors, Q, PARAMS, TS)
        singles = [ukf.ukf_predict(s, rotors[k], Q, PARAMS, TS)
                   for k, s in enumerate(singles)]
        assert_rows_identical(stacked, singles)
        stacked = ukf.ukf_update(stacked, *meas, R)
        singles = [ukf.ukf_update(s, *(m[k] for m in meas), R)
                   for k, s in enumerate(singles)]
        assert_rows_identical(stacked, singles)
    # the attitude reset rotated the covariance of every slave
    assert np.all(np.abs(stacked.xi[:, ukf.F_SL]) > 0.0)


def test_stacked_jitter_retry_touches_only_the_failing_slave():
    rng = np.random.default_rng(22)
    stacked = random_stack(rng)
    # slave 2: rank one minus a tiny multiple of I, which only the jitter
    # retry factors
    v = rng.normal(size=ukf.NXI)
    stacked.P[2] = 1e-3 * np.outer(v, v) - 1e-12 * np.eye(ukf.NXI)
    scale = ukf.LAM + ukf.NXI
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(scale * stacked.P[2])
    pts = ukf.sigma_points(stacked.xi, stacked.P)
    for k in range(S):
        assert pts[k].tobytes() == ukf.sigma_points(
            stacked.xi[k], stacked.P[k]).tobytes()
        if k != 2:  # no jitter on the others
            L = np.linalg.cholesky(scale * stacked.P[k])
            assert pts[k, 1:ukf.NXI + 1].tobytes() \
                == (stacked.xi[k] + L.T).tobytes()
    rotors, _ = random_inputs(rng)
    Q = ukf.default_ukf_Q()
    pred = ukf.ukf_predict(stacked, rotors, Q, PARAMS, TS)
    assert_rows_identical(pred, [
        ukf.ukf_predict(row(stacked, k), rotors[k], Q, PARAMS, TS)
        for k in range(S)])


def test_stacked_second_cholesky_failure_raises():
    rng = np.random.default_rng(23)
    stacked = random_stack(rng)
    stacked.P[1] = -np.eye(ukf.NXI)
    with pytest.raises(CholeskyFailure):
        ukf.sigma_points(stacked.xi, stacked.P)
    rotors, _ = random_inputs(rng)
    with pytest.raises(CholeskyFailure):
        ukf.ukf_predict(stacked, rotors, ukf.default_ukf_Q(), PARAMS, TS)


def reset_matrix_reference(eps):
    """The single-vector reset matrix, with np.linalg.norm on 1-D vectors."""
    T = np.eye(ukf.NXI)
    if np.linalg.norm(eps) > 0.0:
        dq = att.mrp_to_quat(eps)
        angle = att.quat_rotation_angle(dq)
        axis = dq[:3] / np.linalg.norm(dq[:3])
        T[ukf.E_SL, ukf.E_SL] = att.rotvec_to_rotmat(axis * (0.5 * angle))
    return T


def test_stacked_reset_matrix_matches_reference_bit_for_bit():
    rng = np.random.default_rng(24)
    eps = rng.normal(size=(200, 3)) * np.logspace(-6, 0.5, 200)[:, None]
    eps[7] = 0.0
    T = ukf._reset_matrix(eps, att.mrp_to_quat(eps))
    for k in range(len(eps)):
        assert T[k].tobytes() == reset_matrix_reference(eps[k]).tobytes(), k
    assert T[7].tobytes() == np.eye(ukf.NXI).tobytes()


def test_stacked_init_matches_per_slave_init():
    p0 = np.arange(12.0).reshape(4, 3)
    stacked = ukf.ukf_init(p0, np.zeros(3), att.IDENTITY_QUAT, np.ones(3))
    assert_rows_identical(stacked, [
        ukf.ukf_init(p, np.zeros(3), att.IDENTITY_QUAT, np.ones(3))
        for p in p0])
