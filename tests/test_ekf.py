import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift import ekf
from swarmlift.identify import run_force_step
from swarmlift.mav import GRAVITY, MavParams

PARAMS = MavParams()
TS = 0.01


def fit_first_order_tau(t, y, y_final: float, t_start: float = 0.0):
    """Least-squares first-order time constant of a step response.

    Fits log(1 - y/y_final) over the rise (5%..95%) and returns -1/slope.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (t >= t_start) & (y / y_final > 0.05) & (y / y_final < 0.95)
    if np.count_nonzero(mask) < 3:
        raise ValueError("not enough points in the rise to fit")
    tt = t[mask] - t_start
    ln = np.log(1.0 - y[mask] / y_final)
    slope = np.polyfit(tt, ln, 1)[0]
    return -1.0 / slope


def hover_filter():
    return ekf.ekf_init(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))


def hover_input():
    return (0.0, 0.0, 0.0, PARAMS.m * GRAVITY)


def random_state(rng):
    x = np.zeros(ekf.NX)
    x[ekf.P_SL] = rng.normal(scale=2.0, size=3)
    x[ekf.V_SL] = rng.normal(scale=1.0, size=3)
    x[ekf.ETA_SL] = rng.normal(scale=0.2, size=3)
    x[ekf.W_SL] = rng.normal(scale=0.5, size=3)
    x[ekf.F_SL] = rng.normal(scale=2.0, size=3)
    x[ekf.M_SL] = rng.normal(scale=0.1, size=3)
    return x


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = random_state(rng)
        u = (rng.normal(scale=0.1), rng.normal(scale=0.1), 0.0,
             PARAMS.m * GRAVITY + rng.normal(scale=3.0))
        A = ekf.process_jacobian(x, u, PARAMS)
        eps = 1e-6
        A_fd = np.empty_like(A)
        for j in range(ekf.NX):
            dx = np.zeros(ekf.NX)
            dx[j] = eps
            A_fd[:, j] = (ekf.process_rhs(x + dx, u, PARAMS)
                          - ekf.process_rhs(x - dx, u, PARAMS)) / (2 * eps)
        scale = max(1.0, np.abs(A_fd).max())
        worst = max(worst, np.abs(A - A_fd).max() / scale)
    assert worst < 1e-4


def test_jacobian_matches_complex_step():
    # process_rhs follows the dtype of x, so the complex-step derivative is
    # exact to rounding and checks the analytic Jacobian much tighter than
    # the finite differences above
    rng = np.random.default_rng(7)
    h = 1e-30
    worst = 0.0
    for _ in range(25):
        x = random_state(rng)
        u = (rng.normal(scale=0.1), rng.normal(scale=0.1),
             rng.normal(scale=0.3), PARAMS.m * GRAVITY + rng.normal(scale=3.0))
        A = ekf.process_jacobian(x, u, PARAMS)
        A_cs = np.empty_like(A)
        for j in range(ekf.NX):
            xc = x.astype(complex)
            xc[j] += 1j * h
            A_cs[:, j] = np.imag(ekf.process_rhs(xc, u, PARAMS)) / h
        worst = max(worst, np.abs(A - A_cs).max() / np.abs(A_cs).max())
    assert worst < 1e-12


def test_predict_hover_fixed_point():
    s = hover_filter()
    Q = ekf.default_ekf_Q(100.0)
    s2 = ekf.ekf_predict(s, hover_input(), Q, TS, PARAMS)
    assert_allclose(s2.x, s.x, atol=1e-12)
    assert np.all(np.diag(s2.P) >= np.diag(s.P) - 1e-15)  # covariance grows


def test_predict_force_feeds_velocity():
    s = hover_filter()
    s.x[ekf.F_SL] = [2.0, 0.0, 0.0]
    s2 = ekf.ekf_predict(s, hover_input(), ekf.default_ekf_Q(), TS, PARAMS)
    assert_allclose(s2.x[3], TS * 2.0 / PARAMS.m, rtol=1e-12)


def test_update_at_predicted_mean():
    s = hover_filter()
    s = ekf.ekf_predict(s, hover_input(), ekf.default_ekf_Q(), TS, PARAMS)
    z = np.concatenate([s.x[ekf.P_SL], s.x[ekf.ETA_SL]])
    s2 = ekf.ekf_update(s, z, ekf.default_ekf_R())
    assert_allclose(s2.x, s.x, atol=1e-12)
    assert np.trace(s2.P) <= np.trace(s.P) + 1e-15


def test_update_infinite_noise_ignores_channel():
    s = hover_filter()
    s = ekf.ekf_predict(s, hover_input(), ekf.default_ekf_Q(), TS, PARAMS)
    R = ekf.default_ekf_R()
    R[0, 0] = 1e12  # x-position channel disabled
    z = np.concatenate([s.x[ekf.P_SL], s.x[ekf.ETA_SL]])
    z[0] += 5.0
    s2 = ekf.ekf_update(s, z, R)
    assert np.max(np.abs(s2.x - s.x)) < 1e-6


def test_covariance_symmetric_psd_through_steps():
    rng = np.random.default_rng(1)
    s = hover_filter()
    Q, R = ekf.default_ekf_Q(), ekf.default_ekf_R()
    for _ in range(300):
        u = (rng.normal(scale=0.05), rng.normal(scale=0.05), 0.0,
             PARAMS.m * GRAVITY + rng.normal())
        s = ekf.ekf_predict(s, u, Q, TS, PARAMS)
        z = np.concatenate([s.x[ekf.P_SL], s.x[ekf.ETA_SL]]) + rng.normal(
            scale=1e-3, size=6)
        s = ekf.ekf_update(s, z, R)
        assert np.max(np.abs(s.P - s.P.T)) < 1e-10
        assert np.linalg.eigvalsh(s.P).min() > -1e-9


def test_closed_loop_force_step_convergence():
    tr = run_force_step(PARAMS, "ekf", magnitude=1.0, t_step=1.0, duration=8.0)
    t, Fx = tr.t, tr.F_hat[:, 0]
    assert abs(Fx[t > 7.0].mean() - 1.0) < 0.05
    tau = fit_first_order_tau(t, Fx, 1.0, t_start=1.0)
    # bracketing the nominal estimator time constant of 0.2 s
    assert 0.1 < tau < 0.4


# ------------------------------------------------------------ stacked filter

def random_inputs(rng, S):
    """Attitude commands and thrusts (S, 4), one row per slave."""
    return np.column_stack([rng.normal(scale=0.1, size=(S, 2)),
                            rng.normal(scale=0.3, size=S),
                            PARAMS.m * GRAVITY + rng.normal(size=S)])


def row(s, k):
    return ekf.EkfState(x=s.x[k].copy(), P=s.P[k].copy())


@pytest.mark.parametrize("S", [1, 3, 7])
def test_stacked_filter_matches_per_slave_calls_bit_for_bit(S):
    rng = np.random.default_rng(30 + S)
    Q, R = ekf.default_ekf_Q(), ekf.default_ekf_R()
    states = np.array([random_state(rng) for _ in range(S)])
    # slave 0 holds a yaw near pi, and its yaw is measured at pi plus
    # noise, wrapped into (-pi, pi]: the measurement keeps jumping across
    # the cut from the estimate
    yaw = ekf.ETA_SL.start + 2
    states[0, yaw], states[0, ekf.W_SL.start + 2] = np.pi - 1e-3, 0.0
    stacked = ekf.ekf_init(states[:, ekf.P_SL], states[:, ekf.V_SL],
                           states[:, ekf.ETA_SL], states[:, ekf.W_SL])
    stacked.x[:, ekf.F_SL] = states[:, ekf.F_SL]
    singles = [row(stacked, k) for k in range(S)]
    wrapped = 0
    for _ in range(50):
        u = random_inputs(rng, S)
        u[0, 2] = np.pi - 1e-3
        stacked = ekf.ekf_predict(stacked, u, Q, TS, PARAMS)
        singles = [ekf.ekf_predict(s, tuple(u[k]), Q, TS, PARAMS)
                   for k, s in enumerate(singles)]
        for k, s in enumerate(singles):
            assert stacked.x[k].tobytes() == s.x.tobytes(), k
            assert stacked.P[k].tobytes() == s.P.tobytes(), k
        z = (np.concatenate([stacked.x[:, ekf.P_SL], stacked.x[:, ekf.ETA_SL]],
                            axis=1) + rng.normal(scale=1e-2, size=(S, 6)))
        z[0, 5] = np.pi + rng.normal(scale=1e-2)
        z[:, 3:] = np.mod(z[:, 3:] + np.pi, 2 * np.pi) - np.pi
        wrapped += abs(z[0, 5] - stacked.x[0, yaw]) > np.pi
        before = stacked.x[0, yaw]
        stacked = ekf.ekf_update(stacked, z, R)
        # the update moved the yaw estimate a little, not by about 2 pi
        assert abs(stacked.x[0, yaw] - before) < 0.1
        singles = [ekf.ekf_update(s, z[k], R) for k, s in enumerate(singles)]
        for k, s in enumerate(singles):
            assert stacked.x[k].tobytes() == s.x.tobytes(), k
            assert stacked.P[k].tobytes() == s.P.tobytes(), k
    assert wrapped >= 5


def test_stacked_jacobian_matches_per_slave_jacobians():
    rng = np.random.default_rng(40)
    x = np.array([random_state(rng) for _ in range(5)])
    u = random_inputs(rng, 5)
    A = ekf.process_jacobian(x, u, PARAMS)
    assert A.shape == (5, ekf.NX, ekf.NX)
    for k in range(5):
        assert A[k].tobytes() == ekf.process_jacobian(
            x[k], tuple(u[k]), PARAMS).tobytes()


def test_stacked_jacobian_matches_complex_step():
    rng = np.random.default_rng(41)
    h = 1e-30
    x = np.array([random_state(rng) for _ in range(4)])
    u = random_inputs(rng, 4)
    A = ekf.process_jacobian(x, u, PARAMS)
    A_cs = np.empty_like(A)
    for j in range(ekf.NX):
        xc = x.astype(complex)
        xc[:, j] += 1j * h
        A_cs[..., j] = np.imag(ekf.process_rhs(xc, u, PARAMS)) / h
    scale = np.abs(A_cs).max(axis=(1, 2))[:, None, None]
    assert np.max(np.abs(A - A_cs) / scale) < 1e-12


def test_stacked_init_matches_per_slave_init():
    p0 = np.arange(12.0).reshape(4, 3)
    stacked = ekf.ekf_init(p0, np.zeros(3), np.full(3, 0.1), np.ones(3))
    for k in range(4):
        s = ekf.ekf_init(p0[k], np.zeros(3), np.full(3, 0.1), np.ones(3))
        assert stacked.x[k].tobytes() == s.x.tobytes()
        assert stacked.P[k].tobytes() == s.P.tobytes()
    assert stacked.F_ext.shape == (4, 3)
