from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from swarmlift.analysis import AnalysisConfig, full_rhs, rest_state
from swarmlift.attitude import (
    euler_body_z,
    quat_from_axis_angle,
    quat_to_rotmat,
)
from swarmlift.errors import DimensionMismatch, ZeroThrust
from swarmlift.mav import (
    GRAVITY,
    MavParams,
    allocate_wrench,
    attitude_accel,
    pd_position_control,
    rk4_step,
    rotational_dynamics,
    rotor_speeds_from_wrench,
    saturate_thrust_command,
    thrust_to_attitude,
    translational_dynamics,
)


@pytest.fixture
def params():
    return MavParams()


# ---------------------------------------------------------------- allocation

def test_allocate_zero(params):
    w = allocate_wrench(np.zeros(6), params)
    assert w.F_prop == 0.0
    assert_allclose(w.M_prop, np.zeros(3))


def test_allocate_symmetric_hover(params):
    w = allocate_wrench(400.0 * np.ones(6), params)
    assert w.F_prop > 0
    assert_allclose(w.M_prop, np.zeros(3), atol=1e-12)


def test_allocate_roll_imbalance(params):
    # brute-force per-rotor sum of force x arm as the oracle
    n = 400.0 * np.ones(6)
    n[1] += 20.0  # arm on +y side
    n[4] -= 20.0  # arm on -y side
    w = allocate_wrench(n, params)
    alloc = params.allocation
    h = 0.5
    c = np.sqrt(3) / 2
    arms_xy = alloc.arm_length * np.array(
        [[c, h], [0, 1.0], [-c, h], [-c, -h], [0, -1.0], [c, -h]]
    )
    forces = alloc.k_f * n**2
    oracle = np.zeros(3)
    for k in range(6):
        r = np.array([arms_xy[k, 0], arms_xy[k, 1], 0.0])
        oracle += np.cross(r, [0, 0, forces[k]])
    # pure roll: torque about x only (yaw terms cancel for this pattern)
    assert_allclose(w.M_prop[:2], oracle[:2], rtol=1e-12)
    assert abs(w.M_prop[0]) > 1e-3
    assert_allclose(w.M_prop[1], 0.0, atol=1e-12)


def test_allocate_dim_mismatch(params):
    with pytest.raises(DimensionMismatch):
        allocate_wrench(np.zeros(4), params)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_allocate_quadratic_scaling(alpha):
    params = MavParams()
    n = np.array([300.0, 350.0, 280.0, 320.0, 310.0, 290.0])
    w1 = allocate_wrench(n, params)
    w2 = allocate_wrench(alpha * n, params)
    assert_allclose(w2.M_prop, alpha**2 * w1.M_prop, rtol=1e-12)
    assert_allclose(w2.F_prop, alpha**2 * w1.F_prop, rtol=1e-12)


def test_allocation_roundtrip(params):
    M = np.array([0.4, -0.2, 0.05])
    F = 40.0
    n = rotor_speeds_from_wrench(M, F, params)
    w = allocate_wrench(n, params)
    assert_allclose(w.M_prop, M, atol=1e-10)
    assert_allclose(w.F_prop, F, rtol=1e-12)


def test_allocation_sum_identity(params):
    # sum of squared speeds equals thrust / k_f independent of torque
    F = 35.0
    base = rotor_speeds_from_wrench(np.zeros(3), F, params)
    twisted = rotor_speeds_from_wrench([0.5, -0.3, 0.1], F, params)
    kf = params.allocation.k_f
    assert_allclose(np.sum(base**2), F / kf, rtol=1e-12)
    assert_allclose(np.sum(twisted**2), F / kf, rtol=1e-12)


def test_replace_derives_the_constants_again(params):
    with pytest.raises(FrozenInstanceError):
        params.m = 5.0
    assert_allclose(replace(params, m=5.0).weight, [0.0, 0.0, 49.05])
    slow = replace(params, tau_att=0.5, F_prop_max=100.0)
    assert slow.tau_thrust.tolist() == [0.5, 0.5, params.tau_motor]
    assert slow.thrust_hi[2] == 100.0
    assert slow.thrust_lo[0] == -np.sin(params.phi_cmd_max) * 100.0
    with pytest.raises(ValueError, match="mass"):
        replace(params, m=-1.0)


# ------------------------------------------------------------------ dynamics

def test_hover_equilibrium(params):
    vdot = translational_dynamics(np.eye(3), np.zeros(3), params.m * GRAVITY,
                                  np.zeros(3), np.zeros(3), params)
    assert_allclose(vdot, np.zeros(3), atol=1e-12)


def test_translational_external_force(params):
    # m = 3.5 kg with 3.5 N along x gives exactly 1 m/s^2
    vdot = translational_dynamics(np.eye(3), np.zeros(3), params.m * GRAVITY,
                                  np.zeros(3), [3.5, 0, 0], params)
    assert_allclose(vdot, [1.0, 0.0, 0.0], atol=1e-12)


def test_free_fall(params):
    R = quat_to_rotmat(quat_from_axis_angle([0.3, 0.7, 0.1], 0.5))
    vdot = translational_dynamics(R, np.zeros(3), 0.0, np.zeros(3),
                                  np.zeros(3), params)
    assert_allclose(vdot, [0.0, 0.0, -GRAVITY], atol=0.0)


def test_drag_sign_structure(params):
    v = np.array([1.0, -2.0, 0.5])
    # the drag gain of the hover thrust, as the single-agent loop uses it
    gain = params.k_drag * params.m * GRAVITY / params.allocation.k_f
    vdot_spin = translational_dynamics(np.eye(3), v, params.m * GRAVITY,
                                       gain * np.array([1.0, 1.0, 0.0]),
                                       np.zeros(3), params)
    vdot_still = translational_dynamics(np.eye(3), v, params.m * GRAVITY,
                                        np.zeros(3), np.zeros(3), params)
    drag_acc = vdot_spin - vdot_still
    assert drag_acc[0] < 0 and drag_acc[1] > 0  # opposes lateral velocity
    assert_allclose(drag_acc[2], 0.0, atol=1e-15)  # no drag along body z


def test_rotational_trivial_cases():
    J = np.array([1.0, 2.0, 3.0])
    assert_allclose(rotational_dynamics(np.zeros(3), np.zeros(3), np.zeros(3), J),
                    np.zeros(3))
    # principal-axis spin: gyroscopic term vanishes
    assert_allclose(rotational_dynamics(np.array([0, 0, 5.0]), np.zeros(3),
                                        np.zeros(3), J),
                    np.zeros(3), atol=1e-15)
    # batched over sigma points as the UKF runs it
    omega = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 0.0]])
    M_ext = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.0]])
    batch = rotational_dynamics(omega, np.zeros(3), M_ext, J)
    for k in range(2):
        assert_allclose(batch[k], rotational_dynamics(omega[k], np.zeros(3),
                                                      M_ext[k], J))


def test_rotational_gyroscopic_oracle():
    J = np.array([1.0, 2.0, 3.0])
    omega = np.array([1.0, 1.0, 0.0])
    oracle = -np.cross(omega, J * omega) / J
    assert_allclose(rotational_dynamics(omega, np.zeros(3), np.zeros(3), J), oracle)


# ------------------------------------------------------------------- control

def test_pd_gravity_feedforward(params):
    F = pd_position_control(np.zeros(3), np.zeros(3), np.zeros(3),
                            np.zeros(3), params)
    assert_allclose(F, [0.0, 0.0, 3.5 * 9.81], atol=1e-12)
    assert_allclose(F[2], 34.335)


def test_pd_position_and_velocity_errors(params):
    Z3 = np.zeros(3)
    F = pd_position_control(Z3, Z3, [1.0, 0, 0], Z3, params)
    assert_allclose(F[0], 17.0)
    F = pd_position_control(Z3, Z3, Z3, [0.0, 1.0, 0.0], params)
    assert_allclose(F[1], 15.0)


def test_pd_broadcasts_over_agents_bitwise(params):
    # the analysis runs the law on all agents at once, the simulator on
    # one agent at a time: both must give the same bits
    rng = np.random.default_rng(8)
    p, v, ref_p, ref_v = rng.normal(size=(4, 5, 3))
    F = pd_position_control(p, v, ref_p, ref_v, params)
    assert F.shape == (5, 3)
    for i in range(5):
        assert np.array_equal(
            F[i], pd_position_control(p[i], v[i], ref_p[i], ref_v[i], params))


def test_thrust_to_attitude_level(params):
    phi, theta, F = thrust_to_attitude([0, 0, params.m * GRAVITY], 0.0, params)
    assert phi == 0.0 and theta == 0.0
    assert_allclose(F, params.m * GRAVITY)


def test_thrust_to_attitude_inversion(params):
    # reconstructing the world thrust direction recovers the command
    rng = np.random.default_rng(4)
    for _ in range(40):
        F_cmd = rng.normal(scale=4.0, size=3) + np.array([0, 0, 35.0])
        psi = rng.uniform(-np.pi, np.pi)
        phi, theta, Fn = thrust_to_attitude(F_cmd, psi, params)
        if abs(phi) >= params.phi_cmd_max or abs(theta) >= params.theta_cmd_max:
            continue
        rebuilt = euler_body_z(np.array([phi, theta, psi])) * Fn
        assert_allclose(rebuilt, F_cmd, atol=1e-9)


def test_thrust_to_attitude_x_component(params):
    F_cmd = np.array([5.0, 0.0, 34.0])
    phi, theta, _ = thrust_to_attitude(F_cmd, 0.0, params)
    assert_allclose(theta, np.arctan2(5.0, 34.0), atol=1e-12)
    assert_allclose(phi, 0.0, atol=1e-15)


def test_thrust_to_attitude_clamps(params):
    F_cmd = np.array([40.0, 0.0, 20.0])  # would need ~1.1 rad of pitch
    phi, theta, _ = thrust_to_attitude(F_cmd, 0.0, params)
    assert theta == pytest.approx(0.26)
    with pytest.raises(ZeroThrust):
        thrust_to_attitude(np.zeros(3), 0.0, params)


def test_team_commands_match_agent_by_agent(params):
    # a stacked team gets the bits of one call per agent, and the thrust
    # the bits of np.linalg.norm; one zero command in the team still raises
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        F_cmd = rng.normal(scale=[5.0, 5.0, 20.0], size=(n, 3)) + [0, 0, 35.0]
        psi = rng.uniform(-np.pi, np.pi, n)
        M = rng.normal(scale=0.3, size=(n, 3))
        phi, theta, F = thrust_to_attitude(F_cmd, psi, params)
        rotors = rotor_speeds_from_wrench(M, F, params)
        for i in range(n):
            assert (phi[i], theta[i], F[i]) == thrust_to_attitude(
                F_cmd[i], psi[i], params)
            assert F[i] == min(np.linalg.norm(F_cmd[i]), params.F_prop_max)
            assert np.array_equal(
                rotors[i], rotor_speeds_from_wrench(M[i], F[i], params))
    F_cmd[1] = 0.0
    with pytest.raises(ZeroThrust):
        thrust_to_attitude(F_cmd, psi, params)


def _simulate_axis(f, y0, dy0, T, dt=1e-4):
    x = np.array([y0, dy0])
    out = [y0]
    for k in range(int(round(T / dt))):
        x = rk4_step(lambda t, s: np.array([s[1], f(s[0], s[1])]), k * dt,
                     x, dt)
        out.append(x[0])
    return np.array(out)


def test_attitude_loop_equilibrium(params):
    acc = attitude_accel(0.2, 0.0, 0.2, params.omega_n_att)
    assert_allclose(acc, 0.0)


def test_attitude_loop_step_response(params):
    # critically damped, no overshoot; the 63% rise matches the first-order
    # tau_att approximation (omega_n is derived to make that exact)
    wn = params.omega_n_att
    y = _simulate_axis(lambda a, r: attitude_accel(a, r, 1.0, wn),
                       0.0, 0.0, T=2.0)
    assert np.max(y) <= 1.0 + 1e-9
    t = np.linspace(0, 2.0, len(y))
    t63 = t[np.argmax(y >= 1 - np.exp(-1))]
    assert abs(t63 - params.tau_att) / params.tau_att < 0.05


def test_attitude_loop_damping_scaling(params):
    # the loop is linear: its state matrix, read off the kernel, has the
    # double pole -omega_n of a critically damped second-order system, and
    # scaling omega_n scales the pole
    for scale in (1.0, 2.0):
        wn = scale * params.omega_n_att
        A = np.array([[0.0, 1.0],
                      [attitude_accel(1.0, 0.0, 0.0, wn),
                       attitude_accel(0.0, 1.0, 0.0, wn)]])
        assert_allclose(np.trace(A), -2.0 * wn)
        assert_allclose(np.linalg.det(A), wn**2)
        assert_allclose(np.trace(A) ** 2 - 4.0 * np.linalg.det(A), 0.0,
                        atol=1e-9 * wn**2)


def test_thrust_lag_properties(params):
    # lateral thrust lags with the attitude time constant, the collective
    # with the motor time constant, in the model the analysis integrates
    cfg = AnalysisConfig(n_agents=2)
    for agent in (0, 1):
        for axis, tau in ((0, params.tau_att), (2, params.tau_motor)):
            x = rest_state(cfg)
            i = 16 + 3 * agent + axis  # p, v, q, omega, p_ref, F_prop rows
            assert x[i] == cfg.F_trim[agent, axis]
            x[i] += 0.5
            rate = full_rhs(cfg, x, np.zeros(3))[i]
            assert_allclose(rate, -0.5 / tau, rtol=1e-9)


def test_thrust_lag_saturation(params):
    # the lag's input is clamped to the reachable thrust set
    lat_max = np.sin(0.26) * params.F_prop_max
    cmd = np.array([2 * lat_max, -3 * lat_max, 34.0])
    assert_allclose(saturate_thrust_command(cmd, params),
                    [lat_max, -lat_max, 34.0], atol=1e-12)
    assert_allclose(saturate_thrust_command([0.0, 0.0, 200.0], params),
                    [0.0, 0.0, params.F_prop_max])
    assert_allclose(saturate_thrust_command([0.0, 0.0, -5.0], params),
                    np.zeros(3))
