import numpy as np
import pytest
from numpy.testing import assert_allclose

from swarmlift.attitude import (
    IDENTITY_QUAT,
    quat_from_axis_angle,
    quat_integrate,
    quat_to_rotmat,
    rotvec_to_rotmat,
)
from swarmlift.errors import DimensionMismatch
from swarmlift.mav import GRAVITY
from swarmlift.payload import (
    PayloadParams,
    attachment_accel,
    attachment_kinematics,
    com_system,
    joint_interaction_force,
    payload_accel,
    regular_polygon_attachments,
)

Z3 = np.zeros(3)


def beam_params(height=0.0):
    return PayloadParams(
        m_p=1.8,
        J_p=np.array([0.01, 0.3375, 0.3375]),
        attachments=regular_polygon_attachments(2, side=1.5, height=height),
    )


def beam_accel(Fw, v=Z3, q=IDENTITY_QUAT, w=Z3):
    cs = com_system(beam_params(), [3.5, 3.5])
    R = quat_to_rotmat(q)
    Fw = np.asarray(Fw, dtype=float)
    return cs, payload_accel(cs, Z3, Z3, R, v, w, np.add.reduce(Fw, -2),
                             Fw @ R)


def point_inertia(J_p, masses, att):
    """Brute-force sum of point-mass inertias about the origin."""
    J = np.diag(J_p).astype(float)
    for m_i, r in zip(masses, att):
        J += m_i * (np.dot(r, r) * np.eye(3) - np.outer(r, r))
    return J


def test_polygon_generator():
    r2 = regular_polygon_attachments(2, side=1.5, height=0.0)
    assert_allclose(r2, [[0.75, 0, 0], [-0.75, 0, 0]])
    r5 = regular_polygon_attachments(5, side=1.2, height=0.15)
    # side length check between consecutive vertices
    d = np.linalg.norm(r5[0] - r5[1])
    assert_allclose(d, 1.2, rtol=1e-12)
    # the height reaches every vertex of the polygon
    assert_allclose(r5[:, 2], 0.15)
    # by default the joints sit in the payload plane
    assert_allclose(regular_polygon_attachments(5, side=1.2)[:, 2], 0.0)
    # centroid at payload origin (balanced attachment set)
    assert_allclose(r5[:, :2].mean(axis=0), [0, 0], atol=1e-15)


def test_mass_inertia_no_agents_vs_payload_only():
    p = PayloadParams(m_p=1.5, J_p=[0.1, 0.1, 0.2], attachments=[[0.0, 0.0, 0.0]])
    cs = com_system(p, [0.0])
    assert cs.m_sys == 1.5
    assert_allclose(cs.J_sys, np.diag([0.1, 0.1, 0.2]))


def test_mass_nominal_value():
    # nominal analysis payload: m_p = 1.5 * max payload of one agent (1.0 kg)
    m_bar = 1.0
    p = PayloadParams(m_p=1.5 * m_bar, J_p=[0.1, 0.1, 0.2],
                      attachments=regular_polygon_attachments(3, 1.2, 0.0))
    cs = com_system(p, [3.5, 3.5, 3.5])
    assert_allclose(cs.m_sys, 1.5 + 3 * 3.5)


def test_inertia_point_mass_sum():
    # brute-force oracle: three agents at radius 0.7, J_zz gains 3 m r^2
    # (a balanced layout, so the composite CoM is the payload origin)
    r = 0.7
    ang = 2 * np.pi * np.arange(3) / 3
    att = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(3)], axis=1)
    p = PayloadParams(m_p=2.46, J_p=[0.2, 0.2, 0.4], attachments=att)
    cs = com_system(p, [3.5] * 3)
    assert_allclose(cs.J_sys, point_inertia([0.2, 0.2, 0.4], [3.5] * 3, att),
                    rtol=1e-12, atol=1e-15)
    assert_allclose(cs.J_sys[2, 2], 0.4 + 3 * 3.5 * 0.49, rtol=1e-12)


def test_nan_payload_mass_is_rejected():
    # a document's payload.mass is checked before it gets here; a payload
    # built in code was not
    with pytest.raises(ValueError, match="m_p"):
        PayloadParams(m_p=float("nan"), J_p=[0.1, 0.1, 0.2],
                      attachments=[[0.0, 0.0, 0.0]])


def test_mass_inertia_dim_mismatch():
    p = beam_params()
    with pytest.raises(DimensionMismatch):
        com_system(p, [3.5])


def test_kinematics_no_rotation():
    cs = com_system(beam_params(), [3.5, 3.5])
    v = np.array([0.3, -0.1, 0.0])
    pi, vi, w_x_r = attachment_kinematics(cs, Z3, v, np.eye(3), Z3)
    ai = attachment_accel(cs, np.eye(3), Z3, w_x_r, np.array([0.1, 0, 0]), Z3)
    assert_allclose(pi, cs.attachments)
    assert_allclose(vi, [v, v])
    assert_allclose(ai, [[0.1, 0, 0]] * 2)


def test_kinematics_pure_spin():
    p = PayloadParams(m_p=1.0, J_p=[0.1, 0.1, 0.1],
                      attachments=[[1.0, 0.0, 0.0]])
    cs = com_system(p, [0.0])  # massless agent: the CoM is the payload origin
    w = np.array([0.0, 0.0, 1.0])
    _, vi, w_x_r = attachment_kinematics(cs, Z3, Z3, np.eye(3), w)
    ai = attachment_accel(cs, np.eye(3), w, w_x_r, Z3, Z3)
    assert_allclose(vi, [[0.0, 1.0, 0.0]], atol=1e-15)
    assert_allclose(ai, [[-1.0, 0.0, 0.0]], atol=1e-15)  # centripetal


def test_kinematics_finite_difference():
    # v_i matches d(p_i)/dt along a simulated rigid trajectory
    cs = com_system(beam_params(height=0.15), [3.5, 3.5])
    dt = 1e-6
    q = quat_from_axis_angle([0.2, 0.5, 1.0], 0.4)
    p = np.array([0.5, 0.2, 1.0])
    v = np.array([0.1, -0.2, 0.05])
    w = np.array([0.3, -0.1, 0.4])
    p0, v0, _ = attachment_kinematics(cs, p, v, quat_to_rotmat(q), w)
    # advance the rigid motion by dt
    p1, _, _ = attachment_kinematics(
        cs, p + dt * v, v, quat_to_rotmat(quat_integrate(q, w, dt)), w)
    fd = (p1 - p0) / dt
    assert np.max(np.abs(fd - v0)) < 1e-5


def test_attachment_accel_is_complex_step_rate_of_velocity():
    # a_i is d(v_i)/dt along the rigid motion with accelerations (vdot,
    # wdot); the derivative is taken by complex step through the kinematics
    # kernel, with R(t) = R0 expm(skew(w t)), so it is exact to rounding
    cs = com_system(beam_params(height=0.15), [3.5, 3.5])
    rng = np.random.default_rng(3)
    R0 = quat_to_rotmat(quat_from_axis_angle(rng.normal(size=3), 0.7))
    p, v, w, vdot, wdot = rng.normal(size=(5, 3))
    h = 1e-30
    _, v_i, _ = attachment_kinematics(
        cs, p + 1j * h * v, v + 1j * h * vdot, R0 @ rotvec_to_rotmat(1j * h * w),
        w + 1j * h * wdot)
    _, _, w_x_r = attachment_kinematics(cs, p, v, R0, w)
    a_i = attachment_accel(cs, R0, w, w_x_r, vdot, wdot)
    assert_allclose(np.imag(v_i) / h, a_i, rtol=1e-13, atol=1e-14)


def test_total_wrench_zero_and_symmetry():
    cs, (v_dot, w_dot) = beam_accel(np.zeros((2, 3)))
    assert_allclose(v_dot, [0, 0, -GRAVITY])
    assert_allclose(w_dot, Z3)
    cs, (v_dot, w_dot) = beam_accel([[0, 0, 10.0], [0, 0, 10.0]])
    assert_allclose(v_dot, [0, 0, 20.0 / cs.m_sys - GRAVITY])
    assert_allclose(w_dot, Z3, atol=1e-12)


def test_total_wrench_cross_product_oracle():
    # attachments at (+-0.75, 0, 0)
    cs, (_, w_dot) = beam_accel([[0, 0, 10.0], [0, 0, 12.0]])
    oracle = np.cross([0.75, 0, 0], [0, 0, 10.0]) + np.cross([-0.75, 0, 0], [0, 0, 12.0])
    assert_allclose(oracle, [0.0, 1.5, 0.0], atol=1e-12)
    assert_allclose(cs.J_sys @ w_dot, oracle, atol=1e-12)


def test_payload_accel_static_hover():
    cs = com_system(beam_params(), [3.5, 3.5])
    share = np.array([0, 0, cs.m_sys * GRAVITY / 2])
    _, (v_dot, w_dot) = beam_accel([share, share])
    assert_allclose(v_dot, np.zeros(3), atol=1e-12)
    assert_allclose(w_dot, np.zeros(3), atol=1e-12)


def test_payload_accel_thrust_excess():
    # 1 N above hover on m_sys = 8.8 kg (2 x 3.5 + 1.8 beam)
    F = np.array([0, 0, 8.8 * GRAVITY + 1.0]) / 2
    cs, (v_dot, _) = beam_accel([F, F])
    assert_allclose(cs.m_sys, 8.8)
    assert_allclose(v_dot, [0, 0, 1.0 / 8.8], atol=1e-12)


def test_payload_accel_torque_step():
    # opposite lateral forces of 1/3 N at +-0.75 m: a pure 0.5 N m yaw torque
    f = 1.0 / 3.0
    cs, (v_dot, w_dot) = beam_accel([[0, f, 0], [0, -f, 0]])
    assert_allclose(v_dot, [0, 0, -GRAVITY], atol=1e-15)
    assert_allclose(w_dot, [0, 0, 0.5 / cs.J_sys[2, 2]], atol=1e-14)


def test_joint_force_free_hover():
    a = np.zeros(3)
    F_prop = np.array([0, 0, 3.5 * GRAVITY])
    assert_allclose(joint_interaction_force(a, F_prop, 3.5), np.zeros(3), atol=1e-12)


def test_joint_force_static_share():
    # static carry: each of N agents lifts its own weight plus m_p g / N
    m_p, N, m_i = 1.8, 2, 3.5
    F_prop = np.array([0, 0, m_i * GRAVITY + m_p * GRAVITY / N])
    F_int = joint_interaction_force(np.zeros(3), F_prop, m_i)
    assert_allclose(F_int, [0, 0, -m_p * GRAVITY / N], atol=1e-12)


def test_joint_force_newton_closure():
    # sum of joint forces balances the payload's own Newton law, exact in
    # the composite-CoM frame even with elevated attachments
    p = beam_params(height=0.15)
    cs = com_system(p, [3.5, 3.5])
    rng = np.random.default_rng(0)
    q = quat_from_axis_angle(rng.normal(size=3), 0.2)
    R = quat_to_rotmat(q)
    v_WP = rng.normal(size=3) * 0.2
    omega = rng.normal(size=3) * 0.3
    forces_w = rng.normal(size=(2, 3)) * 2.0 + np.array([0, 0, cs.m_sys * GRAVITY / 2])
    v_dot, w_dot = payload_accel(cs, Z3, Z3, R, v_WP, omega,
                                 np.add.reduce(forces_w, -2), forces_w @ R)
    _, _, w_x_r = attachment_kinematics(cs, Z3, v_WP, R, omega)
    a = attachment_accel(cs, R, omega, w_x_r, v_dot, w_dot)
    F_int = np.array([
        joint_interaction_force(a[i], forces_w[i], 3.5) for i in range(2)])
    # payload CoG acceleration from the rigid kinematics about the CoM; the
    # CoG sits at -CoM, the shift that every attachment took
    r_pc = (cs.attachments - p.attachments)[0]
    a_pc = v_dot + R @ (np.cross(w_dot, r_pc)
                        + np.cross(omega, np.cross(omega, r_pc)))
    residual = F_int.sum(axis=0) + p.m_p * (a_pc + GRAVITY * np.array([0, 0, 1]))
    assert np.max(np.abs(residual)) < 1e-9


def test_com_system_balanced_case_matches_spec_formula():
    p = beam_params(height=0.0)
    cs = com_system(p, [3.5, 3.5])
    assert_allclose(cs.J_sys, point_inertia(p.J_p, [3.5, 3.5], p.attachments),
                    rtol=1e-12)
    assert_allclose(cs.attachments, p.attachments)
    assert_allclose((cs.attachments - p.attachments)[0], np.zeros(3))
