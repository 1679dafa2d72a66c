"""Property tests: the lean right-hand-side kernels give the bits of the
formulas they replaced.

Each oracle below is the earlier formula of its kernel, kept verbatim. The
kernels must match it byte for byte (``tobytes()``, so signed zeros and
imaginary parts count) on real inputs and on complex-step inputs, where
every state argument is complex as ``analysis.complex_step_jacobian``
passes them; for one agent and several; and for single and stacked
quaternions and rotation matrices. ``cross3`` is checked against its
component formula and ``np.cross``. The analysis model's right-hand sides
are checked against a frozen copy of their earlier ``_core``, built on
these oracles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.linalg._umath_linalg import solve1

from swarmlift.analysis import (
    AnalysisConfig,
    chart_rhs_out,
    full_rhs,
    split_inputs,
    unpack_state,
)
from swarmlift.attitude import (
    cross3,
    euler_body_z,
    quat_normalize,
    quat_rate,
    quat_to_rotmat,
    rotmat_to_quat,
    rotvec_to_rotmat,
)
from swarmlift.mav import (
    EZ,
    GRAVITY,
    MavParams,
    rk4_step,
    saturate_thrust_command,
    translational_dynamics,
)
from swarmlift.payload import (
    PayloadParams,
    attachment_accel,
    attachment_kinematics,
    com_system,
    payload_accel,
)

# ------------------------------------------------------ the earlier formulas


def old_cross3(a, b):
    a, b = np.asarray(a), np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    c1 = a2 * b0 - a0 * b2
    c2 = a0 * b1 - a1 * b0
    out = np.empty(np.shape(c0) + (3,), dtype=c0.dtype)
    out[..., 0] = c0
    out[..., 1] = c1
    out[..., 2] = c2
    return out


def old_quat_to_rotmat(q):
    q = np.asarray(q, dtype=float)
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1.0 - 2.0 * (yy + zz)
    R[..., 0, 1] = 2.0 * (xy - wz)
    R[..., 0, 2] = 2.0 * (xz + wy)
    R[..., 1, 0] = 2.0 * (xy + wz)
    R[..., 1, 1] = 1.0 - 2.0 * (xx + zz)
    R[..., 1, 2] = 2.0 * (yz - wx)
    R[..., 2, 0] = 2.0 * (xz - wy)
    R[..., 2, 1] = 2.0 * (yz + wx)
    R[..., 2, 2] = 1.0 - 2.0 * (xx + yy)
    return R


def old_euler_body_z(eta):
    eta = np.asarray(eta, dtype=float)
    phi, theta, psi = eta[..., 0], eta[..., 1], eta[..., 2]
    cph, sph = np.cos(phi), np.sin(phi)
    cth, sth = np.cos(theta), np.sin(theta)
    cps, sps = np.cos(psi), np.sin(psi)
    z = np.empty(eta.shape)
    z[..., 0] = cps * sth * cph + sps * sph
    z[..., 1] = sps * sth * cph - cps * sph
    z[..., 2] = cth * cph
    return z


def old_attachment_kinematics(com, p, v, R, w):
    att = com.attachments
    p_i = p[None, :] + att @ R.T
    v_i = v[None, :] + old_cross3(w, att) @ R.T
    return p_i, v_i


def old_attachment_accel(com, R, w, vdot, wdot):
    att = com.attachments
    w_x_r = old_cross3(w, att)
    return vdot[None, :] + (old_cross3(wdot, att) + old_cross3(w, w_x_r)) @ R.T


def old_payload_accel(com, drag_F, drag_M, R, v, w, Fw, FP):
    drag_w = R @ (drag_F * (R.T @ v))
    vdot = (Fw.sum(axis=0) - drag_w) / com.m_sys - GRAVITY * EZ
    M_ag = old_cross3(com.attachments, FP).sum(axis=0)
    wdot = np.linalg.solve(com.J_sys,
                           M_ag - old_cross3(w, com.J_sys @ w) - drag_M * w)
    return vdot, wdot


def old_core(cfg, R, p, v, omega, p_ref, F_prop, F_hat, z, zdot, u):
    """``analysis._core`` before the lean right-hand side, on the oracles
    above: per-call constants, (1, 3) broadcasts and np.linalg.solve."""
    mav, adm, com = cfg.mav, cfg.adm, cfg.com
    u_mass, u_J, u_mpc, u_att, u_est, w = split_inputs(cfg, u)
    p_i, v_i = old_attachment_kinematics(com, p, v, R, omega)
    ref_p = np.concatenate((p_ref[None], cfg.engage_points[1:] + z))
    ref_v = np.concatenate((w[None], zdot))
    F_cmd = (mav.K_P * (ref_p - p_i) + mav.K_D * (ref_v - v_i)
             + mav.m * GRAVITY * EZ)
    F_lag_in_w = old_saturate_thrust_command(F_cmd + u_mpc, mav)
    F_lag_in_P = np.einsum("ji,nj->ni", R, F_lag_in_w)
    dF_prop = (F_lag_in_P - F_prop) / mav.tau_thrust
    F_cons_P = F_prop + u_att
    F_cons_w = np.einsum("ij,nj->ni", R, F_cons_P)
    v_dot, omega_dot = old_payload_accel(com, cfg.payload.drag_F,
                                         cfg.payload.drag_M, R, v, omega,
                                         F_cons_w, F_cons_P)
    v_dot = v_dot - cfg.w_mass * u_mass
    omega_dot = omega_dot - cfg.G_inertia @ u_J
    a_i = old_attachment_accel(com, R, omega, v_dot, omega_dot)
    F_int = mav.m * (a_i[1:] + GRAVITY * EZ) - F_cons_w[1:]
    dF_hat = (F_int - F_hat) / mav.tau_est
    F_used = F_hat + u_est - cfg.F_int_trim[None, :]
    dzdot = (F_used - adm.C[None, :] * zdot - adm.K[None, :] * z) \
        / adm.M[None, :]
    outputs = (v_dot + GRAVITY * EZ, omega_dot, F_cmd, F_prop, F_hat,
               F_cons_P[:, :2], v, p)
    return (v_dot, omega_dot, w, dF_prop, dF_hat, zdot, dzdot), outputs


def old_pack_state(p, v, q, omega, p_ref, F_prop, F_hat, z, zdot):
    return np.concatenate([p, v, q, omega, p_ref, np.reshape(F_prop, -1),
                           np.hstack([F_hat, z, zdot]).reshape(-1)])


def old_full_rhs(cfg, x, u):
    p, v, q, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(cfg, x)
    der, _ = old_core(cfg, quat_to_rotmat(q), p, v, omega, p_ref, F_prop,
                      F_hat, z, zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    return old_pack_state(v, v_dot, quat_rate(q, omega), omega_dot, dp_ref,
                          dF_prop, dF_hat, dz, dzdot)


def old_chart_rhs_out(cfg, xc, u, q_ref):
    p, v, theta, omega, p_ref, F_prop, F_hat, z, zdot = unpack_state(
        cfg, xc, n_att=3)
    R = quat_to_rotmat(q_ref) @ rotvec_to_rotmat(theta)
    der, outputs = old_core(cfg, R, p, v, omega, p_ref, F_prop, F_hat, z,
                            zdot, u)
    v_dot, omega_dot, dp_ref, dF_prop, dF_hat, dz, dzdot = der
    dtheta = omega + 0.5 * old_cross3(theta, omega)
    return (old_pack_state(v, v_dot, dtheta, omega_dot, dp_ref, dF_prop,
                           dF_hat, dz, dzdot),
            np.concatenate([np.reshape(y, -1) for y in outputs]))


def old_saturate_thrust_command(F_cmd_W, params):
    F = np.asarray(F_cmd_W)
    # the deleted MavParams.lateral_force_max
    lat = np.array(
        [np.sin(params.phi_cmd_max) * params.F_prop_max,
         np.sin(params.theta_cmd_max) * params.F_prop_max]
    )
    lo = np.array([-lat[0], -lat[1], 0.0])
    hi = np.array([lat[0], lat[1], params.F_prop_max])
    out = np.where(F.real < lo, lo.astype(F.dtype), F)
    out = np.where(out.real > hi, hi.astype(F.dtype), out)
    return out


def old_rotmat_to_quat(R):
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = np.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(R)))
        if i == 0:
            s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            x = 0.25 * s
            y = (R[0, 1] + R[1, 0]) / s
            z = (R[0, 2] + R[2, 0]) / s
            w = (R[2, 1] - R[1, 2]) / s
        elif i == 1:
            s = np.sqrt(1.0 - R[0, 0] + R[1, 1] - R[2, 2]) * 2.0
            x = (R[0, 1] + R[1, 0]) / s
            y = 0.25 * s
            z = (R[1, 2] + R[2, 1]) / s
            w = (R[0, 2] - R[2, 0]) / s
        else:
            s = np.sqrt(1.0 - R[0, 0] - R[1, 1] + R[2, 2]) * 2.0
            x = (R[0, 2] + R[2, 0]) / s
            y = (R[1, 2] + R[2, 1]) / s
            z = 0.25 * s
            w = (R[1, 0] - R[0, 1]) / s
    q = np.array([x, y, z, w])
    if q[3] < 0.0:
        q = -q
    return quat_normalize(q)


def old_translational_dynamics(R, v, F_prop, drag, F_ext, params):
    f_b = np.array([0.0, 0.0, F_prop]) - drag * (R.T @ v)
    return R @ f_b / params.m + np.asarray(F_ext) / params.m - GRAVITY * EZ


def old_rk4_step(rhs, t, x, h):
    k1 = rhs(t, *x)
    k2 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k1)])
    k3 = rhs(t + 0.5 * h, *[xi + 0.5 * h * ki for xi, ki in zip(x, k2)])
    k4 = rhs(t + h, *[xi + h * ki for xi, ki in zip(x, k3)])
    return [xi + h / 6 * (a + 2 * b + 2 * c + d)
            for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


# ---------------------------------------------------------------- strategies

# both signed zeros, subnormals and magnitudes up to 1e3
FINITE = st.floats(-1e3, 1e3, allow_nan=False)
# imaginary parts: a complex-step perturbation, signed zeros, or anything
IMAG = st.one_of(st.sampled_from([0.0, -0.0, 1e-100, -1e-100]), FINITE)


def reals(shape, elements=FINITE):
    return hnp.arrays(np.float64, shape, elements=elements)


@st.composite
def states(draw, shape, complex_step):
    re = draw(reals(shape))
    if not complex_step:
        return re
    z = np.empty(shape, dtype=complex)
    z.real = re
    z.imag = draw(reals(shape, IMAG))
    return z


@st.composite
def rigid_bodies(draw):
    """A composite body of 1-6 agents with nonzero payload drag, and a
    flag: complex-step inputs or real ones."""
    n = draw(st.integers(1, 6))
    payload = PayloadParams(
        m_p=draw(st.floats(0.1, 5.0)),
        J_p=draw(reals(3, st.floats(0.01, 1.0))),
        attachments=draw(reals((n, 3), st.floats(-2.0, 2.0))),
        drag_F=draw(reals(3, st.floats(0.01, 2.0))),
        drag_M=draw(reals(3, st.floats(0.01, 2.0))))
    com = com_system(payload, draw(reals(n, st.floats(0.5, 5.0))))
    return payload, com, draw(st.booleans())


def same_bits(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# -------------------------------------------------------------------- tests

@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_payload_accel_bits(body, data):
    payload, com, cs = body
    n = com.attachments.shape[0]
    R, v, w, Fw, FP = (data.draw(states(s, cs))
                       for s in ((3, 3), 3, 3, (n, 3), (n, 3)))
    got = payload_accel(com, payload.drag_F, payload.drag_M, R, v, w, Fw, FP)
    ref = old_payload_accel(com, payload.drag_F, payload.drag_M, R, v, w,
                            Fw, FP)
    for g, r in zip(got, ref):
        same_bits(g, r)


@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_solve1_is_np_linalg_solve(body, data):
    # payload_accel's J_sys solve calls the gufunc behind np.linalg.solve;
    # this fails first if a numpy release moves or changes it
    _, com, cs = body
    b = data.draw(states(3, cs))
    same_bits(solve1(com.J_sys, b), np.linalg.solve(com.J_sys, b))


@settings(max_examples=150, deadline=None)
@given(rigid_bodies(), st.data())
def test_attachment_kernels_bits(body, data):
    _, com, cs = body
    R, p, v, w, vdot, wdot = (data.draw(states(s, cs))
                              for s in ((3, 3), 3, 3, 3, 3, 3))
    p_i, v_i, w_x_r = attachment_kinematics(com, p, v, R, w)
    for g, r in zip((p_i, v_i), old_attachment_kinematics(com, p, v, R, w)):
        same_bits(g, r)
    same_bits(w_x_r, old_cross3(w, com.attachments))
    same_bits(attachment_accel(com, R, w, w_x_r, vdot, wdot),
              old_attachment_accel(com, R, w, vdot, wdot))


# operand shape pairs of the kernels: one vector against rows, rows against
# rows, the (2, 1, 3) x (2, N, 3) stacking, and vector against vector
CROSS_SHAPES = [((3,), (4, 3)), ((5, 3), (5, 3)), ((2, 1, 3), (2, 3, 3)),
                ((3,), (3,)), ((6, 3), (3,)), ((2, 5, 3), (2, 5, 3))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CROSS_SHAPES), st.booleans(), st.booleans(),
       st.data())
def test_cross3_bits(shapes, cs_a, cs_b, data):
    # the cyclic-shift cross3 against the component formula and np.cross,
    # on real, complex-step and mixed operands
    a = data.draw(states(shapes[0], cs_a))
    b = data.draw(states(shapes[1], cs_b))
    got = cross3(a, b)
    same_bits(got, old_cross3(a, b))
    same_bits(got, np.cross(a, b))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.data())
def test_stacked_cross3_rows_are_single_calls(n, cs, data):
    # the two stackings the payload kernels use
    att = data.draw(reals((n, 3)))
    w, wdot, Jw = (data.draw(states(3, cs)) for _ in range(3))
    w_x_r, FP = (data.draw(states((n, 3), cs)) for _ in range(2))
    wdot_x_r, w_x_w_x_r = cross3(np.array((wdot, w))[:, None],
                                 np.array((att, w_x_r)))
    same_bits(wdot_x_r, cross3(wdot, att))
    same_bits(w_x_w_x_r, cross3(w, w_x_r))
    c = cross3(np.concatenate((att, w[None])), np.concatenate((FP, Jw[None])))
    same_bits(c[:-1], cross3(att, FP))
    same_bits(c[-1], cross3(w, Jw))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4,), (1, 4), (5, 4), (2, 3, 4)]), st.data())
def test_quat_to_rotmat_bits(shape, data):
    q = data.draw(reals(shape, st.floats(-1.0, 1.0)))
    R = quat_to_rotmat(q)
    same_bits(R, old_quat_to_rotmat(q))
    # the single-quaternion form gives each row of the stacked one
    for idx in np.ndindex(shape[:-1]):
        same_bits(quat_to_rotmat(q[idx]), R[idx])


# half turns about each axis: trace -1, one diagonal entry +1 (the three
# trace <= 0 branches), and the same turns slightly short of and past pi
HALF_TURNS = [np.append(np.sin(0.5 * a) * axis, np.cos(0.5 * a))
              for axis in np.eye(3) for a in (np.pi - 1e-3, np.pi, np.pi + 0.3)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(4,), (1, 4), (6, 4), (2, 5, 4)]), st.data())
def test_rotmat_to_quat_bits(shape, data):
    q = data.draw(reals(shape, st.floats(-1.0, 1.0)))
    # rotation matrices only: unit quaternions, some of them half turns
    q = q.reshape(-1, 4).copy()
    for k in range(len(q)):
        if data.draw(st.booleans()) or np.dot(q[k], q[k]) < 1e-6:
            q[k] = data.draw(st.sampled_from(HALF_TURNS))
    q = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    R = quat_to_rotmat(q.reshape(shape))
    got = rotmat_to_quat(R)
    assert got.shape == shape
    # each row has the bits of its own call and of the earlier formula
    for idx in np.ndindex(shape[:-1]):
        same_bits(got[idx], old_rotmat_to_quat(R[idx]))
        same_bits(rotmat_to_quat(R[idx]), got[idx])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.booleans(), st.data())
def test_translational_dynamics_bits(n, cs, data):
    params = MavParams()
    # the EKF's complex-step inputs are complex states with a real thrust
    R, v, F_ext = (data.draw(states(s, cs)) for s in ((n, 3, 3), (n, 3),
                                                      (n, 3)))
    F_prop = data.draw(reals(n))
    drag = data.draw(reals(3, st.floats(0.0, 1.0)))
    got = translational_dynamics(R, v, F_prop, drag, F_ext, params)
    for k in range(n):
        ref = old_translational_dynamics(R[k], v[k], F_prop[k], drag,
                                         F_ext[k], params)
        same_bits(got[k], ref)
        same_bits(translational_dynamics(R[k], v[k], F_prop[k], drag,
                                         F_ext[k], params), ref)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3,), (1, 3), (4, 3), (8, 3), (2, 5, 3)]), st.data())
def test_euler_body_z_bits(shape, data):
    eta = data.draw(reals(shape, st.floats(-4.0, 4.0)))
    same_bits(euler_body_z(eta), old_euler_body_z(eta))


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(1.0, 200.0),
       st.sampled_from([(3,), (1, 3), (6, 3)]), st.booleans(), st.data())
def test_saturate_thrust_command_bits(phi_max, theta_max, F_max, shape, cs,
                                      data):
    params = MavParams(phi_cmd_max=phi_max, theta_cmd_max=theta_max,
                       F_prop_max=F_max)
    # commands on, inside and outside the bounds
    bounds = np.concatenate([params.thrust_lo, params.thrust_hi]).tolist()
    F = data.draw(states(shape, cs)) if data.draw(st.booleans()) else \
        data.draw(reals(shape, st.sampled_from(bounds + [0.0, -0.0])))
    same_bits(saturate_thrust_command(F, params),
              old_saturate_thrust_command(F, params))


@settings(max_examples=100, deadline=None)
@given(reals(3, st.floats(-2.0, 2.0)), reals((2, 3), st.floats(-2.0, 2.0)),
       st.floats(0.0, 10.0), st.floats(1e-4, 0.1))
def test_flat_rk4_step_bits(a, b, t, h):
    # a nonlinear right-hand side on the parts (a, b) and on one flat array
    def parts_rhs(t_, a_, b_):
        return np.sin(b_[0]) * a_ + t_, a_ * b_ - np.cos(b_)

    def flat_rhs(t_, x_):
        da, db = parts_rhs(t_, x_[:3], x_[3:].reshape(2, 3))
        return np.concatenate((da, db.ravel()))

    got = rk4_step(flat_rhs, t, np.concatenate((a, b.ravel())), h)
    ref = old_rk4_step(parts_rhs, t, (a, b), h)
    same_bits(got, np.concatenate((ref[0], ref[1].ravel())))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.floats(0.5, 20.0), st.floats(0.5, 20.0),
       st.booleans(), st.data())
def test_analysis_rhs_bits(n, M, C, cs, data):
    # full_rhs (real: the pre-roll) and chart_rhs_out (real and complex
    # step: the Jacobians) against the frozen earlier _core
    cfg = AnalysisConfig(n_agents=n, tuning_M=M, tuning_C=C)
    nx = 16 + 3 * n + 9 * (n - 1)
    small = st.floats(-10.0, 10.0, allow_nan=False)
    x = data.draw(reals(nx, small))
    u = data.draw(reals(cfg.n_inputs, small))
    same_bits(full_rhs(cfg, x, u), old_full_rhs(cfg, x, u))
    q_ref = data.draw(reals(4, st.floats(-1.0, 1.0)))
    xc, uc = x[:-1], u
    if cs:
        # imaginary parts of a size that keeps the chart's sin and cosh
        # finite
        step = st.one_of(st.sampled_from([0.0, -0.0, 1e-100, -1e-100]),
                         st.floats(-1.0, 1.0))
        xc = xc + 1j * data.draw(reals(nx - 1, step))
        uc = uc + 1j * data.draw(reals(cfg.n_inputs, step))
    for g, r in zip(chart_rhs_out(cfg, xc, uc, q_ref),
                    old_chart_rhs_out(cfg, xc, uc, q_ref)):
        same_bits(g, r)
